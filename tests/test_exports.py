import importlib
import inspect
import pkgutil

import pytest

import qstab

MODULES = ["qstab"] + [f"qstab.{info.name}" for info in pkgutil.iter_modules(qstab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # raises AttributeError for a name left in __all__ after its deletion
    exec(f"from {module} import *", {})


@pytest.mark.parametrize("module", MODULES[1:])
def test_every_exported_definition_lives_in_its_module(module):
    # one owner per public name: the package __init__ re-exports, but a
    # submodule exports only what it defines, so a move leaves no shim behind
    mod = importlib.import_module(module)
    for name in getattr(mod, "__all__", ()):
        obj = getattr(mod, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module, f"{module}.{name} is defined in {obj.__module__}"
