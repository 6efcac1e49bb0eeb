import pkgutil

import pytest

import qstab

MODULES = ["qstab"] + [f"qstab.{info.name}" for info in pkgutil.iter_modules(qstab.__path__)]


@pytest.mark.parametrize("module", MODULES)
def test_star_import_resolves_every_exported_name(module):
    # raises AttributeError for a name left in __all__ after its deletion
    exec(f"from {module} import *", {})
