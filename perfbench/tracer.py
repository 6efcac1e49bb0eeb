"""Span recorder that wraps the package's public functions from outside.

The program carries no instrumentation.  ``install`` replaces every public
function of the traced modules with a wrapper that records a span, and
rebinds it in every ``qstab`` namespace that imported the function by name
(``qstab.cli`` binds ``certify`` as ``run_certify``; ``qstab.focksim``
imports ``mu_constants``).  ``uninstall`` puts the originals back.

Spans live in memory until the run ends.  Each thread keeps its own stack;
a span opened on a thread with an empty stack (a sweep worker) attaches to
the innermost span open on the thread that started the current request, so
worker spans land under their request.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from statistics import median

TRACED_MODULES = ("model", "perturbation", "certify", "opa", "focksim", "serialize", "cli")

# Called once per region sample and ~20k times per invariant_ellipsoid; a
# span per call would cost more than the function and swamp its caller.
UNTRACED = frozenset({"opa.region_z2_cap"})


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    error: bool = False
    info: dict = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return 1e3 * (self.end - self.start)


# The spans whose ratios need a number from the call's inputs; only their
# wrappers bind the arguments.
ARGS_INFO = {
    "serialize.atomic_write_text": lambda args: {"bytes": len(str(args["text"]).encode())},
    "focksim.lindblad_evolve": lambda args: {"steps": max(1, int(round(args["t_final"] / args["dt"])))},
}


def _result_info(name: str, result) -> dict:
    if name == "certify.certify":
        return {"certified": bool(result.certified)}
    return {}


class Tracer:
    """Thread-safe in-memory span recorder."""

    def __init__(self):
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_stack: list[Span] | None = None
        self._rebound: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        else:
            outer = self._request_stack
            parent = outer[-1].id if outer else None
        with self._lock:
            span = Span(next(self._ids), parent, name, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def request(self, kind: str) -> Span:
        """Open the root span of one benchmark request on this thread."""
        span = self.open(f"request.{kind}")
        self._request_stack = self._stack()
        return span

    def end_request(self, span: Span) -> None:
        self.close(span)
        self._request_stack = None

    def _wrap(self, name: str, fn):
        tracer = self
        args_info = ARGS_INFO.get(name)
        signature = inspect.signature(fn) if args_info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            if args_info:
                span.info.update(args_info(signature.bind(*args, **kwargs).arguments))
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.close(span)
            span.info.update(_result_info(name, result))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions and rebind them wherever they are bound."""
        wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"qstab.{short}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                name = f"{short}.{attr}"
                if not inspect.isfunction(fn) or name in UNTRACED:
                    continue
                if fn.__module__ != module.__name__:
                    continue
                wrappers[id(fn)] = self._wrap(name, fn)
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "qstab" and not mod_name.startswith("qstab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
                    self._rebound.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._rebound):
            setattr(module, attr, original)
        self._rebound.clear()


def _median(values) -> float:
    values = list(values)
    return float(median(values)) if values else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals (children of one span may overlap)."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def layer_metrics(spans: list[Span], answer_kind: str, overhead_frac: float) -> dict:
    """Per-layer numbers from one traced run; 0 where a layer was not called.

    ``*.ms`` is the median wall time per call, ``*.self_ms`` excludes time
    covered by child spans, ``calls_per_certify`` counts descendant calls of
    certified ``certify`` calls (median over those calls), and
    ``calls_per_check`` counts descendants of ``check_commutator_identities``.
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append(span)

    def descendants(span: Span) -> list[Span]:
        out, todo = [], list(children[span.id])
        while todo:
            child = todo.pop()
            out.append(child)
            todo.extend(children[child.id])
        return out

    def ms(name: str) -> float:
        return _median(s.ms for s in by_name[name])

    def self_ms(name: str) -> float:
        return _median(
            s.ms - 1e3 * _covered([(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]])
            for s in by_name[name]
        )

    def calls_per(roots: list[Span], name: str) -> float:
        return _median(sum(d.name == name for d in descendants(r)) for r in roots)

    def time_inside(roots: list[Span], name: str) -> float:
        return sum(d.end - d.start for r in roots for d in descendants(r) if d.name == name)

    certified = [s for s in by_name["certify.certify"] if s.info.get("certified")]
    checks = by_name["focksim.check_commutator_identities"]
    qmi = by_name["certify.solve_qmi"]
    qmi_total = sum(s.end - s.start for s in qmi)
    answers = by_name[f"request.{answer_kind}"]
    answer_total = sum(s.end - s.start for s in answers)
    ellipsoid_inside = time_inside(answers, "opa.invariant_ellipsoid")
    sweeps = by_name["request.sweep"]
    evolves = by_name["focksim.lindblad_evolve"]
    return {
        "model.doubled_matrices.calls_per_certify": calls_per(certified, "model.doubled_matrices"),
        "certify.certify.ms": ms("certify.certify"),
        "certify.is_hurwitz.calls_per_certify": calls_per(certified, "certify.is_hurwitz"),
        "certify.hinf_condition.ms": ms("certify.hinf_condition"),
        "certify.hinf_norm.calls_per_certify": calls_per(certified, "certify.hinf_norm"),
        "certify.hinf_norm.self_ms": self_ms("certify.hinf_norm"),
        "certify.hinf_norm_grid.calls_per_certify": calls_per(certified, "certify.hinf_norm_grid"),
        "certify.hinf_norm_grid.ms": ms("certify.hinf_norm_grid"),
        "certify.solve_qmi.ms": ms("certify.solve_qmi"),
        "certify.solve_qmi.error_frac": sum(s.error for s in qmi) / len(qmi) if qmi else 0.0,
        "certify.solve_qmi.wasted_ms_frac": (
            sum(s.end - s.start for s in qmi if s.error) / qmi_total if qmi_total else 0.0
        ),
        "certify.certificate_constants.ms": ms("certify.certificate_constants"),
        "opa.invariant_ellipsoid.ms": ms("opa.invariant_ellipsoid"),
        "opa.invariant_ellipsoid.share": ellipsoid_inside / answer_total if answer_total else 0.0,
        "opa.region_curve.ms": ms("opa.region_curve"),
        "perturbation.scan_sector_region.ms": ms("perturbation.scan_sector_region"),
        "focksim.build_algebra.ms": ms("focksim.build_algebra"),
        "focksim.lindblad_evolve.ms": ms("focksim.lindblad_evolve"),
        "focksim.lindblad_evolve.ms_per_step": _median(s.ms / s.info["steps"] for s in evolves),
        "focksim.check_ms_bound.ms": ms("focksim.check_ms_bound"),
        "focksim.check_commutator_identities.self_ms": self_ms("focksim.check_commutator_identities"),
        "focksim.quadratic_form.calls_per_check": calls_per(checks, "focksim.quadratic_form"),
        "focksim.quadratic_form.ms": ms("focksim.quadratic_form"),
        "focksim.operator_of_series.calls_per_check": calls_per(checks, "focksim.operator_of_series"),
        "focksim.operator_of_series.ms": ms("focksim.operator_of_series"),
        "serialize.certificate_to_json.ms": ms("serialize.certificate_to_json"),
        "serialize.atomic_write_text.ms": ms("serialize.atomic_write_text"),
        "serialize.atomic_write_text.bytes": _median(
            s.info["bytes"] for s in by_name["serialize.atomic_write_text"]
        ),
        "serialize.trajectory_csv.ms": ms("serialize.trajectory_csv"),
        "cli.run.self_ms": self_ms("cli.run"),
        "cli.sweep.concurrency": _median(
            time_inside([s], "certify.certify") / (s.end - s.start) for s in sweeps
        ),
        "trace.overhead_frac": overhead_frac,
    }
