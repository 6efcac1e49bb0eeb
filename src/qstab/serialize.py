"""JSON and CSV marshalling for systems, series, certificates and curves.

Complex scalars are encoded as two-element arrays [re, im]; complex matrices
as nested lists of such pairs.  All artifact writes go through a temp file
plus rename so consumers never observe a partial file.
"""

from __future__ import annotations

import itertools
import json
import math
import numbers
import os
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .certify import StabilityCertificate, Verdict
from .errors import StructureError
from .model import LinearQuantumSystem
from .perturbation import PerturbationSeries

if TYPE_CHECKING:
    from .focksim import FockTrajectory

__all__ = [
    "atomic_write_text",
    "json_number",
    "complex_to_pair",
    "pair_to_complex",
    "matrix_to_json",
    "matrix_from_json",
    "system_to_json",
    "system_from_json",
    "series_to_json",
    "series_from_json",
    "certificate_to_json",
    "certificate_from_json",
    "region_csv",
    "scan_csv",
    "trajectory_csv",
]


# Temp files are named from the pid at import and a counter.  O_EXCL refuses
# a name that exists already, as one can after a fork, and the next is tried.
_PID = os.getpid()
_TEMP_NAMES = itertools.count()


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write ``text``, encoded as UTF-8, to ``path`` through a temp file in the
    same directory and a rename.  The temp file is created as ``open()``
    creates a file (mode 0666 less the umask), so the artifact gets the same
    mode as any new file there.  A missing parent directory is created.
    Writing a new artifact takes four system calls: open, write, close and
    rename."""
    parent, name = os.path.split(os.fspath(path))
    tmp, fd = _create_temp(parent, name)
    try:
        try:
            unwritten = memoryview(text.encode())
            while unwritten:
                unwritten = unwritten[os.write(fd, unwritten) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _create_temp(parent: str, name: str) -> tuple[str, int]:
    """A new temp file next to ``name`` in ``parent``, opened for writing,
    and its path; ``parent`` is created if the first try finds it missing."""
    made = False
    while True:
        tmp = os.path.join(parent, f"{name}.{_PID}.{next(_TEMP_NAMES)}.tmp")
        try:
            return tmp, os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            continue
        except FileNotFoundError:
            if made or not parent:
                raise
            os.makedirs(parent, exist_ok=True)
            made = True


def json_number(value, kind=float):
    """``kind(value)`` for a JSON number; a string, boolean or null is refused,
    and so are a value that is not integral where ``kind`` is int and an
    integer literal beyond the float range."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise StructureError(f"expected a number, got {json.dumps(value, default=repr)}")
    if kind is int and not (isinstance(value, numbers.Integral) or value.is_integer()):
        raise StructureError(f"expected an integer, got {value!r}")
    try:
        return kind(value)
    except OverflowError as exc:
        raise StructureError(f"number out of range: {value!r}") from exc


def complex_to_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def pair_to_complex(pair) -> complex:
    if not isinstance(pair, (list, tuple)) or len(pair) != 2:
        raise StructureError(f"complex entries must be [re, im] pairs, got {pair!r}")
    return complex(json_number(pair[0]), json_number(pair[1]))


def matrix_to_json(matrix: np.ndarray) -> list:
    """Nested lists of [re, im] pairs, the same floats (and signed zeros) as
    ``complex_to_pair`` gives entry by entry."""
    matrix = np.ascontiguousarray(matrix, dtype=complex)
    return matrix.view(float).reshape(matrix.shape + (2,)).tolist()


def matrix_from_json(data) -> np.ndarray:
    try:
        return np.array(
            [[pair_to_complex(entry) for entry in row] for row in data], dtype=complex
        )
    except (TypeError, ValueError) as exc:
        raise StructureError(
            f"matrices must be nested lists of [re, im] pairs: {exc}"
        ) from exc


_SYSTEM_BLOCKS = ("M1", "M2", "N1", "N2", "E1", "E2")


def system_to_json(sys: LinearQuantumSystem) -> dict:
    doc = {"n": sys.n, "m": sys.m, "p": sys.p}
    for name in _SYSTEM_BLOCKS:
        doc[name] = matrix_to_json(getattr(sys, name))
    return doc


def system_from_json(doc: dict) -> LinearQuantumSystem:
    if not isinstance(doc, dict):
        raise StructureError(f"system document must be an object, got {doc!r}")
    missing = [name for name in _SYSTEM_BLOCKS if name not in doc]
    if missing:
        raise StructureError(f"system document missing blocks: {', '.join(missing)}")
    blocks = {name: matrix_from_json(doc[name]) for name in _SYSTEM_BLOCKS}
    return LinearQuantumSystem(**blocks)


def series_to_json(series: PerturbationSeries) -> dict:
    terms = [
        {"i": i, "j": j, "k": k, "l": l, "re": c.real, "im": c.imag}
        for (i, j, k, l), c in sorted(series.coeffs.items())
    ]
    return {"p": series.p, "terms": terms}


def series_from_json(doc: dict) -> PerturbationSeries:
    if not isinstance(doc, dict) or "p" not in doc or "terms" not in doc:
        raise StructureError("series document must be an object with 'p' and 'terms'")
    if not isinstance(doc["terms"], list):
        raise StructureError(f"series 'terms' must be a list, got {doc['terms']!r}")
    try:
        p = json_number(doc["p"], int)
    except StructureError as exc:
        raise StructureError(f"series 'p' must be an integer, got {doc['p']!r}") from exc
    coeffs = {}
    for term in doc["terms"]:
        try:
            key = tuple(json_number(term[name], int) for name in "ijkl")
            value = complex(json_number(term["re"]), json_number(term.get("im", 0.0)))
        except (KeyError, TypeError, StructureError) as exc:
            raise StructureError(f"malformed series term {term!r}") from exc
        coeffs[key] = coeffs.get(key, 0j) + value
    return PerturbationSeries(p=p, coeffs=coeffs)


def _scalar(value):
    if value is None:
        return None
    value = float(value)
    return value if math.isfinite(value) else None


def certificate_to_json(cert: StabilityCertificate) -> dict:
    doc = {
        "verdict": cert.verdict.value,
        "gamma": cert.gamma,
        "abscissa": cert.abscissa,
        "hinf_primary": _scalar(cert.hinf_primary),
        "hinf_reduced": _scalar(cert.hinf_reduced),
        "F": matrix_to_json(cert.F),
        "P": matrix_to_json(cert.P) if cert.P is not None else None,
        "mu": matrix_to_json(cert.mu) if cert.mu is not None else None,
        "lambda_tilde": cert.lambda_tilde,
        "lambda": cert.lam,
        "c": cert.c,
        "c1": cert.c1,
        "c2": cert.c2,
        "c3": cert.c3,
        "eps": cert.eps,
    }
    if cert.invariant_level is not None:
        doc["invariant_level"] = cert.invariant_level
    return doc


def certificate_from_json(doc: dict) -> StabilityCertificate:
    hinf_primary = doc.get("hinf_primary")
    hinf_reduced = doc.get("hinf_reduced")
    return StabilityCertificate(
        verdict=Verdict(doc["verdict"]),
        gamma=float(doc["gamma"]),
        F=matrix_from_json(doc["F"]),
        abscissa=float(doc["abscissa"]),
        hinf_primary=math.inf if hinf_primary is None else float(hinf_primary),
        hinf_reduced=math.inf if hinf_reduced is None else float(hinf_reduced),
        P=matrix_from_json(doc["P"]) if doc.get("P") is not None else None,
        mu=(
            np.array([pair_to_complex(m) for m in doc["mu"]])
            if doc.get("mu") is not None
            else None
        ),
        lambda_tilde=doc.get("lambda_tilde"),
        lam=doc.get("lambda"),
        c=doc.get("c"),
        c1=doc.get("c1"),
        c2=doc.get("c2"),
        c3=doc.get("c3"),
        eps=doc.get("eps"),
        invariant_level=doc.get("invariant_level"),
    )


def region_csv(rows) -> str:
    """The (z1sq, cap, active) rows of ``opa.region_curve``, floats as their repr."""
    lines = ["z1sq,z2sq_cap,active_constraint"]
    for z1sq, cap, active in rows:
        lines.append(f"{float(z1sq)!r},{float(cap)!r},{active}")
    return "\n".join(lines) + "\n"


def scan_csv(grids, mask) -> str:
    """Admissibility mask over a two-channel magnitude grid: one line per
    cell, row-major over (|z1|^2, |z2|^2), each grid value written as its
    repr.  A grid row is one join of its "|z1|^2," with the "|z2|^2,flag" tails."""
    if len(grids) != 2:
        raise StructureError("scan CSV is defined for two channels")
    g1, g2 = (np.asarray(g, dtype=float) for g in grids)
    flags = np.asarray(mask, dtype=bool)
    if g1.ndim != 1 or g2.ndim != 1 or flags.shape != g1.shape + g2.shape:
        raise StructureError(
            "scan CSV needs 1-D grids and a (len(grid1), len(grid2)) mask; got grids "
            f"{g1.shape} and {g2.shape}, mask {flags.shape}"
        )
    t2 = list(map(repr, g2.tolist()))
    zeros, ones = (np.array([f"{b},{flag}\n" for b in t2], dtype=object) for flag in (0, 1))
    blocks = ["|z1|^2,|z2|^2,admissible\n"]
    for a, row in zip(g1.tolist(), flags):
        lead = f"{a!r},"
        blocks.append(lead.join(["", *np.where(row, ones, zeros).tolist()]))
    return "".join(blocks)


def trajectory_csv(traj: FockTrajectory) -> str:
    if traj.bound is None or traj.slack is None:
        raise StructureError("trajectory must be bound-checked before serialization")
    lines = ["t,msq,bound,slack"]
    for t, m, b, s in zip(traj.times, traj.msq, traj.bound, traj.slack):
        lines.append(f"{float(t)!r},{float(m)!r},{float(b)!r},{float(s)!r}")
    return "\n".join(lines) + "\n"


def _indented(node, pad: str = "") -> str:
    """``json.dumps(node, indent=2)`` with ``pad`` after every newline, as the
    node reads nested at that depth.

    json takes its pure-Python encoder whenever ``indent`` is given; this
    renders strings, finite floats, None, lists, tuples and str-keyed dicts
    directly, and a list of finite [re, im] pairs with one f-string per
    pair.  Any other node is left to json: JSON text holds no raw newline,
    so padding its newlines nests it exactly.
    """
    kind = type(node)
    if kind is str:
        return encode_basestring_ascii(node)
    elif isinstance(node, float):
        if math.isfinite(node):
            return float.__repr__(node)
    elif node is None:
        return "null"
    elif kind is list or kind is tuple:
        if not node:
            return "[]"
        inner = pad + "  "
        items = []
        for item in node:
            if type(item) is list and len(item) == 2:
                re, im = item
                if type(re) is type(im) is float and math.isfinite(re) and math.isfinite(im):
                    items.append(f"[\n{inner}  {re!r},\n{inner}  {im!r}\n{inner}]")
                    continue
            items.append(_indented(item, inner))
        return "[\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "]"
    elif kind is dict and all(type(key) is str for key in node):
        if not node:
            return "{}"
        inner = pad + "  "
        items = [
            f"{encode_basestring_ascii(key)}: {_indented(value, inner)}"
            for key, value in node.items()
        ]
        return "{\n" + inner + (",\n" + inner).join(items) + "\n" + pad + "}"
    return json.dumps(node, indent=2).replace("\n", "\n" + pad)


def dump_json(doc: dict, path: str | Path) -> None:
    atomic_write_text(path, _indented(doc) + "\n")
