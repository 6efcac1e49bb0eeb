"""JSON and CSV marshalling for systems, series, certificates and curves.

Complex scalars are encoded as two-element arrays [re, im]; complex matrices
as nested lists of such pairs.  All artifact writes go through a temp file
plus rename so consumers never observe a partial file.
"""

from __future__ import annotations

import json
import math
import numbers
import os
import tempfile
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


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


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
    matrix = np.asarray(matrix, dtype=complex)
    return [[complex_to_pair(entry) for entry in row] for row in matrix]


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
        "mu": [complex_to_pair(m) for m in cert.mu] if cert.mu is not None else None,
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


def _float_reprs(values: np.ndarray) -> np.ndarray:
    """Object array of ``repr(float(v))`` for each entry, one repr per distinct value.

    Values are told apart by bit pattern, so -0.0, 0.0 and NaN keep their own repr.
    """
    bits = values.view(np.int64)
    distinct = np.unique(bits)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return texts[np.searchsorted(distinct, bits)]


def scan_csv(grids, mask, margin1, margin2) -> str:
    """Admissibility mask and margins over a two-channel magnitude grid.

    One line per cell, row-major over (|z1|^2, |z2|^2), every float written as
    its repr.  Each margin column calls repr once per distinct value.
    """
    if len(grids) != 2:
        raise StructureError("scan CSV is defined for two channels")
    g1, g2 = (np.asarray(g, dtype=float) for g in grids)
    flags = np.asarray(mask, dtype=int)
    margins = [np.ascontiguousarray(m, dtype=float) for m in (margin1, margin2)]
    shapes = [g1.shape, g2.shape, flags.shape, *(m.shape for m in margins)]
    if g1.ndim != 1 or g2.ndim != 1 or any(s != g1.shape + g2.shape for s in shapes[2:]):
        raise StructureError(
            "scan CSV needs 1-D grids and (len(grid1), len(grid2)) arrays; got grids "
            "{} and {}, mask {}, margin1 {}, margin2 {}".format(*shapes)
        )
    t1, t2 = (list(map(repr, g.tolist())) for g in (g1, g2))
    blocks = ["|z1|^2,|z2|^2,admissible,margin1,margin2\n"]
    # one text block per grid row: holding all 10 000 line strings until one join
    # raises the peak by ~0.6 MB
    for a, *rows in zip(t1, flags, *map(_float_reprs, margins)):
        cells = zip(t2, *(row.tolist() for row in rows))
        blocks.append("".join([f"{a},{b},{flag},{x},{y}\n" for b, flag, x, y in cells]))
    return "".join(blocks)


def trajectory_csv(traj: FockTrajectory) -> str:
    if traj.bound is None or traj.slack is None:
        raise StructureError("trajectory must be bound-checked before serialization")
    lines = ["t,msq,bound,slack"]
    for t, m, b, s in zip(traj.times, traj.msq, traj.bound, traj.slack):
        lines.append(f"{float(t)!r},{float(m)!r},{float(b)!r},{float(s)!r}")
    return "\n".join(lines) + "\n"


def dump_json(doc: dict, path: str | Path) -> None:
    atomic_write_text(path, json.dumps(doc, indent=2) + "\n")
