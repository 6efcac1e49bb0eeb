"""Formal power series for the non-quadratic perturbation Hamiltonian.

The perturbation f(z, z*) is stored as a sparse tensor of coefficients
S[i, j, k, l] on monomials z_i^k (z_j*)^l with channel indices 1 <= i, j <= p
and exponents k, l >= 0.  Formal differentiation treats z and z* as
independent variables.  Semiclassical evaluation replaces the operators by
complex numbers; operator-valued evaluation lives in the Fock-space module.
"""

from __future__ import annotations

import cmath
import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import StructureError

__all__ = [
    "PerturbationSeries",
    "SectorBounds",
    "validate_selfadjoint",
    "partial_z",
    "second_partial_z",
    "eval_semiclassical",
    "sector_margins",
    "scan_sector_region",
]

MAX_TOTAL_DEGREE = 16
SCAN_PHASES = 8

Key = tuple[int, int, int, int]


@dataclass(frozen=True)
class PerturbationSeries:
    """Sparse coefficient tensor of a polynomial in (z, z*).

    The key order (i, j, k, l) matches the monomial z_i^k (z_j*)^l exactly.
    Zero coefficients are dropped at construction; non-finite ones are rejected.
    """

    p: int
    coeffs: dict[Key, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.p < 1:
            raise StructureError(f"channel count must be positive, got {self.p}")
        clean: dict[Key, complex] = {}
        for key, value in self.coeffs.items():
            i, j, k, l = key
            if not (1 <= i <= self.p and 1 <= j <= self.p):
                raise StructureError(f"channel index out of range in key {key}")
            if k < 0 or l < 0:
                raise StructureError(f"negative exponent in key {key}")
            if k + l > MAX_TOTAL_DEGREE:
                raise StructureError(
                    f"total degree {k + l} of key {key} exceeds cap {MAX_TOTAL_DEGREE}"
                )
            c = complex(value)
            if not cmath.isfinite(c):
                raise StructureError(f"coefficient {value} of key {key} is not finite")
            if c != 0:
                clean[(int(i), int(j), int(k), int(l))] = c
        object.__setattr__(self, "coeffs", clean)

    def coeff(self, i: int, j: int, k: int, l: int) -> complex:
        return self.coeffs.get((i, j, k, l), 0j)

    @property
    def total_degree(self) -> int:
        return max((k + l for (_, _, k, l) in self.coeffs), default=0)

    def __add__(self, other: "PerturbationSeries") -> "PerturbationSeries":
        if other.p != self.p:
            raise StructureError("cannot add series with different channel counts")
        merged = dict(self.coeffs)
        for key, value in other.coeffs.items():
            merged[key] = merged.get(key, 0j) + value
        return PerturbationSeries(self.p, merged)

    def scale(self, factor: complex) -> "PerturbationSeries":
        return PerturbationSeries(
            self.p, {key: factor * value for key, value in self.coeffs.items()}
        )


@dataclass(frozen=True)
class SectorBounds:
    """Constants (gamma, delta1, delta2) of the sector conditions."""

    gamma: float
    delta1: float = 0.0
    delta2: float = 0.0

    def __post_init__(self):
        if not 0 < self.gamma < np.inf:
            raise StructureError(f"gamma must be positive and finite, got {self.gamma}")
        if not (0 <= self.delta1 < np.inf and 0 <= self.delta2 < np.inf):
            raise StructureError(
                f"delta1 and delta2 must be nonnegative and finite, "
                f"got {self.delta1} and {self.delta2}"
            )


def validate_selfadjoint(f: PerturbationSeries) -> list[tuple[Key, float]]:
    """Return the keys violating S[i,j,k,l] = conj(S[j,i,l,k]), with residuals.

    Absent coefficients count as zero.  Each violating pair is reported once,
    under its lexicographically smaller key.
    """
    violations = []
    seen = set()
    for key in f.coeffs:
        i, j, k, l = key
        mirror = (j, i, l, k)
        canon = min(key, mirror)
        if canon in seen:
            continue
        seen.add(canon)
        residual = abs(f.coeff(*key) - np.conj(f.coeff(*mirror)))
        if residual > 0:
            violations.append((canon, float(residual)))
    return violations


def _check_channel(f: PerturbationSeries, i: int) -> None:
    if not 1 <= i <= f.p:
        raise StructureError(f"channel index {i} out of range 1..{f.p}")


def partial_z(f: PerturbationSeries, i: int) -> PerturbationSeries:
    """Formal derivative with respect to z_i, with z and z* independent.

    Each stored term (i, j, k, l) with k >= 1 contributes k*S on the monomial
    z_i^(k-1) (z_j*)^l; everything else is dropped.  The same rule applies to
    mixed terms with j == i.
    """
    _check_channel(f, i)
    out: dict[Key, complex] = {}
    for (ii, j, k, l), c in f.coeffs.items():
        if ii != i or k == 0:
            continue
        key = (i, j, k - 1, l)
        out[key] = out.get(key, 0j) + k * c
    return PerturbationSeries(f.p, out)


def second_partial_z(f: PerturbationSeries, i: int) -> PerturbationSeries:
    """Formal second derivative with respect to z_i."""
    return partial_z(partial_z(f, i), i)


def eval_semiclassical(g: PerturbationSeries, z) -> complex | np.ndarray:
    """Evaluate the series at complex amplitudes, sum of c * z_i^k * conj(z_j)^l.

    z has shape (..., p); broadcasting over leading axes is supported and the
    result has the leading shape.
    """
    z = np.asarray(z, dtype=complex)
    if z.shape[-1] != g.p:
        raise StructureError(f"expected {g.p} channel amplitudes, got {z.shape[-1]}")
    total = np.zeros(z.shape[:-1], dtype=complex)
    zc = np.conj(z)
    for (i, j, k, l), c in g.coeffs.items():
        term = np.full(z.shape[:-1], c, dtype=complex)
        if k:
            term = term * z[..., i - 1] ** k
        if l:
            term = term * zc[..., j - 1] ** l
        total = total + term
    if total.ndim == 0:
        return complex(total)
    return total


def sector_margins(f: PerturbationSeries, bounds: SectorBounds, z) -> tuple:
    """Slack of the two semiclassical sector conditions at the point z.

    margin1 = (1/gamma^2) sum_i |z_i|^2 + delta1 - sum_i |df/dz_i(z)|^2
    margin2 = delta2 - sum_i |d2f/dz_i^2(z)|^2

    Both margins are >= 0 exactly when z satisfies the sector bounds.
    Accepts a batch of points with shape (..., p).
    """
    z = np.asarray(z, dtype=complex)
    grad_sq = np.zeros(z.shape[:-1])
    curv_sq = np.zeros(z.shape[:-1])
    for i in range(1, f.p + 1):
        grad_sq = grad_sq + np.abs(eval_semiclassical(partial_z(f, i), z)) ** 2
        curv_sq = curv_sq + np.abs(eval_semiclassical(second_partial_z(f, i), z)) ** 2
    margin1 = np.sum(np.abs(z) ** 2, axis=-1) / bounds.gamma**2 + bounds.delta1 - grad_sq
    margin2 = bounds.delta2 - curv_sq
    if margin1.ndim == 0:
        return float(margin1), float(margin2)
    return margin1, margin2


def _magnitude_terms(g: PerturbationSeries, radii: np.ndarray):
    """Per term c z_i^k (z_j*)^l: n = k e_i - l e_j, G = c r_i^k r_j^l; g = sum e^{i n.theta} G."""
    unit = np.eye(g.p, dtype=int)
    n = [k * unit[i - 1] - l * unit[j - 1] for i, j, k, l in g.coeffs]
    G = [c * radii[i - 1] ** k * radii[j - 1] ** l for (i, j, k, l), c in g.coeffs.items()]
    return np.array(n, dtype=int).reshape(-1, g.p), np.array(G)


def scan_sector_region(
    f: PerturbationSeries,
    bounds: SectorBounds,
    mag_sq_grids: list[np.ndarray] | tuple[np.ndarray, ...],
):
    """Worst-case sector margins over SCAN_PHASES phases, on a magnitude grid.

    ``mag_sq_grids`` holds one 1-D array of squared magnitudes |z_c|^2 per
    channel.  A cell is admissible iff both margins are >= 0 at every sampled
    phase combination for its magnitude tuple.  Exhaustive phase sampling
    limits this to p <= 2.

    Each df/dz_i and d2f/dz_i^2 is formed once and split into magnitude grids
    times phase weights (roots of unity), so a phase combination costs a few
    scalar-times-grid products, folded into a running minimum.

    Returns (mask, margin1, margin2), arrays with one axis per channel
    holding the admissibility flag and the phase-minimized margins.
    """
    if len(mag_sq_grids) != f.p:
        raise StructureError(f"expected {f.p} magnitude grids, got {len(mag_sq_grids)}")
    if f.p > 2:
        raise StructureError("exhaustive phase sampling is limited to p <= 2 channels")
    grids = [np.asarray(g, dtype=float) for g in mag_sq_grids]
    for g in grids:
        if g.size == 0:
            raise StructureError("magnitude grid with zero cells")
        if np.any(g < 0):
            raise StructureError("squared magnitudes must be nonnegative")
    mag_sq = np.meshgrid(*grids, indexing="ij")
    radii = np.sqrt(mag_sq)
    grad = [_magnitude_terms(partial_z(f, i), radii) for i in range(1, f.p + 1)]
    curv = [_magnitude_terms(second_partial_z(f, i), radii) for i in range(1, f.p + 1)]
    roots = np.exp(2j * np.pi * np.arange(SCAN_PHASES) / SCAN_PHASES)
    base1 = sum(mag_sq) / bounds.gamma**2 + bounds.delta1

    margin1 = np.full(radii[0].shape, np.inf)
    margin2 = np.full(radii[0].shape, np.inf)
    for m in itertools.product(range(SCAN_PHASES), repeat=f.p):
        grad_sq, curv_sq = (
            sum(np.abs(np.tensordot(roots[(n @ m) % SCAN_PHASES], G, 1)) ** 2 for n, G in terms)
            for terms in (grad, curv)
        )
        margin1 = np.minimum(margin1, base1 - grad_sq)
        margin2 = np.minimum(margin2, bounds.delta2 - curv_sq)
    mask = (margin1 >= 0) & (margin2 >= 0)
    return mask, margin1, margin2
