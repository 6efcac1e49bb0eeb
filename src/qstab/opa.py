"""Optical parametric amplifier: model construction and closed-form analysis.

An OPA couples a fundamental cavity mode a1 and a second-harmonic mode a2
through a chi(2) medium.  The interaction Hamiltonian
i*chi*(a2' a1^2 - a1'^2 a2) is cubic, so the stability analysis goes through
the sector-bounded perturbation machinery with z1 = a1', z2 = a2'.  This
module provides the closed-form small-gain norm and the admissible region
of mode amplitudes on which the sector bounds hold (``opa_region``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import StructureError
from .model import LinearQuantumSystem
from .perturbation import PerturbationSeries, SectorBounds

__all__ = [
    "OpaParams",
    "OpaRegion",
    "LambdaBar",
    "opa_region",
    "build_opa",
    "closed_form_hinf",
    "region_curve",
    "scan_disagreements",
    "invariant_ellipsoid",
]


@dataclass(frozen=True)
class OpaParams:
    """Mirror couplings (1/time) and chi(2) interaction strength."""

    kappa1: float
    kappa2: float
    chi: float

    def __post_init__(self):
        for name in ("kappa1", "kappa2", "chi"):
            if not getattr(self, name) > 0:
                raise StructureError(f"{name} must be strictly positive")


def build_opa(params: OpaParams) -> tuple[LinearQuantumSystem, PerturbationSeries]:
    """Two-mode system with diagonal damping and the cubic chi(2) interaction.

    The interaction written in the channel operators z_i = a_i' is
    i*chi*(z2 (z1*)^2 - z1^2 z2*), i.e. coefficients S[2,1,1,2] = i*chi and
    S[1,2,2,1] = -i*chi.
    """
    zero = np.zeros((2, 2))
    sys = LinearQuantumSystem(
        M1=zero,
        M2=zero,
        N1=np.diag([math.sqrt(params.kappa1), math.sqrt(params.kappa2)]),
        N2=zero,
        E1=zero,
        E2=np.eye(2),
    )
    series = PerturbationSeries(
        p=2,
        coeffs={(2, 1, 1, 2): 1j * params.chi, (1, 2, 2, 1): -1j * params.chi},
    )
    return sys, series


def closed_form_hinf(params: OpaParams) -> float:
    """H-infinity norm of the damping transfer function: max(2/k1, 2/k2)."""
    return max(2.0 / params.kappa1, 2.0 / params.kappa2)


@dataclass(frozen=True)
class LambdaBar:
    """Right endpoint of the admissible interval in |z1|^2, both readings.

    ``caption`` is 1/(2 g^2 c^2) + sqrt(1/(4 g^4 c^4) + delta1); ``root`` is
    the root of the gradient-bound numerator,
    1/(2 g^2 c^2) + sqrt(1/(4 g^4 c^4) + delta1/chi^2).  They coincide at
    delta1 = 0 and disagree otherwise; the discrepancy is surfaced, not
    resolved, and the region code uses ``root``.
    """

    caption: float
    root: float

    @property
    def discrepancy(self) -> float:
        return abs(self.caption - self.root)


@dataclass(frozen=True)
class OpaRegion:
    """Admissible region {0 <= u <= lambda_bar.root, 0 <= v <= cap(u)} of the OPA.

    u = |z1|^2 and v = |z2|^2; the sector bounds hold exactly there.  The
    curvature ceiling, ``lambda_bar`` and ``cap`` are all read from the
    closed form.  ``certify`` builds it with ``opa_region`` from the system
    and series it is given, and records the invariant level it bounds.
    """

    params: OpaParams
    bounds: SectorBounds

    @property
    def ceiling(self) -> float:
        return self.bounds.delta2 / (4.0 * self.params.chi**2)

    @cached_property
    def lambda_bar(self) -> LambdaBar:
        g2c2 = self.bounds.gamma**2 * self.params.chi**2
        half = 1.0 / (2.0 * g2c2)
        caption = half + math.sqrt(half**2 + self.bounds.delta1)
        root = half + math.sqrt(half**2 + self.bounds.delta1 / self.params.chi**2)
        return LambdaBar(caption=caption, root=root)

    def cap(self, z1sq):
        """Largest admissible |z2|^2 at the given |z1|^2, elementwise over an
        array (a float for a scalar).

        Below the knee |z1|^2 = 1/(4 gamma^2 chi^2) the gradient bound holds
        for every |z2|^2 and only the ceiling delta2/(4 chi^2) is active.
        Beyond the knee the gradient bound gives

            |z2|^2 <= (delta1/chi^2 + |z1|^2/(gamma^2 chi^2) - |z1|^4)
                      / (4 |z1|^2 - 1/(gamma^2 chi^2)),

        combined with the ceiling and clamped at zero, the cap beyond
        lambda_bar.  A negative or NaN |z1|^2 raises StructureError.
        """
        u = np.asarray(z1sq, dtype=float)
        if not (u >= 0).all():
            bad = u[~(u >= 0)][0] if u.ndim else z1sq
            raise StructureError(f"|z1|^2 must be a nonnegative number, got {bad}")
        chi2 = self.params.chi**2
        b = 1.0 / (self.bounds.gamma**2 * chi2)
        ceiling = self.ceiling
        # the branch is read only on (b/4, lambda_bar], so an infinite u may make NaN
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            numer = self.bounds.delta1 / chi2 + u * b - np.float_power(u, 2)
            ratio = numer / (4.0 * u - b)
        # max(0.0, min(ratio, ceiling)) as Python evaluates it, NaN and -0.0 included
        branch = np.where(ceiling < ratio, ceiling, ratio)
        branch = np.where(branch > 0.0, branch, 0.0)
        cap = np.where(u <= b / 4.0, ceiling, np.where(u > self.lambda_bar.root, 0.0, branch))
        return cap if cap.ndim else float(cap)

    def contains(self, z1sq: float, z2sq: float, slack: float = 0.0) -> bool:
        """Membership widened by ``slack``; a NaN or negative coordinate is outside."""
        if not (0 <= z1sq <= self.lambda_bar.root + slack and z2sq >= 0):
            return False
        return z2sq <= self.cap(z1sq) + slack


def opa_region(
    sys: LinearQuantumSystem, series: PerturbationSeries | None, bounds: SectorBounds
) -> OpaRegion | None:
    """The admissible region at the given bounds of an OPA system and series:
    a system with the OPA's structure (``sys.opa_kappa``), two damped modes
    and exactly the series {S[2,1,1,2] = i chi, S[1,2,2,1] = -i chi}, chi > 0.
    None for any other system or series."""
    kappa = sys.opa_kappa
    chi = 0.0 if series is None else series.coeff(2, 1, 1, 2).imag
    chi2 = PerturbationSeries(2, {(2, 1, 1, 2): 1j * chi, (1, 2, 2, 1): -1j * chi})
    if kappa is None or sys.n != 2 or not kappa.all() or not chi > 0 or series != chi2:
        return None
    return OpaRegion(OpaParams(*kappa.tolist(), chi), bounds)


def region_curve(region: OpaRegion, n_samples: int) -> list[tuple[float, float, str]]:
    """Rows (|z1|^2, cap, active) on a uniform grid of [0, lambda_bar], with
    active "d3" where the ceiling binds and "d2" where the gradient bound does."""
    if n_samples < 2:
        raise StructureError(f"need at least 2 samples, got {n_samples}")
    z1sq = np.linspace(0.0, region.lambda_bar.root, n_samples)
    caps = region.cap(z1sq).tolist()
    return [(u, c, "d3" if c >= region.ceiling else "d2") for u, c in zip(z1sq.tolist(), caps)]


def scan_disagreements(region: OpaRegion, grids, mask, margin1, margin2):
    """Check a ``scan_sector_region`` mask on grids of u = |z1|^2 and v = |z2|^2
    (two points or more) against the closed form v <= cap(u).  Returns the
    count of cells that disagree more than one v step from min(cap(u), last v),
    and the least min(margin1, margin2) over the cells beyond that band that
    the closed form admits (None if there are none)."""
    g1, g2 = (np.asarray(g, dtype=float) for g in grids)
    caps = region.cap(g1)[:, None]
    outside = np.abs(g2 - np.minimum(caps, g2[-1])) > (g2[1] - g2[0]) * (1.0 + 1e-9)
    expected = g2 <= caps
    worst = np.minimum(margin1, margin2)[expected & outside]
    count = int(np.count_nonzero((mask != expected) & outside))
    return count, float(worst.min()) if worst.size else None


def invariant_ellipsoid(P: np.ndarray, region: OpaRegion) -> float:
    """Level rho with {x : x' P x <= rho} inside the admissible region.

    The ellipsoid lives in the doubled coordinates x = (a, a#) of the
    semiclassical amplitudes.  With u = |z1|^2, v = |z2|^2 and O the
    off-diagonal part of P, x' P x >= s1 u + s2 v with
    s1 = P11 + P33 - 2 ||O||_2 and s2 = P22 + P44 - 2 ||O||_2, an equality
    for a mode-diagonal P = diag(p1, p2, p1, p2).  The region is closed
    downward along rays from the origin, so the minimum of s1 u + s2 cap(u)
    over u in [0, lambda_bar] is a level that is never overstated: exact for
    a mode-diagonal P (such as the closed-form P = p* I that ``certify``
    returns for the OPA) and a sound lower bound otherwise.  A P that is not
    a finite 4x4 matrix, or whose weights s1, s2 are not positive, raises
    StructureError.  ``certify`` calls this with the region ``opa_region`` finds.

    With a = delta1/chi^2, b = 1/(gamma^2 chi^2) and w = 4u - b, the
    gradient branch reads s1 u + s2 cap(u) = (s1/4 - s2/16) w + s2 K / w +
    const with K = a + 3 b^2 / 16, so the minimum lies at u = 0 (on the
    ceiling), at the branch's stationary point, or at lambda_bar.  The
    junction of ceiling and branch is never below the u = 0 value.  Each
    candidate is valued at (u, cap(u)), a point on or outside the boundary,
    so a stationary point off the branch's interval cannot undercut the
    level either.
    """
    P = np.asarray(P, dtype=complex)
    if P.shape != (4, 4):
        raise StructureError(f"expected a 4x4 quadratic form, got {P.shape}")
    if not np.all(np.isfinite(P)):
        raise StructureError("P must be finite")
    p = np.diag(P).real
    # |x' O x| <= ||O||_2 ||x||^2 = 2 ||O||_2 (u + v) for the off-diagonal part O;
    # ||0||_2 is exactly 0, so a mode-diagonal P needs no SVD
    O = P - np.diag(np.diag(P))
    shift = 2.0 * float(np.linalg.norm(O, 2)) if O.any() else 0.0
    s1, s2 = float(p[0] + p[2]) - shift, float(p[1] + p[3]) - shift
    if min(s1, s2) <= 0:
        raise StructureError(
            f"P must be positive definite with a dominant diagonal; lower weights {s1:.3e}, {s2:.3e}"
        )

    chi2 = region.params.chi**2
    a = region.bounds.delta1 / chi2
    b = 1.0 / (region.bounds.gamma**2 * chi2)
    candidates = [0.0, region.lambda_bar.root]
    slope = s1 / 4.0 - s2 / 16.0
    if slope > 0:
        w = math.sqrt(s2 * (a + 3.0 * b**2 / 16.0) / slope)
        candidates.append((w + b) / 4.0)
    u = np.array(candidates)
    return float(np.min(s1 * u + s2 * region.cap(u)))
