"""Optical parametric amplifier: model construction and closed-form analysis.

An OPA couples a fundamental cavity mode a1 and a second-harmonic mode a2
through a chi(2) medium.  The interaction Hamiltonian
i*chi*(a2' a1^2 - a1'^2 a2) is cubic, so the stability analysis goes through
the sector-bounded perturbation machinery with z1 = a1', z2 = a2'.  This
module provides the closed-form small-gain norm and the admissible
region of mode amplitudes on which the sector bounds hold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StructureError
from .model import LinearQuantumSystem
from .perturbation import PerturbationSeries, SectorBounds

__all__ = [
    "OpaParams",
    "RegionCurve",
    "build_opa",
    "closed_form_hinf",
    "region_z2_cap",
    "lambda_bar",
    "LambdaBar",
    "region_curve",
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


def _knee(params: OpaParams, bounds: SectorBounds) -> float:
    return 1.0 / (4.0 * bounds.gamma**2 * params.chi**2)


def region_z2_cap(params: OpaParams, bounds: SectorBounds, z1sq: float) -> float:
    """Largest admissible |z2|^2 at the given |z1|^2.

    Below the knee |z1|^2 = 1/(4 gamma^2 chi^2) the gradient bound holds for
    every |z2|^2 and only the curvature ceiling delta2/(4 chi^2) is active.
    Beyond the knee the gradient bound gives

        |z2|^2 <= (delta1/chi^2 + |z1|^2/(gamma^2 chi^2) - |z1|^4)
                  / (4 |z1|^2 - 1/(gamma^2 chi^2)),

    combined with the ceiling and clamped at zero once the numerator turns
    negative.
    """
    if z1sq < 0:
        raise StructureError(f"|z1|^2 must be nonnegative, got {z1sq}")
    chi2 = params.chi**2
    ceiling = bounds.delta2 / (4.0 * chi2)
    if z1sq <= _knee(params, bounds):
        return ceiling
    inv_g2c2 = 1.0 / (bounds.gamma**2 * chi2)
    numer = bounds.delta1 / chi2 + z1sq * inv_g2c2 - z1sq**2
    denom = 4.0 * z1sq - inv_g2c2
    return max(0.0, min(numer / denom, ceiling))


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


def lambda_bar(params: OpaParams, bounds: SectorBounds) -> LambdaBar:
    g2c2 = bounds.gamma**2 * params.chi**2
    half = 1.0 / (2.0 * g2c2)
    caption = half + math.sqrt(half**2 + bounds.delta1)
    root = half + math.sqrt(half**2 + bounds.delta1 / params.chi**2)
    return LambdaBar(caption=caption, root=root)


@dataclass(frozen=True)
class RegionCurve:
    """Sampled upper boundary of the admissible region in (|z1|^2, |z2|^2).

    ``samples`` holds (z1sq, z2sq_max, active) triples with active one of
    "d2" (gradient bound) or "d3" (curvature ceiling).  ``lambda_bar`` is the
    right endpoint (numerator root) and ``cap2`` the curvature ceiling.
    The generating parameters are kept so membership tests can evaluate the
    exact curve instead of interpolating.
    """

    samples: list[tuple[float, float, str]]
    lambda_bar: float
    cap2: float
    params: OpaParams
    bounds: SectorBounds

    def cap(self, z1sq: float) -> float:
        return region_z2_cap(self.params, self.bounds, z1sq)

    def contains(self, z1sq: float, z2sq: float, slack: float = 0.0) -> bool:
        if z1sq < 0 or z2sq < 0:
            return False
        if z1sq > self.lambda_bar + slack:
            return False
        return z2sq <= self.cap(z1sq) + slack


def region_curve(
    params: OpaParams, bounds: SectorBounds, n_samples: int
) -> RegionCurve:
    """Sample the admissibility boundary on a uniform grid of |z1|^2."""
    if n_samples < 2:
        raise StructureError(f"need at least 2 samples, got {n_samples}")
    lb = lambda_bar(params, bounds)
    ceiling = bounds.delta2 / (4.0 * params.chi**2)
    samples = []
    for z1sq in np.linspace(0.0, lb.root, n_samples):
        cap = region_z2_cap(params, bounds, float(z1sq))
        active = "d3" if cap >= ceiling else "d2"
        samples.append((float(z1sq), cap, active))
    return RegionCurve(
        samples=samples,
        lambda_bar=lb.root,
        cap2=ceiling,
        params=params,
        bounds=bounds,
    )


def invariant_ellipsoid(P: np.ndarray, region: RegionCurve) -> float:
    """Level rho with {x : x' P x <= rho} inside the admissible region.

    The ellipsoid lives in the doubled coordinates x = (a, a#) of the
    semiclassical amplitudes.  With u = |z1|^2, v = |z2|^2 and O the
    off-diagonal part of P, x' P x >= s1 u + s2 v with
    s1 = P11 + P33 - 2 ||O||_2 and s2 = P22 + P44 - 2 ||O||_2, an equality
    for a mode-diagonal P = diag(p1, p2, p1, p2).  The region is closed
    downward along rays from the origin, so the minimum of s1 u + s2 cap(u)
    over u in [0, lambda_bar] is a level that is never overstated: exact for
    a mode-diagonal P (as every certified OPA P is, up to roundoff) and a
    sound lower bound otherwise.  A P whose weights s1, s2 are not positive
    raises StructureError.

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
    p = np.diag(P).real
    # |x' O x| <= ||O||_2 ||x||^2 = 2 ||O||_2 (u + v) for the off-diagonal part O
    shift = 2.0 * float(np.linalg.norm(P - np.diag(np.diag(P)), 2))
    s1, s2 = float(p[0] + p[2]) - shift, float(p[1] + p[3]) - shift
    if min(s1, s2) <= 0:
        raise StructureError(
            f"P must be positive definite with a dominant diagonal; lower weights {s1:.3e}, {s2:.3e}"
        )

    chi2 = region.params.chi**2
    a = region.bounds.delta1 / chi2
    b = 1.0 / (region.bounds.gamma**2 * chi2)
    candidates = [0.0, region.lambda_bar]
    slope = s1 / 4.0 - s2 / 16.0
    if slope > 0:
        w = math.sqrt(s2 * (a + 3.0 * b**2 / 16.0) / slope)
        candidates.append((w + b) / 4.0)
    return min(s1 * u + s2 * region.cap(u) for u in candidates)
