"""Small-gain stability certificates for the perturbed linear system.

The certificate pipeline: read the Hurwitz verdict on the system's drift
matrix F (its spectral abscissa, computed once when the system is built),
test the small-gain condition ||transfer|| < gamma / 2 against the norm the
system owns (``LinearQuantumSystem.hinf``, computed once per system), find
a block-form Lyapunov matrix P strictly satisfying the quadratic matrix
inequality, and assemble the explicit constants of the mean-square bound

    <x(t)' x(t)>  <=  c1 * exp(-c2 t) * <x(0)' x(0)> + c3.

A system with the OPA's structure (M1 = M2 = N2 = E1 = 0, E2 = I_n and a
diagonal N1, read from the blocks) gets P = p* I in closed form, with p* the
exact minimizer of c3 over scalar P.  Every other system, and any call with
an explicit ``eps``, gets the stabilizing solution of a regularized Riccati
equation.  Given the admissible amplitude region, it also records the
invariant level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
import scipy.linalg as sla

from .errors import QmiInfeasibleError, StructureError
from .model import (
    LinearQuantumSystem, _realizations, _require_hurwitz, _stable, structure_matrices
)
from .opa import OpaRegion, invariant_ellipsoid
from .perturbation import SectorBounds

__all__ = [
    "Verdict",
    "StabilityCertificate",
    "qmi_lhs",
    "solve_qmi",
    "mu_constants",
    "certificate_constants",
    "CertificateConstants",
    "certify",
]


class Verdict(str, Enum):
    CERTIFIED = "Certified"
    FAILED_HURWITZ = "FailedHurwitz"
    FAILED_SMALL_GAIN = "FailedSmallGain"


def qmi_lhs(
    F: np.ndarray, Etilde: np.ndarray, gamma: float, P: np.ndarray
) -> np.ndarray:
    """Left-hand side of the quadratic matrix inequality at P.

    F' P + P F + 4 P B B' P + C' C / gamma^2 with (B, C) the input/output
    matrices of the original small-gain transfer function (the bounded real
    lemma for ||C (sI - F)^-1 B|| < gamma / 2); it must be negative definite
    for the Lyapunov dissipation argument.
    """
    (B, C), _ = _realizations(Etilde)
    return F.conj().T @ P + P @ F + 4.0 * P @ B @ B.conj().T @ P + C.conj().T @ C / gamma**2


def _hermitize(P: np.ndarray) -> np.ndarray:
    return 0.5 * (P + P.conj().T)


def _stabilizing_riccati(
    F: np.ndarray, G: np.ndarray, Q: np.ndarray, eps: float
) -> np.ndarray:
    """Stabilizing solution of F'P + PF + PGP + Q + eps I = 0 (Laub's Schur method).

    The stable invariant subspace of H = [[F, G], [-(Q + eps I), -F']] is
    spanned by [I; P].  An ordered Schur form puts the left-half-plane
    eigenvalues first, so P = Z21 Z11^-1 from its leading columns.
    """
    dim = F.shape[0]
    H = np.block([[F, G], [-(Q + eps * np.eye(dim)), -F.conj().T]])
    _, Z, k = sla.schur(H, output="complex", sort="lhp")
    if k != dim:
        raise QmiInfeasibleError(
            f"no stabilizing solution: the Hamiltonian has {k} of {2 * dim} "
            "eigenvalues in the open left half-plane"
        )
    try:
        return np.linalg.solve(Z[:dim, :dim].T, Z[dim:, :dim].T).T
    except np.linalg.LinAlgError as exc:
        raise QmiInfeasibleError(
            f"no stabilizing solution: the stable invariant subspace is not a graph ({exc})"
        ) from exc


def _riccati_data(Etilde: np.ndarray, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Terms G = 4 (Bp Bp' + Br Br') and Q = (Cp' Cp + Cr' Cr) / gamma^2 of the
    paired Riccati equation; the inequality's quadratic inputs are 2 Bp, 2 Br."""
    (Bp, Cp), (Br, Cr) = _realizations(Etilde)
    G = 4.0 * (Bp @ Bp.conj().T + Br @ Br.conj().T)
    Q = (Cp.conj().T @ Cp + Cr.conj().T @ Cr) / gamma**2
    return G, Q


def default_regularization(Etilde: np.ndarray, gamma: float) -> float:
    """Default eps turning the strict inequality into an equation with margin."""
    _, Q = _riccati_data(Etilde, gamma)
    return 1e-6 * (1.0 + float(np.linalg.norm(Q, 2)))


def solve_qmi(
    sys: LinearQuantumSystem, gamma: float, eps: float | None = None
) -> np.ndarray:
    """Positive-definite block-form P strictly satisfying the matrix inequality.

    The inequality is solved through the regularized Riccati equation

        F' P + P F + P (B B' + B2 B2') P + (C' C + C2' C2) + eps I = 0

    where (B, C) and (B2, C2) are the input/output matrices of the original
    and reduced transfer functions.  Pairing the two makes the equation data
    invariant under Sigma-conjugation, so the unique stabilizing solution
    inherits the block structure P = Sigma P^# Sigma, and it satisfies the
    original inequality with margin at least eps because the added terms are
    positive semidefinite.  Solving with the original data alone and
    symmetrizing afterwards does not work: the symmetrized matrix can leave
    the solution set entirely.

    Pairing both forms is exact for systems with E1 = 0 or E2 = 0 (such as
    the parametric-amplifier model).  When both are nonzero it can miss a
    certificate that exists: on random such systems this raises for most
    gammas below twice the small-gain threshold even though the condition
    passes (see ROADMAP item 3 for the measured failure rates).

    The stabilizing solution comes from one ordered Schur decomposition of
    the equation's Hamiltonian matrix.  Raises QmiInfeasibleError with
    diagnostics when no stabilizing solution exists or the result is not a
    valid strict solution, and StructureError for an eps that is not
    positive and finite.
    """
    F, Et = sys.F, sys.Etilde
    _require_hurwitz(sys.abscissa)
    if gamma <= 0:
        raise StructureError(f"gamma must be positive, got {gamma}")
    sm = structure_matrices(sys.n)
    G, Q = _riccati_data(Et, gamma)
    if eps is None:
        eps = default_regularization(Et, gamma)
    if not 0 < eps < np.inf:
        raise StructureError(f"eps must be positive and finite, got {eps}")
    P = _stabilizing_riccati(F, G, Q, eps)
    # Clean up roundoff; the exact solution already has the block structure.
    P = _hermitize(0.5 * (P + sm.Sigma @ P.conj() @ sm.Sigma))
    min_eig = float(np.min(np.linalg.eigvalsh(P)))
    lhs_max = float(np.max(np.linalg.eigvalsh(qmi_lhs(F, Et, gamma, P))))
    if min_eig <= 0 or lhs_max >= 0:
        R = F.conj().T @ P + P @ F + P @ G @ P + Q + eps * np.eye(F.shape[0])
        residual = float(np.linalg.norm(R, "fro"))
        raise QmiInfeasibleError(
            "Riccati solve did not produce a strict solution: "
            f"min eig(P) = {min_eig:.3e}, max eig(inequality) = {lhs_max:.3e}, "
            f"Riccati residual {residual:.3e}"
        )
    return P


def _closed_form_P(sys: LinearQuantumSystem, bounds: SectorBounds) -> np.ndarray | None:
    """P = p* I for a system with the OPA's structure; None for any other system.

    The structure is M1 = M2 = N2 = E1 = 0, E2 = I_n and a diagonal n x n N1.
    Then F = -diag(kappa, kappa) / 2 with kappa_k = |N1_kk|^2, and at P = p I
    the inequality splits per mode into -kappa_k p + 4 p^2 + 1/gamma^2 < 0.
    So c(p) = kappa_min - 4p - 1/(gamma^2 p), lam = p K + delta with
    K = sum kappa_k and delta = delta1 + delta2, and mu = 0.  The offset
    c3 = lam / (c(p) p) is least at the positive root of
    4 K p^2 + 8 delta p - K/gamma^2 - delta kappa_min = 0,

        p* = (-2 delta + sqrt(4 delta^2 + K (K/gamma^2 + delta kappa_min))) / (2K),

    evaluated here without the cancellation.  p* lies strictly between the
    roots of c(p) whenever kappa_min gamma > 4, i.e. whenever the small-gain
    test passes.  The strictness check of ``solve_qmi`` still runs on P and
    raises QmiInfeasibleError with both margins if it fails.
    """
    n, N1 = sys.n, sys.N1
    if (
        sys.M1.any() or sys.M2.any() or sys.N2.any() or sys.E1.any()
        or not np.array_equal(sys.E2, np.eye(n))
        or not np.array_equal(N1, np.diag(np.diag(N1)))
    ):
        return None
    kappa = np.abs(np.diag(N1)) ** 2
    K, kappa_min = float(np.sum(kappa)), float(np.min(kappa))
    delta = bounds.delta1 + bounds.delta2
    x = K / bounds.gamma**2 + delta * kappa_min
    p = x / (2.0 * (2.0 * delta + math.sqrt(4.0 * delta**2 + K * x)))
    P = p * np.eye(2 * n, dtype=complex)
    lhs_max = float(np.max(np.linalg.eigvalsh(qmi_lhs(sys.F, sys.Etilde, bounds.gamma, P))))
    if not (p > 0 and lhs_max < 0):
        raise QmiInfeasibleError(
            "closed-form P is not a strict solution: "
            f"min eig(P) = {p:.3e}, max eig(inequality) = {lhs_max:.3e}"
        )
    return P


def mu_constants(P: np.ndarray, Etilde: np.ndarray) -> np.ndarray:
    """Constants mu_i = [z_i, [z_i, V]] of the quadratic form V = x' P x.

    The double commutator of z_i = Etilde_i x with V is a scalar.  Expanding
    with the commutation relations [x_a, x_b'] = J_ab and
    [x_a, x_b] = (J Sigma)_ab gives, for Hermitian P,

        mu_i = Etilde_i J Sigma (P^T + Sigma P Sigma) J Etilde_i^T,

    which reduces to -2 Etilde_i Sigma J P^# J Etilde_i^T in the block-form
    case.  The truncated-Fock oracle pins these constants down to rounding.
    """
    P = np.asarray(P, dtype=complex)
    Etilde = np.asarray(Etilde, dtype=complex)
    sm = structure_matrices(Etilde.shape[1] // 2)
    core = sm.J @ sm.Sigma @ (P.T + sm.Sigma @ P @ sm.Sigma) @ sm.J
    return np.einsum("ia,ab,ib->i", Etilde, core, Etilde)


@dataclass(frozen=True)
class CertificateConstants:
    lambda_tilde: float
    lam: float
    c: float
    c1: float
    c2: float
    c3: float
    mu: np.ndarray


def certificate_constants(
    sys: LinearQuantumSystem, bounds: SectorBounds, P: np.ndarray
) -> CertificateConstants:
    """Explicit constants of the mean-square bound, for a given Lyapunov P.

    lambda_tilde is the trace offset produced by the coupling dissipation,
    lam = lambda_tilde + delta1 + sum |mu_i|^2 / 4 + delta2, and c is the
    largest scalar with (inequality LHS) + c P <= 0, recovered from P after
    the fact.  Then c1 = lmax(P)/lmin(P), c2 = c, c3 = lam / (c lmin(P)).
    The mu constants behind lam are returned with them.
    """
    P = np.asarray(P, dtype=complex)
    eigs = np.linalg.eigvalsh(P)
    if eigs[0] <= 0:
        raise StructureError(f"P must be positive definite, min eig {eigs[0]:.3e}")
    N, Et = sys.N, sys.Etilde
    sm = structure_matrices(sys.n)
    proj = np.zeros((2 * sys.m, 2 * sys.m))
    proj[: sys.m, : sys.m] = np.eye(sys.m)
    lambda_tilde = float(
        np.real(np.trace(P @ sm.J @ N.conj().T @ proj @ N @ sm.J))
    )
    mu = mu_constants(P, Et)
    lam = lambda_tilde + bounds.delta1 + float(np.sum(np.abs(mu) ** 2)) / 4.0 + bounds.delta2
    lhs = qmi_lhs(sys.F, Et, bounds.gamma, P)
    c = float(np.min(sla.eigh(-lhs, P, eigvals_only=True)))
    c1 = float(eigs[-1] / eigs[0])
    if lam == 0.0:
        c3 = 0.0
    elif c > 0.0:
        c3 = lam / (c * float(eigs[0]))
    else:
        # No decay margin for this P; the offset bound degenerates.
        c3 = float("inf")
    return CertificateConstants(lambda_tilde, lam, c, c1, c, c3, mu)


@dataclass(frozen=True)
class StabilityCertificate:
    """Outcome of the certification pipeline, with partial data on failure."""

    verdict: Verdict
    gamma: float
    F: np.ndarray = field(repr=False)
    abscissa: float
    hinf_primary: float = np.inf
    hinf_reduced: float = np.inf
    P: np.ndarray | None = field(default=None, repr=False)
    mu: np.ndarray | None = None
    lambda_tilde: float | None = None
    lam: float | None = None
    c: float | None = None
    c1: float | None = None
    c2: float | None = None
    c3: float | None = None
    eps: float | None = None
    invariant_level: float | None = None

    @property
    def certified(self) -> bool:
        return self.verdict is Verdict.CERTIFIED


def certify(
    sys: LinearQuantumSystem, bounds: SectorBounds, eps: float | None = None,
    region: OpaRegion | None = None,
) -> StabilityCertificate:
    """Run the full pipeline and return a certificate (or a failure verdict).

    FailedHurwitz and FailedSmallGain short-circuit with the data computed so
    far.  Without ``eps``, a system with the OPA's structure gets P in closed
    form (``_closed_form_P``) and records ``eps`` as None; every other system,
    and any call with ``eps``, gets P from ``solve_qmi``.  Errors raised by
    later stages propagate, tagged with the stage.
    Given the admissible region of the perturbation (only the OPA has one,
    ``OpaRegion``), a certified result records ``invariant_level``; without
    it the level stays None.  A region for other bounds raises StructureError.
    """
    if region is not None and region.bounds != bounds:
        raise StructureError(f"the region was built for {region.bounds}, not {bounds}")
    found = {"gamma": bounds.gamma, "F": sys.F, "abscissa": sys.abscissa}
    if not _stable(sys.abscissa):
        return StabilityCertificate(Verdict.FAILED_HURWITZ, **found)
    hinf = sys.hinf
    found.update(hinf_primary=hinf.hinf_primary, hinf_reduced=hinf.hinf_reduced)
    if not hinf.hinf_reduced < bounds.gamma / 2.0:
        return StabilityCertificate(Verdict.FAILED_SMALL_GAIN, **found)
    P = None if eps is not None else _closed_form_P(sys, bounds)
    if P is None:
        if eps is None:
            eps = default_regularization(sys.Etilde, bounds.gamma)
        found["eps"] = eps
        try:
            P = solve_qmi(sys, bounds.gamma, eps)
        except QmiInfeasibleError as exc:
            # Regularization shifts the feasible boundary by O(eps).  A gain
            # margin inside that band is a boundary case, not an anomaly: the
            # certificate cannot be produced, so the verdict is a (slightly
            # conservative) small-gain failure.  Beyond the band the failure
            # is unexpected and propagates.
            margin = bounds.gamma / 2.0 - hinf.hinf_reduced
            if margin <= 1e3 * eps * (1.0 + bounds.gamma):
                return StabilityCertificate(Verdict.FAILED_SMALL_GAIN, **found)
            raise QmiInfeasibleError(f"solve_qmi: {exc}") from exc
    constants = vars(certificate_constants(sys, bounds, P))
    if region is not None:
        found["invariant_level"] = invariant_ellipsoid(P, region)
    return StabilityCertificate(Verdict.CERTIFIED, P=P, **found, **constants)
