"""Small-gain stability certificates for the perturbed linear system.

The certificate pipeline: read the Hurwitz verdict on the system's drift
matrix F (its spectral abscissa, computed once when the system is built),
test the small-gain condition ||transfer|| < gamma / 2 against the norm the
system owns (``LinearQuantumSystem.hinf``, computed once per system), find
a block-form Lyapunov matrix P strictly satisfying the quadratic matrix
inequality, and assemble the explicit constants of the mean-square bound

    <x(t)' x(t)>  <=  c1 * exp(-c2 t) * <x(0)' x(0)> + c3.

A system with the OPA's structure (``LinearQuantumSystem.opa_kappa``) gets
P = p* I in closed form, with p* the exact minimizer of c3 over scalar P.
Every other system, and any call with an explicit ``eps``, gets the
stabilizing solution of a regularized Riccati equation.  Given an OPA's
perturbation series, it also records the invariant level.

``certify_sweep`` runs the pipeline for one system over a sequence of
sector bounds: what the points share once, the closed form's p* and
constants on one stack of P, and the Riccati path point by point, so each
point's certificate is its own.  ``certify`` is its batch of one.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

from .errors import QmiInfeasibleError, StructureError
from .model import (
    LinearQuantumSystem, _realizations, _require_hurwitz, _stable, structure_matrices,
    validate_system,
)
from .opa import invariant_ellipsoid, opa_region
from .perturbation import PerturbationSeries, SectorBounds

__all__ = [
    "Verdict",
    "StabilityCertificate",
    "qmi_lhs",
    "solve_qmi",
    "mu_constants",
    "certificate_constants",
    "CertificateConstants",
    "certify",
    "certify_sweep",
]


class Verdict(str, Enum):
    CERTIFIED = "Certified"
    FAILED_HURWITZ = "FailedHurwitz"
    FAILED_SMALL_GAIN = "FailedSmallGain"


def _inequality_lhs(
    F: np.ndarray, realization: tuple[np.ndarray, np.ndarray], gamma, P: np.ndarray
) -> np.ndarray:
    """``qmi_lhs`` for the original realization (B, C).  gamma and P may be
    stacked: gamma of shape (k, 1, 1) with P of shape (k, 2n, 2n).  The square
    of gamma rounds as Python's float power does (``_closed_form_p``)."""
    B, C = realization
    return (
        F.conj().T @ P + P @ F + 4.0 * P @ B @ B.conj().T @ P
        + C.conj().T @ C / np.float_power(gamma, 2)
    )


def qmi_lhs(
    F: np.ndarray, Etilde: np.ndarray, gamma: float, P: np.ndarray
) -> np.ndarray:
    """Left-hand side of the quadratic matrix inequality at P.

    F' P + P F + 4 P B B' P + C' C / gamma^2 with (B, C) the input/output
    matrices of the original small-gain transfer function (the bounded real
    lemma for ||C (sI - F)^-1 B|| < gamma / 2); it must be negative definite
    for the Lyapunov dissipation argument.
    """
    return _inequality_lhs(F, _realizations(Etilde)[0], gamma, P)


def _stabilizing_riccati(
    F: np.ndarray, G: np.ndarray, Q: np.ndarray, eps: float
) -> np.ndarray:
    """Stabilizing solution of F'P + PF + PGP + Q + eps I = 0 (Laub's Schur method).

    The stable invariant subspace of H = [[F, G], [-(Q + eps I), -F']] is
    spanned by [I; P].  An ordered Schur form puts the left-half-plane
    eigenvalues first, so P = Z21 Z11^-1 from its leading columns, symmetrized
    against roundoff and not checked for strictness.  SciPy is imported here,
    so that only the Riccati path loads ``scipy.linalg``.
    """
    import scipy.linalg as sla

    dim = F.shape[0]
    H = np.block([[F, G], [-(Q + eps * np.eye(dim)), -F.conj().T]])
    _, Z, k = sla.schur(H, output="complex", sort="lhp")
    if k != dim:
        raise QmiInfeasibleError(
            f"no stabilizing solution: the Hamiltonian has {k} of {2 * dim} "
            "eigenvalues in the open left half-plane"
        )
    try:
        P = np.linalg.solve(Z[:dim, :dim].T, Z[dim:, :dim].T).T
    except np.linalg.LinAlgError as exc:
        raise QmiInfeasibleError(
            f"no stabilizing solution: the stable invariant subspace is not a graph ({exc})"
        ) from exc
    # the exact solution already has the block structure
    Sigma = structure_matrices(dim // 2).Sigma
    P = 0.5 * (P + Sigma @ P.conj() @ Sigma)
    return 0.5 * (P + P.conj().T)


def _riccati_data(
    realizations, gamma: float, eps: float | None = None
) -> tuple[np.ndarray, np.ndarray, float]:
    """Terms G = 4 (Bp Bp' + Br Br') and Q = (Cp' Cp + Cr' Cr) / gamma^2 of the
    paired Riccati equation and its eps, by default 1e-6 (1 + ||Q||_2), which
    must be positive and finite; the inequality's quadratic inputs are 2 Bp, 2 Br."""
    (Bp, Cp), (Br, Cr) = realizations
    G = 4.0 * (Bp @ Bp.conj().T + Br @ Br.conj().T)
    Q = (Cp.conj().T @ Cp + Cr.conj().T @ Cr) / gamma**2
    if eps is None:
        eps = 1e-6 * (1.0 + float(np.linalg.norm(Q, 2)))
    if not 0 < eps < np.inf:
        raise StructureError(f"eps must be positive and finite, got {eps}")
    return G, Q, eps


def default_regularization(Etilde: np.ndarray, gamma: float) -> float:
    """Default eps turning the strict inequality into an equation with margin."""
    return _riccati_data(_realizations(Etilde), gamma)[2]


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
    the equation's Hamiltonian matrix, and passes the strictness check that
    every certified P passes (min eig P > 0 and c > 0).  Returns a strict P
    or raises QmiInfeasibleError: no stabilizing solution exists, or the
    solution is not strict (the error names both margins).  An eps that is
    not positive and finite raises StructureError.
    """
    _require_hurwitz(sys.abscissa)
    if gamma <= 0:
        raise StructureError(f"gamma must be positive, got {gamma}")
    P = _stabilizing_riccati(sys.F, *_riccati_data(sys.realizations, gamma, eps))
    _strict_constants(sys, *np.array([[gamma], [0.0], [0.0]]), P[None])
    return P


def _closed_form_p(kappa: np.ndarray, gamma: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """p* of P = p* I for each gamma and delta = delta1 + delta2.

    At P = p I the inequality splits per mode into
    -kappa_k p + 4 p^2 + 1/gamma^2 < 0.  So c(p) = kappa_min - 4p - 1/(gamma^2 p),
    lam = p K + delta with K = sum kappa_k, and mu = 0.  The offset
    c3 = lam / (c(p) p) is least at the positive root of
    4 K p^2 + 8 delta p - K/gamma^2 - delta kappa_min = 0,

        p* = (-2 delta + sqrt(4 delta^2 + K (K/gamma^2 + delta kappa_min))) / (2K),

    evaluated here without the cancellation.  p* lies strictly between the
    roots of c(p) whenever kappa_min gamma > 4, i.e. whenever the small-gain
    test passes.  Squares go through ``float_power``, which rounds as
    Python's float power does, so a point's p* does not depend on its stack.
    """
    K, kappa_min = float(kappa.sum()), float(kappa.min())
    x = K / np.float_power(gamma, 2) + delta * kappa_min
    return x / (2.0 * (2.0 * delta + np.sqrt(4.0 * np.float_power(delta, 2) + K * x)))


def mu_constants(P: np.ndarray, Etilde: np.ndarray) -> np.ndarray:
    """Constants mu_i = [z_i, [z_i, V]] of the quadratic form V = x' P x.

    The double commutator of z_i = Etilde_i x with V is a scalar.  Expanding
    with the commutation relations [x_a, x_b'] = J_ab and
    [x_a, x_b] = (J Sigma)_ab gives, for Hermitian P,

        mu_i = Etilde_i J Sigma (P^T + Sigma P Sigma) J Etilde_i^T,

    which reduces to -2 Etilde_i Sigma J P^# J Etilde_i^T in the block-form
    case.  The truncated-Fock oracle pins these constants down to rounding.
    A stack of P, shape (k, 2n, 2n), gives a (k, p) stack of constants.
    """
    P = np.asarray(P, dtype=complex)
    Etilde = np.asarray(Etilde, dtype=complex)
    sm = structure_matrices(Etilde.shape[1] // 2)
    core = sm.J @ sm.Sigma @ (np.swapaxes(P, -1, -2) + sm.Sigma @ P @ sm.Sigma) @ sm.J
    return np.einsum("ia,...ab,ib->...i", Etilde, core, Etilde)


@dataclass(frozen=True)
class CertificateConstants:
    lambda_tilde: float
    lam: float
    c: float
    c1: float
    c2: float
    c3: float
    mu: np.ndarray


def _columns(bounds: Sequence[SectorBounds]) -> np.ndarray:
    """The gammas, delta1s and delta2s of a sequence of bounds, as three rows."""
    return np.array([(b.gamma, b.delta1, b.delta2) for b in bounds], float).T


def _stacked_constants(
    sys: LinearQuantumSystem, gamma: np.ndarray, delta1: np.ndarray, delta2: np.ndarray,
    P: np.ndarray,
) -> tuple[np.ndarray, list[CertificateConstants]]:
    """``certificate_constants`` for a (k, 2n, 2n) stack of P and k bounds.

    Returns the least eigenvalue of each P and the constants of the P before
    the first one that is not positive definite.  Only the closed form
    stacks more than one P, and its points get the constants of a batch of
    one, bit for bit; on a general stack the einsum of ``mu_constants`` may
    sum in another order.
    """
    eigs, V = np.linalg.eigh(P)
    min_eigs = eigs[:, 0]
    k = next((j for j, e in enumerate(min_eigs.tolist()) if not e > 0), len(P))
    eigs, V, P, gamma, delta1, delta2 = (a[:k] for a in (eigs, V, P, gamma, delta1, delta2))
    N, Et = sys.N, sys.Etilde
    sm = structure_matrices(sys.n)
    proj = np.zeros((2 * sys.m, 2 * sys.m))
    proj[: sys.m, : sys.m] = np.eye(sys.m)
    lambda_tilde = (P @ sm.J @ N.conj().T @ proj @ N @ sm.J).trace(axis1=1, axis2=2).real
    mu = mu_constants(P, Et)
    lam = lambda_tilde + delta1 + (np.abs(mu) ** 2).sum(axis=1) / 4.0 + delta2
    lhs = _inequality_lhs(sys.F, sys.realizations[0], gamma[:, None, None], P)
    W = V / np.sqrt(eigs)[:, None, :]
    c = np.linalg.eigvalsh(np.swapaxes(W.conj(), 1, 2) @ -lhs @ W).min(axis=1)
    c1 = eigs[:, -1] / eigs[:, 0]
    # no decay margin for a P with c <= 0: the offset bound degenerates
    c3 = np.divide(lam, c * eigs[:, 0], out=np.full_like(c, np.inf), where=c > 0)
    c3[lam == 0.0] = 0.0
    columns = (lambda_tilde, lam, c, c1, c3)
    return min_eigs, [
        CertificateConstants(lt, la, ci, c1i, ci, c3i, mui)
        for lt, la, ci, c1i, c3i, mui in zip(*(a.tolist() for a in columns), mu)
    ]


def _strict_constants(
    sys: LinearQuantumSystem, gamma: np.ndarray, delta1: np.ndarray, delta2: np.ndarray,
    P: np.ndarray,
) -> list[CertificateConstants]:
    """``_stacked_constants`` of a stack of P that all strictly satisfy the
    inequality: the one strictness check, for both paths.  LHS < 0 exactly
    when c > 0 (c is the least eigenvalue of W' (-LHS) W), so one ``eigh`` of
    P and one formed LHS give the check and the constants.  The first P, in
    order, with min eig P <= 0 or c <= 0 (NaN included) raises
    QmiInfeasibleError with both margins; max eig(LHS) is formed for it alone.
    """
    try:
        min_eigs, constants = _stacked_constants(sys, gamma, delta1, delta2, P)
        j = next((j for j, const in enumerate(constants) if not const.c > 0), len(constants))
        if j == len(P):
            return constants
        lhs = _inequality_lhs(sys.F, sys.realizations[0], gamma[j], P[j])
        lhs_max = np.linalg.eigvalsh(lhs)[-1]
        margins = f"min eig(P) = {min_eigs[j]:.3e}, max eig(inequality) = {lhs_max:.3e}"
    except np.linalg.LinAlgError as exc:  # a P or a LHS with non-finite entries
        margins = str(exc)
    raise QmiInfeasibleError(f"P is not a strict solution: {margins}")


def certificate_constants(
    sys: LinearQuantumSystem, bounds: SectorBounds, P: np.ndarray
) -> CertificateConstants:
    """Explicit constants of the mean-square bound, for a given Lyapunov P.

    lambda_tilde is the trace offset produced by the coupling dissipation,
    lam = lambda_tilde + delta1 + sum |mu_i|^2 / 4 + delta2, and c is the
    largest scalar with (inequality LHS) + c P <= 0, recovered from P after
    the fact: the least eigenvalue of the pencil (-LHS, P), read as the least
    eigenvalue of W' (-LHS) W with P = V diag(eigs) V' and W = V / sqrt(eigs)
    (for P = p I, min eig(-LHS) / p).  Then c1 = lmax(P)/lmin(P), c2 = c,
    c3 = lam / (c lmin(P)).  The mu constants behind lam are returned with them.
    A P that is not positive definite raises StructureError.
    """
    min_eigs, constants = _stacked_constants(sys, *_columns([bounds]), np.asarray(P, complex)[None])
    if not constants:
        raise StructureError(f"P must be positive definite, min eig {min_eigs[0]:.3e}")
    return constants[0]


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


def _riccati_certificate(
    sys: LinearQuantumSystem, bounds: SectorBounds, eps: float | None, found: dict
) -> StabilityCertificate:
    """The certificate of a point that passes small-gain, at the stabilizing
    Riccati solution with the equation data built once from ``sys.realizations``."""
    gamma = bounds.gamma
    G, Q, eps = _riccati_data(sys.realizations, gamma, eps)
    try:
        P = _stabilizing_riccati(sys.F, G, Q, eps)
        (constants,) = _strict_constants(sys, *_columns([bounds]), P[None])
    except QmiInfeasibleError as exc:
        # Regularization shifts the feasible boundary by O(eps).  A gain margin
        # inside that band is a boundary case, not an anomaly: the certificate
        # cannot be produced, so the verdict is a (slightly conservative)
        # small-gain failure.  Beyond the band the failure is unexpected and raises.
        if gamma / 2.0 - sys.hinf.hinf_reduced > 1e3 * eps * (1.0 + gamma):
            raise QmiInfeasibleError(f"solve_qmi: {exc}") from exc
        return StabilityCertificate(Verdict.FAILED_SMALL_GAIN, gamma, eps=eps, **found)
    return StabilityCertificate(Verdict.CERTIFIED, gamma, P=P, eps=eps, **found, **vars(constants))


def certify_sweep(
    sys: LinearQuantumSystem, bounds: Sequence[SectorBounds], eps: float | None = None
) -> list[StabilityCertificate]:
    """The certificate of one system at each of a sequence of sector bounds.

    A system that fails ``validate_system`` is not physical and raises
    StructureError.  Once per call: the Hurwitz verdict, both norms
    (``sys.hinf``) and the OPA structure test; FailedHurwitz and
    FailedSmallGain carry the data computed so far.  The points that pass the
    strict small-gain test ||transfer|| < gamma / 2 get P = p* I on the
    closed-form path, with p* and the constants on one (k, 2n, 2n) stack, or
    else (given ``eps``, or a system without the OPA's structure) the Riccati
    path, one point at a time.  Both check P with ``_strict_constants``;
    inside its boundary band the Riccati path reads a refusal as a small-gain
    failure.  Each certificate is the one ``certify`` returns for its point
    alone, bit for bit, and the first point that raises stops the call.
    """
    if violations := validate_system(sys):
        raise StructureError(f"not a physical system: {'; '.join(map(str, violations))}")
    bounds = list(bounds)
    found = {"F": sys.F, "abscissa": sys.abscissa}
    if not _stable(sys.abscissa):
        return [StabilityCertificate(Verdict.FAILED_HURWITZ, b.gamma, **found) for b in bounds]
    hinf = sys.hinf
    found.update(hinf_primary=hinf.hinf_primary, hinf_reduced=hinf.hinf_reduced)
    passes = [hinf.hinf_reduced < b.gamma / 2.0 for b in bounds]
    passed = [b for b, ok in zip(bounds, passes) if ok]
    if not passed or eps is not None or sys.opa_kappa is None:
        certs = (_riccati_certificate(sys, b, eps, found) for b in passed)
    else:
        gamma, delta1, delta2 = _columns(passed)
        p = _closed_form_p(sys.opa_kappa, gamma, delta1 + delta2)
        P = p[:, None, None] * np.eye(2 * sys.n, dtype=complex)
        constants = _strict_constants(sys, gamma, delta1, delta2, P)
        certs = (
            StabilityCertificate(Verdict.CERTIFIED, b.gamma, P=Pj, **found, **vars(const))
            for b, Pj, const in zip(passed, P, constants)
        )
    return [
        next(certs) if ok else StabilityCertificate(Verdict.FAILED_SMALL_GAIN, b.gamma, **found)
        for b, ok in zip(bounds, passes)
    ]


def certify(
    sys: LinearQuantumSystem, bounds: SectorBounds, eps: float | None = None,
    series: PerturbationSeries | None = None,
) -> StabilityCertificate:
    """Run the full pipeline and return a certificate (or a failure verdict).

    The batch of one of ``certify_sweep``, which holds the pipeline and its
    strictness check.  Without ``eps``, a system with the OPA's structure gets
    P = p* I in closed form (``_closed_form_p``) and records ``eps`` as None;
    every other system, and any call with ``eps``, gets the Riccati solve of
    ``solve_qmi``.  A certified result records ``invariant_level`` on the
    region ``opa_region`` finds for the system and its perturbation
    ``series``; without one it stays None.
    """
    (cert,) = certify_sweep(sys, [bounds], eps)
    region = opa_region(sys, series, bounds) if cert.certified else None
    if region is None:
        return cert
    return replace(cert, invariant_level=invariant_ellipsoid(cert.P, region))
