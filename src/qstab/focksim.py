"""Truncated-Fock-space oracle and Lindblad simulator.

Operator identities used by the certificate machinery are verified here as
finite matrix equations.  Truncating each mode at ``dim`` levels corrupts
only matrix elements near the truncation edge, so an identity built from
operators of ladder degree d is asserted on the safe subspace of states
whose per-mode excitation stays at or below dim - 1 - d.

The same algebra drives a density-matrix integrator for the master equation

    drho/dt = -i [H, rho] + sum_k ( L_k rho L_k' - (1/2) {L_k' L_k, rho} )

used to check the certified mean-square bound empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from .certify import mu_constants
from .errors import SimulationError, StructureError, TruncationError
from .model import LinearQuantumSystem, structure_matrices
from .perturbation import PerturbationSeries, partial_z, second_partial_z

__all__ = [
    "TruncatedAlgebra",
    "FockTrajectory",
    "build_algebra",
    "safe_mask",
    "safe_residual",
    "z_operators",
    "coupling_operators",
    "quadratic_form",
    "operator_of_series",
    "check_commutator_identities",
    "coherent_state",
    "fock_state",
    "msq_observable",
    "lindblad_evolve",
    "check_ms_bound",
    "default_dt",
]


@dataclass(frozen=True)
class TruncatedAlgebra:
    """Per-mode annihilation matrices on the tensor-product space.

    [a_i, a_j'] = delta_ij holds exactly on states whose mode-i excitation is
    at most dim - 2; the defect is confined to the truncation edge.
    """

    modes: int
    dim: int
    a: tuple[np.ndarray, ...] = field(repr=False)
    excitations: np.ndarray = field(repr=False)  # (total_dim, modes) int

    @property
    def total_dim(self) -> int:
        return self.dim**self.modes


def build_algebra(modes: int, dim: int) -> TruncatedAlgebra:
    if modes < 1:
        raise StructureError(f"mode count must be positive, got {modes}")
    if dim < 3:
        raise TruncationError(f"need at least 3 Fock levels per mode, got {dim}")
    ladder = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    ops = []
    for i in range(modes):
        factors = [np.eye(dim)] * modes
        factors[i] = ladder
        full = factors[0]
        for f in factors[1:]:
            full = np.kron(full, f)
        ops.append(full.astype(complex))
    levels = np.arange(dim)
    grids = np.meshgrid(*([levels] * modes), indexing="ij")
    exc = np.stack([g.ravel() for g in grids], axis=1)
    return TruncatedAlgebra(modes=modes, dim=dim, a=tuple(ops), excitations=exc)


def safe_mask(alg: TruncatedAlgebra, degree: int) -> np.ndarray:
    """Boolean mask of basis states unaffected by degree-``degree`` products."""
    cut = alg.dim - 1 - degree
    if cut < 0:
        raise TruncationError(
            f"truncation dim={alg.dim} too small for operator degree {degree}"
        )
    mask = np.all(alg.excitations <= cut, axis=1)
    if not np.any(mask):
        raise TruncationError(
            f"safe subspace empty at dim={alg.dim}, degree {degree}"
        )
    return mask


def safe_residual(alg: TruncatedAlgebra, X: np.ndarray, degree: int) -> float:
    """Largest matrix-element magnitude of X restricted to the safe subspace."""
    mask = safe_mask(alg, degree)
    block = X[np.ix_(mask, mask)]
    return float(np.max(np.abs(block))) if block.size else 0.0


def _x_vector(alg: TruncatedAlgebra) -> list[np.ndarray]:
    """Doubled operator vector [a_1..a_n, a_1'..a_n'] as matrices."""
    return list(alg.a) + [a.conj().T for a in alg.a]


def quadratic_form(alg: TruncatedAlgebra, A: np.ndarray) -> np.ndarray:
    """Matrix of sum_ab A[a,b] x_a' x_b over the doubled operator vector."""
    A = np.asarray(A, dtype=complex)
    x = _x_vector(alg)
    if A.shape != (len(x), len(x)):
        raise StructureError(f"expected a {len(x)}x{len(x)} form, got {A.shape}")
    total = np.zeros((alg.total_dim, alg.total_dim), dtype=complex)
    for a_idx in range(len(x)):
        xa_dag = x[a_idx].conj().T
        for b_idx in range(len(x)):
            coeff = A[a_idx, b_idx]
            if coeff != 0:
                total += coeff * (xa_dag @ x[b_idx])
    return total


def _ladder_combinations(
    alg: TruncatedAlgebra, sys: LinearQuantumSystem, A1: np.ndarray, A2: np.ndarray
) -> list[np.ndarray]:
    """Operators sum_j A1[i,j] a_j + A2[i,j] a_j', one per row i."""
    if sys.n != alg.modes:
        raise StructureError(
            f"system has {sys.n} modes but the algebra has {alg.modes}"
        )
    ops = []
    for i in range(A1.shape[0]):
        op = np.zeros((alg.total_dim, alg.total_dim), dtype=complex)
        for j in range(sys.n):
            op += A1[i, j] * alg.a[j] + A2[i, j] * alg.a[j].conj().T
        ops.append(op)
    return ops


def z_operators(alg: TruncatedAlgebra, sys: LinearQuantumSystem) -> list[np.ndarray]:
    """Channel operators z_i = sum_j E1[i,j] a_j + E2[i,j] a_j'."""
    return _ladder_combinations(alg, sys, sys.E1, sys.E2)


def coupling_operators(alg: TruncatedAlgebra, sys: LinearQuantumSystem) -> list[np.ndarray]:
    """Coupling channel operators L_i = sum_j N1[i,j] a_j + N2[i,j] a_j'."""
    return _ladder_combinations(alg, sys, sys.N1, sys.N2)


def operator_of_series(
    alg: TruncatedAlgebra, sys: LinearQuantumSystem, f: PerturbationSeries
) -> np.ndarray:
    """Matrix of sum S[i,j,k,l] z_i^k (z_j')^l with literal left-to-right order.

    For a self-adjoint series the result is exactly Hermitian as a matrix;
    truncation artifacts live outside the safe subspace.
    """
    if f.total_degree > alg.dim - 1:
        raise TruncationError(
            f"series degree {f.total_degree} exceeds truncation dim-1 = {alg.dim - 1}"
        )
    z = z_operators(alg, sys)
    eye = np.eye(alg.total_dim, dtype=complex)
    pow_cache: dict[tuple[str, int, int], np.ndarray] = {}

    def power(kind: str, channel: int, exponent: int) -> np.ndarray:
        key = (kind, channel, exponent)
        if key not in pow_cache:
            base = z[channel - 1] if kind == "z" else z[channel - 1].conj().T
            pow_cache[key] = np.linalg.matrix_power(base, exponent) if exponent else eye
        return pow_cache[key]

    total = np.zeros((alg.total_dim, alg.total_dim), dtype=complex)
    for (i, j, k, l), c in f.coeffs.items():
        total += c * (power("z", i, k) @ power("zdag", j, l))
    return total


def _comm(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    return A @ B - B @ A


def check_commutator_identities(
    alg: TruncatedAlgebra,
    sys: LinearQuantumSystem,
    f: PerturbationSeries,
    P: np.ndarray,
) -> dict[str, float]:
    """Verify the commutator identities behind the certificate, as matrices.

    P must be Hermitian with the block structure P = Sigma P^# Sigma; the
    identities are specific to that class.  Returns the maximum safe-subspace
    residual for each identity:

    1. commutator of V = x'Px with the quadratic Hamiltonian (1/2) x'Mx,
    2. coupling dissipation (1/2) L'[V,L] + (1/2)[L',V]L including its trace
       offset,
    3. the vector identity [x, x'Px] = 2JPx,
    4. constancy of the double commutators [z_i, [z_i, V]] and their
       agreement with ``mu_constants``,
    5. the four-term expansion of [V, f] through the formal partial
       derivatives of f.
    """
    P = np.asarray(P, dtype=complex)
    M, N = sys.M, sys.N
    sm = structure_matrices(sys.n)
    scale = 1.0 + float(np.max(np.abs(P))) if P.size else 1.0
    if np.max(np.abs(P - P.conj().T)) > 1e-12 * scale:
        raise StructureError("P must be Hermitian")
    if np.max(np.abs(P - sm.Sigma @ P.conj() @ sm.Sigma)) > 1e-10 * scale:
        raise StructureError("P must have the block structure Sigma P^# Sigma = P")

    degree = max(2, f.total_degree)
    x = _x_vector(alg)
    V = quadratic_form(alg, P)
    residuals: dict[str, float] = {}

    # (1) [V, (1/2) x'Mx] = x'(PJM - MJP)x
    Hq = 0.5 * quadratic_form(alg, M)
    rhs1 = quadratic_form(alg, P @ sm.J @ M - M @ sm.J @ P)
    residuals["quadratic_hamiltonian_commutator"] = safe_residual(
        alg, _comm(V, Hq) - rhs1, degree
    )

    # (2) (1/2) L'[V,L] + (1/2)[L',V]L = tr(P J N' proj N J) - (1/2) x'(N'JNJP + PJN'JN)x
    L_ops = coupling_operators(alg, sys)
    lhs2 = np.zeros_like(V)
    for L in L_ops:
        Ld = L.conj().T
        lhs2 += 0.5 * (Ld @ _comm(V, L) + _comm(Ld, V) @ L)
    proj = np.zeros((2 * sys.m, 2 * sys.m))
    proj[: sys.m, : sys.m] = np.eye(sys.m)
    Jm = np.diag(np.r_[np.ones(sys.m), -np.ones(sys.m)])
    trace_term = np.trace(P @ sm.J @ N.conj().T @ proj @ N @ sm.J)
    quad = N.conj().T @ Jm @ N @ sm.J @ P + P @ sm.J @ N.conj().T @ Jm @ N
    rhs2 = trace_term * np.eye(alg.total_dim) - 0.5 * quadratic_form(alg, quad)
    residuals["coupling_dissipation"] = safe_residual(alg, lhs2 - rhs2, degree)

    # (3) [x_a, x'Px] = (2JPx)_a componentwise
    R = 2.0 * sm.J @ P
    worst = 0.0
    for a_idx in range(len(x)):
        rhs = np.zeros_like(V)
        for b_idx in range(len(x)):
            if R[a_idx, b_idx] != 0:
                rhs += R[a_idx, b_idx] * x[b_idx]
        worst = max(worst, safe_residual(alg, _comm(x[a_idx], V) - rhs, degree))
    residuals["state_vector_commutator"] = worst

    # (4) [z_i, [z_i, V]] = mu_i * identity
    z = z_operators(alg, sys)
    mu = mu_constants(P, sys.Etilde)
    worst = 0.0
    eye = np.eye(alg.total_dim)
    for i in range(sys.p):
        dc = _comm(z[i], _comm(z[i], V))
        worst = max(worst, safe_residual(alg, dc - mu[i] * eye, degree))
    residuals["double_commutator_constants"] = worst

    # (5) [V, f] = sum_i [V,z_i] df/dz_i - sum_i (df/dz_i)' [z_i',V]
    #              - (1/2) sum_i mu_i d2f/dz_i^2 + (1/2) sum_i mu_i* (d2f/dz_i^2)'
    F_op = operator_of_series(alg, sys, f)
    rhs5 = np.zeros_like(V)
    for i in range(1, sys.p + 1):
        Wi = operator_of_series(alg, sys, partial_z(f, i))
        W2i = operator_of_series(alg, sys, second_partial_z(f, i))
        zi = z[i - 1]
        rhs5 += _comm(V, zi) @ Wi - Wi.conj().T @ _comm(zi.conj().T, V)
        rhs5 += -0.5 * mu[i - 1] * W2i + 0.5 * np.conj(mu[i - 1]) * W2i.conj().T
    residuals["perturbation_commutator"] = safe_residual(
        alg, _comm(V, F_op) - rhs5, degree
    )
    return residuals


def fock_state(alg: TruncatedAlgebra, occupations: tuple[int, ...]) -> np.ndarray:
    """Density matrix of a number state |n1, n2, ...>."""
    if len(occupations) != alg.modes:
        raise StructureError(f"expected {alg.modes} occupation numbers")
    idx = 0
    for occ in occupations:
        if not 0 <= occ < alg.dim:
            raise StructureError(f"occupation {occ} outside truncation 0..{alg.dim - 1}")
        idx = idx * alg.dim + occ
    rho = np.zeros((alg.total_dim, alg.total_dim), dtype=complex)
    rho[idx, idx] = 1.0
    return rho


def coherent_state(alg: TruncatedAlgebra, alphas) -> np.ndarray:
    """Truncated, renormalized product of coherent states with amplitudes alphas."""
    alphas = np.asarray(alphas, dtype=complex)
    if alphas.shape != (alg.modes,):
        raise StructureError(f"expected {alg.modes} amplitudes, got {alphas.shape}")
    vec = np.ones(1, dtype=complex)
    for alpha in alphas:
        amps = np.empty(alg.dim, dtype=complex)
        amps[0] = 1.0
        for level in range(1, alg.dim):
            amps[level] = amps[level - 1] * alpha / math.sqrt(level)
        vec = np.kron(vec, amps)
    vec = vec / np.linalg.norm(vec)
    return np.outer(vec, vec.conj())


def msq_observable(alg: TruncatedAlgebra) -> np.ndarray:
    """Observable x'x = sum_i (a_i' a_i + a_i a_i') whose expectation is tracked."""
    return quadratic_form(alg, np.eye(2 * alg.modes))


# RK4 steps between full-spectrum positivity checks of rho.
POSITIVITY_CHECK_INTERVAL = 200


def default_dt(kappas, chi: float, dim: int) -> float:
    """Conservative fixed step for the RK4 integrator."""
    return 1e-3 / max(*kappas, chi * dim)


@dataclass
class FockTrajectory:
    """Mean-square expectation over time, optionally with the certified bound."""

    times: np.ndarray
    msq: np.ndarray
    bound: np.ndarray | None = None
    slack: np.ndarray | None = None

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.msq = np.asarray(self.msq, dtype=float)
        if self.times.shape != self.msq.shape:
            raise StructureError("times and msq must have equal lengths")


def lindblad_evolve(
    alg: TruncatedAlgebra,
    H: np.ndarray,
    L_ops: list[np.ndarray],
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    record_stride: int = 1,
) -> FockTrajectory:
    """Fixed-step RK4 integration of the master equation.

    The state is re-Hermitized after every step to suppress drift.  The run
    aborts if the trace drifts beyond 1e-6 (reduce dt) or an eigenvalue of
    rho falls below -1e-8 (positivity checks run every
    ``POSITIVITY_CHECK_INTERVAL`` steps and at the last).  H and the L_k are
    applied as sparse matrices: ladder-algebra operators are very sparse, and
    sparse products cut the per-step cost by an order of magnitude.  Accuracy
    requires dt * ||H|| to be small; the default step from ``default_dt`` is
    conservative for the systems treated here.
    """
    for name, value in (("dt", dt), ("t_final", t_final)):
        if not 0 < value < np.inf:
            raise StructureError(f"{name} must be positive and finite, got {value}")
    rho = np.asarray(rho0, dtype=complex).copy()
    if rho.shape != (alg.total_dim, alg.total_dim):
        raise StructureError(f"rho0 shape {rho.shape} does not match the algebra")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise StructureError(f"rho0 must have unit trace, got {tr}")
    if float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)))) < -1e-10:
        raise StructureError("rho0 must be positive semidefinite")
    rho /= np.trace(rho)

    K = sum((L.conj().T @ L for L in L_ops), np.zeros_like(rho))
    H_eff = -1j * np.asarray(H, dtype=complex) - 0.5 * K

    H_fast = sparse.csr_array(H_eff)
    L_fast = [(sparse.csr_array(L), sparse.csr_array(L.conj().T)) for L in L_ops]

    def rhs(r: np.ndarray) -> np.ndarray:
        Z = H_fast @ r
        out = Z + Z.conj().T
        for L, Ld in L_fast:
            out += (L @ r) @ Ld
        return out

    n_steps = max(1, int(round(t_final / dt)))
    observable = msq_observable(alg)

    def expect(r: np.ndarray) -> float:
        return float(np.einsum("ij,ji->", observable, r).real)

    times = [0.0]
    msq = [expect(rho)]
    for step in range(1, n_steps + 1):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        drift = abs(np.trace(rho).real - 1.0)
        if drift > 1e-6:
            raise SimulationError(
                f"trace drifted by {drift:.3e} at t={step * dt:.4g}; reduce dt"
            )
        if step % POSITIVITY_CHECK_INTERVAL == 0 or step == n_steps:
            min_eig = float(np.min(np.linalg.eigvalsh(rho)))
            if min_eig < -1e-8:
                raise SimulationError(
                    f"state lost positivity (min eig {min_eig:.3e}) at t={step * dt:.4g}"
                )
        if step % record_stride == 0 or step == n_steps:
            times.append(step * dt)
            msq.append(expect(rho))
    return FockTrajectory(times=np.array(times), msq=np.array(msq))


def check_ms_bound(
    traj: FockTrajectory, c1: float, c2: float, c3: float
) -> tuple[bool, float]:
    """Test msq(t) <= c1 exp(-c2 t) msq(0) + c3 + tol at every sample.

    The allowance tol = 1e-6 (1 + c3) absorbs truncation effects.  The
    trajectory is annotated with the bound and the pointwise slack; returns
    (holds everywhere, minimum slack).
    """
    tol = 1e-6 * (1.0 + c3)
    bound = c1 * np.exp(-c2 * traj.times) * traj.msq[0] + c3
    slack = bound + tol - traj.msq
    traj.bound = bound
    traj.slack = slack
    worst = float(np.min(slack))
    return bool(worst >= 0.0), worst
