"""Truncated-Fock-space oracle and Lindblad simulator.

Operator identities used by the certificate machinery are verified here as
finite matrix equations.  Truncating each mode at ``dim`` levels corrupts
only matrix elements near the truncation edge, so an identity built from
operators of ladder degree d is asserted on the safe subspace of states
whose per-mode excitation stays at or below dim - 1 - d.

The same algebra drives a density-matrix integrator for the master equation

    drho/dt = -i [H, rho] + sum_k ( L_k rho L_k' - (1/2) {L_k' L_k, rho} )

used to check the certified mean-square bound empirically.  The integrator
steps only the entries of rho that the trace and x'x depend on: the closure
of the diagonal under the sparsity of the Liouvillian superoperator.  For
the OPA this is the block that conserves q = N_left - N_right with
N = n1 + 2 n2 (Buca & Prosen, New J. Phys. 14 (2012)), found from the
sparsity alone; a system with nothing to decouple keeps every entry.
Positivity is then checked on the dephased state that is evolved, not on
the full rho.
"""

from __future__ import annotations

import functools
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
    """Doubled operator vector x = [a_1..a_n, a_1'..a_n'] on the tensor-product space.

    ``x`` is one read-only (2n, D, D) stack with D = dim**modes, built once
    by ``build_algebra``; ``a`` is its first n layers and x[n:] holds their
    conjugate transposes.  [a_i, a_j'] = delta_ij holds exactly on states
    whose mode-i excitation is at most dim - 2; the defect is confined to
    the truncation edge.
    """

    modes: int
    dim: int
    x: np.ndarray = field(repr=False)
    excitations: np.ndarray = field(repr=False)  # (total_dim, modes) int

    @property
    def a(self) -> np.ndarray:
        return self.x[: self.modes]

    @property
    def total_dim(self) -> int:
        return self.dim**self.modes


def build_algebra(modes: int, dim: int) -> TruncatedAlgebra:
    if modes < 1:
        raise StructureError(f"mode count must be positive, got {modes}")
    if dim < 3:
        raise TruncationError(f"need at least 3 Fock levels per mode, got {dim}")
    ladder = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    x = np.empty((2 * modes, dim**modes, dim**modes), dtype=complex)
    for i in range(modes):
        factors = [np.eye(dim)] * modes
        factors[i] = ladder
        x[i] = functools.reduce(np.kron, factors)
    x[modes:] = x[:modes].conj().transpose(0, 2, 1)
    x.setflags(write=False)
    levels = np.arange(dim)
    grids = np.meshgrid(*([levels] * modes), indexing="ij")
    exc = np.stack([g.ravel() for g in grids], axis=1)
    return TruncatedAlgebra(modes=modes, dim=dim, x=x, excitations=exc)


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
    """Largest matrix-element magnitude of X, a matrix or a stack of them,
    restricted to the safe subspace."""
    mask = safe_mask(alg, degree)
    block = X[..., mask, :][..., mask]
    return float(np.max(np.abs(block))) if block.size else 0.0


def _linear_forms(alg: TruncatedAlgebra, A: np.ndarray) -> np.ndarray:
    """Stack of the operators sum_b A[i, b] x_b, one per row i of A."""
    if A.shape[-1] != len(alg.x):
        raise StructureError(
            f"coefficients for {A.shape[-1] // 2} modes but the algebra has {alg.modes}"
        )
    return np.tensordot(A, alg.x, 1)


def quadratic_form(alg: TruncatedAlgebra, A: np.ndarray) -> np.ndarray:
    """Matrix of sum_ab A[a,b] x_a' x_b over the doubled operator vector.

    Computed as one product sum_r x_r' (sum_b A[r,b] x_b) over the nonzero
    rows r of A only, so a zero form costs no product.  x_r' is the layer
    of x half a stack away, so no conjugate transpose is formed.
    """
    A = np.asarray(A, dtype=complex)
    size = len(alg.x)
    if A.shape != (size, size):
        raise StructureError(f"expected a {size}x{size} form, got {A.shape}")
    rows = np.flatnonzero(np.any(A != 0, axis=1))
    D = alg.total_dim
    left = alg.x[(rows + alg.modes) % size].transpose(1, 0, 2).reshape(D, rows.size * D)
    return left @ _linear_forms(alg, A[rows]).reshape(rows.size * D, D)


def z_operators(alg: TruncatedAlgebra, sys: LinearQuantumSystem) -> np.ndarray:
    """Stack of the channel operators z_i = sum_j E1[i,j] a_j + E2[i,j] a_j'."""
    return _linear_forms(alg, sys.Etilde)


def coupling_operators(alg: TruncatedAlgebra, sys: LinearQuantumSystem) -> np.ndarray:
    """Stack of the coupling operators L_i = sum_j N1[i,j] a_j + N2[i,j] a_j'."""
    return _linear_forms(alg, sys.N[: sys.m])


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
    V = quadratic_form(alg, P)
    residuals: dict[str, float] = {}

    # (1) [V, (1/2) x'Mx] = x'(PJM - MJP)x
    Hq = 0.5 * quadratic_form(alg, M)
    rhs1 = quadratic_form(alg, P @ sm.J @ M - M @ sm.J @ P)
    residuals["quadratic_hamiltonian_commutator"] = safe_residual(
        alg, _comm(V, Hq) - rhs1, degree
    )

    # (2) (1/2) L'[V,L] + (1/2)[L',V]L = tr(P J N' proj N J) - (1/2) x'(N'JNJP + PJN'JN)x
    L = coupling_operators(alg, sys)
    Ld = L.conj().transpose(0, 2, 1)
    lhs2 = 0.5 * (Ld @ _comm(V, L) + _comm(Ld, V) @ L).sum(axis=0)
    proj = np.zeros((2 * sys.m, 2 * sys.m))
    proj[: sys.m, : sys.m] = np.eye(sys.m)
    Jm = np.diag(np.r_[np.ones(sys.m), -np.ones(sys.m)])
    trace_term = np.trace(P @ sm.J @ N.conj().T @ proj @ N @ sm.J)
    quad = N.conj().T @ Jm @ N @ sm.J @ P + P @ sm.J @ N.conj().T @ Jm @ N
    rhs2 = trace_term * np.eye(alg.total_dim) - 0.5 * quadratic_form(alg, quad)
    residuals["coupling_dissipation"] = safe_residual(alg, lhs2 - rhs2, degree)

    # (3) [x_a, x'Px] = (2JPx)_a componentwise
    residuals["state_vector_commutator"] = safe_residual(
        alg, _comm(alg.x, V) - _linear_forms(alg, 2.0 * sm.J @ P), degree
    )

    # (4) [z_i, [z_i, V]] = mu_i * identity
    z = z_operators(alg, sys)
    mu = mu_constants(P, sys.Etilde)
    residuals["double_commutator_constants"] = safe_residual(
        alg, _comm(z, _comm(z, V)) - mu[:, None, None] * np.eye(alg.total_dim), degree
    )

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
    # A non-finite amplitude, or one that overflows, leaves a non-finite norm.
    with np.errstate(over="ignore", invalid="ignore"):
        for alpha in alphas:
            amps = np.empty(alg.dim, dtype=complex)
            amps[0] = 1.0
            for level in range(1, alg.dim):
                amps[level] = amps[level - 1] * alpha / math.sqrt(level)
            vec = np.kron(vec, amps)
        norm = np.linalg.norm(vec)
    if not np.isfinite(norm):
        raise StructureError(f"amplitudes {alphas} give no finite truncated state")
    vec = vec / norm
    return np.outer(vec, vec.conj())


def msq_observable(alg: TruncatedAlgebra) -> np.ndarray:
    """Observable x'x = sum_i (a_i' a_i + a_i a_i') whose expectation is tracked."""
    return quadratic_form(alg, np.eye(2 * alg.modes))


# RK4 steps between positivity checks of the evolved blocks of rho.
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


def _liouvillian(H_eff: np.ndarray, L_ops: list[np.ndarray]) -> sparse.csr_array:
    """Sparse superoperator of the master equation on row-major vec(rho).

    Row-major vec gives vec(A rho B) = (A kron B^T) vec(rho), so
    H_eff rho + rho H_eff' + sum_k L_k rho L_k' becomes
    H_eff kron I + I kron conj(H_eff) + sum_k L_k kron conj(L_k).
    """
    eye = sparse.identity(H_eff.shape[0], dtype=complex, format="csr")
    h = sparse.csr_array(H_eff)
    sup = sparse.kron(h, eye, format="csr")
    sup += sparse.kron(eye, h.conj(), format="csr")
    for L in L_ops:
        ls = sparse.csr_array(L)
        sup += sparse.kron(ls, ls.conj(), format="csr")
    return sup


def _kept_entries(sup: sparse.csr_array, seed: np.ndarray) -> np.ndarray:
    """Closure of ``seed`` under the entries its rows of ``sup`` read.

    The returned mask K satisfies sup[K, ~K] = 0, so the entries in K evolve
    on their own, exactly.  Each round takes the boolean product of the
    frontier's indicator with the sparsity pattern of ``sup``: the columns
    of the frontier's rows.
    """
    keep = seed.copy()
    frontier = np.flatnonzero(seed)
    while frontier.size:
        reached = sup[frontier].indices
        frontier = np.unique(reached[~keep[reached]])
        keep[frontier] = True
    return keep


def _square_blocks(keep: np.ndarray, n: int) -> list[np.ndarray] | None:
    """Index blocks B with keep = union of B x B, or None if there are none."""
    mask = keep.reshape(n, n)
    assigned = np.zeros(n, dtype=bool)
    blocks = []
    for i in range(n):
        if assigned[i]:
            continue
        block = np.flatnonzero(mask[i])
        if mask[block].sum() != block.size**2 or not mask[np.ix_(block, block)].all():
            return None
        assigned[block] = True
        blocks.append(block)
    return blocks


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

    Only the entries of rho that the trace and x'x depend on are evolved:
    the closure of the diagonal and the support of x'x under the sparsity of
    the Liouvillian superoperator.  The closure reads no entry outside
    itself, so the kept entries evolve exactly as they would inside the full
    rho.  For the OPA it is the block q = N_left - N_right = 0 (N = n1 + 2 n2),
    724 of 20 736 entries at dim 12; when nothing decouples it is all of rho.

    The run takes n = ceil(t_final / dt) equal steps of t_final / n, so the
    last sample is at t_final and no step is longer than dt; a ratio within
    1e-9 of an integer counts as that integer.  The state is re-Hermitized
    after every step.  The run aborts if the trace drifts beyond 1e-6 (reduce
    dt) or an eigenvalue falls below -1e-8.  Positivity is checked every
    ``POSITIVITY_CHECK_INTERVAL`` steps and at the last, on the square blocks
    that the kept entries form (the N-sectors for the OPA), or on the whole
    rho if they form none.  That is the positivity of the dephased state the
    run evolves, which is weaker than a check of the full rho when rho0 has
    coherences between blocks.  Accuracy requires dt * ||H|| to be small; the
    default step from ``default_dt`` is conservative for the systems treated
    here.
    """
    for name, value in (("dt", dt), ("t_final", t_final)):
        if not 0 < value < np.inf:
            raise StructureError(f"{name} must be positive and finite, got {value}")
    if record_stride < 1:
        raise StructureError(f"record_stride must be at least 1, got {record_stride}")
    rho = np.asarray(rho0, dtype=complex).copy()
    n = alg.total_dim
    if rho.shape != (n, n):
        raise StructureError(f"rho0 shape {rho.shape} does not match the algebra")
    tr = np.trace(rho).real
    if abs(tr - 1.0) > 1e-8:
        raise StructureError(f"rho0 must have unit trace, got {tr}")
    if float(np.min(np.linalg.eigvalsh(0.5 * (rho + rho.conj().T)))) < -1e-10:
        raise StructureError("rho0 must be positive semidefinite")
    rho /= np.trace(rho)

    K = sum((L.conj().T @ L for L in L_ops), np.zeros_like(rho))
    H_eff = -1j * np.asarray(H, dtype=complex) - 0.5 * K
    sup = _liouvillian(H_eff, L_ops)
    observable = msq_observable(alg)
    # msq = sum_ij O[i, j] rho[j, i] reads rho on the support of O^T.
    seed = (observable.T != 0).ravel()
    seed[:: n + 1] = True
    keep = _kept_entries(sup, seed)
    blocks = _square_blocks(keep, n)
    if blocks is None:
        keep[:] = True
        blocks = [np.arange(n)]
    kept = np.flatnonzero(keep)
    sup = sup[kept]  # rebinding frees the full operator before the column cut
    step_op = sup[:, kept]
    del sup
    # Position of each kept (i, j) in the state vector.  The kept set holds
    # (j, i) with (i, j): the superoperator pairs every factor with its
    # conjugate, so its pattern, like the seed, is symmetric under transposition.
    where = np.full(n * n, -1)
    where[kept] = np.arange(kept.size)
    rows, cols = np.divmod(kept, n)
    transpose = where[cols * n + rows]
    diagonal = where[:: n + 1]
    block_views = [where[b[:, None] * n + b[None, :]] for b in blocks]
    weights = observable.T.ravel()[kept]
    v = rho.ravel()[kept]

    ratio = t_final / dt
    whole = round(ratio)
    n_steps = max(1, whole if abs(ratio - whole) <= 1e-9 else math.ceil(ratio))
    h = t_final / n_steps

    def expect(x: np.ndarray) -> float:
        return float((weights @ x).real)

    times = [0.0]
    msq = [expect(v)]
    for step in range(1, n_steps + 1):
        t = t_final if step == n_steps else step * h
        k1 = step_op @ v
        k2 = step_op @ (v + 0.5 * h * k1)
        k3 = step_op @ (v + 0.5 * h * k2)
        k4 = step_op @ (v + h * k3)
        v = v + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        v = 0.5 * (v + v[transpose].conj())
        drift = abs(v[diagonal].sum().real - 1.0)
        if drift > 1e-6:
            raise SimulationError(
                f"trace drifted by {drift:.3e} at t={t:.4g}; reduce dt"
            )
        if step % POSITIVITY_CHECK_INTERVAL == 0 or step == n_steps:
            min_eig = min(float(np.linalg.eigvalsh(v[b])[0]) for b in block_views)
            if min_eig < -1e-8:
                raise SimulationError(
                    f"state lost positivity (min eig {min_eig:.3e}) at t={t:.4g}"
                )
        if step % record_stride == 0 or step == n_steps:
            times.append(t)
            msq.append(expect(v))
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
