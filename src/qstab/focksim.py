"""Truncated-Fock-space oracle and Lindblad simulator.

Operator identities used by the certificate machinery are verified here as
finite matrix equations.  Truncating each mode at ``dim`` levels corrupts
only matrix elements near the truncation edge, so an identity built from
operators of ladder degree d is asserted on the safe subspace of states
whose per-mode excitation stays at or below dim - 1 - d.

Every operator is stored by its flat diagonals: entry M[r, r + o] of the
D x D matrix for each of a few offsets o.  A truncated ladder operator is a
single diagonal, and a short polynomial in ladder operators has only a
handful, so a product costs O(D) per pair of diagonals instead of the
O(D^3) of a dense product.  The same storage serves stacks of operators,
which share their offsets.  No function here returns a dense operator;
``toarray`` and ``tocsr`` convert one.

The same algebra drives a density-matrix integrator for the master equation

    drho/dt = -i [H, rho] + sum_k ( L_k rho L_k' - (1/2) {L_k' L_k, rho} )

used to check the certified mean-square bound empirically.  Its operators
are converted to CSR once.  The integrator steps only the entries of rho
that the trace and x'x depend on: the closure of the diagonal under the
sparsity of the Liouvillian superoperator.  For the OPA this is the block
that conserves q = N_left - N_right with N = n1 + 2 n2 (Buca & Prosen,
New J. Phys. 14 (2012)), found from the sparsity alone; a system with
nothing to decouple keeps every entry.  Positivity is then checked on the
dephased state that is evolved, not on the full rho.
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


class _Diagonals:
    """A D x D operator, or a stack of them, stored by its flat diagonals.

    ``data[..., j, r] = M[r, r + offsets[j]]``, zero where the column falls
    outside the space; ``offsets`` is sorted and free of repeats.  Leading
    axes of ``data`` index a stack of operators that share the offsets, and
    every operation broadcasts over them.
    """

    __slots__ = ("offsets", "data")
    __array_ufunc__ = None  # so that ndarray * op defers to __rmul__

    def __init__(self, offsets: np.ndarray, data: np.ndarray):
        self.offsets = offsets
        self.data = data

    @property
    def dim(self) -> int:
        return self.data.shape[-1]

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape[:-2] + (self.dim, self.dim)

    def __len__(self) -> int:
        if self.data.ndim < 3:
            raise TypeError("a single operator is not a stack")
        return self.data.shape[0]

    def __getitem__(self, index) -> _Diagonals:
        """Operators of the stack at ``index``."""
        if self.data.ndim < 3:
            raise TypeError("a single operator is not a stack")
        return _Diagonals(self.offsets, self.data[index])

    def __iter__(self):
        return (self[i] for i in range(len(self)))

    def __neg__(self) -> _Diagonals:
        return _Diagonals(self.offsets, -self.data)

    def __mul__(self, c) -> _Diagonals:
        """Scalar multiple; an array of scalars multiplies the stack layer by layer."""
        return _Diagonals(self.offsets, self.data * np.asarray(c)[..., None, None])

    __rmul__ = __mul__

    def __add__(self, other: _Diagonals) -> _Diagonals:
        if not isinstance(other, _Diagonals):
            return NotImplemented
        if np.array_equal(self.offsets, other.offsets):
            return _Diagonals(self.offsets, self.data + other.data)
        return _stack([self, other]).sum()

    def __sub__(self, other: _Diagonals) -> _Diagonals:
        return self + (-other)

    def __matmul__(self, other: _Diagonals) -> _Diagonals:
        # (AB)[r, r + oa + ob] = sum A[r, r + oa] B[r + oa, r + oa + ob] over
        # the pairs of diagonals; one real matrix product does the sum.
        offsets, ia, starts, fold = _product_plan(
            self.offsets.tobytes(), other.offsets.tobytes(), self.dim
        )
        reads = starts[:, None] + np.arange(self.dim)
        left = np.take(self.data, ia, axis=-2)
        right = np.take(_flat(other.data), reads, axis=-1, mode="clip")
        terms = np.multiply(left, right, order="C")
        return _Diagonals(offsets, np.matmul(fold, terms.view(float)).view(complex))

    def adjoint(self) -> _Diagonals:
        offsets, reads, inside = _adjoint_plan(self.offsets.tobytes(), self.dim)
        return _Diagonals(offsets, np.take(_flat(self.data), reads, axis=-1).conj() * inside)

    def sum(self) -> _Diagonals:
        """Sum of the stack along its first axis."""
        return _Diagonals(self.offsets, self.data.sum(axis=0))

    def _entries(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Rows and columns of the stored entries inside the space, and their mask."""
        d = self.dim
        rows = np.broadcast_to(np.arange(d), (self.offsets.size, d))
        cols = rows + self.offsets[:, None]
        inside = (cols >= 0) & (cols < d)
        return rows[inside], cols[inside], inside

    def toarray(self) -> np.ndarray:
        rows, cols, inside = self._entries()
        out = np.zeros(self.shape, dtype=complex)
        out[..., rows, cols] = self.data[..., inside]
        return out

    def tocsr(self) -> sparse.csr_array:
        """CSR matrix of a single operator, without the stored zeros."""
        rows, cols, inside = self._entries()
        values = self.data[inside]
        nonzero = values != 0
        return sparse.csr_array(
            (values[nonzero], (rows[nonzero], cols[nonzero])), shape=self.shape
        )


def _flat(data: np.ndarray) -> np.ndarray:
    """Diagonals of each operator laid end to end."""
    return data.reshape(data.shape[:-2] + (data.shape[-2] * data.shape[-1],))


@functools.lru_cache(maxsize=256)
def _product_plan(oa_key: bytes, ob_key: bytes, d: int):
    """How to multiply operators with offsets oa and ob in a space of
    dimension d, for the pairs of diagonals whose offsets add up to one
    inside the space: the product's offsets; the left diagonal of each
    pair; the position in the right operator's flat data that row 0 of the
    pair reads, B[oa, oa + ob]; and the 0/1 matrix that sums each pair into
    its offset.  Row r reads r positions further on.  Where r + oa leaves
    the space that read lands on a neighbouring diagonal, or is clipped to
    the ends, but A[r, r + oa] is zero there.

    A few offset patterns cover every product, so plans are kept, read-only,
    by the bytes of the offsets."""
    oa, ob = np.frombuffer(oa_key, dtype=int), np.frombuffer(ob_key, dtype=int)
    sums = (oa[:, None] + ob[None, :]).ravel()
    pairs = np.flatnonzero(np.abs(sums) < d)
    offsets, which = np.unique(sums[pairs], return_inverse=True)
    fold = np.zeros((offsets.size, pairs.size))
    fold[which, np.arange(pairs.size)] = 1.0
    ia, ib = np.divmod(pairs, ob.size)
    starts = ib * d + oa[ia]
    for array in (offsets, ia, starts, fold):
        array.setflags(write=False)
    return offsets, ia, starts, fold


@functools.lru_cache(maxsize=256)
def _adjoint_plan(key: bytes, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets of the adjoint of an operator with the given offsets, where
    in its flat data each entry of the adjoint is read, and which entries
    fall inside the space: A'[r, r - o] = conj(A[r - o, r]) is diagonal o of
    A read at row r - o."""
    source = np.frombuffer(key, dtype=int)[::-1]
    rows = np.arange(d) - source[:, None]
    inside = (rows >= 0) & (rows < d)
    reads = np.arange(source.size - 1, -1, -1)[:, None] * d + np.clip(rows, 0, d - 1)
    offsets = -source
    for array in (offsets, reads, inside):
        array.setflags(write=False)
    return offsets, reads, inside


@functools.lru_cache(maxsize=256)
def _union_plan(keys: tuple[bytes, ...]) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """The union of several offset arrays, given by their bytes, and where
    each array's offsets sit in it."""
    parts = [np.frombuffer(key, dtype=int) for key in keys]
    offsets = np.unique(np.concatenate(parts))
    places = tuple(np.searchsorted(offsets, part) for part in parts)
    for array in [offsets, *places]:
        array.setflags(write=False)
    return offsets, places


def _stack(ops: list[_Diagonals]) -> _Diagonals:
    """Operators, or stacks that broadcast together, stacked along a new
    first axis on the union of their offsets."""
    offsets, places = _union_plan(tuple(op.offsets.tobytes() for op in ops))
    shape = np.broadcast_shapes(*(op.data.shape[:-2] for op in ops))
    data = np.zeros((len(ops),) + shape + (offsets.size, ops[0].dim), dtype=complex)
    for layer, place, op in zip(data, places, ops):
        layer[..., place, :] = op.data
    return _Diagonals(offsets, data)


def _identity(d: int) -> _Diagonals:
    return _Diagonals(np.zeros(1, dtype=int), np.ones((1, d), dtype=complex))


def _comm(A: _Diagonals, B: _Diagonals) -> _Diagonals:
    AB, BA = A @ B, B @ A  # the same offset pairs, so the same offsets
    return _Diagonals(AB.offsets, AB.data - BA.data)


@dataclass(frozen=True)
class TruncatedAlgebra:
    """Doubled operator vector x = [a_1..a_n, a_1'..a_n'] on the tensor-product space.

    ``x`` is one read-only stack of 2n operators with D = dim**modes,
    built once by ``build_algebra``; ``a`` is its first n layers and x[n:]
    holds their adjoints.  Mode i shifts the flat index by dim**(n-1-i), so
    a_i is the single diagonal at that offset and a_i' the one at minus it.
    ``xx`` is the (2n, 2n) stack of the products x_a' x_b, from which every
    quadratic form is one contraction.  [a_i, a_j'] = delta_ij holds exactly
    on states whose mode-i excitation is at most dim - 2; the defect is
    confined to the truncation edge.
    """

    modes: int
    dim: int
    x: _Diagonals = field(repr=False)
    xx: _Diagonals = field(repr=False)
    excitations: np.ndarray = field(repr=False)  # (total_dim, modes) int

    @property
    def a(self) -> _Diagonals:
        return self.x[: self.modes]

    @property
    def total_dim(self) -> int:
        return self.dim**self.modes


def build_algebra(modes: int, dim: int) -> TruncatedAlgebra:
    if modes < 1:
        raise StructureError(f"mode count must be positive, got {modes}")
    if dim < 3:
        raise TruncationError(f"need at least 3 Fock levels per mode, got {dim}")
    levels = np.arange(dim)
    grids = np.meshgrid(*([levels] * modes), indexing="ij")
    exc = np.stack([g.ravel() for g in grids], axis=1)
    strides = dim ** np.arange(modes - 1, -1, -1)
    offsets = np.r_[-strides, strides[::-1]]
    # a_i[r, r + s_i] = sqrt(e_i + 1) below the edge; a_i'[r, r - s_i] = sqrt(e_i)
    data = np.zeros((2 * modes, 2 * modes, dim**modes), dtype=complex)
    for i in range(modes):
        e = exc[:, i]
        data[i, 2 * modes - 1 - i] = np.sqrt(e + 1.0) * (e < dim - 1)
        data[modes + i, i] = np.sqrt(e)
    data.setflags(write=False)
    x = _Diagonals(offsets, data)
    xx = x.adjoint()[:, None] @ x[None, :]
    xx.data.setflags(write=False)
    return TruncatedAlgebra(modes=modes, dim=dim, x=x, xx=xx, excitations=exc)


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


def safe_residual(alg: TruncatedAlgebra, X: _Diagonals, degree: int) -> float:
    """Largest matrix-element magnitude of X, an operator or a stack of them,
    restricted to the safe subspace."""
    mask = safe_mask(alg, degree)
    d = alg.total_dim
    cols = np.arange(d) + X.offsets[:, None]
    inside = (cols >= 0) & (cols < d)
    block = X.data[..., inside & mask & mask[np.clip(cols, 0, d - 1)]]
    return float(np.max(np.abs(block))) if block.size else 0.0


def _linear_forms(alg: TruncatedAlgebra, A: np.ndarray) -> _Diagonals:
    """Stack of the operators sum_b A[i, b] x_b, one per row i of A."""
    if A.shape[-1] != len(alg.x):
        raise StructureError(
            f"coefficients for {A.shape[-1] // 2} modes but the algebra has {alg.modes}"
        )
    x = alg.x.data
    return _Diagonals(alg.x.offsets, (A @ _flat(x)).reshape(A.shape[:-1] + x.shape[-2:]))


def quadratic_form(alg: TruncatedAlgebra, A: np.ndarray) -> _Diagonals:
    """Operator sum_ab A[a,b] x_a' x_b over the doubled operator vector,
    contracted from the stored products x_a' x_b."""
    A = np.asarray(A, dtype=complex)
    size = len(alg.x)
    if A.shape != (size, size):
        raise StructureError(f"expected a {size}x{size} form, got {A.shape}")
    xx = alg.xx.data
    flat = A.ravel() @ xx.reshape(size**2, -1)
    return _Diagonals(alg.xx.offsets, flat.reshape(xx.shape[-2:]))


def z_operators(alg: TruncatedAlgebra, sys: LinearQuantumSystem) -> _Diagonals:
    """Stack of the channel operators z_i = sum_j E1[i,j] a_j + E2[i,j] a_j'."""
    return _linear_forms(alg, sys.Etilde)


def coupling_operators(alg: TruncatedAlgebra, sys: LinearQuantumSystem) -> _Diagonals:
    """Stack of the coupling operators L_i = sum_j N1[i,j] a_j + N2[i,j] a_j'."""
    return _linear_forms(alg, sys.N[: sys.m])


def operator_of_series(
    alg: TruncatedAlgebra, sys: LinearQuantumSystem, f: PerturbationSeries
) -> _Diagonals:
    """Operator sum S[i,j,k,l] z_i^k (z_j')^l with literal left-to-right order.

    For a self-adjoint series the result is exactly Hermitian as a matrix;
    truncation artifacts live outside the safe subspace.
    """
    if f.total_degree > alg.dim - 1:
        raise TruncationError(
            f"series degree {f.total_degree} exceeds truncation dim-1 = {alg.dim - 1}"
        )
    # z_j' is the linear form Etilde^# Sigma in x
    zdag = _linear_forms(alg, sys.Etilde.conj() @ structure_matrices(sys.n).Sigma)
    bases = {"z": z_operators(alg, sys), "zdag": zdag}
    powers: dict[tuple[str, int, int], _Diagonals] = {}

    def power(kind: str, channel: int, exponent: int) -> _Diagonals:
        key = (kind, channel, exponent)
        if key not in powers:
            base = bases[kind][channel - 1]
            powers[key] = base if exponent == 1 else power(kind, channel, exponent - 1) @ base
        return powers[key]

    zero = _Diagonals(np.zeros(0, dtype=int), np.zeros((0, alg.total_dim), dtype=complex))
    terms = [zero]
    for (i, j, k, l), c in f.coeffs.items():
        if k and l:
            term = power("z", i, k) @ power("zdag", j, l)
        elif k or l:
            term = power("z", i, k) if k else power("zdag", j, l)
        else:
            term = _identity(alg.total_dim)
        terms.append(c * term)
    return _stack(terms).sum()


def check_commutator_identities(
    alg: TruncatedAlgebra,
    sys: LinearQuantumSystem,
    f: PerturbationSeries,
    P: np.ndarray,
) -> dict[str, float]:
    """Verify the commutator identities behind the certificate, as matrices.

    P must be a finite Hermitian 2n x 2n matrix with the block structure
    P = Sigma P^# Sigma; the identities are specific to that class.  Returns
    the maximum safe-subspace residual for each identity:

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
    size = 2 * sys.n
    if P.shape != (size, size):
        raise StructureError(f"P must be {size}x{size}, got shape {P.shape}")
    if not np.all(np.isfinite(P)):
        raise StructureError("P must be finite")
    sm = structure_matrices(sys.n)
    scale = 1.0 + float(np.max(np.abs(P)))
    if np.max(np.abs(P - P.conj().T)) > 1e-12 * scale:
        raise StructureError("P must be Hermitian")
    if np.max(np.abs(P - sm.Sigma @ P.conj() @ sm.Sigma)) > 1e-10 * scale:
        raise StructureError("P must have the block structure Sigma P^# Sigma = P")

    degree = max(2, f.total_degree)
    V = quadratic_form(alg, P)
    eye = _identity(alg.total_dim)
    residuals: dict[str, float] = {}

    # x, z, z', L and L' are linear forms in x, with (A x)' = A^# Sigma x, so
    # one stacked commutator gives all their commutators with V.
    Nm = N[: sys.m]
    forms = [np.eye(size), sys.Etilde, sys.Etilde.conj() @ sm.Sigma, Nm, Nm.conj() @ sm.Sigma]
    linear = _linear_forms(alg, np.vstack(forms))
    with_V = _comm(linear, V)
    bounds = np.cumsum([0, size, sys.p, sys.p, sys.m, sys.m])
    parts = [slice(a, b) for a, b in zip(bounds[:-1], bounds[1:])]
    _, z, _, L, Ld = (linear[part] for part in parts)
    xV, zV, zdV, LV, LdV = (with_V[part] for part in parts)

    # (1) [V, (1/2) x'Mx] = x'(PJM - MJP)x
    Hq = 0.5 * quadratic_form(alg, M)
    rhs1 = quadratic_form(alg, P @ sm.J @ M - M @ sm.J @ P)
    residuals["quadratic_hamiltonian_commutator"] = safe_residual(
        alg, _comm(V, Hq) - rhs1, degree
    )

    # (2) (1/2) L'[V,L] + (1/2)[L',V]L = tr(P J N' proj N J) - (1/2) x'(N'JNJP + PJN'JN)x
    #     with [V, L] = -[L, V] exactly
    lhs2 = 0.5 * (LdV @ L - Ld @ LV).sum()
    proj = np.zeros((2 * sys.m, 2 * sys.m))
    proj[: sys.m, : sys.m] = np.eye(sys.m)
    Jm = np.diag(np.r_[np.ones(sys.m), -np.ones(sys.m)])
    trace_term = np.trace(P @ sm.J @ N.conj().T @ proj @ N @ sm.J)
    quad = N.conj().T @ Jm @ N @ sm.J @ P + P @ sm.J @ N.conj().T @ Jm @ N
    rhs2 = trace_term * eye - 0.5 * quadratic_form(alg, quad)
    residuals["coupling_dissipation"] = safe_residual(alg, lhs2 - rhs2, degree)

    # (3) [x_a, x'Px] = (2JPx)_a componentwise
    residuals["state_vector_commutator"] = safe_residual(
        alg, xV - _linear_forms(alg, 2.0 * sm.J @ P), degree
    )

    # (4) [z_i, [z_i, V]] = mu_i * identity
    mu = mu_constants(P, sys.Etilde)
    residuals["double_commutator_constants"] = safe_residual(
        alg, _comm(z, zV) - mu * eye, degree
    )

    # (5) [V, f] = sum_i [V,z_i] df/dz_i - sum_i (df/dz_i)' [z_i',V]
    #              - (1/2) sum_i mu_i d2f/dz_i^2 + (1/2) sum_i mu_i* (d2f/dz_i^2)'
    #     with the channels i as one stack
    channels = range(1, sys.p + 1)
    W = _stack([operator_of_series(alg, sys, partial_z(f, i)) for i in channels])
    W2 = _stack([operator_of_series(alg, sys, second_partial_z(f, i)) for i in channels])
    rhs5 = (
        -zV @ W - W.adjoint() @ zdV - 0.5 * mu * W2 + 0.5 * np.conj(mu) * W2.adjoint()
    ).sum()
    residuals["perturbation_commutator"] = safe_residual(
        alg, _comm(V, operator_of_series(alg, sys, f)) - rhs5, degree
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


def msq_observable(alg: TruncatedAlgebra) -> _Diagonals:
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


def _liouvillian(
    H_eff: sparse.csr_array, L_ops: list[sparse.csr_array]
) -> sparse.csr_array:
    """Sparse superoperator of the master equation on row-major vec(rho).

    Row-major vec gives vec(A rho B) = (A kron B^T) vec(rho), so
    H_eff rho + rho H_eff' + sum_k L_k rho L_k' becomes
    H_eff kron I + I kron conj(H_eff) + sum_k L_k kron conj(L_k).
    """
    eye = sparse.identity(H_eff.shape[0], dtype=complex, format="csr")
    sup = sparse.kron(H_eff, eye, format="csr")
    sup += sparse.kron(eye, H_eff.conj(), format="csr")
    for L in L_ops:
        sup += sparse.kron(L, L.conj(), format="csr")
    return sup


def _as_csr(op, n: int, name: str) -> sparse.csr_array:
    """CSR matrix of an operator of this module, or of any n x n matrix."""
    if not isinstance(op, _Diagonals):
        op = np.asarray(op, dtype=complex)
    if op.shape != (n, n):
        raise StructureError(f"{name} has shape {op.shape}, but the algebra is {n}x{n}")
    return op.tocsr() if isinstance(op, _Diagonals) else sparse.csr_array(op)


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
    H,
    L_ops,
    rho0: np.ndarray,
    t_final: float,
    dt: float,
    record_stride: int = 1,
) -> FockTrajectory:
    """Fixed-step RK4 integration of the master equation.

    H and each of L_ops (a list or a stack) are operators of this module or
    D x D matrices; each is converted to CSR once.
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

    L_ops = [_as_csr(L, n, f"L_ops[{k}]") for k, L in enumerate(L_ops)]
    K = sum((L.conj().T @ L for L in L_ops), sparse.csr_array((n, n), dtype=complex))
    H_eff = -1j * _as_csr(H, n, "H") - 0.5 * K
    sup = _liouvillian(H_eff, L_ops)
    # msq = sum_ij O[i, j] rho[j, i] reads rho on the support of O^T.
    observable = msq_observable(alg).tocsr().tocoo()
    support = observable.col * n + observable.row
    seed = np.zeros(n * n, dtype=bool)
    seed[support] = True
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
    weights = np.zeros(kept.size, dtype=complex)
    weights[where[support]] = observable.data
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
