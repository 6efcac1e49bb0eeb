import functools
import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.linalg import expm
from scipy.sparse.linalg import expm_multiply

import qstab.focksim
from conftest import SEED, random_block_P, random_system
from qstab.certify import certify, mu_constants
from qstab.errors import SimulationError, StructureError, TruncationError
from qstab.focksim import (
    STEP_BOUND,
    build_algebra,
    check_commutator_identities,
    check_ms_bound,
    _Diagonals,
    _closure,
    _flat,
    _identity,
    _kept_superoperator,
    _linear_forms,
    _mask_plan,
    _masked_max,
    _product_plan,
    _series_operators,
    _square_blocks,
    _superoperator_terms,
    _stack,
    _union_plan,
    _zero,
    coherent_state,
    coupling_operators,
    default_dt,
    fock_state,
    lindblad_evolve,
    msq_observable,
    operator_of_series,
    quadratic_form,
    safe_mask,
    safe_residual,
    z_operators,
)
from qstab.model import LinearQuantumSystem
from qstab.opa import OpaParams, build_opa
from qstab.perturbation import PerturbationSeries, SectorBounds, validate_selfadjoint


def comm(A, B):
    return A @ B - B @ A


def dense_rk4_msq(alg, H, L_ops, rho0, t_final, dt):
    """Reference propagator: RK4 on the whole dense rho, nothing reduced."""
    K = sum((L.conj().T @ L for L in L_ops), np.zeros_like(rho0))
    H_eff = -1j * H - 0.5 * K

    def rhs(r):
        Z = H_eff @ r
        out = Z + Z.conj().T
        for L in L_ops:
            out += L @ r @ L.conj().T
        return out

    obs = msq_observable(alg).toarray()
    rho = rho0.copy()
    msq = [np.trace(obs @ rho).real]
    for _ in range(round(t_final / dt)):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * dt * k1)
        k3 = rhs(rho + 0.5 * dt * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        msq.append(np.trace(obs @ rho).real)
    return np.array(msq)


class TestAlgebra:
    def test_single_mode_ladder_entries(self):
        alg = build_algebra(1, 4)
        a = alg.a[0].toarray()
        assert a[0, 1] == pytest.approx(1.0)
        assert a[1, 2] == pytest.approx(np.sqrt(2.0))
        assert a[2, 3] == pytest.approx(np.sqrt(3.0))
        assert np.count_nonzero(alg.a[0].data) == 3

    def test_ccr_exact_below_edge(self):
        alg = build_algebra(1, 4)
        a = alg.a[0].toarray()
        defect = comm(a, a.conj().T) - np.eye(4)
        # machine-exact on |0>, |1>, |2>; corrupted only at the truncation edge
        assert np.max(np.abs(defect[:3, :3])) <= 1e-13
        assert defect[3, 3] == pytest.approx(-4.0)

    def test_distinct_modes_commute(self):
        alg = build_algebra(2, 3)
        assert alg.total_dim == 9
        a1, a2 = alg.a.toarray()
        assert np.max(np.abs(comm(a1, a2.conj().T))) == 0.0
        assert np.max(np.abs(comm(a1, a2))) == 0.0

    def test_doubled_vector_is_one_read_only_stack(self):
        alg = build_algebra(2, 4)
        assert alg.x.shape == (4, 16, 16)
        assert not alg.x.data.flags.writeable
        with pytest.raises(ValueError):
            alg.x.data[0, 0, 1] = 0.0
        x = alg.x.toarray()
        assert np.array_equal(alg.a.toarray(), x[:2])
        for i in range(2):
            assert np.array_equal(x[2 + i], x[i].conj().T)

    def test_quadratic_form_matches_double_sum(self, rng):
        alg = build_algebra(2, 4)
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        A[[0, 2]] = 0.0  # zero rows next to dense ones; A is not Hermitian
        a = alg.a.toarray()
        x = [a[0], a[1], a[0].conj().T, a[1].conj().T]
        expected = sum(
            A[i, j] * (x[i].conj().T @ x[j]) for i in range(4) for j in range(4)
        )
        assert np.max(np.abs(quadratic_form(alg, A).toarray() - expected)) <= 1e-12
        assert not np.any(quadratic_form(alg, np.zeros((4, 4))).toarray())

    def test_linear_forms_match_ladder_sums(self, rng):
        sys = random_system(rng, n=2, m=2, p=3, require_hurwitz=False)
        alg = build_algebra(2, 4)
        a = alg.a.toarray()
        for ops, B1, B2 in (
            (z_operators(alg, sys), sys.E1, sys.E2),
            (coupling_operators(alg, sys), sys.N1, sys.N2),
        ):
            expected = [
                sum(B1[i, j] * a[j] + B2[i, j] * a[j].conj().T for j in range(2))
                for i in range(B1.shape[0])
            ]
            assert np.max(np.abs(ops.toarray() - np.array(expected))) <= 1e-13

    def test_minimum_dimension(self):
        with pytest.raises(TruncationError):
            build_algebra(1, 2)

    def test_one_shared_read_only_algebra_per_modes_and_dim(self):
        alg = build_algebra(2, 8)
        assert build_algebra(2, 8) is alg
        assert build_algebra(2, 9) is not alg and build_algebra(1, 8) is not alg
        for array in (alg.x.data, alg.xx.data, alg.excitations, alg.x.offsets):
            with pytest.raises(ValueError):
                array[(0,) * array.ndim] = 1
        assert np.array_equal(alg.x.toarray()[0], dense_ladder(2, 8)[0])
        # invalid sizes are refused on every call, not cached
        for _ in range(2):
            with pytest.raises(StructureError):
                build_algebra(0, 6)
            with pytest.raises(TruncationError):
                build_algebra(2, 2)

    def test_safe_mask_counts(self):
        alg = build_algebra(2, 6)
        mask = safe_mask(alg, 3)  # excitation <= 2 per mode
        assert int(mask.sum()) == 9

    def test_safe_mask_empty_raises(self):
        alg = build_algebra(1, 4)
        with pytest.raises(TruncationError):
            safe_mask(alg, 4)


def dense_ladder(modes, dim):
    """Reference x = [a_1..a_n, a_1'..a_n'] as dense Kronecker products."""
    lower = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    a = [
        functools.reduce(np.kron, [lower if j == i else np.eye(dim) for j in range(modes)])
        for i in range(modes)
    ]
    return a + [op.conj().T for op in a]


def random_polynomial(rng, modes, degree, terms=3):
    """Monomials of a ladder polynomial: (coefficient, indices into x)."""
    return [
        (complex(*rng.normal(size=2)), rng.integers(0, 2 * modes, size=length))
        for length in rng.integers(1, degree + 1, size=terms)
    ]


def evaluate(polynomial, x, identity):
    """Sum of c * x[b1] @ x[b2] @ ... over the monomials."""
    total = 0.0 * identity
    for c, indices in polynomial:
        term = identity
        for b in indices:
            term = term @ x[b]
        total = total + c * term
    return total


def sparse_coefficients(rng, rows, modes):
    """Complex coefficients on x with exact-zero rows and exact-zero blocks:
    each row block and each of the a and a' column blocks is dropped at random."""
    C = rng.normal(size=(rows, 2 * modes)) + 1j * rng.normal(size=(rows, 2 * modes))
    C[rng.random(rows) < 0.3] = 0.0
    for block in (slice(None, modes), slice(modes, None)):
        if rng.random() < 0.3:
            C[:, block] = 0.0
        if rows == 2 * modes and rng.random() < 0.3:
            C[block, rng.integers(0, 2) * modes + np.arange(modes)] = 0.0
    return C


def stored_diagonals_nonzero(op) -> bool:
    """Whether every stored diagonal holds a nonzero entry in some layer."""
    every_layer_and_row = tuple(range(op.data.ndim - 2)) + (op.data.ndim - 1,)
    return bool(np.all(np.any(op.data != 0, axis=every_layer_and_row)))


class TestDiagonalStorage:
    """The flat-diagonal operator type against dense numpy on ladder polynomials."""

    @settings(max_examples=40, deadline=None)
    @given(
        modes=st.integers(1, 3),
        dim=st.integers(3, 7),
        degree=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
    )
    # at dim 3 with two modes, a_1 and a_2^3 both shift the flat index by 3,
    # and a_1 a_2' and a_2^2 by 2: different mode shifts share flat diagonals
    @example(modes=2, dim=3, degree=3, seed=0)
    @example(modes=3, dim=3, degree=4, seed=1)
    def test_matches_dense(self, modes, dim, degree, seed):
        rng = np.random.default_rng(seed)
        alg = build_algebra(modes, dim)
        dense_x = dense_ladder(modes, dim)
        eye = np.eye(alg.total_dim)
        assert np.array_equal(alg.x.toarray(), np.array(dense_x))
        polys = [random_polynomial(rng, modes, degree) for _ in range(3)]
        A, B, C = (evaluate(p, alg.x, _identity(alg.total_dim)) for p in polys)
        Ad, Bd, Cd = (evaluate(p, dense_x, eye) for p in polys)
        scale = 1.0 + max(np.max(np.abs(M)) for M in (Ad, Bd, Cd)) ** 2
        c = complex(*rng.normal(size=2))

        def close(op, reference):
            return np.max(np.abs(op.toarray() - reference), initial=0.0) <= 1e-12 * scale

        assert close(A, Ad)
        assert close(A @ B, Ad @ Bd)
        assert close(A + B, Ad + Bd)
        assert close(A - B, Ad - Bd)
        assert close(c * A, c * Ad)
        assert close(A.adjoint(), Ad.conj().T)
        assert close((_stack([A, B]) @ C)[1], Bd @ Cd)
        assert close(_stack([A, B]).sum(), Ad + Bd)

        cut = int(rng.integers(0, dim))
        safe = np.all(np.indices((dim,) * modes).reshape(modes, -1).T <= dim - 1 - cut, axis=1)
        expected = np.max(np.abs((Ad @ Bd)[np.ix_(safe, safe)]))
        assert abs(safe_residual(alg, A @ B, cut) - expected) <= 1e-12 * scale

        # forms built from coefficient matrices store only nonzero diagonals
        Q = sparse_coefficients(rng, 2 * modes, modes)
        E, N = (sparse_coefficients(rng, 3, modes) for _ in range(2))
        zero = np.zeros((modes, modes))
        sys = LinearQuantumSystem(
            M1=zero, M2=zero, N1=N[:, :modes], N2=N[:, modes:], E1=E[:, :modes], E2=E[:, modes:]
        )
        dense_form = sum(
            dense_x[a].conj().T @ sum(Q[a, b] * dense_x[b] for b in range(2 * modes))
            for a in range(2 * modes)
        )
        for op, reference in (
            (quadratic_form(alg, Q), dense_form),
            (z_operators(alg, sys), np.tensordot(E, np.array(dense_x), 1)),
            (coupling_operators(alg, sys), np.tensordot(N, np.array(dense_x), 1)),
        ):
            assert close(op, reference)
            assert stored_diagonals_nonzero(op)

    def test_opa_forms_store_only_their_nonzero_diagonals(self):
        # the certified P is mode-diagonal, so V = x'Px is number operators only
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        P = certify(sys, SectorBounds(4.5, 0.1, 0.1)).P
        alg = build_algebra(2, 10)
        assert quadratic_form(alg, P).offsets.tolist() == [0]
        assert quadratic_form(alg, np.zeros((4, 4))).offsets.size == 0
        # z_i = a_i' for the OPA: one diagonal of the four per channel, and
        # two for the stack of both channels
        assert [_linear_forms(alg, row).offsets.tolist() for row in sys.Etilde] == [[-10], [-1]]
        assert z_operators(alg, sys).offsets.tolist() == [-10, -1]

    def test_mode_shifts_sharing_a_flat_diagonal(self):
        # at dim 3, a_1 a_2' a_2' and a_2 both move the flat index by 3 - 1 - 1 = 1
        alg = build_algebra(2, 3)
        a1, a2, a1d, a2d = alg.x
        op = a1 @ a2d @ a2d + 2.0 * a2
        d1, d2, d1d, d2d = dense_ladder(2, 3)
        assert np.max(np.abs(op.toarray() - (d1 @ d2d @ d2d + 2.0 * d2))) <= 1e-15
        assert np.count_nonzero(np.any(op.data != 0, axis=1)) == 1


# The diagonal algebra's primitives by their definitions, without the fast
# paths: a sum stacks both operators on the union of their offsets and sums
# the stack, a difference adds the negation, every product goes through its
# plan, and the safe-subspace maximum builds its mask on every call.


def stacked_combine(self, other, ufunc):
    if ufunc is np.subtract:
        other = -other
    if np.array_equal(self.offsets, other.offsets):
        return _Diagonals(self.offsets, self.data + other.data)
    return _stack([self, other]).sum()


def planned_product(self, other):
    offsets, ia, reads, fold = _product_plan(
        self.offsets.tobytes(), other.offsets.tobytes(), self.dim
    )
    left = np.take(self.data, ia, axis=-2)
    right = np.take(_flat(other.data), reads, axis=-1, mode="clip")
    terms = np.multiply(left, right, order="C")
    return _Diagonals(offsets, np.matmul(fold, terms.view(float)).view(complex))


def broadcast_stack(ops):
    offsets, places = _union_plan(tuple(op.offsets.tobytes() for op in ops))
    shape = np.broadcast_shapes(*(op.data.shape[:-2] for op in ops))
    data = np.zeros((len(ops),) + shape + (offsets.size, ops[0].dim), dtype=complex)
    for layer, place, op in zip(data, places, ops):
        layer[..., place, :] = op.data
    return _Diagonals(offsets, data)


def reindexed_nonzero(offsets, data):
    keep = data.any(axis=tuple(range(data.ndim - 2)) + (-1,))
    return _Diagonals(offsets[keep], data[..., keep, :])


def per_call_masked_max(X, mask):
    d = mask.size
    cols = np.arange(d) + X.offsets[:, None]
    inside = (cols >= 0) & (cols < d)
    block = X.data[..., inside & mask & np.take(mask, cols, mode="clip")]
    return float(np.max(np.abs(block))) if block.size else 0.0


def contracted_quadratic_form(alg, A):
    A = np.asarray(A, dtype=complex)
    xx = alg.xx.data
    flat = A.ravel() @ xx.reshape(len(alg.x) ** 2, -1)
    return reindexed_nonzero(alg.xx.offsets, flat.reshape(xx.shape[-2:]))


def patch_to_definitions(monkeypatch):
    monkeypatch.setattr(_Diagonals, "_combine", stacked_combine)
    monkeypatch.setattr(_Diagonals, "__matmul__", planned_product)
    for name, definition in (
        ("_stack", broadcast_stack),
        ("_nonzero", reindexed_nonzero),
        ("_masked_max", per_call_masked_max),
        ("quadratic_form", contracted_quadratic_form),
    ):
        monkeypatch.setattr(qstab.focksim, name, definition)


def same_bits(A, B) -> bool:
    return (
        A.offsets.tobytes() == B.offsets.tobytes()
        and A.data.shape == B.data.shape
        and A.data.tobytes() == B.data.tobytes()
    )


class TestFastPaths:
    """Each fast path of the diagonal algebra against its definition."""

    def operators(self, seed, modes=2, dim=4):
        rng = np.random.default_rng(seed)
        alg = build_algebra(modes, dim)
        eye = _identity(alg.total_dim)
        A, B = (evaluate(random_polynomial(rng, modes, 3), alg.x, eye) for _ in range(2))
        return alg, A, B @ alg.x[seed % (2 * modes)]  # B's offsets shifted off A's

    @pytest.mark.parametrize("seed", range(6))
    def test_difference_is_the_sum_with_the_negation(self, seed):
        alg, A, B = self.operators(seed)
        stack = _stack([A, B, alg.x[0]])
        pairs = [(A, B), (B, A), (A, A), (A, alg.x[0]), (stack, B), (A, stack), (stack, stack)]
        pairs += [(stack[:, None], _stack([B, A])[None, :])]
        for left, right in pairs:
            assert same_bits(left - right, left + (-right))

    @pytest.mark.parametrize("seed", range(6))
    def test_sum_and_difference_match_dense(self, seed):
        alg, A, B = self.operators(seed)
        assert not np.array_equal(A.offsets, B.offsets)
        for left, right in [
            (A, B),
            (alg.x[0], alg.x[3]),
            (_stack([A, B])[:, None], _stack([B, alg.x[1], A])[None, :]),
            (A, _stack([B, alg.x[2]])),
            (_zero(alg.total_dim), A),
        ]:
            ld, rd = left.toarray(), right.toarray()
            assert np.array_equal((left + right).toarray(), ld + rd)
            assert np.array_equal((left - right).toarray(), ld - rd)
            # and the stack-and-sum definition, as numbers: where only the left
            # operand has a diagonal, the stack's + 0 turns a -0.0 into 0.0
            for ufunc, result in ((np.add, left + right), (np.subtract, left - right)):
                defined = stacked_combine(left, right, ufunc)
                assert np.array_equal(result.offsets, defined.offsets)
                assert result.data.shape == defined.data.shape
                assert np.array_equal(result.data, defined.data)

    def test_product_with_an_empty_operand(self, monkeypatch):
        alg, A, _ = self.operators(0)
        d = alg.total_dim
        empty = _Diagonals(np.zeros(0, dtype=int), np.zeros((1, 3, 0, d), dtype=complex))
        stack = _stack([A, A])[:, None]  # stack shape (2, 1)
        monkeypatch.setattr(qstab.focksim, "_product_plan", None)  # no plan is made
        for left, right, shape in [
            (A, _zero(d), ()),
            (_zero(d), A, ()),
            (stack, empty, (2, 3)),
            (empty, stack, (2, 3)),
            (quadratic_form(alg, np.zeros((4, 4))), alg.x, (4,)),
        ]:
            product = left @ right
            assert product.offsets.size == 0
            assert product.shape == shape + (d, d)
            assert not product.toarray().any()
        monkeypatch.undo()
        assert same_bits(stack @ empty, planned_product(stack, empty))

    def test_zero_quadratic_form_has_no_diagonals(self):
        alg = build_algebra(2, 5)
        zero = quadratic_form(alg, np.zeros((4, 4)))
        assert same_bits(zero, contracted_quadratic_form(alg, np.zeros((4, 4))))
        assert zero.shape == (25, 25)

    @pytest.mark.parametrize("seed", range(6))
    def test_masked_max_matches_dense(self, seed):
        alg, A, B = self.operators(seed, dim=5)
        rng = np.random.default_rng(seed)
        for op in (A, A @ B, _stack([A, B]), _stack([A, B])[:, None] @ _stack([B, A])[None]):
            dense = op.toarray()
            for degree in range(4):
                mask = safe_mask(alg, degree)
                block = dense[..., mask, :][..., mask]
                assert _masked_max(op, mask) == np.max(np.abs(block))
                assert _masked_max(op, mask) == per_call_masked_max(op, mask)
            mask = rng.random(alg.total_dim) < 0.5
            expected = np.max(np.abs(dense[..., mask, :][..., mask]), initial=0.0)
            assert _masked_max(op, mask) == expected

    def test_masked_max_of_an_empty_block_is_zero(self):
        alg = build_algebra(2, 4)
        mask = np.zeros(alg.total_dim, dtype=bool)
        mask[0] = True
        assert _masked_max(_zero(alg.total_dim), safe_mask(alg, 1)) == 0.0
        assert _masked_max(_stack([alg.x[0], alg.x[2]]), mask) == 0.0  # no diagonal at 0
        assert _masked_max(alg.x, np.zeros(alg.total_dim, dtype=bool)) == 0.0

    def test_plans_are_read_only_and_caches_bounded(self):
        alg, A, B = self.operators(1)
        reads = _mask_plan(A.offsets.tobytes(), safe_mask(alg, 1).tobytes())
        offsets, places = _union_plan((A.offsets.tobytes(), B.offsets.tobytes()))
        for array in (reads, offsets, *places):
            assert not array.flags.writeable
        caches = [
            value
            for value in vars(qstab.focksim).values()
            if hasattr(value, "cache_info") and value.__module__ == "qstab.focksim"
        ]
        assert _mask_plan in caches and _union_plan in caches
        assert all(cache.cache_info().maxsize is not None for cache in caches)

    def test_nonzero_keeping_every_diagonal(self, rng):
        alg = build_algebra(2, 5)
        Q = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        full = quadratic_form(alg, Q)
        assert np.array_equal(full.offsets, alg.xx.offsets)
        assert same_bits(full, contracted_quadratic_form(alg, Q))
        forms = _linear_forms(alg, Q)
        x = alg.x.data
        flat = (Q @ _flat(x)).reshape((4,) + x.shape[-2:])
        assert same_bits(forms, reindexed_nonzero(alg.x.offsets, flat))
        Q[:, :2] = 0.0  # only the a' half: half of the diagonals
        flat = (Q @ _flat(x)).reshape((4,) + x.shape[-2:])
        assert same_bits(_linear_forms(alg, Q), reindexed_nonzero(alg.x.offsets, flat))
        assert _linear_forms(alg, Q).offsets.size == 2


class TestOperatorOfSeries:
    def test_opa_interaction_matrix(self):
        chi = 0.1
        sys, series = build_opa(OpaParams(1.0, 1.0, chi))
        alg = build_algebra(2, 5)
        H = operator_of_series(alg, sys, series).toarray()
        a1, a2 = alg.a.toarray()
        expected = 1j * chi * (a2.conj().T @ a1 @ a1 - a1.conj().T @ a1.conj().T @ a2)
        assert np.max(np.abs(H - expected)) < 1e-14

    def test_zero_series(self):
        sys, _ = build_opa(OpaParams(1.0, 1.0, 0.1))
        alg = build_algebra(2, 3)
        H = operator_of_series(alg, sys, PerturbationSeries(p=2))
        assert np.max(np.abs(H.toarray())) == 0.0

    def test_projected_hermiticity(self, rng):
        sys = random_system(rng, n=2, p=2, require_hurwitz=False)
        coeffs = {
            (1, 2, 2, 1): 0.3 + 0.7j,
            (2, 1, 1, 2): 0.3 - 0.7j,
            (1, 1, 2, 2): 0.9,
        }
        series = PerturbationSeries(p=2, coeffs=coeffs)
        assert validate_selfadjoint(series) == []
        alg = build_algebra(2, 6)
        H = operator_of_series(alg, sys, series)
        assert safe_residual(alg, H - H.adjoint(), series.total_degree) <= 1e-12

    def test_leaves_no_reference_cycle(self):
        # a cycle would hold the algebra and every power until a collection
        sys, series = build_opa(OpaParams(1.0, 1.0, 0.1))
        alg = build_algebra(2, 6)
        gc.collect()
        gc.disable()
        try:
            operator_of_series(alg, sys, series)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_degree_beyond_truncation(self):
        sys, _ = build_opa(OpaParams(1.0, 1.0, 0.1))
        alg = build_algebra(2, 3)
        tall = PerturbationSeries(p=2, coeffs={(1, 1, 3, 0): 1.0, (1, 1, 0, 3): 1.0})
        with pytest.raises(TruncationError):
            operator_of_series(alg, sys, tall)


class TestCommutatorIdentities:
    def test_opa_identity_P(self):
        sys, series = build_opa(OpaParams(1.0, 2.0, 0.1))
        alg = build_algebra(2, 6)
        residuals = check_commutator_identities(alg, sys, series, np.eye(4))
        assert max(residuals.values()) <= 1e-10

    def test_zero_P(self):
        sys, series = build_opa(OpaParams(1.0, 2.0, 0.1))
        alg = build_algebra(2, 6)
        residuals = check_commutator_identities(alg, sys, series, np.zeros((4, 4)))
        assert max(residuals.values()) == 0.0

    def test_random_block_P_all_identities(self, rng):
        sys, series = build_opa(OpaParams(0.8, 1.9, 0.15))
        alg = build_algebra(2, 6)
        for _ in range(3):
            P = random_block_P(rng, 2)
            residuals = check_commutator_identities(alg, sys, series, P)
            assert len(residuals) == 5
            assert max(residuals.values()) <= 1e-10, residuals

    def test_random_channel_matrices(self, rng):
        # identities hold for arbitrary (not just OPA) channel and coupling blocks
        sys = random_system(rng, n=2, p=2, require_hurwitz=False)
        series = PerturbationSeries(
            p=2, coeffs={(1, 2, 1, 1): 0.4 + 0.2j, (2, 1, 1, 1): 0.4 - 0.2j}
        )
        alg = build_algebra(2, 7)
        P = random_block_P(rng, 2)
        residuals = check_commutator_identities(alg, sys, series, P)
        assert max(residuals.values()) <= 1e-9, residuals

    def test_quadratic_series_matches_quadratic_identities(self, rng):
        # degree-2 self-adjoint series: the expansion collapses to the
        # quadratic-commutator machinery, so residuals stay at rounding level
        sys, _ = build_opa(OpaParams(1.0, 1.0, 0.1))
        quad = PerturbationSeries(
            p=2,
            coeffs={
                (1, 1, 2, 0): 0.25 - 0.1j,
                (1, 1, 0, 2): 0.25 + 0.1j,
                (1, 2, 1, 1): 0.7,
                (2, 1, 1, 1): 0.7,
            },
        )
        assert validate_selfadjoint(quad) == []
        alg = build_algebra(2, 6)
        P = random_block_P(rng, 2)
        residuals = check_commutator_identities(alg, sys, quad, P)
        assert max(residuals.values()) <= 1e-10, residuals

    def test_closed_system_without_coupling_channels(self):
        # m = 0: no coupling operators, an empty channel signature
        sys = LinearQuantumSystem(
            M1=[[1.0]], M2=[[0.0]], N1=np.zeros((0, 1)), N2=np.zeros((0, 1)),
            E1=[[1.0]], E2=[[0.0]],
        )
        kerr = PerturbationSeries(p=1, coeffs={(1, 1, 2, 2): 0.3})
        assert validate_selfadjoint(kerr) == []
        alg = build_algebra(1, 8)
        assert coupling_operators(alg, sys).shape == (0, 8, 8)
        residuals = check_commutator_identities(alg, sys, kerr, np.eye(2))
        assert len(residuals) == 5
        assert residuals["coupling_dissipation"] <= 1e-10
        assert max(residuals.values()) <= 1e-10, residuals

    @pytest.mark.parametrize(
        "dim, series, error",
        [
            (6, PerturbationSeries(p=1, coeffs={(1, 1, 1, 1): 1.0}), StructureError),
            (3, build_opa(OpaParams(1.0, 1.0, 0.1))[1], TruncationError),  # degree 3 > dim - 1
        ],
        ids=["wrong-channel-count", "degree-beyond-truncation"],
    )
    def test_series_refused_before_any_operator_is_built(self, monkeypatch, dim, series, error):
        sys, _ = build_opa(OpaParams(1.0, 1.0, 0.1))
        alg = build_algebra(2, dim)

        def built(*args):
            raise AssertionError("an operator was built")

        for name in ("_linear_forms", "quadratic_form", "_series_operators", "_identity"):
            monkeypatch.setattr(qstab.focksim, name, built)
        with pytest.raises(error):
            check_commutator_identities(alg, sys, series, np.eye(4))

    def test_hermitian_but_not_block_P_rejected(self, rng):
        sys, series = build_opa(OpaParams(1.0, 1.0, 0.1))
        alg = build_algebra(2, 6)
        P = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        with pytest.raises(StructureError):
            check_commutator_identities(alg, sys, series, P)

    @pytest.mark.parametrize(
        "P",
        [
            np.eye(6),
            np.eye(2),
            np.ones(4),
            np.diag([1.0, np.nan, 1.0, np.nan]),
            np.full((4, 4), np.inf),
        ],
        ids=["6x6", "2x2", "vector", "nan", "inf"],
    )
    def test_malformed_P_rejected(self, P):
        sys, series = build_opa(OpaParams(1.0, 1.0, 0.1))
        alg = build_algebra(2, 6)
        with pytest.raises(StructureError, match="P must be"):
            check_commutator_identities(alg, sys, series, P)

    def test_mu_matches_double_commutator(self, rng):
        # direct cross-check of the mu formula against the operator algebra
        sys = random_system(rng, n=2, p=3, require_hurwitz=False)
        alg = build_algebra(2, 6)
        P = random_block_P(rng, 2)
        mu = mu_constants(P, sys.Etilde)
        V = quadratic_form(alg, P).toarray()
        mask = safe_mask(alg, 2)
        eye = np.eye(alg.total_dim)
        for i, z in enumerate(z_operators(alg, sys).toarray()):
            dc = comm(z, comm(z, V))
            defect = (dc - mu[i] * eye)[np.ix_(mask, mask)]
            assert np.max(np.abs(defect)) <= 1e-10


class TestOracleSensitivity:
    """The identity check stays tight at every benchmarked dim and still sees
    a wrong constant, so a fast rewrite cannot pass by masking entries out."""

    CUBIC = PerturbationSeries(
        p=2, coeffs={(2, 1, 1, 2): 0.1j, (1, 2, 2, 1): -0.1j, (1, 1, 1, 1): 0.3}
    )

    def opa(self):
        sys, series = build_opa(OpaParams(1.3, 2.1, 0.12))
        return sys, series, certify(sys, SectorBounds(2.0 * 2.0 * 2.0 / 1.3, 0.1, 0.1)).P

    def generic(self):
        # E1 and E2 both nonzero, so mu != 0; the OPA's certified P gives mu = 0
        rng = np.random.default_rng(SEED)
        sys = random_system(rng, n=2, p=2, require_hurwitz=False)
        assert np.all(sys.E1 != 0) and np.all(sys.E2 != 0)
        return sys, self.CUBIC, random_block_P(rng, 2)

    @pytest.mark.parametrize("system", ["opa", "generic"])
    def test_every_residual_at_rounding_level(self, system):
        sys, series, P = getattr(self, system)()
        for dim in range(6, 15):
            residuals = check_commutator_identities(build_algebra(2, dim), sys, series, P)
            assert len(residuals) == 5
            assert max(residuals.values()) <= 1e-10, (dim, residuals)

    @pytest.mark.parametrize("dim", [6, 14])
    @pytest.mark.parametrize("system", ["opa", "generic"])
    def test_shared_power_table_changes_no_bit(self, monkeypatch, system, dim):
        # the check builds f and its derivatives from one table of powers;
        # each operator equals a separate operator_of_series call bit for bit
        sys, series, P = getattr(self, system)()
        alg = build_algebra(2, dim)
        calls = []

        def recorded(alg, sys, series):
            operators = _series_operators(alg, sys, series)
            calls.append((series, operators))
            return operators

        monkeypatch.setattr(qstab.focksim, "_series_operators", recorded)
        check_commutator_identities(alg, sys, series, P)
        monkeypatch.undo()
        [(built, operators)] = calls
        assert len(built) == 1 + 2 * sys.p and built[0] is series
        for f, op in zip(built, operators):
            alone = operator_of_series(alg, sys, f)
            assert np.array_equal(op.offsets, alone.offsets)
            assert np.array_equal(op.data, alone.data)

    @pytest.mark.parametrize("dim", [6, 14])
    @pytest.mark.parametrize("system", ["opa", "generic"])
    def test_fast_paths_change_no_bit(self, monkeypatch, system, dim):
        # the check with every primitive patched back to its definition gives
        # the same five residuals, bit for bit
        sys, series, P = getattr(self, system)()
        alg = build_algebra(2, dim)
        fast = check_commutator_identities(alg, sys, series, P)
        patch_to_definitions(monkeypatch)
        defined = check_commutator_identities(alg, sys, series, P)
        monkeypatch.undo()
        assert len(fast) == 5
        assert {k: v.hex() for k, v in fast.items()} == {k: v.hex() for k, v in defined.items()}

    @pytest.mark.parametrize("dim", [6, 14])
    def test_wrong_mu_is_caught(self, monkeypatch, dim):
        sys, series, P = self.generic()
        monkeypatch.setattr(
            qstab.focksim, "mu_constants", lambda P, Etilde: mu_constants(P, Etilde) * (1 + 1e-6)
        )
        residuals = check_commutator_identities(build_algebra(2, dim), sys, series, P)
        assert residuals["double_commutator_constants"] > 1e-8
        assert residuals["perturbation_commutator"] > 1e-8


class TestStates:
    def test_fock_state(self):
        alg = build_algebra(2, 3)
        rho = fock_state(alg, (1, 2))
        assert np.trace(rho) == pytest.approx(1.0)
        number = (alg.a[0].adjoint() @ alg.a[0]).toarray()
        assert np.einsum("ij,ji->", number, rho).real == pytest.approx(1.0)

    def test_coherent_state_mean_occupation(self):
        alg = build_algebra(2, 14)
        rho = coherent_state(alg, [0.5, 0.5j])
        for i in range(2):
            number = (alg.a[i].adjoint() @ alg.a[i]).toarray()
            occ = np.einsum("ij,ji->", number, rho).real
            assert occ == pytest.approx(0.25, abs=1e-9)

    def test_msq_observable_on_vacuum(self):
        alg = build_algebra(2, 4)
        rho = fock_state(alg, (0, 0))
        msq = np.einsum("ij,ji->", msq_observable(alg).toarray(), rho).real
        assert msq == pytest.approx(2.0)  # one unit per mode from ordering


class TestLindblad:
    def test_lossy_cavity_analytic_decay(self):
        kappa = 0.7
        alg = build_algebra(1, 8)
        L = [np.sqrt(kappa) * alg.a[0]]
        rho0 = fock_state(alg, (1,))
        dt = default_dt([kappa], 0.0, 8)
        traj = lindblad_evolve(alg, np.zeros((8, 8)), L, rho0, 1.0 / kappa, dt)
        # msq = 2 <a'a> + 1 for one mode
        occ_end = (traj.msq[-1] - 1.0) / 2.0
        assert abs(occ_end - np.exp(-1.0)) < 1e-6

    def test_unitary_evolution_preserves_trace_and_purity(self, rng):
        alg = build_algebra(1, 6)
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        H = (A + A.conj().T) / 2
        rho0 = coherent_state(alg, [0.4])
        traj = lindblad_evolve(alg, H, [], rho0, 2.0, 1e-3)
        assert traj.times[-1] == pytest.approx(2.0)
        # re-run to capture the final state for purity
        rho = rho0.copy()
        K = np.zeros_like(rho)
        H_eff = -1j * H - 0.5 * K
        for _ in range(2000):
            k1 = H_eff @ rho + (H_eff @ rho).conj().T
            k2h = rho + 0.5e-3 * k1
            k2 = H_eff @ k2h + (H_eff @ k2h).conj().T
            k3h = rho + 0.5e-3 * k2
            k3 = H_eff @ k3h + (H_eff @ k3h).conj().T
            k4h = rho + 1e-3 * k3
            k4 = H_eff @ k4h + (H_eff @ k4h).conj().T
            rho = rho + (1e-3 / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            rho = 0.5 * (rho + rho.conj().T)
        assert abs(np.trace(rho).real - 1.0) < 1e-10
        assert abs(np.trace(rho @ rho).real - 1.0) < 1e-10

    def test_decoupled_modes_decay_independently(self):
        kappa1, kappa2 = 1.0, 2.5
        alg = build_algebra(2, 10)
        sys, _ = build_opa(OpaParams(kappa1, kappa2, 1e-12))
        L = coupling_operators(alg, sys)
        alpha = np.array([0.6, 0.4])
        rho0 = coherent_state(alg, alpha)
        dt = default_dt([kappa1, kappa2], 0.0, 10)
        t_final = 1.5
        traj = lindblad_evolve(alg, np.zeros_like(rho0), L, rho0, t_final, dt)
        expected = (
            2.0
            * (
                np.abs(alpha[0]) ** 2 * np.exp(-kappa1 * traj.times)
                + np.abs(alpha[1]) ** 2 * np.exp(-kappa2 * traj.times)
            )
            + 2.0
        )
        assert np.max(np.abs(traj.msq - expected)) < 1e-6

    @pytest.mark.parametrize(
        "H, L_ops, name",
        [
            (np.zeros((35, 35)), [], "H"),
            (np.zeros(36), [], "H"),
            (np.zeros((36, 36)), [np.zeros((36, 35))], r"L_ops\[0\]"),
            (build_algebra(2, 5).x[0], [], "H"),
            (np.zeros((36, 36)), build_algebra(1, 6).x, r"L_ops\[0\]"),
        ],
        ids=["H-35x35", "H-vector", "L-36x35", "H-other-algebra", "L-other-algebra"],
    )
    def test_operator_size_must_match_the_algebra(self, H, L_ops, name):
        alg = build_algebra(2, 6)
        rho0 = fock_state(alg, (1, 0))
        with pytest.raises(StructureError, match=name):
            lindblad_evolve(alg, H, L_ops, rho0, 0.1, 1e-3)

    def test_trace_drift_aborts(self):
        # H = 0.5i I is not Hermitian: the trace grows as e^t, by 1e-2 at the
        # first sample, whatever step the integrator takes
        alg = build_algebra(1, 6)
        L = [alg.a[0]]
        rho0 = fock_state(alg, (3,))
        with pytest.raises(SimulationError, match="trace drifted"):
            lindblad_evolve(alg, 0.5j * np.eye(6), L, rho0, 1.0, 0.01)

    def test_nan_rho0_is_rejected(self):
        alg = build_algebra(1, 6)
        rho0 = np.full((6, 6), np.nan)
        with pytest.raises(StructureError, match="unit trace"):
            lindblad_evolve(alg, np.zeros((6, 6)), [alg.a[0]], rho0, 1.0, 0.01)

    @pytest.mark.parametrize("dim", range(6, 15))
    def test_rank_one_coherent_state_is_accepted(self, dim):
        # a pure state is only semidefinite: its least eigenvalue is 0 up to rounding
        alg = build_algebra(2, dim)
        rho0 = coherent_state(alg, [0.5, 0.5])
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        L = coupling_operators(alg, sys)
        traj = lindblad_evolve(alg, np.zeros_like(rho0), L, rho0, 0.01, 0.01)
        assert traj.msq.shape == (2,)

    @pytest.mark.parametrize("least, accepted", [(-2e-10, False), (-5e-11, True)])
    def test_rho0_threshold_is_minus_1e_10(self, rng, least, accepted):
        alg = build_algebra(1, 6)
        Q, _ = np.linalg.qr(rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6)))
        rho0 = Q @ np.diag([1.0 - 0.4 - least, 0.4, least, 0.0, 0.0, 0.0]) @ Q.conj().T
        run = lambda: lindblad_evolve(alg, np.zeros((6, 6)), [alg.a[0]], rho0, 0.01, 0.01)
        if accepted:
            run()
        else:
            with pytest.raises(StructureError, match="positive semidefinite"):
                run()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_operator_is_rejected(self, value):
        alg = build_algebra(1, 6)
        for entry in [(1, 1), (0, 1)]:  # on and off the main diagonal
            H = np.zeros((6, 6))
            H[entry] = value
            with pytest.raises(StructureError, match="non-finite"):
                lindblad_evolve(alg, H, [alg.a[0]], fock_state(alg, (1,)), 1.0, 0.01)

    def test_truncation_consistency_small(self):
        sys, series = build_opa(OpaParams(1.0, 1.0, 0.05))
        results = {}
        for dim in (6, 8):
            alg = build_algebra(2, dim)
            H = operator_of_series(alg, sys, series)
            L = coupling_operators(alg, sys)
            rho0 = coherent_state(alg, [0.3, 0.3])
            traj = lindblad_evolve(alg, H, L, rho0, 2.0, 0.1)
            results[dim] = traj.msq
        assert np.max(np.abs(results[6] - results[8])) < 1e-6


def reference_superoperator(H, L_ops):
    """The full D^2 x D^2 superoperator of the master equation on row-major
    vec(rho), H_eff kron I + I kron conj(H_eff) + sum_k L_k kron conj(L_k)
    with H_eff = -i H - (1/2) sum_k L_k' L_k, formed by SciPy from the dense
    operators, and summed term by term in that order.  H and the L_k are
    operators of ``qstab.focksim`` or dense matrices."""
    dense = lambda op: op.toarray() if hasattr(op, "toarray") else op
    n = H.shape[0]
    L_ops = [sparse.csr_array(dense(L)) for L in L_ops]
    K = sum((L.conj().T @ L for L in L_ops), sparse.csr_array((n, n), dtype=complex))
    H_eff = -1j * sparse.csr_array(dense(H)) - 0.5 * K
    eye = sparse.identity(n, dtype=complex, format="csr")
    total = None
    for A, B in [(H_eff, eye), (eye, H_eff), *((L, L) for L in L_ops)]:
        term = sparse.kron(A, B.conj(), format="csr")
        total = term if total is None else total + term
    return total


def reference_closure(sup, seed):
    """Closure of ``seed`` under the columns that its rows of ``sup`` read."""
    keep = seed.copy()
    frontier = np.flatnonzero(seed)
    while frontier.size:
        reached = sup[frontier].indices
        frontier = np.unique(reached[~keep[reached]])
        keep[frontier] = True
    return keep


def msq_seed(alg):
    """The diagonal and the entries of rho that x'x reads, as a flat mask."""
    n = alg.total_dim
    rows, cols = np.nonzero(msq_observable(alg).toarray())
    seed = np.zeros(n * n, dtype=bool)
    seed[cols * n + rows] = True
    seed[:: n + 1] = True
    return seed


def generic_quadratic(rng, scale):
    """scale x'Mx for a random Hermitian 4 x 4 M: nothing decouples."""
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    return lambda alg: scale * quadratic_form(alg, 0.5 * (A + A.conj().T))


class TestReducedPropagation:
    """``lindblad_evolve`` steps only the entries of rho that x'x depends on."""

    def opa_problem(self, dim, extra_h=None, params=OpaParams(1.0, 2.0, 0.3)):
        sys, series = build_opa(params)
        alg = build_algebra(2, dim)
        H = operator_of_series(alg, sys, series)
        if extra_h is not None:
            H = H + extra_h(alg)
        return alg, H, coupling_operators(alg, sys)

    def kept_mask(self, alg, H, L_ops):
        n = alg.total_dim
        sup = reference_superoperator(H, L_ops)
        return reference_closure(sup, msq_seed(alg)).reshape(n, n)

    def test_opa_keeps_the_charge_zero_block(self):
        alg, H, L_ops = self.opa_problem(8)
        charge = alg.excitations[:, 0] + 2 * alg.excitations[:, 1]
        mask = self.kept_mask(alg, H, L_ops)
        assert np.array_equal(mask, charge[:, None] == charge[None, :])
        blocks = _square_blocks(mask.ravel(), alg.total_dim)
        assert sorted(tuple(b) for b in blocks) == sorted(
            tuple(np.flatnonzero(charge == c)) for c in np.unique(charge)
        )

    @pytest.mark.parametrize("dim", range(6, 13))
    def test_kept_rows_equal_the_kronecker_block(self, dim):
        alg, H, L_ops = self.opa_problem(dim, params=OpaParams(1.0, 1.0, 0.05))
        n = alg.total_dim
        terms = _superoperator_terms(H, L_ops, n)
        sup = reference_superoperator(H, L_ops)
        seed = msq_seed(alg)
        keep = _closure(terms, seed, n)
        assert np.array_equal(keep, reference_closure(sup, seed))
        kept = np.flatnonzero(keep)
        assert kept.size < n * n
        where = np.full(n * n, -1)
        where[kept] = np.arange(kept.size)
        block, reference = _kept_superoperator(terms, kept, where, n), sup[kept][:, kept]
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, name), getattr(reference, name)), name

    def test_opa_peak_memory_is_below_the_full_superoperator(self):
        # the simulated system of the fock-verify benchmark workload
        alg, H, L_ops = self.opa_problem(12, params=OpaParams(1.0, 1.0, 0.05))
        rho0 = coherent_state(alg, [0.5, 0.5])
        tracemalloc.start()
        try:
            lindblad_evolve(alg, H, L_ops, rho0, 0.05, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sup = reference_superoperator(H, L_ops)
        assert peak < sup.data.nbytes + sup.indices.nbytes + sup.indptr.nbytes

    def test_generic_peak_memory_is_bounded_by_the_kept_block(self, rng):
        # every row is kept; the slabs must not all be held at once
        alg, H, L_ops = self.opa_problem(
            12, generic_quadratic(rng, 0.05), params=OpaParams(1.0, 1.0, 0.05)
        )
        n = alg.total_dim
        everything = np.arange(n * n)
        block = _kept_superoperator(_superoperator_terms(H, L_ops, n), everything, everything, n)
        rho0 = coherent_state(alg, [0.5, 0.5])
        tracemalloc.start()
        try:
            lindblad_evolve(alg, H, L_ops, rho0, 0.05, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6 * (block.data.nbytes + block.indices.nbytes + block.indptr.nbytes)

    def test_block_arrays_hold_exactly_its_entries(self, rng):
        # H_eff kron I and I kron conj(H_eff) share the diagonal entry, so the
        # per-term count is larger than the stored entries
        alg, H, L_ops = self.opa_problem(
            8, generic_quadratic(rng, 0.05), params=OpaParams(1.0, 1.0, 0.05)
        )
        n = alg.total_dim
        everything = np.arange(n * n)
        block = _kept_superoperator(_superoperator_terms(H, L_ops, n), everything, everything, n)
        nnz = block.indptr[-1]
        for name in ("data", "indices"):
            array = getattr(block, name)
            # scipy may keep a view of the array it was given; its owner is what stays alive
            owner = array if array.base is None else array.base
            assert array.size == nnz and owner.flags.owndata and owner.nbytes == array.nbytes, name

    @pytest.mark.parametrize("generic", [False, True], ids=["opa", "generic"])
    def test_dense_operators_give_the_same_run(self, rng, generic):
        alg, H, L_ops = self.opa_problem(8, generic_quadratic(rng, 0.05) if generic else None)
        rho0 = coherent_state(alg, [0.5, 0.5])
        traj = lindblad_evolve(alg, H, L_ops, rho0, 0.5, 0.01)
        dense = lindblad_evolve(alg, H.toarray(), [L.toarray() for L in L_ops], rho0, 0.5, 0.01)
        assert np.array_equal(dense.msq, traj.msq)

    def test_dense_random_operators_match_the_kronecker_reference(self, rng):
        # A dense L has diagonals oa, oa - 1 and ob, ob + n, and both pairs
        # make diagonal oa n + ob of L kron conj(L).  Entries of a few bits
        # keep every sum exact, so the orders of summation need not agree.
        n = 6
        alg = build_algebra(1, n)
        H, L = (rng.integers(-4, 5, (2, n, n)) + 1j * rng.integers(-4, 5, (2, n, n))) / 8
        H = H + H.conj().T
        terms = _superoperator_terms(H, [L], n)
        sup = reference_superoperator(H, [L])
        keep = _closure(terms, msq_seed(alg), n)
        assert np.array_equal(keep, reference_closure(sup, msq_seed(alg)))
        everything = np.arange(n * n)
        block = _kept_superoperator(terms, everything, everything, n)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, name), getattr(sup, name)), name
        rho0 = coherent_state(alg, [0.6])
        traj = lindblad_evolve(alg, H, [L], rho0, 0.5, 1e-3)
        reference = dense_rk4_msq(alg, H, [L], rho0, 0.5, 1e-3)
        assert np.max(np.abs(traj.msq - reference)) <= 1e-12

    def test_opa_matches_dense_propagator(self):
        alg, H, L_ops = self.opa_problem(6)
        rho0 = coherent_state(alg, [0.6, 0.4j])
        traj = lindblad_evolve(alg, H, L_ops, rho0, 1.0, 1e-3)
        reference = dense_rk4_msq(alg, H.toarray(), L_ops.toarray(), rho0, 1.0, 1e-3)
        assert np.max(np.abs(traj.msq - reference)) <= 1e-12

    def test_generic_quadratic_term_keeps_everything(self, rng):
        alg, H, L_ops = self.opa_problem(6, generic_quadratic(rng, 0.05))
        assert self.kept_mask(alg, H, L_ops).all()
        rho0 = coherent_state(alg, [0.6, 0.4j])
        traj = lindblad_evolve(alg, H, L_ops, rho0, 1.0, 1e-3)
        reference = dense_rk4_msq(alg, H.toarray(), L_ops.toarray(), rho0, 1.0, 1e-3)
        assert np.max(np.abs(traj.msq - reference)) <= 1e-12

    def test_nothing_decouples_at_dim_12(self, rng):
        alg, H, L_ops = self.opa_problem(
            12, generic_quadratic(rng, 0.05), params=OpaParams(1.0, 1.0, 0.05)
        )
        n = alg.total_dim
        terms = _superoperator_terms(H, L_ops, n)
        keep = _closure(terms, msq_seed(alg), n)
        assert keep.all()
        everything = np.arange(n * n)
        block = _kept_superoperator(terms, everything, everything, n)
        sup = reference_superoperator(H, L_ops)
        for name in ("indptr", "indices", "data"):
            assert np.array_equal(getattr(block, name), getattr(sup, name)), name
        rho0 = coherent_state(alg, [0.5, 0.5])
        traj = lindblad_evolve(alg, H, L_ops, rho0, 0.05, 0.01)
        weights = msq_observable(alg).toarray().T.ravel()
        states = expm_multiply(sup, rho0.ravel(), start=0.0, stop=0.05, num=6, endpoint=True)
        assert np.max(np.abs(traj.msq - (states @ weights).real)) <= 1e-9

    @pytest.mark.parametrize("spacing, k_above_one", [(0.01, False), (0.1, True)])
    def test_matches_expm_of_the_kept_block(self, spacing, k_above_one):
        # the simulated system of the fock-verify benchmark workload
        alg, H, L_ops = self.opa_problem(10, params=OpaParams(1.0, 1.0, 0.05))
        n = alg.total_dim
        rho0 = coherent_state(alg, [0.5, 0.5])
        traj = lindblad_evolve(alg, H, L_ops, rho0, 1.0, spacing)
        assert np.array_equal(traj.times, spacing * np.arange(round(1.0 / spacing) + 1))

        kept = np.flatnonzero(self.kept_mask(alg, H, L_ops))
        sup = reference_superoperator(H, L_ops)
        A = sup[kept][:, kept].toarray()
        # one RK4 step per sample at 0.01, several at 0.1
        assert (spacing * np.abs(A).sum(axis=0).max() > STEP_BOUND) == k_above_one
        propagator = expm(spacing * A)
        # msq = sum_ij O[i, j] rho[j, i]
        weights = msq_observable(alg).toarray().T.ravel()[kept]
        v = rho0.ravel()[kept]
        reference = []
        for _ in traj.times:
            reference.append((weights @ v).real)
            v = propagator @ v
        assert np.max(np.abs(traj.msq - reference)) <= 1e-9

    def test_lost_positivity_aborts(self, monkeypatch):
        # one RK4 step of 0.05 per sample is far outside the stable region
        monkeypatch.setattr(qstab.focksim, "STEP_BOUND", 1e9)
        sys, series = build_opa(OpaParams(1.0, 1.0, 2.0))
        alg = build_algebra(2, 6)
        H = operator_of_series(alg, sys, series)
        L_ops = coupling_operators(alg, sys)
        rho0 = fock_state(alg, (2, 0))
        with pytest.raises(SimulationError, match="lost positivity"):
            lindblad_evolve(alg, H, L_ops, rho0, 1.0, 0.05)

    def test_last_sample_is_t_final(self):
        alg = build_algebra(1, 6)
        L = [alg.a[0]]
        traj = lindblad_evolve(alg, np.zeros((6, 6)), L, fock_state(alg, (1,)), 0.0015, 1e-3)
        assert traj.times[-1] == 0.0015
        assert np.all(np.diff(traj.times) <= 1e-3)


class TestMsBound:
    def make_traj(self):
        times = np.linspace(0.0, 5.0, 101)
        msq = 3.0 * np.exp(-0.8 * times) + 2.0
        from qstab.focksim import FockTrajectory

        return FockTrajectory(times=times, msq=msq)

    def test_initial_sample_always_inside_for_c1_ge_one(self):
        traj = self.make_traj()
        ok, margin = check_ms_bound(traj, c1=1.0, c2=0.5, c3=2.5)
        assert ok
        assert traj.bound is not None
        assert traj.bound[0] + 1e-6 * 3.5 >= traj.msq[0]

    def test_steady_state_under_offset(self):
        traj = self.make_traj()
        ok, _ = check_ms_bound(traj, c1=1.2, c2=0.5, c3=2.5)
        assert ok
        assert traj.msq[-1] <= 2.5 + 1e-6 * 3.5 + 1e-9

    def test_corrupted_offset_fails(self):
        traj = self.make_traj()
        ok, margin = check_ms_bound(traj, c1=1.0, c2=5.0, c3=0.0)
        assert not ok
        assert margin < 0
