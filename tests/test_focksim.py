import functools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse

import qstab.focksim
from conftest import SEED, random_block_P, random_system
from qstab.certify import certify, mu_constants
from qstab.errors import SimulationError, StructureError, TruncationError
from qstab.focksim import (
    build_algebra,
    check_commutator_identities,
    check_ms_bound,
    _identity,
    _kept_entries,
    _liouvillian,
    _square_blocks,
    _stack,
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
        csr = (A @ B).tocsr()
        assert np.max(np.abs(csr.toarray() - Ad @ Bd), initial=0.0) <= 1e-12 * scale
        assert np.all(csr.data != 0)

        cut = int(rng.integers(0, dim))
        safe = np.all(np.indices((dim,) * modes).reshape(modes, -1).T <= dim - 1 - cut, axis=1)
        expected = np.max(np.abs((Ad @ Bd)[np.ix_(safe, safe)]))
        assert abs(safe_residual(alg, A @ B, cut) - expected) <= 1e-12 * scale

    def test_mode_shifts_sharing_a_flat_diagonal(self):
        # at dim 3, a_1 a_2' a_2' and a_2 both move the flat index by 3 - 1 - 1 = 1
        alg = build_algebra(2, 3)
        a1, a2, a1d, a2d = alg.x
        op = a1 @ a2d @ a2d + 2.0 * a2
        d1, d2, d1d, d2d = dense_ladder(2, 3)
        assert np.max(np.abs(op.toarray() - (d1 @ d2d @ d2d + 2.0 * d2))) <= 1e-15
        assert np.count_nonzero(np.any(op.data != 0, axis=1)) == 1


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
        kappa = 1.0
        alg = build_algebra(1, 6)
        L = [np.sqrt(kappa) * alg.a[0]]
        rho0 = fock_state(alg, (3,))
        with pytest.raises(SimulationError, match="reduce dt"):
            lindblad_evolve(alg, np.zeros((6, 6)), L, rho0, 40.0, 2.0)

    def test_truncation_consistency_small(self):
        sys, series = build_opa(OpaParams(1.0, 1.0, 0.05))
        results = {}
        for dim in (6, 8):
            alg = build_algebra(2, dim)
            H = operator_of_series(alg, sys, series)
            L = coupling_operators(alg, sys)
            rho0 = coherent_state(alg, [0.3, 0.3])
            traj = lindblad_evolve(alg, H, L, rho0, 2.0, 1e-3, record_stride=100)
            results[dim] = traj.msq
        assert np.max(np.abs(results[6] - results[8])) < 1e-6


class TestReducedPropagation:
    """``lindblad_evolve`` steps only the entries of rho that x'x depends on."""

    def opa_problem(self, dim, extra_h=None):
        sys, series = build_opa(OpaParams(1.0, 2.0, 0.3))
        alg = build_algebra(2, dim)
        H = operator_of_series(alg, sys, series)
        if extra_h is not None:
            H = H + extra_h(alg)
        return alg, H, coupling_operators(alg, sys)

    def kept_mask(self, alg, H, L_ops):
        n = alg.total_dim
        L_ops = [L.tocsr() for L in L_ops]
        K = sum((L.conj().T @ L for L in L_ops), sparse.csr_array((n, n), dtype=complex))
        seed = np.zeros(n * n, dtype=bool)
        seed[:: n + 1] = True
        sup = _liouvillian(-1j * H.tocsr() - 0.5 * K, L_ops)
        return _kept_entries(sup, seed).reshape(n, n)

    def test_opa_keeps_the_charge_zero_block(self):
        alg, H, L_ops = self.opa_problem(8)
        charge = alg.excitations[:, 0] + 2 * alg.excitations[:, 1]
        mask = self.kept_mask(alg, H, L_ops)
        assert np.array_equal(mask, charge[:, None] == charge[None, :])
        blocks = _square_blocks(mask.ravel(), alg.total_dim)
        assert sorted(tuple(b) for b in blocks) == sorted(
            tuple(np.flatnonzero(charge == c)) for c in np.unique(charge)
        )

    def test_opa_matches_dense_propagator(self):
        alg, H, L_ops = self.opa_problem(6)
        rho0 = coherent_state(alg, [0.6, 0.4j])
        traj = lindblad_evolve(alg, H, L_ops, rho0, 1.0, 1e-3)
        reference = dense_rk4_msq(alg, H.toarray(), L_ops.toarray(), rho0, 1.0, 1e-3)
        assert np.max(np.abs(traj.msq - reference)) <= 1e-12

    def test_generic_quadratic_term_keeps_everything(self, rng):
        A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        M = 0.5 * (A + A.conj().T)
        alg, H, L_ops = self.opa_problem(6, lambda alg: 0.05 * quadratic_form(alg, M))
        assert self.kept_mask(alg, H, L_ops).all()
        rho0 = coherent_state(alg, [0.6, 0.4j])
        traj = lindblad_evolve(alg, H, L_ops, rho0, 1.0, 1e-3)
        reference = dense_rk4_msq(alg, H.toarray(), L_ops.toarray(), rho0, 1.0, 1e-3)
        assert np.max(np.abs(traj.msq - reference)) <= 1e-12

    def test_lost_positivity_aborts(self):
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

    def test_record_stride_below_one_is_rejected(self):
        alg = build_algebra(1, 6)
        rho0 = fock_state(alg, (1,))
        with pytest.raises(StructureError, match="record_stride"):
            lindblad_evolve(alg, np.zeros((6, 6)), [], rho0, 0.1, 1e-3, record_stride=0)


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
