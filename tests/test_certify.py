import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from conftest import random_system
from qstab.certify import (
    Verdict,
    certificate_constants,
    certify,
    mu_constants,
    qmi_lhs,
    solve_qmi,
)
from qstab.errors import NotHurwitzError, QmiInfeasibleError, StructureError
from qstab.model import LinearQuantumSystem, _realizations, hinf_norm, structure_matrices
from qstab.opa import OpaParams, build_opa
from qstab.perturbation import SectorBounds


def opa_system(kappa1=1.0, kappa2=2.0, chi=0.1):
    sys, _ = build_opa(OpaParams(kappa1=kappa1, kappa2=kappa2, chi=chi))
    return sys


def dissipative_system(kappas, E1=None, E2=None):
    n = len(kappas)
    zero = np.zeros((n, n))
    return LinearQuantumSystem(
        M1=zero,
        M2=zero,
        N1=np.diag(np.sqrt(np.asarray(kappas, dtype=float))),
        N2=zero,
        E1=zero if E1 is None else E1,
        E2=zero if E2 is None else E2,
    )


def single_mode(M1):
    zero = np.zeros((1, 1))
    return LinearQuantumSystem(M1=M1, M2=zero, N1=zero, N2=zero, E1=zero, E2=zero)


def assert_constants_recompute(sys, bounds, cert):
    """c, c1, c2 and c3 recomputed independently from the spectrum of P."""
    P = cert.P
    eigs = np.linalg.eigvalsh(P)
    lhs = qmi_lhs(sys.F, sys.Etilde, bounds.gamma, P)
    L = np.linalg.cholesky(P)
    inner = np.linalg.solve(L, lhs)
    inner = np.linalg.solve(L, inner.conj().T).conj().T
    c_indep = float(np.min(np.linalg.eigvalsh(-inner)))
    c1_indep = float(eigs[-1] / eigs[0])
    c3_indep = cert.lam / (c_indep * float(eigs[0]))
    assert abs(cert.c - c_indep) <= 1e-8 * (1 + abs(c_indep))
    assert abs(cert.c1 - c1_indep) <= 1e-8 * (1 + abs(c1_indep))
    assert cert.c2 == cert.c
    assert abs(cert.c3 - c3_indep) <= 1e-8 * (1 + abs(c3_indep))


class TestBuildF:
    def test_opa_diagonal(self):
        F = opa_system(1.0, 1.0).F
        assert np.allclose(F, np.diag([-0.5, -0.5, -0.5, -0.5]))

    def test_zero_system(self):
        F = single_mode([[0.0]]).F
        assert np.array_equal(F, np.zeros((2, 2)))

    def test_single_mode_detuning(self):
        omega = 0.9
        F = single_mode([[omega]]).F
        assert np.allclose(F, np.diag([-1j * omega, 1j * omega]))


class TestIsHurwitz:
    # the verdict is read from the system's abscissa, recorded once at construction
    def test_opa_abscissa(self):
        assert opa_system(1.0, 1.0).abscissa == pytest.approx(-0.5)

    def test_zero_matrix(self):
        sys = single_mode([[0.0]])
        assert sys.abscissa == 0.0
        assert certify(sys, SectorBounds(gamma=1.0)).verdict is Verdict.FAILED_HURWITZ

    def test_marginal_positive(self):
        # N2 alone pumps the mode: F = diag(0.005, 0.005)
        zero = np.zeros((1, 1))
        sys = LinearQuantumSystem(M1=zero, M2=zero, N1=zero, N2=[[0.1]], E1=zero, E2=zero)
        assert sys.abscissa == pytest.approx(0.005)
        assert certify(sys, SectorBounds(gamma=1.0)).verdict is Verdict.FAILED_HURWITZ


def _gain(F, B, C, omega):
    T = C @ np.linalg.solve(1j * omega * np.eye(F.shape[0]) - F, B)
    return float(np.linalg.svd(T, compute_uv=False)[0])


def _frequency_grid(F, n_freqs):
    """Log-spaced probe frequencies, both signs, plus 0 and the resonances.

    The drift matrix is complex, so the frequency response is not symmetric
    in omega; both half-axes must be swept.
    """
    eigs = np.linalg.eigvals(F)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    half = max(8, n_freqs // 2)
    base = np.logspace(np.log10(scale) - 7, np.log10(scale) + 4, half)
    resonances = np.abs(eigs.imag)
    resonances = resonances[resonances > 0]
    grid = np.concatenate([[0.0], base, -base, resonances, -resonances])
    return np.unique(grid)


def _polished_peak(F, B, C, omegas):
    """Largest gain on the grid, refined between the best sample's neighbours."""
    eye = np.eye(F.shape[0])
    gains = np.concatenate([
        np.linalg.svd(
            C @ np.linalg.solve(1j * chunk[:, None, None] * eye - F, B), compute_uv=False
        )[:, 0]
        for chunk in np.array_split(omegas, max(1, omegas.size // 5000))
    ])
    i = int(np.argmax(gains))
    lo, hi = omegas[max(i - 1, 0)], omegas[min(i + 1, omegas.size - 1)]
    res = minimize_scalar(
        lambda w: -_gain(F, B, C, w), bounds=(lo, hi), method="bounded",
        options={"xatol": 1e-14 * (1 + abs(omegas[i]))},
    )
    return max(float(gains[i]), -float(res.fun))


class TestHinfNorm:
    def test_opa_closed_form(self):
        sys = opa_system(1.0, 2.0)
        F = sys.F
        _, (B, C) = _realizations(sys.Etilde)
        assert hinf_norm(F, B, C) == pytest.approx(2.0, rel=1e-8)

    def test_zero_output(self):
        F = np.diag([-1.0, -1.0]).astype(complex)
        assert hinf_norm(F, np.zeros((2, 1)), np.zeros((1, 2))) == 0.0

    def test_unstable_raises(self):
        with pytest.raises(NotHurwitzError):
            hinf_norm(np.diag([1.0, -1.0]), np.eye(2), np.eye(2))

    def test_norm_matches_dense_grid_oracle(self, rng):
        # independent check: maximum singular value on 1e5 log-spaced frequencies,
        # polished by a bounded scalar search between the best sample's
        # neighbours (the grid alone misses a resonance peak by ~1e-6 at n = 4).
        # The norm is a certified upper bound, so no sampled gain may exceed it.
        for n in (1, 2, 4):
            sys = random_system(rng, n=n, m=n, p=1)
            F = sys.F
            _, (B, C) = _realizations(sys.Etilde)
            norm = hinf_norm(F, B, C)
            peak = _polished_peak(F, B, C, _frequency_grid(F, 100_000))
            assert peak <= norm * (1 + 1e-12)
            assert norm <= peak * (1 + 1e-8)

    def test_decoupled_transfer_is_exactly_zero(self):
        # nonzero B and C, but C (sI - F)^-1 B vanishes identically
        F = np.diag([-1.0, -2.0]).astype(complex)
        B = np.array([[1.0], [0.0]])
        C = np.array([[0.0, 1.0]])
        assert hinf_norm(F, B, C) == 0.0

    @pytest.mark.parametrize("a, overstate", [(1e-3, 1e-8), (1e-4, 1e-7), (1e-5, 1e-5)])
    def test_sharp_peak_at_zero_frequency(self, a, overstate):
        # ||diag(1/(s + a), 1/(s + 1))|| = 1/a, attained in a peak of width a at w = 0
        F = np.diag([-a, -1.0]).astype(complex)
        norm = hinf_norm(F, np.eye(2), np.eye(2))
        assert norm >= 1.0 / a
        assert norm * a - 1.0 <= overstate


class TestHinfCondition:
    # the norms are the system's own; certify's verdict is the condition
    def test_opa_pass(self):
        sys = opa_system(1.0, 2.0)
        res = sys.hinf
        assert res.hinf_primary == pytest.approx(2.0, rel=1e-8)
        assert res.hinf_reduced == pytest.approx(2.0, rel=1e-8)
        assert certify(sys, SectorBounds(gamma=4.5)).verdict is Verdict.CERTIFIED

    def test_opa_fail(self):
        sys = opa_system(1.0, 2.0)
        res = sys.hinf
        assert res.hinf_reduced == pytest.approx(2.0, rel=1e-8)
        assert certify(sys, SectorBounds(gamma=3.9)).verdict is Verdict.FAILED_SMALL_GAIN

    def test_vanishing_channel_passes_any_gamma(self):
        sys = dissipative_system([1.0, 2.0])
        res = sys.hinf
        assert res.hinf_primary == 0.0
        assert res.hinf_reduced == 0.0
        assert certify(sys, SectorBounds(gamma=1e-6)).verdict is Verdict.CERTIFIED

    def test_equivalence_on_random_systems(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 4))
            sys = random_system(rng, n=n, p=int(rng.integers(1, 4)))
            res = sys.hinf
            assert abs(res.hinf_primary - res.hinf_reduced) <= 1e-6 * (
                1 + res.hinf_reduced
            )


class TestSolveQmi:
    def test_opa_interior_point(self):
        sys = opa_system(1.0, 1.0, chi=0.3)
        gamma = 8.0
        P = solve_qmi(sys, gamma, eps=1e-6)
        assert np.min(np.linalg.eigvalsh(P)) > 0
        assert np.max(np.linalg.eigvalsh(qmi_lhs(sys.F, sys.Etilde, gamma, P))) < 0

    def test_vanishing_channel_reduces_to_lyapunov(self):
        sys = dissipative_system([1.0, 3.0])
        eps = 1e-6
        P = solve_qmi(sys, gamma=1.0, eps=eps)
        # with no perturbation channel the equation is F'P + PF + eps I = 0
        expected = eps * np.diag([1.0, 1 / 3, 1.0, 1 / 3])
        assert np.allclose(P, expected, atol=1e-12)

    def test_boundary_gamma_infeasible(self):
        sys = opa_system(1.0, 2.0)
        with pytest.raises(QmiInfeasibleError):
            solve_qmi(sys, gamma=4.0)

    def test_block_structure(self):
        sys = opa_system(0.7, 2.4, chi=0.05)
        P = solve_qmi(sys, gamma=9.0)
        sm = structure_matrices(2)
        assert np.linalg.norm(P - sm.Sigma @ P.conj() @ sm.Sigma) <= 1e-8 * np.linalg.norm(P)


class TestMuConstants:
    def test_opa_identity_P(self):
        mu = mu_constants(np.eye(4), opa_system().Etilde)
        assert np.allclose(mu, 0.0)

    def test_zero_row(self):
        Et = np.zeros((2, 4))
        assert np.allclose(mu_constants(np.eye(4), Et), 0.0)

    def test_block_form_closed_expression(self, rng):
        # for block-structured P: mu_i = -2 E_i Sigma J P^# J E_i^T
        from conftest import random_block_P

        n = 2
        sm = structure_matrices(n)
        P = random_block_P(rng, n)
        Et = rng.normal(size=(2, 2 * n)) + 1j * rng.normal(size=(2, 2 * n))
        mu = mu_constants(P, Et)
        for i in range(2):
            row = Et[i : i + 1]
            expected = -2.0 * (row @ sm.Sigma @ sm.J @ P.conj() @ sm.J @ row.T)[0, 0]
            assert mu[i] == pytest.approx(expected)


class TestCertificateConstants:
    def test_zero_coupling_gives_zero_lambda_tilde(self):
        n = 2
        zero = np.zeros((n, n))
        sys = LinearQuantumSystem(
            M1=np.eye(n), M2=zero, N1=zero, N2=zero, E1=zero, E2=zero
        )
        consts = certificate_constants(
            sys, SectorBounds(gamma=1.0, delta1=0.5, delta2=0.25), np.eye(2 * n)
        )
        assert consts.lambda_tilde == 0.0
        assert consts.lam == pytest.approx(0.75)

    def test_all_zero_contributions_give_zero_c3(self):
        n = 1
        zero = np.zeros((n, n))
        sys = LinearQuantumSystem(
            M1=np.array([[1.0]]),
            M2=np.array([[0.5]]),
            N1=zero,
            N2=zero,
            E1=zero,
            E2=zero,
        )
        consts = certificate_constants(sys, SectorBounds(gamma=1.0), np.eye(2 * n))
        assert consts.lambda_tilde == 0.0
        assert consts.lam == 0.0
        assert consts.c3 == 0.0

    def test_rejects_indefinite_P(self):
        sys = opa_system()
        with pytest.raises(StructureError):
            certificate_constants(sys, SectorBounds(gamma=8.0), np.diag([1.0, 1, 1, -1]))

    def test_constants_match_spectral_recomputation(self):
        sys = opa_system(1.0, 1.0, chi=0.2)
        bounds = SectorBounds(gamma=8.0, delta1=0.1, delta2=0.1)
        cert = certify(sys, bounds)
        assert cert.verdict is Verdict.CERTIFIED
        assert_constants_recompute(sys, bounds, cert)


class TestCertify:
    def test_opa_certified(self):
        cert = certify(opa_system(1.0, 2.0), SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1))
        assert cert.verdict is Verdict.CERTIFIED
        assert cert.certified
        assert cert.c2 > 0
        assert cert.c1 >= 1.0
        assert cert.c3 >= 0.0

    def test_opa_small_gain_failure(self):
        cert = certify(opa_system(1.0, 2.0), SectorBounds(gamma=3.0))
        assert cert.verdict is Verdict.FAILED_SMALL_GAIN
        assert cert.P is None
        assert cert.hinf_reduced == pytest.approx(2.0, rel=1e-8)

    def test_undamped_system_fails_hurwitz(self):
        n = 2
        zero = np.zeros((n, n))
        sys = LinearQuantumSystem(M1=zero, M2=zero, N1=zero, N2=zero, E1=zero, E2=zero)
        cert = certify(sys, SectorBounds(gamma=1.0))
        assert cert.verdict is Verdict.FAILED_HURWITZ
        assert cert.abscissa == pytest.approx(0.0)
        assert not np.isfinite(cert.hinf_reduced)

    def test_closed_system_without_coupling_channels_fails_hurwitz(self):
        # m = 0: the drift -i J M is purely oscillatory
        sys = LinearQuantumSystem(
            M1=[[1.0]], M2=[[0.0]], N1=np.zeros((0, 1)), N2=np.zeros((0, 1)),
            E1=[[1.0]], E2=[[0.0]],
        )
        cert = certify(sys, SectorBounds(gamma=1.0))
        assert cert.verdict is Verdict.FAILED_HURWITZ
        assert cert.abscissa == 0.0

    def test_exact_threshold_is_small_gain_failure(self):
        # at gamma = 2*norm the strict condition holds at best within rounding
        # and the regularized inequality is infeasible; the verdict degrades
        # to FailedSmallGain instead of raising
        cert = certify(opa_system(1.0, 2.0), SectorBounds(gamma=4.0))
        assert cert.verdict is Verdict.FAILED_SMALL_GAIN

    def test_monotone_in_gamma(self):
        sys = opa_system(1.0, 2.0)
        verdicts = []
        for gamma in (3.2, 3.8, 4.2, 5.0, 8.0):
            verdicts.append(certify(sys, SectorBounds(gamma=gamma)).certified)
        first = verdicts.index(True)
        assert all(verdicts[first:])
        assert not any(verdicts[:first])

    def test_certified_invariants(self):
        sm = structure_matrices(2)
        for kappa1, kappa2, gamma in ((1.0, 2.0, 4.5), (0.5, 0.5, 9.0), (2.0, 3.0, 2.5)):
            sys = opa_system(kappa1, kappa2, chi=0.1)
            cert = certify(sys, SectorBounds(gamma=gamma, delta1=0.05, delta2=0.05))
            assert cert.verdict is Verdict.CERTIFIED
            lhs = qmi_lhs(sys.F, sys.Etilde, gamma, cert.P)
            assert np.max(np.linalg.eigvalsh(lhs)) < 0
            assert np.min(np.linalg.eigvalsh(cert.P)) > 0
            dev = np.linalg.norm(cert.P - sm.Sigma @ cert.P.conj() @ sm.Sigma)
            assert dev <= 1e-8 * np.linalg.norm(cert.P)

    @pytest.mark.parametrize("seed", [4, 5])
    def test_generic_system_with_both_channel_blocks(self, seed):
        # E1 and E2 both nonzero, where the paired Riccati data can miss a
        # certificate; on these two seeds the stabilizing solution is one
        sys = random_system(np.random.default_rng(seed), n=2, p=2)
        gamma = 1.5 * 2.0 * sys.hinf.hinf_reduced
        bounds = SectorBounds(gamma=gamma, delta1=0.1, delta2=0.1)
        cert = certify(sys, bounds)
        assert cert.verdict is Verdict.CERTIFIED
        assert np.max(np.linalg.eigvalsh(qmi_lhs(sys.F, sys.Etilde, gamma, cert.P))) < 0
        assert np.min(np.linalg.eigvalsh(cert.P)) > 0
        sm = structure_matrices(2)
        dev = np.linalg.norm(cert.P - sm.Sigma @ cert.P.conj() @ sm.Sigma)
        assert dev <= 1e-8 * np.linalg.norm(cert.P)
        assert_constants_recompute(sys, bounds, cert)


def _threshold_systems():
    """30 OPA draws and 80 random systems with n in {1, 2}, p in {1, 2, 3}."""
    rng = np.random.default_rng(6)
    for _ in range(30):
        kappa1, kappa2 = rng.uniform(0.2, 5.0, size=2)
        yield opa_system(kappa1, kappa2, chi=rng.uniform(0.01, 0.5))
    for _ in range(80):
        yield random_system(rng, n=int(rng.integers(1, 3)), p=int(rng.integers(1, 4)))


class TestExactThreshold:
    def test_verdict_at_and_just_below_the_threshold(self):
        # the threshold is the first float passing the strict small-gain
        # test; certify must answer there without raising, and one float
        # below it the test fails
        certified = 0
        for sys in _threshold_systems():
            gamma = sys.hinf.threshold
            bounds = SectorBounds(gamma=gamma, delta1=0.1, delta2=0.1)
            cert = certify(sys, bounds)
            assert cert.verdict in (Verdict.CERTIFIED, Verdict.FAILED_SMALL_GAIN)
            if cert.certified:
                certified += 1
                assert_constants_recompute(sys, bounds, cert)
            below = SectorBounds(gamma=float(np.nextafter(gamma, 0.0)), delta1=0.1, delta2=0.1)
            assert certify(sys, below).verdict is Verdict.FAILED_SMALL_GAIN
        assert certified > 0


CONSTANTS = ("mu", "lambda_tilde", "lam", "c", "c1", "c2", "c3")


def certify_exit(sys, bounds):
    """Run certify, check the fields its exit promises, and name the exit."""
    try:
        cert = certify(sys, bounds)
    except QmiInfeasibleError as exc:
        assert str(exc).startswith("solve_qmi:")
        return "raise"
    assert cert.gamma == bounds.gamma
    assert cert.abscissa == sys.abscissa
    assert np.array_equal(cert.F, sys.F)
    if cert.certified:
        assert cert.P is not None and cert.eps is not None
        assert all(getattr(cert, name) is not None for name in CONSTANTS)
        return "certified"
    assert cert.P is None
    assert all(getattr(cert, name) is None for name in CONSTANTS)
    if cert.verdict is Verdict.FAILED_HURWITZ:
        assert np.isinf(cert.hinf_primary) and np.isinf(cert.hinf_reduced)
        assert cert.eps is None
        return "hurwitz"
    assert cert.verdict is Verdict.FAILED_SMALL_GAIN
    if cert.hinf_reduced >= bounds.gamma / 2.0:
        assert cert.eps is None
        return "small-gain"
    # the small-gain test passed but the Riccati solve fell in the eps band
    assert cert.eps is not None
    return "band"


class TestCertificateContract:
    def test_every_exit_carries_its_fields(self):
        exits = []
        opa = opa_system(1.0, 2.0, chi=0.1)
        for k in range(4, 8):
            # k = 6 lands in the boundary band: the norm passes, the solve does not
            exits.append(certify_exit(opa, SectorBounds(gamma=4.0 * (1.0 + 10.0**-k))))
        for sys in _threshold_systems():
            gamma = sys.hinf.threshold
            for g in (gamma, float(np.nextafter(gamma, 0.0))):
                exits.append(certify_exit(sys, SectorBounds(gamma=g, delta1=0.1, delta2=0.1)))
        for seed in range(6):
            sys = random_system(np.random.default_rng(seed), n=2, p=2)
            gamma = 1.05 * 2.0 * sys.hinf.hinf_reduced
            exits.append(certify_exit(sys, SectorBounds(gamma=gamma)))
        zero = np.zeros((1, 1))
        for N2 in (zero, [[0.1]]):
            sys = LinearQuantumSystem(M1=zero, M2=zero, N1=zero, N2=N2, E1=zero, E2=zero)
            exits.append(certify_exit(sys, SectorBounds(gamma=1.0)))
        assert set(exits) == {"certified", "hurwitz", "small-gain", "band", "raise"}


def test_one_opa_certify_computes_the_drift_spectrum_three_times(monkeypatch):
    # once when the system is built, once in each hinf_norm for its resonances
    original = np.linalg.eigvals
    drift_calls = []

    def counting(a):
        if np.shape(a) == (4, 4):
            drift_calls.append(a)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    cert = certify(opa_system(1.0, 2.0), SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1))
    assert cert.certified
    assert len(drift_calls) == 3
