import contextlib
import math
import pkgutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.optimize import minimize_scalar

from conftest import random_system
from qstab.certify import (
    Verdict,
    _riccati_data,
    _stabilizing_riccati,
    certificate_constants,
    certify,
    certify_sweep,
    default_regularization,
    mu_constants,
    qmi_lhs,
    solve_qmi,
)
from qstab.errors import NotHurwitzError, QmiInfeasibleError, QstabError, StructureError
from qstab.focksim import build_algebra, quadratic_form
from qstab.model import (
    LinearQuantumSystem, _realizations, hinf_norm, structure_matrices, validate_system
)
from qstab.opa import OpaParams, OpaRegion, build_opa, invariant_ellipsoid, opa_region
from qstab.perturbation import PerturbationSeries, SectorBounds


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

    @staticmethod
    def pencil_c(n, P, lhs):
        """``certificate_constants``' c for this P, with the inequality's
        left-hand side replaced by ``lhs`` (c depends on nothing else)."""
        sys = dissipative_system([1.0] * n)
        with mock.patch("qstab.certify._inequality_lhs", return_value=lhs):
            return certificate_constants(sys, SectorBounds(gamma=1.0), P).c

    @staticmethod
    def random_unitary(rng, size):
        Q, _ = np.linalg.qr(rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size)))
        return Q

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 4]),
        log_cond=st.floats(0.0, 8.0),
        log_scale=st.floats(-3.0, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pencil_eigenvalue_matches_scipy(self, n, log_cond, log_scale, seed):
        """c is the least eigenvalue of the pencil (-lhs, P) for any positive
        definite P up to condition number 1e8.  A backward-stable solver errs by
        O(eps (||lhs|| / lmin(P) + |c| cond(P))); the two agree within
        8 * 2n eps times that scale."""
        rng = np.random.default_rng(seed)
        size = 2 * n
        spectrum = np.r_[1.0, 10.0**log_cond, 10.0 ** rng.uniform(0, log_cond, size - 2)]
        Q = self.random_unitary(rng, size)
        P = (Q * spectrum) @ Q.conj().T * 10.0**log_scale
        P = 0.5 * (P + P.conj().T)
        A = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
        lhs = 0.5 * (A + A.conj().T) * 10.0 ** rng.uniform(-3, 3)
        reference = float(sla.eigh(-lhs, P, eigvals_only=True).min())
        eigs = np.linalg.eigvalsh(P)
        scale = np.linalg.norm(lhs, 2) / eigs[0] + abs(reference) * eigs[-1] / eigs[0]
        eps = np.finfo(float).eps
        assert abs(self.pencil_c(n, P, lhs) - reference) <= 8 * size * eps * scale

    @settings(max_examples=200, deadline=None)
    @given(
        n=st.sampled_from([1, 2, 4]),
        log_p=st.floats(-4.0, 4.0),
        diagonal=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_scalar_P_divides_the_spectrum(self, n, log_p, diagonal, seed):
        """At P = p I, c = min eig(-lhs) / p.  For a diagonal lhs, as on the
        OPA's closed form, only the scaling rounds: within 1e-15 relative.
        Otherwise the two eigensolves see differently rounded matrices and
        agree within 8 * 2n eps times ||lhs|| / p."""
        rng = np.random.default_rng(seed)
        size, p = 2 * n, 10.0**log_p
        spectrum = rng.normal(size=size)
        Q = np.eye(size) if diagonal else self.random_unitary(rng, size)
        lhs = (Q * spectrum) @ Q.conj().T
        lhs = 0.5 * (lhs + lhs.conj().T)
        reference = float(np.linalg.eigvalsh(-lhs).min()) / p
        c = self.pencil_c(n, p * np.eye(size, dtype=complex), lhs)
        if diagonal:
            assert abs(c - reference) <= 1e-15 * abs(reference)
        else:
            eps = np.finfo(float).eps
            assert abs(c - reference) <= 8 * size * eps * np.linalg.norm(lhs, 2) / p

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
        # the norm is a certified upper bound (2.000000004 here), so at
        # gamma = 2*norm the strict small-gain test fails
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


class TestInvariantLevel:
    params = OpaParams(1.0, 2.0, 0.1)
    bounds = SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1)

    def test_region_sets_the_level_of_a_certified_result(self):
        sys, series = build_opa(self.params)
        cert = certify(sys, self.bounds, series=series)
        assert cert.certified
        region = OpaRegion(self.params, self.bounds)
        assert cert.invariant_level == invariant_ellipsoid(cert.P, region)
        assert cert.invariant_level > 0

    def test_without_a_region_the_level_is_none(self):
        cert = certify(opa_system(), self.bounds)
        assert cert.certified
        assert cert.invariant_level is None

    def test_failed_verdict_carries_no_level(self):
        bounds = SectorBounds(gamma=3.0, delta1=0.1, delta2=0.1)
        sys, series = build_opa(self.params)
        cert = certify(sys, bounds, series=series)
        assert cert.verdict is Verdict.FAILED_SMALL_GAIN
        assert cert.invariant_level is None

    def test_the_series_sets_chi(self):
        """The level belongs to the series' chi, not to the chi the system was built with."""
        strong = build_opa(OpaParams(1.0, 2.0, 0.5))[1]
        cert = certify(opa_system(), self.bounds, series=strong)
        region = OpaRegion(OpaParams(1.0, 2.0, 0.5), self.bounds)
        assert cert.invariant_level == invariant_ellipsoid(cert.P, region) == 0.023249061407009622

    @pytest.mark.parametrize(
        "coeffs",
        [
            {(2, 1, 1, 2): 0.1j, (1, 2, 2, 1): -0.1j, (1, 1, 1, 1): 0.5},
            {(2, 1, 1, 2): 0.1j, (1, 2, 2, 1): -0.2j},
            {(2, 1, 1, 2): -0.1j, (1, 2, 2, 1): 0.1j},
            {(2, 1, 1, 2): 0.1 + 0.1j, (1, 2, 2, 1): 0.1 - 0.1j},
            {(2, 1, 1, 2): 0.1j},
        ],
        ids=["extra-term", "unequal", "negative-chi", "complex", "one-term"],
    )
    def test_a_series_that_is_not_the_opas_gets_no_level(self, coeffs):
        cert = certify(opa_system(), self.bounds, series=PerturbationSeries(2, coeffs))
        assert cert.certified
        assert cert.invariant_level is None
        assert opa_region(opa_system(), PerturbationSeries(2, coeffs), self.bounds) is None

    def test_a_system_that_is_not_the_opas_gets_no_level(self):
        sys, series = build_opa(self.params)
        detuned = LinearQuantumSystem(M1=np.diag([0.3, -0.2]), M2=sys.M2, N1=sys.N1,
                                      N2=sys.N2, E1=sys.E1, E2=sys.E2)
        assert detuned.opa_kappa is None
        cert = certify(detuned, self.bounds, series=series)
        assert cert.certified
        assert cert.invariant_level is None
        three_modes = dissipative_system([1.0, 2.0, 3.0], E2=np.eye(3))
        assert three_modes.opa_kappa is not None
        assert opa_region(three_modes, PerturbationSeries(3, series.coeffs), self.bounds) is None

    def test_the_structure_test_is_kept_on_the_system(self):
        sys, series = build_opa(self.params)
        assert "opa_kappa" not in vars(sys)
        certify(sys, self.bounds, series=series)
        kappa = vars(sys)["opa_kappa"]
        assert sys.opa_kappa is kappa
        np.testing.assert_allclose(kappa, [1.0, 2.0], rtol=1e-15)


def scalar_optimum(kappas, gamma, delta):
    """p* = (-2 delta + sqrt(4 delta^2 + K (K/gamma^2 + delta kappa_min))) / (2K)."""
    K, kappa_min = sum(kappas), min(kappas)
    return (-2 * delta + math.sqrt(4 * delta**2 + K * (K / gamma**2 + delta * kappa_min))) / (2 * K)


def mode_diagonal_grid_c3(kappas, gamma, delta, points=700):
    """Least c3 over P = diag(p1, p2, p1, p2) on a dense grid of each mode's
    feasible interval, where c = min_k (kappa_k - 4 p_k - 1/(gamma^2 p_k)) > 0."""
    axes = []
    for kappa in kappas:
        half_width = math.sqrt(kappa**2 - 16 / gamma**2) / 8
        axes.append(np.linspace(kappa / 8 - half_width, kappa / 8 + half_width, points + 2)[1:-1])
    p1, p2 = np.meshgrid(*axes, indexing="ij")
    c = np.minimum(*(k - 4 * p - 1 / (gamma**2 * p) for k, p in zip(kappas, (p1, p2))))
    c3 = (kappas[0] * p1 + kappas[1] * p2 + delta) / (c * np.minimum(p1, p2))
    return float(np.min(np.where(c > 0, c3, np.inf)))


class TestClosedFormCertificate:
    def test_opa_structure_takes_the_closed_form(self):
        cert = certify(opa_system(1.0, 2.0), SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1))
        assert cert.certified and cert.eps is None
        p = scalar_optimum((1.0, 2.0), 4.5, 0.2)
        assert np.array_equal(cert.P, cert.P[0, 0] * np.eye(4))
        assert cert.P[0, 0].real == pytest.approx(p, rel=1e-12)
        assert np.all(cert.mu == 0)

    def test_closed_form_that_fails_the_inequality_raises_with_both_margins(self):
        # a left-hand side of 2 I makes c = -2/p: P is positive, the inequality fails
        sys = opa_system(1.0, 2.0)
        bounds = SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1)
        p = scalar_optimum((1.0, 2.0), 4.5, 0.2)
        with mock.patch("qstab.certify._inequality_lhs", return_value=2.0 * np.eye(4)):
            with pytest.raises(QmiInfeasibleError) as raised:
                certify(sys, bounds)
        message = str(raised.value)
        assert f"min eig(P) = {p:.3e}" in message
        assert "max eig(inequality) = 2.000e+00" in message

    def test_explicit_eps_and_other_structures_take_the_riccati_path(self):
        bounds = SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1)
        assert certify(opa_system(1.0, 2.0), bounds, eps=1e-3).eps == 1e-3
        # E2 = 2 I and a coupling N1 with an off-diagonal entry are not the OPA's structure
        scaled = dissipative_system([1.0, 2.0], E2=2.0 * np.eye(2))
        coupled = LinearQuantumSystem(
            M1=np.zeros((2, 2)), M2=np.zeros((2, 2)), N1=[[1.0, 0.1], [0.0, 1.5]],
            N2=np.zeros((2, 2)), E1=np.zeros((2, 2)), E2=np.eye(2),
        )
        for sys in (scaled, coupled):
            gamma = 3.0 * sys.hinf.hinf_reduced
            cert = certify(sys, SectorBounds(gamma=gamma, delta1=0.1, delta2=0.1))
            assert cert.certified
            assert cert.eps == default_regularization(sys.Etilde, gamma)

    def test_verdict_is_monotone_at_the_threshold(self):
        # gamma = 4 (1 + 10^-k) once fell in and out of the Riccati path's
        # boundary band; the closed form certifies every one of them
        sys = opa_system(1.0, 2.0, chi=0.1)
        for k in range(4, 9):
            bounds = SectorBounds(gamma=4.0 * (1.0 + 10.0**-k), delta1=0.1, delta2=0.1)
            cert = certify(sys, bounds)
            assert cert.verdict is Verdict.CERTIFIED, k
            assert_constants_recompute(sys, bounds, cert)

    def test_certified_P_is_exactly_scalar(self):
        # the draws of the benchmark's Fock-space sessions: a scalar P makes
        # V = x' P x a single diagonal
        rng = np.random.default_rng(17)
        alg = build_algebra(2, 6)
        for _ in range(75):
            kappas = tuple(float(k) for k in rng.uniform(0.2, 5.0, size=2))
            sys = opa_system(*kappas, chi=float(rng.uniform(0.02, 0.3)))
            for factor in (1.001, 1.2, 2.0, 4.0):
                gamma = factor * 2.0 * sys.hinf.hinf_reduced
                cert = certify(sys, SectorBounds(gamma=gamma, delta1=0.1, delta2=0.1))
                assert cert.certified
                assert np.array_equal(cert.P, cert.P[0, 0] * np.eye(4))
                assert cert.P[0, 0].real == pytest.approx(
                    scalar_optimum(kappas, gamma, 0.2), rel=1e-12
                )
                assert quadratic_form(alg, cert.P).offsets.tolist() == [0]

    @pytest.mark.parametrize(
        "kappas, gamma, c3",
        [((1.0, 2.0), 4.5, 42.83), ((1.0, 1.0), 8.0, 9.008), ((2.0, 3.0), 2.5, 14.95)],
    )
    def test_c3_matches_the_best_mode_diagonal_P(self, kappas, gamma, c3):
        cert = certify(opa_system(*kappas), SectorBounds(gamma=gamma, delta1=0.1, delta2=0.1))
        best = mode_diagonal_grid_c3(kappas, gamma, 0.2)
        assert cert.c3 == pytest.approx(best, rel=1e-3)
        assert cert.c3 == pytest.approx(c3, rel=1e-3)

    @settings(max_examples=30, deadline=None)
    @given(
        kappa1=st.floats(0.2, 5.0),
        kappa2=st.floats(0.2, 5.0),
        factor=st.floats(1.001, 4.0),
        delta1=st.floats(0.0, 1.0),
        delta2=st.floats(0.0, 1.0),
    )
    def test_no_riccati_certificate_beats_the_closed_form(
        self, kappa1, kappa2, factor, delta1, delta2
    ):
        sys = opa_system(kappa1, kappa2)
        gamma = factor * 2.0 * sys.hinf.hinf_reduced
        bounds = SectorBounds(gamma=gamma, delta1=delta1, delta2=delta2)
        cert = certify(sys, bounds)
        assert cert.certified
        assert_constants_recompute(sys, bounds, cert)
        assert cert.c2 <= min(kappa1, kappa2) - 4.0 / gamma + 1e-9
        riccati_c3 = []
        for eps in (default_regularization(sys.Etilde, gamma), *np.logspace(-6, 0, 49)):
            try:
                other = certify(sys, bounds, eps=float(eps))
            except QmiInfeasibleError:
                continue
            if other.certified:
                riccati_c3.append(other.c3)
        assert all(cert.c3 <= c3 * (1 + 1e-9) for c3 in riccati_c3)


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


def assert_sweep_matches_points(sys, points, eps=None):
    """A stacked ``certify_sweep`` gives each point the certificate that one
    ``certify`` call on it gives, or raises the first point's error."""
    singles = []
    for bounds in points:
        try:
            singles.append(certify(sys, bounds, eps=eps))
        except QstabError as exc:
            singles.append(exc)
    first_error = next((one for one in singles if isinstance(one, QstabError)), None)
    if first_error is not None:
        with pytest.raises(type(first_error)) as raised:
            certify_sweep(sys, points, eps)
        assert str(raised.value) == str(first_error)
        singles = singles[: singles.index(first_error)]
        points = points[: len(singles)]
    stacked = certify_sweep(sys, points, eps)
    assert len(stacked) == len(points)
    for bounds, one, cert in zip(points, singles, stacked):
        assert cert.verdict is one.verdict
        for name in ("gamma", "abscissa", "hinf_primary", "hinf_reduced", "eps",
                     "lambda_tilde", "lam", "c", "c1", "c2", "c3"):
            assert getattr(cert, name) == getattr(one, name), name
        for name in ("F", "P", "mu"):
            a, b = getattr(cert, name), getattr(one, name)
            assert (a is None and b is None) or np.array_equal(a, b), name
        if cert.certified:
            assert_constants_recompute(sys, bounds, cert)
    return stacked


class TestCertifySweep:
    @settings(max_examples=60, deadline=None)
    @given(
        kappa1=st.floats(0.2, 5.0),
        kappa2=st.floats(0.2, 5.0),
        chi=st.floats(0.02, 0.3),
        factors=st.lists(st.floats(0.5, 4.0), min_size=1, max_size=12),
        deltas=st.lists(st.floats(0.0, 2.0), min_size=3, max_size=8),
    )
    def test_stack_equals_one_call_per_point(self, kappa1, kappa2, chi, factors, deltas):
        sys = opa_system(kappa1, kappa2, chi)
        threshold = sys.hinf.threshold
        below = float(np.nextafter(threshold, 0.0))
        gammas = [threshold, below, *(f * threshold for f in factors)]
        delta1, delta2 = deltas[0], deltas[1]
        certs = assert_sweep_matches_points(
            sys, [SectorBounds(g, delta1, delta2) for g in gammas]
        )
        assert certs[0].certified and not certs[1].certified
        gamma = max(gammas)
        for name in ("delta1", "delta2"):
            other = {"delta1": delta1, "delta2": delta2}
            points = [SectorBounds(gamma, **{**other, name: d}) for d in (0.0, *deltas)]
            assert all(c.certified for c in assert_sweep_matches_points(sys, points))

    def test_riccati_sweep_equals_one_call_per_point(self):
        sys = opa_system(1.0, 2.0, chi=0.1)
        threshold = sys.hinf.threshold
        gammas = [float(np.nextafter(threshold, 0.0)), threshold, 4.0001, 4.5, 6.0, 12.0]
        for eps in (1e-3, 0.5):
            certs = assert_sweep_matches_points(
                sys, [SectorBounds(g, 0.1, 0.1) for g in gammas], eps=eps
            )
            assert {c.eps for c in certs if c.certified} <= {eps}
        # 0.5 puts gamma = 4.5 inside the boundary band, a small-gain failure with eps
        assert certs[3].verdict is Verdict.FAILED_SMALL_GAIN and certs[3].eps == 0.5

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_generic_sweep_equals_one_call_per_point(self, seed):
        sys = random_system(np.random.default_rng(seed), n=2, p=2)
        threshold = sys.hinf.threshold
        # the Riccati path often raises at 1.5x threshold (ROADMAP item 3), so
        # the points before it certify and the stack raises its error
        factors = (2.0, 3.0, 5.0, 1.5)
        gammas = [float(np.nextafter(threshold, 0.0)), *(f * threshold for f in factors), threshold]
        assert_sweep_matches_points(sys, [SectorBounds(g, 0.1, 0.1) for g in gammas])

    @pytest.mark.parametrize("seed", [11, 30, 34])
    def test_one_mode_sweep_equals_one_call_per_point(self, seed):
        # n = p = 1 draws whose Riccati constants, once stacked, moved mu by an ULP
        rng = np.random.default_rng(seed)
        sys = random_system(rng, n=int(rng.integers(1, 4)), p=int(rng.integers(1, 4)))
        assert (sys.n, sys.p) == (1, 1)
        threshold = sys.hinf.threshold
        points = [SectorBounds(f * threshold, 0.1, 0.1) for f in (1.05, 3.0)]
        assert assert_sweep_matches_points(sys, points)[-1].certified

    def test_riccati_sweep_raises_at_its_first_raising_point(self):
        # in the band at 4.0001, a P that is not definite at 6, beyond the band at 12:
        # the strictness check refuses the P at 6 and the band rule raises it
        sys = opa_system(1.0, 2.0, chi=0.1)
        points = [SectorBounds(g, 0.1, 0.1) for g in (4.0001, 6.0, 12.0)]
        infeasible = QmiInfeasibleError("no stabilizing solution")
        outcomes = [infeasible, -np.eye(4, dtype=complex), infeasible]
        with mock.patch("qstab.certify._stabilizing_riccati", side_effect=outcomes) as solve:
            with pytest.raises(
                QmiInfeasibleError,
                match=r"^solve_qmi: P is not a strict solution: min eig\(P\) = -1.000e\+00",
            ):
                certify_sweep(sys, points, eps=1e-5)
        assert solve.call_count == 2

    def test_unstable_system_fails_every_point(self):
        sys = single_mode(np.array([[0.9]]))
        certs = certify_sweep(sys, [SectorBounds(g) for g in (1.0, 2.0)])
        assert [c.verdict for c in certs] == [Verdict.FAILED_HURWITZ] * 2
        assert certify_sweep(opa_system(), []) == []

    def test_first_raising_point_wins(self):
        # a left-hand side of 2 I fails the strictness check at every certified point
        sys = opa_system(1.0, 2.0)
        points = [SectorBounds(g, 0.1, 0.1) for g in (3.0, 4.5, 6.0)]
        with mock.patch("qstab.certify._inequality_lhs", return_value=2.0 * np.eye(4)):
            with pytest.raises(QmiInfeasibleError) as raised:
                certify_sweep(sys, points)
        p = scalar_optimum((1.0, 2.0), 4.5, 0.2)
        assert f"min eig(P) = {p:.3e}" in str(raised.value)


def non_physical_system():
    """M1 = [[0, 1], [0, 0]] is not Hermitian: F is Hurwitz, but no Hamiltonian has it."""
    zero = np.zeros((2, 2))
    return LinearQuantumSystem(
        M1=[[0.0, 1.0], [0.0, 0.0]], M2=zero, N1=np.eye(2), N2=zero, E1=zero, E2=np.eye(2)
    )


class TestStrictnessCheck:
    @staticmethod
    def count_calls(sys, bounds, eps=None):
        """Calls per name made by one ``certify`` on a system whose norms (and
        so its realizations) are computed already."""
        sys.hinf
        names = {
            "_riccati_data": "qstab.certify._riccati_data",
            "_inequality_lhs": "qstab.certify._inequality_lhs",
            "eigh": "numpy.linalg.eigh",
            "eigvalsh": "numpy.linalg.eigvalsh",
            "_realizations": "qstab.certify._realizations",
            "model._realizations": "qstab.model._realizations",
        }
        with contextlib.ExitStack() as stack:
            mocks = {
                name: stack.enter_context(mock.patch(target, wraps=pkgutil.resolve_name(target)))
                for name, target in names.items()
            }
            cert = certify(sys, bounds, eps=eps)
        assert cert.certified
        return {name: m.call_count for name, m in mocks.items()}

    def test_one_riccati_point_builds_its_data_once(self):
        sys = random_system(np.random.default_rng(3), n=2, p=1)
        counts = self.count_calls(sys, SectorBounds(3.0 * sys.hinf.threshold, 0.1, 0.1))
        assert counts == {"_riccati_data": 1, "_inequality_lhs": 1, "eigh": 1, "eigvalsh": 1,
                          "_realizations": 0, "model._realizations": 0}

    def test_one_closed_form_point_forms_one_lhs(self):
        counts = self.count_calls(opa_system(1.0, 2.0), SectorBounds(4.5, 0.1, 0.1))
        assert counts == {"_riccati_data": 0, "_inequality_lhs": 1, "eigh": 1, "eigvalsh": 1,
                          "_realizations": 0, "model._realizations": 0}

    def test_riccati_P_that_fails_the_inequality_raises_with_both_margins(self):
        # a left-hand side of 2 I makes c < 0 for the solved P, which is positive definite
        sys = opa_system(1.0, 2.0)
        bounds = SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1)
        P = _stabilizing_riccati(sys.F, *_riccati_data(sys.realizations, 4.5, 1e-6))
        margins = (f"P is not a strict solution: min eig(P) = {np.linalg.eigvalsh(P)[0]:.3e}, "
                   "max eig(inequality) = 2.000e+00")
        with mock.patch("qstab.certify._inequality_lhs", return_value=2.0 * np.eye(4)):
            with pytest.raises(QmiInfeasibleError) as raised:
                certify(sys, bounds, eps=1e-6)
            assert str(raised.value) == f"solve_qmi: {margins}"
            with pytest.raises(QmiInfeasibleError) as raised:
                solve_qmi(sys, 4.5, eps=1e-6)
            assert str(raised.value) == margins
            # eps = 1e-3 puts the gain margin 0.25 inside the boundary band
            cert = certify(sys, bounds, eps=1e-3)
        assert cert.verdict is Verdict.FAILED_SMALL_GAIN and cert.eps == 1e-3

    def test_closed_form_p_that_is_not_finite_raises(self):
        # gamma^2 overflows and delta = 0, so p* = 0/0: eigh has no NaN P to factor
        with pytest.warns(RuntimeWarning):
            with pytest.raises(QmiInfeasibleError, match="^P is not a strict solution: "):
                certify(opa_system(1.0, 2.0), SectorBounds(1e200))

    def test_non_physical_system_is_refused_before_the_hurwitz_verdict(self):
        sys = non_physical_system()
        assert sys.abscissa < 0 and [v.matrix for v in validate_system(sys)] == ["M1"]
        for run in (lambda: certify(sys, SectorBounds(20.0, 0.1, 0.1)),
                    lambda: certify_sweep(sys, [SectorBounds(20.0), SectorBounds(30.0)])):
            with pytest.raises(StructureError, match="not a physical system: M1 not Hermitian"):
                run()
        # M1 = i gives F = diag(1, 1): unstable, and refused rather than FailedHurwitz
        unstable = single_mode(np.array([[1j]]))
        assert unstable.abscissa > 0
        with pytest.raises(StructureError, match="not a physical system: M1 not Hermitian"):
            certify(unstable, SectorBounds(1.0))


def certify_exit(sys, bounds, eps=None):
    """Run certify, check the fields its exit promises, and name the exit."""
    try:
        cert = certify(sys, bounds, eps=eps)
    except QmiInfeasibleError as exc:
        assert str(exc).startswith("solve_qmi:")
        return "raise"
    assert cert.gamma == bounds.gamma
    assert cert.abscissa == sys.abscissa
    assert np.array_equal(cert.F, sys.F)
    if cert.certified:
        assert cert.P is not None
        # only the closed-form path, a scalar P, records no eps
        assert cert.eps is not None or np.array_equal(cert.P, cert.P[0, 0] * np.eye(len(cert.P)))
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
        # the norm passes (2 < 2.25), but the Riccati solve at this eps does not
        exits.append(certify_exit(opa_system(1.0, 2.0, chi=0.1), SectorBounds(gamma=4.5), eps=0.5))
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


def test_one_opa_certify_computes_the_drift_spectrum_once(monkeypatch):
    # when the system is built; both hinf_norm iterations read it from the system
    original = np.linalg.eigvals
    drift_calls = []

    def counting(a):
        if np.shape(a) == (4, 4):
            drift_calls.append(a)
        return original(a)

    monkeypatch.setattr(np.linalg, "eigvals", counting)
    cert = certify(opa_system(1.0, 2.0), SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1))
    assert cert.certified
    assert len(drift_calls) == 1
