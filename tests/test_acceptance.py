"""End-to-end acceptance checks, one test per criterion.

Each test records a pass/fail flag that the terminal summary prints as one
line per criterion (see conftest.pytest_terminal_summary).
"""

import time

import numpy as np
import pytest

from conftest import random_block_P, random_system, record_criterion
from qstab.certify import Verdict, certify, qmi_lhs
from qstab.focksim import (
    build_algebra,
    check_commutator_identities,
    check_ms_bound,
    coherent_state,
    coupling_operators,
    default_dt,
    fock_state,
    lindblad_evolve,
    operator_of_series,
)
from qstab.model import structure_matrices
from qstab.opa import (
    OpaParams,
    OpaRegion,
    build_opa,
    closed_form_hinf,
    region_curve,
)
from qstab.perturbation import SectorBounds, scan_sector_region

ACCEPT_SEED = 987654321


def test_criterion_1_closed_form_hinf_reproduction():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED)
    ok = True
    for _ in range(20):
        kappa1, kappa2 = rng.uniform(0.2, 5.0, size=2)
        params = OpaParams(float(kappa1), float(kappa2), 0.1)
        sys, _ = build_opa(params)
        res = sys.hinf
        expected = closed_form_hinf(params)
        ok &= abs(res.hinf_reduced - expected) <= 1e-6 * expected
    elapsed = time.perf_counter() - t0
    record_criterion(1, ok and elapsed < 5.0)
    assert ok
    assert elapsed < 5.0


def test_criterion_2_norm_equivalence_on_random_systems():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 1)
    ok = True
    for _ in range(100):
        n = int(rng.integers(1, 4))
        sys = random_system(rng, n=n, p=int(rng.integers(1, 4)))
        res = sys.hinf
        ok &= abs(res.hinf_primary - res.hinf_reduced) <= 1e-6 * (1.0 + res.hinf_reduced)
    elapsed = time.perf_counter() - t0
    record_criterion(2, ok and elapsed < 30.0)
    assert ok
    assert elapsed < 30.0


def test_criterion_3_certification_threshold():
    sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
    above = certify(sys, SectorBounds(gamma=4.001, delta1=0.1, delta2=0.1))
    below = certify(sys, SectorBounds(gamma=3.999, delta1=0.1, delta2=0.1))
    gamma_star = sys.hinf.threshold
    ok = (
        above.verdict is Verdict.CERTIFIED
        and below.verdict is Verdict.FAILED_SMALL_GAIN
        and abs(gamma_star - 4.0) <= 1e-4
    )
    record_criterion(3, ok)
    assert above.verdict is Verdict.CERTIFIED
    assert below.verdict is Verdict.FAILED_SMALL_GAIN
    assert gamma_star == pytest.approx(4.0, abs=1e-4)


def test_criterion_4_riccati_validity_and_constants():
    configs = [
        (OpaParams(1.0, 2.0, 0.1), SectorBounds(gamma=4.001, delta1=0.1, delta2=0.1)),
        (OpaParams(1.0, 2.0, 0.1), SectorBounds(gamma=4.5, delta1=0.1, delta2=0.1)),
        (OpaParams(1.0, 1.0, 0.05), SectorBounds(gamma=8.0, delta1=0.1, delta2=0.1)),
        (OpaParams(0.5, 3.0, 0.2), SectorBounds(gamma=9.0, delta1=0.0, delta2=0.3)),
    ]
    sm = structure_matrices(2)
    ok = True
    for params, bounds in configs:
        sys, _ = build_opa(params)
        cert = certify(sys, bounds)
        ok &= cert.verdict is Verdict.CERTIFIED
        if not ok:
            break
        lhs = qmi_lhs(sys.F, sys.Etilde, bounds.gamma, cert.P)
        eigs_P = np.linalg.eigvalsh(cert.P)
        ok &= float(np.max(np.linalg.eigvalsh(lhs))) < 0.0
        ok &= float(eigs_P[0]) > 0.0
        dev = np.linalg.norm(cert.P - sm.Sigma @ cert.P.conj() @ sm.Sigma)
        ok &= dev <= 1e-8 * np.linalg.norm(cert.P)

        # independent recomputation from the spectrum of P
        L = np.linalg.cholesky(cert.P)
        inner = np.linalg.solve(L, lhs)
        inner = np.linalg.solve(L, inner.conj().T).conj().T
        c_indep = float(np.min(np.linalg.eigvalsh(-inner)))
        c1_indep = float(eigs_P[-1] / eigs_P[0])
        c3_indep = cert.lam / (c_indep * float(eigs_P[0]))
        ok &= abs(cert.c - c_indep) <= 1e-8 * (1.0 + abs(c_indep))
        ok &= abs(cert.c1 - c1_indep) <= 1e-8 * (1.0 + abs(c1_indep))
        ok &= cert.c2 == cert.c
        ok &= abs(cert.c3 - c3_indep) <= 1e-8 * (1.0 + abs(c3_indep))
    record_criterion(4, ok)
    assert ok


def test_criterion_5_operator_identity_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(ACCEPT_SEED + 5)
    sys, series = build_opa(OpaParams(1.0, 2.0, 0.1))
    alg = build_algebra(2, 6)
    worst = 0.0
    for _ in range(3):
        P = random_block_P(rng, 2)
        residuals = check_commutator_identities(alg, sys, series, P)
        assert len(residuals) == 5
        worst = max(worst, max(residuals.values()))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 10.0
    record_criterion(5, ok)
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_6_mean_square_bound_simulation():
    t0 = time.perf_counter()
    params = OpaParams(1.0, 1.0, 0.05)
    bounds = SectorBounds(gamma=8.0, delta1=0.1, delta2=0.1)
    sys, series = build_opa(params)
    cert = certify(sys, bounds)
    assert cert.verdict is Verdict.CERTIFIED

    # the initial amplitudes sit strictly inside the admissible region
    assert OpaRegion(params, bounds).contains(0.25, 0.25)

    dt = 0.01
    t_final = 10.0
    msq_by_dim = {}
    for dim in (12, 10):
        alg = build_algebra(2, dim)
        H = operator_of_series(alg, sys, series)
        L_ops = coupling_operators(alg, sys)
        rho0 = coherent_state(alg, [0.5, 0.5])
        traj = lindblad_evolve(alg, H, L_ops, rho0, t_final, dt)
        msq_by_dim[dim] = traj
    holds, worst_slack = check_ms_bound(msq_by_dim[12], cert.c1, cert.c2, cert.c3)
    agreement = float(np.max(np.abs(msq_by_dim[12].msq - msq_by_dim[10].msq)))
    # the bound must be tight enough for the simulation to test it
    tight = cert.c3 <= 10.0 * msq_by_dim[12].msq[-1]
    elapsed = time.perf_counter() - t0
    ok = holds and tight and agreement <= 1e-4 and elapsed < 30.0
    record_criterion(6, ok)
    assert holds, f"worst slack {worst_slack}"
    assert tight, f"c3 {cert.c3} against a final mean square {msq_by_dim[12].msq[-1]}"
    assert agreement <= 1e-4
    assert elapsed < 30.0


def test_criterion_7_region_geometry():
    params = OpaParams(1.0, 1.0, 0.1)  # gamma = 4 equals 4/kappa1
    bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)
    _, series = build_opa(params)
    ok = True

    region = OpaRegion(params, bounds)
    lb = region.lambda_bar
    ok &= abs(lb.root - 6.25) <= 1e-12

    rows = region_curve(region, 501)
    z1sq0, cap0, _ = rows[0]
    ok &= z1sq0 == 0.0 and cap0 == bounds.delta2 / (4.0 * params.chi**2)

    # curve matches the kappa-form closed expression at gamma = 4/kappa1
    kappa1 = 1.0
    chi2 = params.chi**2
    knee = 1.0 / (4.0 * bounds.gamma**2 * chi2)
    ceiling = bounds.delta2 / (4.0 * chi2)
    for z1sq, cap, _ in rows:
        if z1sq <= knee * (1.0 + 1e-9):
            continue
        numer = bounds.delta1 / chi2 + z1sq * kappa1**2 / (16.0 * chi2) - z1sq**2
        denom = 4.0 * z1sq - kappa1**2 / (16.0 * chi2)
        expected = max(0.0, min(numer / denom, ceiling))
        ok &= abs(cap - expected) <= 1e-12 * (1.0 + expected)

    # boundary agrees with the phase-sampled sector scan within one cell
    g1 = np.linspace(0.0, lb.root * 1.05, 50)
    g2 = np.linspace(0.0, region.ceiling * 1.2, 50)
    mask, _, _ = scan_sector_region(series, bounds, [g1, g2])
    cell = g2[1] - g2[0]
    for col, z1sq in enumerate(g1):
        cap = region.cap(float(z1sq))
        admissible = np.nonzero(mask[col])[0]
        boundary = g2[admissible[-1]] if admissible.size else -cell / 2.0
        ok &= abs(boundary - min(cap, g2[-1])) <= cell * (1.0 + 1e-9)

    # the caption discrepancy at delta1 > 0 is reported, not asserted away
    lb_pos = OpaRegion(params, SectorBounds(gamma=4.0, delta1=1.0, delta2=0.04)).lambda_bar
    ok &= lb_pos.discrepancy > 0.0
    record_criterion(7, ok)
    assert ok
    print(
        f"[criterion 7] caption/root right-endpoint readings at delta1=1: "
        f"{lb_pos.caption:.6f} vs {lb_pos.root:.6f} (discrepancy surfaced)"
    )


def test_criterion_8_lossy_cavity_analytic_check():
    kappa = 0.7
    dim = 8
    alg = build_algebra(1, dim)
    L = [np.sqrt(kappa) * alg.a[0]]
    rho0 = fock_state(alg, (1,))
    dt = default_dt([kappa], 0.0, dim)
    traj = lindblad_evolve(alg, np.zeros((dim, dim)), L, rho0, 1.0 / kappa, dt)
    occupation = (traj.msq - 1.0) / 2.0
    expected = np.exp(-kappa * traj.times) * occupation[0]
    err = float(np.max(np.abs(occupation - expected)))
    ok = err < 1e-6
    record_criterion(8, ok)
    assert err < 1e-6
