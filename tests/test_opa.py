import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstab.certify import certify
from qstab.errors import StructureError
from qstab.opa import (
    OpaParams,
    build_opa,
    closed_form_hinf,
    invariant_ellipsoid,
    lambda_bar,
    region_curve,
    region_z2_cap,
)
from qstab.perturbation import (
    SectorBounds,
    scan_sector_region,
    validate_selfadjoint,
)


class TestBuildOpa:
    def test_series_is_selfadjoint(self):
        _, series = build_opa(OpaParams(0.3, 1.7, 0.25))
        assert validate_selfadjoint(series) == []

    def test_drift_matrix(self):
        sys, _ = build_opa(OpaParams(1.0, 1.0, 0.1))
        assert np.allclose(sys.F, -0.5 * np.eye(4))

    def test_positive_parameters_enforced(self):
        with pytest.raises(StructureError):
            OpaParams(kappa1=1.0, kappa2=1.0, chi=0.0)
        with pytest.raises(StructureError):
            OpaParams(kappa1=-1.0, kappa2=1.0, chi=0.1)


class TestClosedFormHinf:
    def test_values(self):
        assert closed_form_hinf(OpaParams(1.0, 2.0, 0.1)) == 2.0
        assert closed_form_hinf(OpaParams(2.0, 2.0, 0.1)) == 1.0

    def test_matches_numerical_norm(self, rng):
        for _ in range(20):
            kappa1, kappa2 = rng.uniform(0.2, 5.0, size=2)
            params = OpaParams(kappa1, kappa2, 0.1)
            sys, _ = build_opa(params)
            res = sys.hinf
            assert abs(res.hinf_reduced - closed_form_hinf(params)) <= 1e-8 * (
                1 + closed_form_hinf(params)
            )


class TestRegionCap:
    def test_origin_hits_curvature_ceiling(self):
        params = OpaParams(1.0, 1.0, 0.1)
        bounds = SectorBounds(gamma=4.0, delta1=0.3, delta2=0.04)
        assert region_z2_cap(params, bounds, 0.0) == pytest.approx(
            bounds.delta2 / (4 * params.chi**2)
        )

    def test_gradient_branch_root(self):
        params = OpaParams(1.0, 1.0, 0.1)
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=100.0)
        z1sq = 1.0 / (bounds.gamma**2 * params.chi**2)
        assert region_z2_cap(params, bounds, z1sq) == pytest.approx(0.0, abs=1e-12)

    def test_admissibility_ends_at_numerator_root(self):
        params = OpaParams(1.0, 1.0, 0.1)
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=100.0)
        root = 1.0 / (bounds.gamma**2 * params.chi**2)
        assert root == pytest.approx(6.25)
        assert region_z2_cap(params, bounds, root * 1.0001) == 0.0
        assert region_z2_cap(params, bounds, root * 0.999) > 0.0


class TestLambdaBar:
    def test_delta1_zero_agreement(self):
        params = OpaParams(1.0, 1.0, 0.1)
        lb = lambda_bar(params, SectorBounds(gamma=4.0, delta1=0.0, delta2=1.0))
        assert lb.caption == pytest.approx(6.25, abs=1e-12)
        assert lb.root == pytest.approx(6.25, abs=1e-12)
        assert lb.discrepancy == pytest.approx(0.0, abs=1e-12)

    def test_delta1_positive_discrepancy_reported(self):
        params = OpaParams(1.0, 1.0, 0.1)
        lb = lambda_bar(params, SectorBounds(gamma=4.0, delta1=1.0, delta2=1.0))
        assert lb.caption == pytest.approx(3.125 + np.sqrt(9.765625 + 1.0), rel=1e-12)
        assert lb.root == pytest.approx(3.125 + np.sqrt(9.765625 + 100.0), rel=1e-12)
        assert lb.discrepancy > 1.0  # surfaced, not silently resolved


class TestRegionCurve:
    params = OpaParams(1.0, 1.0, 0.1)
    bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)

    def test_starts_at_ceiling(self):
        curve = region_curve(self.params, self.bounds, 64)
        z1sq, cap, active = curve.samples[0]
        assert z1sq == 0.0
        assert cap == self.bounds.delta2 / (4 * self.params.chi**2)
        assert active == "d3"

    def test_nonincreasing_past_knee(self):
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=1e6)  # ceiling never binds
        curve = region_curve(self.params, bounds, 400)
        knee = 1.0 / (4 * bounds.gamma**2 * self.params.chi**2)
        caps = [cap for z1sq, cap, _ in curve.samples if z1sq > knee * 1.01]
        assert all(a >= b - 1e-9 for a, b in zip(caps, caps[1:]))

    def test_matches_specialized_closed_form(self):
        # at gamma = 4/kappa1 the gradient branch becomes the closed form in kappa1
        kappa1 = 2.0
        params = OpaParams(kappa1, 3.0, 0.1)
        gamma = 4.0 / kappa1
        bounds = SectorBounds(gamma=gamma, delta1=0.2, delta2=0.5)
        curve = region_curve(params, bounds, 501)
        chi2 = params.chi**2
        knee = 1.0 / (4 * gamma**2 * chi2)
        ceiling = bounds.delta2 / (4 * chi2)
        checked = 0
        for z1sq, cap, _ in curve.samples:
            if z1sq <= knee * (1 + 1e-9):
                continue
            numer = bounds.delta1 / chi2 + z1sq * kappa1**2 / (16 * chi2) - z1sq**2
            denom = 4 * z1sq - kappa1**2 / (16 * chi2)
            expected = max(0.0, min(numer / denom, ceiling))
            assert abs(cap - expected) <= 1e-12 * (1 + abs(expected))
            checked += 1
        assert checked > 100

    def test_continuous_under_min_composition(self):
        # refining the grid shrinks the largest step, so the composed cap has
        # no jump (the ceiling masks the gradient branch's pole at the knee)
        jumps = {}
        for n in (500, 5000):
            curve = region_curve(self.params, self.bounds, n)
            caps = np.array([cap for _, cap, _ in curve.samples])
            jumps[n] = float(np.max(np.abs(np.diff(caps))))
        assert jumps[5000] < 0.2 * jumps[500]

    def test_curve_boundary_matches_sector_scan(self):
        _, series = build_opa(self.params)
        curve = region_curve(self.params, self.bounds, 50)
        g1 = np.linspace(0.0, curve.lambda_bar * 1.05, 50)
        g2 = np.linspace(0.0, curve.cap2 * 1.2, 50)
        mask, _, _ = scan_sector_region(series, self.bounds, [g1, g2])
        cell = g2[1] - g2[0]
        for col, z1sq in enumerate(g1):
            cap = region_z2_cap(self.params, self.bounds, float(z1sq))
            admissible = np.nonzero(mask[col])[0]
            boundary = g2[admissible[-1]] if admissible.size else -cell / 2
            assert abs(boundary - min(cap, g2[-1])) <= cell * (1 + 1e-9)

    def test_points_under_curve_satisfy_margins(self):
        from qstab.perturbation import sector_margins

        _, series = build_opa(self.params)
        curve = region_curve(self.params, self.bounds, 40)
        rng = np.random.default_rng(7)
        for z1sq, cap, _ in curve.samples:
            if cap <= 0:
                continue
            z2sq = 0.95 * cap
            for _ in range(4):
                phases = np.exp(2j * np.pi * rng.random(2))
                z = np.array([np.sqrt(z1sq), np.sqrt(z2sq)]) * phases
                m1, m2 = sector_margins(series, self.bounds, z)
                assert m1 >= -1e-10
                assert m2 >= -1e-10


def _certified_P(params, bounds):
    cert = certify(build_opa(params)[0], bounds)
    assert cert.certified
    return cert.P


def _boundary_values(P, curve, z1sq):
    """x'Px at the boundary points (|z1|^2, cap(|z1|^2)), straight from P."""
    z2sq = np.array([curve.cap(float(u)) for u in z1sq])
    z = np.stack([np.sqrt(z1sq), np.sqrt(z2sq)], axis=1).astype(complex)
    x = np.concatenate([z, z.conj()], axis=1)
    return np.real(np.einsum("ki,ij,kj->k", x.conj(), P, x))


def _level_set_points_inside(P, curve, level, rng, n=400):
    """Random phases and magnitude splits on x'Px = level, endpoints included."""
    splits = np.concatenate([[0.0, 1.0], rng.random(n - 2)])
    for t in splits:
        z = np.array([np.sqrt(t), np.sqrt(1.0 - t)]) * np.exp(2j * np.pi * rng.random(2))
        x = np.concatenate([z, z.conj()])
        z = z * np.sqrt(level / np.real(x.conj() @ P @ x))
        mags = np.abs(z) ** 2
        # the slack covers the rounding of the sampled point itself
        if not curve.contains(mags[0], mags[1], slack=1e-12 * (1.0 + mags.sum())):
            return False
    return True


class TestInvariantEllipsoid:
    params = OpaParams(1.0, 1.0, 0.1)
    bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)

    def test_degenerate_region_level_zero(self):
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.0)
        curve = region_curve(self.params, bounds, 16)
        assert invariant_ellipsoid(np.eye(4), curve) == 0.0

    def test_identity_level_is_twice_boundary_distance(self):
        curve = region_curve(self.params, self.bounds, 64)
        level = invariant_ellipsoid(np.eye(4), curve)
        # nearest boundary in squared magnitudes is the curvature ceiling
        assert level == pytest.approx(2.0 * curve.cap2, rel=1e-12)

    def test_scaling_P_scales_level(self):
        curve = region_curve(self.params, self.bounds, 64)
        P = np.diag([0.7, 2.5, 0.7, 2.5]).astype(complex)
        level1 = invariant_ellipsoid(P, curve)
        level2 = invariant_ellipsoid(2.0 * P, curve)
        assert level2 == pytest.approx(2.0 * level1, rel=1e-12)

    def test_general_P_level_is_sound(self, rng):
        # on non-diagonal P the level is a lower bound on x'Px over the
        # boundary at every phase pair, or the call refuses the P
        from conftest import random_block_P

        curve = region_curve(self.params, self.bounds, 2)
        u = np.linspace(0.0, curve.lambda_bar, 201)
        z = np.stack([np.sqrt(u), np.sqrt([curve.cap(float(t)) for t in u])], axis=1)
        phases = np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False))
        zz = z[:, None, None, :] * np.stack(np.meshgrid(phases, phases, indexing="ij"), axis=-1)
        x = np.concatenate([zz, zz.conj()], axis=-1).reshape(-1, 4)
        levels = 0
        for _ in range(30):
            P = random_block_P(rng, 2)
            try:
                level = invariant_ellipsoid(P, curve)
            except StructureError as exc:
                assert "positive definite" in str(exc)
                continue
            levels += 1
            grid_min = float(np.min(np.real(np.einsum("ki,ij,kj->k", x.conj(), P, x))))
            assert 0.0 < level <= grid_min
        assert levels >= 5

    def test_rejects_indefinite_P(self):
        curve = region_curve(self.params, self.bounds, 64)
        with pytest.raises(StructureError, match="positive definite"):
            invariant_ellipsoid(np.diag([1.0, -1.0, 1.0, -1.0]), curve)

    # certified OPA configurations whose minimum sits on the ceiling at
    # |z1|^2 = 0, at the gradient branch's stationary point, and at lambda_bar
    @pytest.mark.parametrize(
        "kappa1, kappa2, chi, factor, delta1, delta2",
        [
            (2.8, 1.8, 0.24, 1.2, 0.5, 0.1),
            (2.7, 4.8, 0.06, 8.0, 0.3, 0.4),
            (3.9, 0.3, 0.15, 8.0, 0.4, 0.5),
        ],
        ids=["ceiling", "stationary", "endpoint"],
    )
    def test_exact_level_matches_dense_minimization(self, rng, kappa1, kappa2, chi, factor, delta1, delta2):
        params = OpaParams(kappa1, kappa2, chi)
        bounds = SectorBounds(factor * 2.0 * closed_form_hinf(params), delta1, delta2)
        P = _certified_P(params, bounds)
        curve = region_curve(params, bounds, 2)
        level = invariant_ellipsoid(P, curve)
        dense = float(np.min(_boundary_values(P, curve, np.linspace(0.0, curve.lambda_bar, 1_000_001))))
        assert dense * (1 - 1e-9) <= level <= dense * (1 + 1e-12)
        assert _level_set_points_inside(P, curve, level, rng)

    @settings(max_examples=40, deadline=None)
    @given(
        kappa1=st.floats(0.2, 5.0),
        kappa2=st.floats(0.2, 5.0),
        chi=st.floats(0.02, 0.3),
        factor=st.floats(1.05, 8.0),
        # zero, or normal floats: subnormal offsets leave no precision to compare
        delta1=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        delta2=st.one_of(st.just(0.0), st.floats(1e-6, 1.0)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_certified_level_is_sound_and_tight(self, kappa1, kappa2, chi, factor, delta1, delta2, seed):
        params = OpaParams(kappa1, kappa2, chi)
        bounds = SectorBounds(factor * 2.0 * closed_form_hinf(params), delta1, delta2)
        P = _certified_P(params, bounds)
        curve = region_curve(params, bounds, 2)
        level = invariant_ellipsoid(P, curve)
        assert _level_set_points_inside(P, curve, level, np.random.default_rng(seed), n=100)
        # coarse grid, then a fine grid over the two cells around its minimum
        coarse = np.linspace(0.0, curve.lambda_bar, 2001)
        values = _boundary_values(P, curve, coarse)
        k = int(np.argmin(values))
        fine = np.linspace(coarse[max(k - 1, 0)], coarse[min(k + 1, 2000)], 2001)
        best = min(float(values[k]), float(np.min(_boundary_values(P, curve, fine))))
        assert best * (1 - 1e-6) <= level <= best * (1 + 1e-12)
