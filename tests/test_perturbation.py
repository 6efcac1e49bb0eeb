import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qstab.errors import StructureError
from qstab.opa import OpaParams, build_opa, region_curve
from qstab.perturbation import (
    SCAN_PHASES,
    PerturbationSeries,
    SectorBounds,
    eval_semiclassical,
    partial_z,
    scan_sector_region,
    second_partial_z,
    sector_margins,
    validate_selfadjoint,
)

CHI = 0.1


@pytest.fixture
def opa_series():
    _, series = build_opa(OpaParams(kappa1=1.0, kappa2=1.0, chi=CHI))
    return series


def random_series(rng, p=2, n_terms=6, max_exp=3):
    coeffs = {}
    for _ in range(n_terms):
        key = (
            int(rng.integers(1, p + 1)),
            int(rng.integers(1, p + 1)),
            int(rng.integers(0, max_exp + 1)),
            int(rng.integers(0, max_exp + 1)),
        )
        coeffs[key] = coeffs.get(key, 0j) + complex(rng.normal(), rng.normal())
    return PerturbationSeries(p=p, coeffs=coeffs)


def selfadjointify(series: PerturbationSeries) -> PerturbationSeries:
    coeffs = {}
    for (i, j, k, l), c in series.coeffs.items():
        coeffs[(i, j, k, l)] = coeffs.get((i, j, k, l), 0j) + c / 2
        coeffs[(j, i, l, k)] = coeffs.get((j, i, l, k), 0j) + np.conj(c) / 2
    return PerturbationSeries(p=series.p, coeffs=coeffs)


class TestValidateSelfadjoint:
    def test_opa_series_is_selfadjoint(self, opa_series):
        assert validate_selfadjoint(opa_series) == []

    def test_lone_imaginary_diagonal_term(self):
        f = PerturbationSeries(p=1, coeffs={(1, 1, 1, 1): 1j})
        violations = validate_selfadjoint(f)
        assert len(violations) == 1
        key, residual = violations[0]
        assert key == (1, 1, 1, 1)
        assert residual == pytest.approx(2.0)

    def test_real_pair_z1sq_plus_conj(self):
        f = PerturbationSeries(p=1, coeffs={(1, 1, 2, 0): 1.0, (1, 1, 0, 2): 1.0})
        assert validate_selfadjoint(f) == []

    def test_missing_mirror_detected(self):
        f = PerturbationSeries(p=2, coeffs={(2, 1, 1, 2): 1j * CHI})
        assert len(validate_selfadjoint(f)) == 1


class TestPartials:
    def test_opa_first_channel(self, opa_series):
        d1 = partial_z(opa_series, 1)
        # -2i chi z1 z2*
        assert d1.coeffs == {(1, 2, 1, 1): pytest.approx(-2j * CHI)}

    def test_opa_second_channel(self, opa_series):
        d2 = partial_z(opa_series, 2)
        # i chi (z1*)^2
        assert d2.coeffs == {(2, 1, 0, 2): pytest.approx(1j * CHI)}

    def test_empty_series(self):
        f = PerturbationSeries(p=3)
        assert partial_z(f, 2).coeffs == {}

    def test_opa_second_derivatives(self, opa_series):
        dd1 = second_partial_z(opa_series, 1)
        assert dd1.coeffs == {(1, 2, 0, 1): pytest.approx(-2j * CHI)}
        assert second_partial_z(opa_series, 2).coeffs == {}

    def test_cubic_monomial(self):
        f = PerturbationSeries(p=1, coeffs={(1, 1, 3, 0): 1.0})
        assert second_partial_z(f, 1).coeffs == {(1, 1, 1, 0): pytest.approx(6.0)}

    def test_index_out_of_range(self, opa_series):
        with pytest.raises(StructureError):
            partial_z(opa_series, 3)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_linearity(self, seed):
        rng = np.random.default_rng(seed)
        f, g = random_series(rng), random_series(rng)
        a, b = complex(rng.normal(), rng.normal()), complex(rng.normal(), rng.normal())
        combo = f.scale(a) + g.scale(b)
        for i in (1, 2):
            direct = partial_z(combo, i)
            assembled = partial_z(f, i).scale(a) + partial_z(g, i).scale(b)
            assert direct.coeffs.keys() == assembled.coeffs.keys()
            for key in direct.coeffs:
                assert direct.coeffs[key] == pytest.approx(assembled.coeffs[key])

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_second_matches_closed_form(self, seed):
        rng = np.random.default_rng(seed)
        f = random_series(rng, max_exp=4)
        for i in (1, 2):
            # d^2/dz_i^2 maps S on (i, j, k, l) to k (k - 1) S on (i, j, k - 2, l)
            closed = {
                (i, j, k - 2, l): k * (k - 1) * c
                for (ii, j, k, l), c in f.coeffs.items()
                if ii == i and k >= 2
            }
            twice = second_partial_z(f, i)
            assert twice.coeffs.keys() == closed.keys()
            for key in closed:
                assert twice.coeffs[key] == pytest.approx(closed[key])


class TestEval:
    def test_opa_symmetric_point_cancels(self, opa_series):
        assert eval_semiclassical(opa_series, [1.0, 1.0]) == pytest.approx(0.0)

    def test_opa_quarter_turn_point(self, opa_series):
        # i*chi*(z2 conj(z1)^2 - z1^2 conj(z2)) at (1, i) = -2*chi
        value = eval_semiclassical(opa_series, [1.0, 1j])
        assert value == pytest.approx(-2 * CHI)

    def test_zero_series(self):
        f = PerturbationSeries(p=2)
        assert eval_semiclassical(f, [0.3 + 1j, -2.0]) == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_selfadjoint_series_evaluate_real(self, seed):
        rng = np.random.default_rng(seed)
        f = selfadjointify(random_series(rng))
        assert validate_selfadjoint(f) == []
        z = rng.normal(size=2) + 1j * rng.normal(size=2)
        value = eval_semiclassical(f, z)
        assert abs(np.imag(value)) < 1e-10 * (1 + abs(value))

    def test_batch_evaluation_matches_scalar(self, opa_series, rng):
        z = rng.normal(size=(5, 4, 2)) + 1j * rng.normal(size=(5, 4, 2))
        batch = eval_semiclassical(opa_series, z)
        assert batch.shape == (5, 4)
        one = eval_semiclassical(opa_series, z[2, 3])
        assert batch[2, 3] == pytest.approx(one)


class TestSectorMargins:
    def test_origin_gives_deltas(self, opa_series):
        bounds = SectorBounds(gamma=4.0, delta1=0.3, delta2=0.7)
        m1, m2 = sector_margins(opa_series, bounds, [0.0, 0.0])
        assert m1 == pytest.approx(bounds.delta1)
        assert m2 == pytest.approx(bounds.delta2)

    def test_small_z1_always_satisfies_gradient_bound(self, opa_series, rng):
        # below |z1|^2 = 1/(4 gamma^2 chi^2) the first margin cannot go negative
        kappa1 = 1.0
        bounds = SectorBounds(gamma=4.0 / kappa1, delta1=0.0, delta2=1e6)
        z1sq_knee = 1.0 / (4 * bounds.gamma**2 * CHI**2)
        for _ in range(50):
            z1 = np.sqrt(z1sq_knee) * np.exp(2j * np.pi * rng.random())
            z2 = 10.0 * (rng.normal() + 1j * rng.normal())
            m1, _ = sector_margins(opa_series, bounds, [z1, z2])
            assert m1 >= -1e-12

    def test_curvature_margin_zero_on_ceiling(self, opa_series):
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.36)
        z2 = np.sqrt(bounds.delta2 / (4 * CHI**2))
        _, m2 = sector_margins(opa_series, bounds, [12.3, z2])
        assert m2 == pytest.approx(0.0, abs=1e-13)

    def test_margin_matches_closed_form(self, opa_series, rng):
        # gradient sum for the cubic interaction: 4 chi^2 |z1 z2|^2 + chi^2 |z1|^4
        bounds = SectorBounds(gamma=2.5, delta1=0.11, delta2=0.2)
        for _ in range(25):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            m1, m2 = sector_margins(opa_series, bounds, z)
            a1, a2 = np.abs(z) ** 2
            closed1 = (a1 + a2) / bounds.gamma**2 + bounds.delta1 - (
                4 * CHI**2 * a1 * a2 + CHI**2 * a1**2
            )
            closed2 = bounds.delta2 - 4 * CHI**2 * a2
            assert abs(m1 - closed1) <= 1e-12 * (1 + abs(closed1))
            assert abs(m2 - closed2) <= 1e-12 * (1 + abs(closed2))


class TestScan:
    def test_mask_monotone(self, opa_series):
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)
        g1 = np.linspace(0.0, 8.0, 50)
        g2 = np.linspace(0.0, 1.5, 50)
        mask, _, _ = scan_sector_region(opa_series, bounds, [g1, g2])
        # once a cell is admissible, any pointwise-smaller cell is too
        assert np.all(mask[:-1, :] >= mask[1:, :])
        assert np.all(mask[:, :-1] >= mask[:, 1:])

    def test_admissible_inside_closed_form_region(self, opa_series):
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)
        knee = 1.0 / (4 * bounds.gamma**2 * CHI**2)
        ceiling = bounds.delta2 / (4 * CHI**2)
        g1 = np.array([0.5 * knee])
        g2 = np.array([0.5 * ceiling])
        mask, _, _ = scan_sector_region(opa_series, bounds, [g1, g2])
        assert mask[0, 0]

    def test_zero_series_admits_everything(self):
        f = PerturbationSeries(p=2)
        bounds = SectorBounds(gamma=1.0, delta1=0.0, delta2=0.0)
        mask, m1, m2 = scan_sector_region(f, bounds, [np.linspace(0, 5, 7)] * 2)
        assert np.all(mask)
        assert np.all(m2 == 0)

    def test_empty_grid_rejected(self, opa_series):
        bounds = SectorBounds(gamma=1.0)
        with pytest.raises(StructureError):
            scan_sector_region(opa_series, bounds, [np.array([]), np.array([1.0])])

    @pytest.mark.parametrize(
        "grids",
        [
            [np.array([0.0, np.nan]), np.array([1.0])],
            [np.array([0.0, np.inf]), np.array([1.0])],
            [np.ones((2, 2)), np.array([1.0])],
        ],
        ids=["nan", "inf", "2-d"],
    )
    def test_unscannable_grid_rejected(self, opa_series, grids):
        with pytest.raises(StructureError):
            scan_sector_region(opa_series, SectorBounds(gamma=1.0), grids)

    def test_three_channels_rejected(self):
        f = PerturbationSeries(p=3)
        with pytest.raises(StructureError):
            scan_sector_region(f, SectorBounds(gamma=1.0), [np.array([1.0])] * 3)


def phase_loop_scan(f, bounds, mag_sq_grids):
    """Reference scan: one sector_margins call per sampled phase combination."""
    radii = np.meshgrid(*[np.sqrt(g) for g in mag_sq_grids], indexing="ij")
    phases = 2.0 * np.pi * np.arange(SCAN_PHASES) / SCAN_PHASES
    margin1 = np.full(radii[0].shape, np.inf)
    margin2 = np.full(radii[0].shape, np.inf)
    for combo in itertools.product(phases, repeat=f.p):
        z = np.stack([radii[c] * np.exp(1j * combo[c]) for c in range(f.p)], axis=-1)
        m1, m2 = sector_margins(f, bounds, z)
        margin1 = np.minimum(margin1, m1)
        margin2 = np.minimum(margin2, m2)
    return (margin1 >= 0) & (margin2 >= 0), margin1, margin2


def opa_region_extent(params, bounds):
    """The 100 x 100 magnitude grids ``qstab opa-region`` scans."""
    curve = region_curve(params, bounds, 200)
    return [
        np.linspace(0.0, curve.lambda_bar * 1.05, 100),
        np.linspace(0.0, max(curve.cap2, 1e-12) * 1.2, 100),
    ]


@st.composite
def series_keys(draw):
    """A channel count p <= 2 and 1-6 distinct keys (i, j, k, l) of low degree."""
    p = draw(st.integers(1, 2))
    channel, exponent = st.integers(1, p), st.integers(0, 3)
    keys = st.tuples(channel, channel, exponent, exponent)
    return p, draw(st.lists(keys, min_size=1, max_size=6, unique=True))


def assert_scan_matches_phase_loop(f, bounds, grids):
    mask, m1, m2 = scan_sector_region(f, bounds, grids)
    ref_mask, ref1, ref2 = phase_loop_scan(f, bounds, grids)
    assert np.array_equal(mask, ref_mask)
    scale = 1.0 + max(np.max(np.abs(ref1)), np.max(np.abs(ref2)))
    assert np.max(np.abs(m1 - ref1)) <= 1e-12 * scale
    assert np.max(np.abs(m2 - ref2)) <= 1e-12 * scale
    return mask, m1, m2


class TestScanMatchesPhaseLoop:
    @pytest.mark.parametrize(
        "kappa1, kappa2, chi, gamma, delta1, delta2",
        [
            (1.0, 1.0, 0.1, 4.0, 0.0, 0.04),
            (1.0, 2.0, 0.1, 4.5, 0.1, 0.1),
            (0.5, 3.0, 0.25, 6.0, 0.3, 0.02),
            (2.0, 1.0, 0.05, 8.0, 0.1, 0.1),
        ],
    )
    def test_opa_on_region_extent(self, kappa1, kappa2, chi, gamma, delta1, delta2):
        params = OpaParams(kappa1, kappa2, chi)
        bounds = SectorBounds(gamma=gamma, delta1=delta1, delta2=delta2)
        _, series = build_opa(params)
        mask, _, _ = assert_scan_matches_phase_loop(
            series, bounds, opa_region_extent(params, bounds)
        )
        assert 0 < np.count_nonzero(mask) < mask.size

    @pytest.mark.parametrize("seed", [3, 11, 29])
    def test_random_two_channel_series(self, seed):
        rng = np.random.default_rng(seed)
        f = random_series(rng, p=2, n_terms=8, max_exp=3)
        # a mixed-channel term of degree 5 on top of the random ones
        f = selfadjointify(f + PerturbationSeries(2, {(1, 2, 3, 2): complex(*rng.normal(size=2))}))
        assert any(i != j for (i, j, _, _) in f.coeffs) and f.total_degree >= 4
        bounds = SectorBounds(gamma=0.5, delta1=0.5, delta2=20.0)
        grids = [np.linspace(0.0, 1.5, 40), np.linspace(0.0, 1.2, 30)]
        mask, _, _ = assert_scan_matches_phase_loop(f, bounds, grids)
        assert 0 < np.count_nonzero(mask) < mask.size

    def test_one_channel_series(self, rng):
        f = selfadjointify(random_series(rng, p=1, n_terms=5, max_exp=4))
        bounds = SectorBounds(gamma=0.5, delta1=0.5, delta2=20.0)
        mask, _, _ = assert_scan_matches_phase_loop(f, bounds, [np.linspace(0.0, 2.0, 60)])
        assert 0 < np.count_nonzero(mask) < mask.size

    @settings(max_examples=30, deadline=None)
    @given(shape=series_keys(), seed=st.integers(0, 2**32 - 1))
    # the OPA's shape: monomial derivatives and an empty d2f/dz2^2
    @example(shape=(2, [(1, 2, 2, 1), (2, 1, 1, 2)]), seed=0)
    # mixed-channel terms sharing derivatives, and no curvature at all
    @example(shape=(2, [(1, 2, 1, 0), (1, 1, 1, 1), (2, 1, 1, 1)]), seed=1)
    @example(shape=(1, [(1, 1, 1, 0)]), seed=2)
    def test_random_series_property(self, shape, seed):
        p, keys = shape
        rng = np.random.default_rng(seed)
        f = PerturbationSeries(p, {key: complex(*rng.normal(size=2)) for key in keys})
        # continuous bounds and extents keep exact ties off the grid
        bounds = SectorBounds(
            gamma=rng.uniform(0.3, 3.0), delta1=rng.uniform(0.05, 1.0), delta2=rng.uniform(0.05, 5.0)
        )
        grids = [np.linspace(0.0, rng.uniform(0.5, 2.0), n) for n in (9, 7)[:p]]
        assert_scan_matches_phase_loop(f, bounds, grids)

    def test_opa_derivatives_evaluated_once(self, monkeypatch):
        params = OpaParams(1.0, 1.0, CHI)
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)
        _, series = build_opa(params)
        derivatives = [d(series, i) for i in (1, 2) for d in (partial_z, second_partial_z)]
        # every OPA derivative is one monomial, so all 64 combinations form one class
        assert [len(d.coeffs) for d in derivatives] == [1, 1, 1, 0]
        calls = []
        tensordot = np.tensordot
        monkeypatch.setattr(
            np, "tensordot", lambda *args, **kw: calls.append(1) or tensordot(*args, **kw)
        )
        scan_sector_region(series, bounds, opa_region_extent(params, bounds))
        assert len(calls) == len(derivatives)

    def test_zero_series(self):
        bounds = SectorBounds(gamma=1.5, delta1=0.2, delta2=0.0)
        grids = [np.linspace(0, 5, 7), np.linspace(0, 3, 4)]
        _, m1, m2 = assert_scan_matches_phase_loop(PerturbationSeries(p=2), bounds, grids)
        assert np.all(m2 == 0)
        assert m1.shape == (7, 4)

    def test_memory_stays_flat_on_the_region_grid(self):
        params = OpaParams(1.0, 1.0, CHI)
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)
        _, series = build_opa(params)
        grids = opa_region_extent(params, bounds)
        tracemalloc.start()
        try:
            scan_sector_region(series, bounds, grids)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # one combination at a time; all 64 at once would take ~80 MB
        assert peak < 5e6


class TestSectorBounds:
    @pytest.mark.parametrize(
        "kwargs",
        [{"gamma": np.inf}, {"gamma": 4.5, "delta1": np.nan}, {"gamma": 4.5, "delta2": np.inf}],
        ids=["gamma-inf", "delta1-nan", "delta2-inf"],
    )
    def test_non_finite_constant_rejected(self, kwargs):
        with pytest.raises(StructureError):
            SectorBounds(**kwargs)
