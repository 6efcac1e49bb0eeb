import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qstab.errors import StructureError
from qstab.opa import OpaParams, build_opa
from qstab.perturbation import (
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

    def test_three_channels_rejected(self):
        f = PerturbationSeries(p=3)
        with pytest.raises(StructureError):
            scan_sector_region(f, SectorBounds(gamma=1.0), [np.array([1.0])] * 3)


class TestSectorBounds:
    @pytest.mark.parametrize(
        "kwargs",
        [{"gamma": np.inf}, {"gamma": 4.5, "delta1": np.nan}, {"gamma": 4.5, "delta2": np.inf}],
        ids=["gamma-inf", "delta1-nan", "delta2-inf"],
    )
    def test_non_finite_constant_rejected(self, kwargs):
        with pytest.raises(StructureError):
            SectorBounds(**kwargs)
