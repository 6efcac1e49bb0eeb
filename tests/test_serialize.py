import json
import tracemalloc

import numpy as np
import pytest

from conftest import random_system
from qstab import serialize
from qstab.errors import StructureError
from qstab.opa import OpaParams, OpaRegion, build_opa
from qstab.perturbation import SectorBounds, scan_sector_region


class TestComplexEncoding:
    def test_pair_round_trip(self):
        z = 1.25 - 3.5j
        assert serialize.pair_to_complex(serialize.complex_to_pair(z)) == z

    def test_malformed_pair_rejected(self):
        with pytest.raises(StructureError):
            serialize.pair_to_complex([1.0])
        with pytest.raises(StructureError):
            serialize.pair_to_complex("1+2j")

    def test_matrix_round_trip(self, rng):
        m = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
        again = serialize.matrix_from_json(serialize.matrix_to_json(m))
        assert np.array_equal(m, again)


class TestSystemDocuments:
    def test_round_trip(self, rng):
        sys = random_system(rng, n=2, p=2, require_hurwitz=False)
        doc = serialize.system_to_json(sys)
        again = serialize.system_from_json(json.loads(json.dumps(doc)))
        for name in ("M1", "M2", "N1", "N2", "E1", "E2"):
            assert np.array_equal(getattr(sys, name), getattr(again, name))

    def test_missing_block_reported(self):
        with pytest.raises(StructureError, match="E2"):
            serialize.system_from_json({"M1": [], "M2": [], "N1": [], "N2": [], "E1": []})


class TestSeriesDocuments:
    def test_round_trip(self):
        _, series = build_opa(OpaParams(1.0, 1.0, 0.3))
        doc = serialize.series_to_json(series)
        assert {term["l"] for term in doc["terms"]} == {1, 2}
        again = serialize.series_from_json(json.loads(json.dumps(doc)))
        assert again.p == series.p
        assert again.coeffs == series.coeffs

    def test_duplicate_terms_merge(self):
        doc = {
            "p": 1,
            "terms": [
                {"i": 1, "j": 1, "k": 1, "l": 1, "re": 1.0, "im": 0.0},
                {"i": 1, "j": 1, "k": 1, "l": 1, "re": 0.5, "im": 0.0},
            ],
        }
        series = serialize.series_from_json(doc)
        assert series.coeffs[(1, 1, 1, 1)] == 1.5

    def test_malformed_term_rejected(self):
        with pytest.raises(StructureError):
            serialize.series_from_json({"p": 1, "terms": [{"i": 1, "j": 1, "k": 1}]})


class TestAtomicWrite:
    def test_creates_parent_and_replaces(self, tmp_path):
        target = tmp_path / "nested" / "file.txt"
        serialize.atomic_write_text(target, "one\n")
        serialize.atomic_write_text(target, "two\n")
        assert target.read_text() == "two\n"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]


def row_loop_scan_csv(grids, mask, margin1, margin2):
    """Reference scan CSV formatter: one f-string per cell."""
    g1, g2 = (np.asarray(g, dtype=float) for g in grids)
    lines = ["|z1|^2,|z2|^2,admissible,margin1,margin2"]
    for i, a in enumerate(g1):
        for j, b in enumerate(g2):
            lines.append(
                f"{float(a)!r},{float(b)!r},{int(mask[i, j])},"
                f"{float(margin1[i, j])!r},{float(margin2[i, j])!r}"
            )
    return "\n".join(lines) + "\n"


class TestScanCsv:
    def test_bytes_match_row_loop(self, rng):
        # 0.1 + 0.2 needs 17 significant digits to round-trip
        g1 = np.array([0.0, 0.1 + 0.2, 2.5, 1e-300])
        g2 = np.array([0.0, 1.0 / 3.0, 7.0])
        margin1 = rng.normal(size=(4, 3))
        margin2 = rng.normal(size=(4, 3))
        # repeated values, -0.0 next to 0.0, NaN, +-inf and a subnormal in both columns
        specials = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 0.1 + 0.2, 0.1 + 0.2]
        margin1.flat[:8] = specials
        margin2.flat[4:] = specials[::-1]
        margin1[3, 2] = margin1[2, 0]
        mask = (margin1 >= 0) & (margin2 >= 0)
        assert np.any(margin1 < 0) and np.any(mask) and not np.all(mask)
        text = serialize.scan_csv([g1, g2], mask, margin1, margin2)
        assert text == row_loop_scan_csv([g1, g2], mask, margin1, margin2)
        for special in ("0.30000000000000004", ",-0.0,", ",nan", ",-inf", ",5e-324"):
            assert special in text

    @pytest.mark.parametrize(
        "shapes",
        [
            ((3,), (2,), (3, 2), (2, 3), (3, 2)),
            ((3,), (2,), (3, 2), (3, 2), (3,)),
            ((3, 1), (2,), (3, 2), (3, 2), (3, 2)),
        ],
        ids=["margin1-transposed", "margin2-short", "grid1-2d"],
    )
    def test_shape_mismatch_rejected(self, shapes):
        g1, g2, mask, margin1, margin2 = (np.zeros(shape) for shape in shapes)
        with pytest.raises(StructureError, match="margin1"):
            serialize.scan_csv([g1, g2], mask > 0, margin1, margin2)

    def test_memory_on_the_region_grid(self):
        params = OpaParams(1.0, 1.0, 0.1)
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)
        _, series = build_opa(params)
        region = OpaRegion(params, bounds)
        grids = [
            np.linspace(0.0, region.lambda_bar.root * 1.05, 100),
            np.linspace(0.0, max(region.ceiling, 1e-12) * 1.2, 100),
        ]
        mask, margin1, margin2 = scan_sector_region(series, bounds, grids)
        tracemalloc.start()
        try:
            serialize.scan_csv(grids, mask, margin1, margin2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~2.6 MB with one text block per grid row; one string per cell held until
        # the join reaches ~3.1 MB
        assert peak < 3.6e6

