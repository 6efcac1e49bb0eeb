import itertools
import json
import os
import stat
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    @pytest.mark.parametrize("umask", [0o022, 0o007], ids=["022", "007"])
    def test_mode_follows_the_umask(self, tmp_path, umask):
        """An artifact gets the mode that open() gives a new file there."""
        previous = os.umask(umask)
        try:
            with open(tmp_path / "plain.txt", "w"):
                pass
            serialize.atomic_write_text(tmp_path / "artifact.txt", "x\n")
        finally:
            os.umask(previous)
        expected = stat.S_IMODE((tmp_path / "plain.txt").stat().st_mode)
        assert expected == 0o666 & ~umask
        assert stat.S_IMODE((tmp_path / "artifact.txt").stat().st_mode) == expected


    def test_writes_a_large_text_whole(self, tmp_path):
        text = "".join(f"{k!r},{k / 7!r}\n" for k in range(200_000))
        assert len(text) > 4_000_000
        target = tmp_path / "big.csv"
        serialize.atomic_write_text(target, text)
        assert target.read_bytes() == text.encode()

    def test_failed_rename_keeps_the_old_artifact(self, tmp_path, monkeypatch):
        target = tmp_path / "run.certificate.json"
        serialize.atomic_write_text(target, "old\n")

        def refuse(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="rename refused"):
            serialize.atomic_write_text(target, "new\n" * 1000)
        assert target.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == [target.name]

    def test_skips_a_file_at_the_temp_name(self, tmp_path, monkeypatch):
        monkeypatch.setattr(serialize, "_TEMP_NAMES", itertools.count(7))
        taken = [tmp_path / f"out.json.{os.getpid()}.{k}.tmp" for k in (7, 8)]
        for path in taken:
            path.write_text("someone else's\n")
        serialize.atomic_write_text(tmp_path / "out.json", "{}\n")
        assert (tmp_path / "out.json").read_text() == "{}\n"
        assert all(path.read_text() == "someone else's\n" for path in taken)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["out.json"] + [path.name for path in taken]
        )

    def test_creates_missing_parents(self, tmp_path):
        target = tmp_path / "a" / "b" / "c" / "file.txt"
        serialize.atomic_write_text(target, "x\n")
        assert target.read_text() == "x\n"
        assert [p.name for p in target.parent.iterdir()] == ["file.txt"]

    def test_a_file_in_place_of_the_parent_raises(self, tmp_path):
        (tmp_path / "a").write_text("")
        with pytest.raises(NotADirectoryError):
            serialize.atomic_write_text(tmp_path / "a" / "file.txt", "x\n")
        assert [p.name for p in tmp_path.iterdir()] == ["a"]

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, bytes(data[:5])))
        text = "".join(f"{k}\u00e9\n" for k in range(100))
        serialize.atomic_write_text(tmp_path / "short.txt", text)
        assert (tmp_path / "short.txt").read_bytes() == text.encode()

    def test_four_system_calls(self, tmp_path, monkeypatch):
        calls = []
        for name in ("open", "write", "close", "replace", "stat", "makedirs", "fstat", "getpid"):
            original = getattr(os, name)

            def recorded(*args, original=original, name=name, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(os, name, recorded)
        serialize.atomic_write_text(tmp_path / "run.identities.json", "{}\n")
        monkeypatch.undo()
        assert calls == ["open", "write", "close", "replace"]
        assert (tmp_path / "run.identities.json").read_text() == "{}\n"


# finite and special floats, with the edges of repr: signed zero, the smallest
# subnormal and the first float that repr writes with an exponent
json_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e16, float("nan"), float("inf"), float("-inf")]),
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.text(), json_floats,
    json_floats.map(np.float64),
)
# complex matrices as the certificate writes them: lists of [re, im] pairs
json_pairs = st.lists(st.lists(json_floats, min_size=2, max_size=2), max_size=4)
json_values = st.recursive(
    st.one_of(json_scalars, json_pairs),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(), children, max_size=4),
    ),
    max_leaves=30,
)


class TestJsonRendering:
    @settings(max_examples=300, deadline=None)
    @given(json_values)
    def test_equals_json_dumps_with_indent(self, value):
        assert serialize._indented(value) == json.dumps(value, indent=2)

    def test_escapes_and_fallbacks(self):
        value = {
            'quote " and \\ and \n': ["caf\u00e9", "\u2603", "\ud83d\ude00", "\x00\x1f"],
            "pairs": [[1.0, -0.0], [float("nan"), 1.0], [np.float64(2.5), 3.0], [1, 2.0]],
            "non-str keys": {1: 2.0, 1.5: None, True: [], None: {}},
            "empty": [[], {}, ()],
        }
        assert serialize._indented(value) == json.dumps(value, indent=2)

    def test_matrix_pairs_keep_signed_zeros(self):
        m = np.array([[0.0, -0.0 - 0.0j], [complex(-0.0, 1.0), 1e-300 + 2j]])
        pairs = serialize.matrix_to_json(m)
        assert json.dumps(pairs) == json.dumps(
            [[serialize.complex_to_pair(z) for z in row] for row in m]
        )
        assert [type(x) for x in pairs[0][1]] == [float, float]


def row_loop_scan_csv(grids, mask):
    """Reference scan CSV formatter: one f-string per cell."""
    g1, g2 = (np.asarray(g, dtype=float) for g in grids)
    lines = ["|z1|^2,|z2|^2,admissible"]
    for i, a in enumerate(g1):
        for j, b in enumerate(g2):
            lines.append(f"{float(a)!r},{float(b)!r},{int(mask[i, j])}")
    return "\n".join(lines) + "\n"


class TestScanCsv:
    def test_bytes_match_row_loop(self, rng):
        # 0.1 + 0.2 needs 17 significant digits to round-trip
        g1 = np.array([0.0, 0.1 + 0.2, 2.5, 1e-300, -0.0])
        g2 = np.array([0.0, 1.0 / 3.0, 7.0, 5e-324])
        mask = rng.random(size=(5, 4)) < 0.5
        mask[0, 0], mask[0, 1] = True, False
        text = serialize.scan_csv([g1, g2], mask)
        assert text == row_loop_scan_csv([g1, g2], mask)
        for special in ("0.30000000000000004,", "1e-300,", "-0.0,", ",5e-324,", ",1\n", ",0\n"):
            assert special in text
        assert len(text.splitlines()) == 1 + mask.size

    def test_empty_grid_writes_the_header_only(self):
        for g1, g2 in (([], [0.0, 1.0]), ([0.0, 1.0], [])):
            mask = np.zeros((len(g1), len(g2)), dtype=bool)
            assert serialize.scan_csv([g1, g2], mask) == "|z1|^2,|z2|^2,admissible\n"

    @pytest.mark.parametrize(
        "shapes",
        [
            ((3,), (2,), (2, 3)),
            ((3,), (2,), (3,)),
            ((3, 1), (2,), (3, 2)),
        ],
        ids=["mask-transposed", "mask-short", "grid1-2d"],
    )
    def test_shape_mismatch_rejected(self, shapes):
        g1, g2, mask = (np.zeros(shape) for shape in shapes)
        with pytest.raises(StructureError, match="mask"):
            serialize.scan_csv([g1, g2], mask > 0)

    def test_memory_on_the_region_grid(self):
        params = OpaParams(1.0, 1.0, 0.1)
        bounds = SectorBounds(gamma=4.0, delta1=0.0, delta2=0.04)
        _, series = build_opa(params)
        region = OpaRegion(params, bounds)
        grids = [
            np.linspace(0.0, region.lambda_bar.root * 1.05, 100),
            np.linspace(0.0, max(region.ceiling, 1e-12) * 1.2, 100),
        ]
        mask, _, _ = scan_sector_region(series, bounds, grids)
        tracemalloc.start()
        try:
            serialize.scan_csv(grids, mask)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # ~0.81 MB: one text block per grid row (~0.39 MB of text in all) and
        # their join
        assert peak < 1.0e6

