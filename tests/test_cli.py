import json
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest

import qstab.model
from qstab import cli, focksim, serialize
from qstab.certify import certify
from qstab.cli import (
    EXIT_CHECK_FAILED,
    EXIT_CONFIG,
    EXIT_HURWITZ,
    EXIT_IO,
    EXIT_OK,
    EXIT_SMALL_GAIN,
    main,
)
from qstab.errors import NotHurwitzError
from qstab.model import LinearQuantumSystem
from qstab.opa import OpaParams, OpaRegion, build_opa, invariant_ellipsoid
from qstab.perturbation import SectorBounds


def opa_flags(out, gamma="4.5"):
    return [
        "--kappa1",
        "1.0",
        "--kappa2",
        "2.0",
        "--chi",
        "0.1",
        "--gamma",
        gamma,
        "--delta1",
        "0.1",
        "--delta2",
        "0.1",
        "--out",
        str(out),
    ]


_OPA_FLAGS = ["--kappa1", "1", "--kappa2", "2", "--chi", "0.1"]
# the OPA's series plus z1 z1* with a real coefficient
_EXTRA_TERM_SERIES = {"p": 2, "terms": [{"i": 1, "j": 2, "k": 2, "l": 1, "re": 0.0, "im": -0.1},
                                        {"i": 2, "j": 1, "k": 1, "l": 2, "re": 0.0, "im": 0.1},
                                        {"i": 1, "j": 1, "k": 1, "l": 1, "re": 0.5}]}


def _opa_series_file(tmp_path, series_doc):
    path = tmp_path / "series.json"
    path.write_text(json.dumps(series_doc))
    return path


def _artifacts(tmp_path, prefix):
    """Suffix -> bytes of every artifact a run wrote under ``prefix``."""
    return {p.name[len(prefix):]: p.read_bytes() for p in tmp_path.glob(f"{prefix}.*")}


def opa_system_and_series(tmp_path, series_doc):
    """Flags for the OPA (kappa 1, 2, chi 0.1) as system JSON with a series file."""
    sys_path = tmp_path / "system.json"
    system = build_opa(OpaParams(1.0, 2.0, 0.1))[0]
    sys_path.write_text(json.dumps(serialize.system_to_json(system)))
    series_path = tmp_path / "series.json"
    series_path.write_text(json.dumps(series_doc))
    return ["--system", str(sys_path), "--series", str(series_path)]


class TestGammaSearch:
    def test_opa_threshold(self):
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        assert sys.hinf.threshold == pytest.approx(4.0, abs=1e-4)

    def test_equal_couplings(self):
        sys, _ = build_opa(OpaParams(4.0, 4.0, 0.1))
        assert sys.hinf.threshold == pytest.approx(1.0, abs=1e-4)

    def test_result_is_the_exact_threshold(self):
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        g = sys.hinf.threshold
        assert sys.hinf.hinf_reduced < g / 2.0
        assert not sys.hinf.hinf_reduced < np.nextafter(g, 0) / 2.0

    def test_vanishing_channel_returns_floor(self):
        zero = np.zeros((2, 2))
        sys = LinearQuantumSystem(
            M1=zero, M2=zero, N1=np.eye(2), N2=zero, E1=zero, E2=zero
        )
        assert sys.hinf.threshold == pytest.approx(1e-9)

    def test_undamped_system_raises(self):
        zero = np.zeros((1, 1))
        sys = LinearQuantumSystem(M1=zero, M2=zero, N1=zero, N2=zero, E1=zero, E2=zero)
        with pytest.raises(NotHurwitzError):
            sys.hinf.threshold


class TestCertifyCommand:
    def test_certified_exit_zero_and_artifact(self, tmp_path):
        out = tmp_path / "run"
        code = main(["certify", *opa_flags(out)])
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "run.certificate.json").read_text())
        assert doc["verdict"] == "Certified"
        assert doc["hinf_reduced"] == pytest.approx(2.0, rel=1e-8)
        assert "invariant_level" in doc

    def test_small_gain_failure_exit_two(self, tmp_path):
        out = tmp_path / "run"
        code = main(["certify", *opa_flags(out, gamma="3.0")])
        assert code == EXIT_SMALL_GAIN
        doc = json.loads((tmp_path / "run.certificate.json").read_text())
        assert doc["verdict"] == "FailedSmallGain"
        assert doc["P"] is None

    def test_hurwitz_failure_exit_one(self, tmp_path):
        zero = [[[0.0, 0.0]] * 2] * 2
        system_doc = {"M1": zero, "M2": zero, "N1": zero, "N2": zero, "E1": zero, "E2": zero}
        sys_path = tmp_path / "system.json"
        sys_path.write_text(json.dumps(system_doc))
        code = main(
            ["certify", "--system", str(sys_path), "--gamma", "2.0", "--out", str(tmp_path / "r")]
        )
        assert code == EXIT_HURWITZ

    @pytest.mark.parametrize(
        "flag, value", [("--gamma", "inf"), ("--delta1", "nan"), ("--delta2", "inf")]
    )
    def test_non_finite_bound_is_config_error(self, tmp_path, flag, value):
        args = opa_flags(tmp_path / "run")
        args[args.index(flag) + 1] = value
        assert main(["certify", *args]) == EXIT_CONFIG
        assert not (tmp_path / "run.certificate.json").exists()

    def test_certificate_round_trip_bit_identical(self, tmp_path):
        out = tmp_path / "run"
        assert main(["certify", *opa_flags(out)]) == EXIT_OK
        text = (tmp_path / "run.certificate.json").read_text()
        doc = json.loads(text)
        cert = serialize.certificate_from_json(doc)
        redumped = json.dumps(serialize.certificate_to_json(cert), indent=2) + "\n"
        assert redumped == text

    def test_invariant_level_is_exact_at_any_grid(self, tmp_path):
        region = OpaRegion(OpaParams(1.0, 2.0, 0.1), SectorBounds(4.5, 0.1, 0.1))
        levels = []
        for grid in ("2", "200"):
            out = tmp_path / f"grid{grid}"
            assert main(["certify", *opa_flags(out), "--grid", grid]) == EXIT_OK
            doc = json.loads((tmp_path / f"grid{grid}.certificate.json").read_text())
            expected = invariant_ellipsoid(serialize.certificate_from_json(doc).P, region)
            assert doc["invariant_level"] == expected
            levels.append(doc["invariant_level"])
        assert levels[0] == levels[1] > 0

    def test_library_and_both_commands_record_one_level(self, tmp_path):
        sys, series = build_opa(OpaParams(1.0, 2.0, 0.1))
        cert = certify(sys, SectorBounds(4.5, 0.1, 0.1), series=series)
        sim_flags = ["--dim", "4", "--t-final", "0.01"]
        assert main(["certify", *opa_flags(tmp_path / "certify")]) == EXIT_OK
        assert main(["simulate", *opa_flags(tmp_path / "simulate"), *sim_flags]) == EXIT_OK
        for command in ("certify", "simulate"):
            doc = json.loads((tmp_path / f"{command}.certificate.json").read_text())
            assert doc["invariant_level"] == cert.invariant_level

    @pytest.mark.parametrize(
        "series_doc, level",
        [
            (serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.5))[1]),
             0.023249061407009622),
            (_EXTRA_TERM_SERIES, None),
        ],
        ids=["chi-0.5", "extra-term"],
    )
    def test_series_file_sets_the_level(self, tmp_path, series_doc, level):
        """The level belongs to the series a run certifies, not to --chi."""
        series_path = tmp_path / "series.json"
        series_path.write_text(json.dumps(series_doc))
        sim_flags = ["--dim", "4", "--t-final", "0.01"]
        for command, extra in (("certify", []), ("simulate", sim_flags)):
            out = tmp_path / command
            argv = [command, *opa_flags(out), "--series", str(series_path), *extra]
            assert main(argv) == EXIT_OK
            doc = json.loads((tmp_path / f"{command}.certificate.json").read_text())
            assert doc.get("invariant_level") == level

    def test_no_temp_files_left(self, tmp_path):
        out = tmp_path / "run"
        assert main(["certify", *opa_flags(out)]) == EXIT_OK
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []


class TestValidateCommand:
    def test_clean_system(self, tmp_path):
        code = main(
            ["validate", "--kappa1", "1", "--kappa2", "2", "--chi", "0.1",
             "--out", str(tmp_path / "v")]
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "v.validation.json").read_text())
        assert doc["violations"] == []

    def test_asymmetric_block_reported(self, tmp_path, capsys):
        zero = [[[0.0, 0.0]] * 2] * 2
        bad_m2 = [
            [[0.0, 0.0], [1.0, 0.0]],
            [[0.0, 0.0], [0.0, 0.0]],
        ]
        doc = {"M1": zero, "M2": bad_m2, "N1": zero, "N2": zero, "E1": zero, "E2": zero}
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        code = main(["validate", "--system", str(path)])
        assert code == EXIT_CHECK_FAILED
        assert "M2 asymmetric" in capsys.readouterr().err

    def test_non_finite_entry_is_config_error(self, tmp_path):
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        doc = serialize.system_to_json(sys)
        doc["M1"][0][0] = [float("nan"), 0.0]
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", "--system", str(path)]) == EXIT_CONFIG
        assert main(["certify", "--gamma", "4.5", "--system", str(path)]) == EXIT_CONFIG


class TestJsonArtifacts:
    def test_every_json_artifact_is_json_dumps_with_indent(self, tmp_path):
        zero = [[[0.0, 0.0]] * 2] * 2
        asymmetric = [[[0.0, 0.0], [1.0, -0.0]], [[0.0, 0.0], [0.0, 0.0]]]
        system = tmp_path / "system.json"
        system.write_text(json.dumps(
            {"M1": zero, "M2": asymmetric, "N1": zero, "N2": zero, "E1": zero, "E2": zero}
        ))
        runs = [
            (["certify", *opa_flags(tmp_path / "certified")], "certified.certificate.json"),
            (["certify", *opa_flags(tmp_path / "failed", gamma="1.0")], "failed.certificate.json"),
            (["certify", *opa_flags(tmp_path / "eps"), "--eps", "0.01"], "eps.certificate.json"),
            (["check-identities", *opa_flags(tmp_path / "ids")], "ids.identities.json"),
            (["opa-region", *opa_flags(tmp_path / "region"), "--grid", "20"], "region.region.json"),
            (["validate", "--system", str(system), "--out", str(tmp_path / "bad")],
             "bad.validation.json"),
        ]
        for args, name in runs:
            main(args)
            text = (tmp_path / name).read_text()
            assert text == json.dumps(json.loads(text), indent=2) + "\n", name


class TestRegionCommand:
    def test_region_artifacts(self, tmp_path):
        out = tmp_path / "region"
        code = main(
            [
                "opa-region",
                "--kappa1", "1", "--kappa2", "1", "--chi", "0.1",
                "--gamma", "4.0", "--delta1", "0.0", "--delta2", "0.04",
                "--grid", "200", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "region.region.csv").read_text().splitlines()
        assert lines[0] == "z1sq,z2sq_cap,active_constraint"
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[1]) == pytest.approx(1.0)  # 0.04 / (4 * 0.01)
        assert first[2] == "d3"
        report = json.loads((tmp_path / "region.region.json").read_text())
        assert list(report) == [
            "lambda_bar_caption", "lambda_bar_root", "caption_discrepancy", "z2_ceiling",
            "scan_disagreements", "scan_worst_margin",
        ]
        assert report["lambda_bar_root"] == pytest.approx(6.25, abs=1e-12)
        assert report["lambda_bar_caption"] == pytest.approx(6.25, abs=1e-12)
        # delta1 = 0 leaves margin1 exactly 0 at the origin
        assert report["scan_disagreements"] == 0 and report["scan_worst_margin"] == 0.0
        scan_lines = (tmp_path / "region.scan.csv").read_text().splitlines()
        assert scan_lines[0] == "|z1|^2,|z2|^2,admissible"
        assert len(scan_lines) == 1 + 100 * 100
        assert scan_lines[1] == "0.0,0.0,1"  # the origin is always admissible


_REGION_ARGS = ["opa-region", "--kappa1", "1", "--kappa2", "1", "--chi", "0.1",
                "--gamma", "4.0", "--delta1", "0.0", "--delta2", "0.04", "--grid", "20"]


class TestRegionCheck:
    """opa-region checks its phase-sampled scan against the closed form."""

    @staticmethod
    def flip(monkeypatch, pick):
        """Make the scan flip the cell ``pick(mask)`` chooses."""
        real = cli.scan_sector_region

        def scan(series, bounds, grids):
            mask, margin1, margin2 = real(series, bounds, grids)
            cell = pick(mask)
            mask[cell] = not mask[cell]
            return mask, margin1, margin2

        monkeypatch.setattr(cli, "scan_sector_region", scan)

    def test_a_cell_flipped_inside_the_region_fails(self, tmp_path, monkeypatch, capsys):
        # cap(0) = 1.0 and cells are 1.2 / 19 apart: the origin is ~16 cells inside
        self.flip(monkeypatch, lambda mask: (0, 0))
        out = tmp_path / "region"
        assert main([*_REGION_ARGS, "--out", str(out)]) == EXIT_CHECK_FAILED
        assert "disagrees with the closed-form region on 1 of 400 cells" in capsys.readouterr().err
        report = json.loads((tmp_path / "region.region.json").read_text())
        assert report["scan_disagreements"] == 1
        assert report["scan_worst_margin"] == 0.0
        assert (tmp_path / "region.region.csv").exists()
        scan_lines = (tmp_path / "region.scan.csv").read_text().splitlines()
        assert scan_lines[1] == "0.0,0.0,0"

    def test_a_cell_flipped_on_the_boundary_passes(self, tmp_path, monkeypatch):
        # the top admissible cell of the first column, within one cell of cap(0)
        self.flip(monkeypatch, lambda mask: (0, np.nonzero(mask[0])[0][-1]))
        out = tmp_path / "region"
        assert main([*_REGION_ARGS, "--out", str(out)]) == EXIT_OK
        report = json.loads((tmp_path / "region.region.json").read_text())
        assert report["scan_disagreements"] == 0

    def test_the_check_runs_without_out(self, tmp_path, monkeypatch, capsys):
        self.flip(monkeypatch, lambda mask: (0, 0))
        monkeypatch.chdir(tmp_path)
        assert main(_REGION_ARGS) == EXIT_CHECK_FAILED
        assert "on 1 of 400 cells" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestSimulateCommand:
    def test_small_certified_run(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--kappa1", "1", "--kappa2", "2", "--chi", "0.05",
                "--gamma", "8.0", "--delta1", "0.1", "--delta2", "0.1",
                "--dim", "5", "--t-final", "0.5",
                "--alpha1", "0.3", "--alpha2", "0.3",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sim.trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,msq,bound,slack"
        assert len(lines) == 52  # samples every 0.01 by default, both ends included
        last = lines[-1].split(",")
        assert float(last[3]) >= 0.0  # slack nonnegative
        cert = json.loads((tmp_path / "sim.certificate.json").read_text())
        assert cert["verdict"] == "Certified"

    def test_default_horizon_is_five_decay_times(self, tmp_path):
        # abscissa -kappa/2 for the OPA with kappa1 = kappa2 = 4: t_final = 2.5
        code = main(
            [
                "simulate",
                "--kappa1", "4", "--kappa2", "4", "--chi", "0.05",
                "--gamma", "8.0", "--dim", "4", "--dt", "0.5",
                "--out", str(tmp_path / "sim"),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sim.trajectory.csv").read_text().splitlines()
        assert [float(line.split(",")[0]) for line in lines[1:]] == pytest.approx(
            [0.0, 0.5, 1.0, 1.5, 2.0, 2.5], abs=1e-12
        )

    @pytest.mark.parametrize(
        "terms, flags",
        [
            ({"p": 1, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "re": 1}]}, []),
            ({"p": 2, "terms": [{"i": 1, "j": 1, "k": 2, "l": 2, "re": 1}]}, []),
            ({"p": 2, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "re": 1}]}, ["--dt", "0"]),
            ({"p": 2, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "re": 1}]}, ["--t-final", "-1"]),
        ],
        ids=["one-channel-series", "degree-beyond-dim", "dt-zero", "t-final-negative"],
    )
    def test_refused_run_writes_no_certificate(self, tmp_path, terms, flags):
        # the OPA certifies at gamma 4.5, but the run cannot be simulated
        code = main([
            "simulate", *opa_system_and_series(tmp_path, terms),
            "--gamma", "4.5", "--dim", "4", *flags, "--out", str(tmp_path / "sim"),
        ])
        assert code == EXIT_CONFIG
        assert not (tmp_path / "sim.certificate.json").exists()

    def test_uncertified_does_not_simulate(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate",
                "--kappa1", "1", "--kappa2", "2", "--chi", "0.05",
                "--gamma", "3.0", "--out", str(out),
            ]
        )
        assert code == EXIT_SMALL_GAIN
        assert not (tmp_path / "sim.trajectory.csv").exists()


class TestSweepCommand:
    def test_gamma_sweep(self, tmp_path):
        out = tmp_path / "sweep"
        code = main(
            [
                "sweep",
                "--kappa1", "1", "--kappa2", "2", "--chi", "0.1",
                "--gamma", "4.5",
                "--parameter", "gamma", "--start", "3.0", "--stop", "6.0",
                "--steps", "7",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        lines = (tmp_path / "sweep.sweep.csv").read_text().splitlines()
        assert lines[0].startswith("gamma,verdict")
        assert len(lines) == 8
        verdicts = [line.split(",")[1] for line in lines[1:]]
        assert verdicts[0] == "FailedSmallGain"
        assert verdicts[-1] == "Certified"
        # verdicts flip once, from failing to certified, as gamma grows
        flips = sum(1 for a, b in zip(verdicts, verdicts[1:]) if a != b)
        assert flips == 1


class TestSweepSharesTheNorm:
    """A gamma or delta sweep builds one system, computes its two norms once
    and certifies every point in one stacked call; a kappa sweep builds a
    system, and two norms, per point and certifies each point on its own; a
    chi sweep, whose points share the system, certifies it once."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"hinf_norm": 0, "run_certify": 0, "certify_sweep": 0}
        for module, name in (
            (qstab.model, "hinf_norm"), (cli, "run_certify"), (cli, "certify_sweep")
        ):
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    @pytest.mark.parametrize(
        "parameter, start, stop, steps, norms",
        [
            ("gamma", "3.0", "6.0", 16, 2),
            ("delta1", "0.0", "0.5", 4, 2),
            ("delta2", "0.0", "0.5", 4, 2),
            ("kappa1", "0.5", "2.0", 4, 8),
            ("chi", "0.05", "0.2", 4, 2),
        ],
    )
    def test_norm_and_certify_calls(self, tmp_path, calls, parameter, start, stop, steps, norms):
        args = ["sweep", *opa_flags(tmp_path / "s"), "--parameter", parameter,
                "--start", start, "--stop", stop, "--steps", str(steps)]
        assert main(args) == EXIT_OK
        assert len((tmp_path / "s.sweep.csv").read_text().splitlines()) == steps + 1
        stacked = parameter in ("gamma", "delta1", "delta2")
        assert calls == {
            "hinf_norm": norms,
            "run_certify": 0 if stacked else 1 if parameter == "chi" else steps,
            "certify_sweep": int(stacked),
        }

    def test_chi_sweep_certifies_once_with_the_rows_of_one_call_per_point(self, tmp_path, calls):
        args = ["sweep", *opa_flags(tmp_path / "s"), "--parameter", "chi",
                "--start", "0.05", "--stop", "0.45", "--steps", "9"]
        assert main(args) == EXIT_OK
        assert calls == {"hinf_norm": 2, "run_certify": 1, "certify_sweep": 0}
        # the rows a certify call per point, each on its own OPA, writes
        lines = ["chi,verdict,hinf_reduced,c1,c2,c3"]
        for chi in np.linspace(0.05, 0.45, 9).tolist():
            cert = certify(build_opa(OpaParams(1.0, 2.0, chi))[0], SectorBounds(4.5, 0.1, 0.1))
            consts = ",".join("" if c is None else repr(c) for c in (cert.c1, cert.c2, cert.c3))
            hinf = "" if not np.isfinite(cert.hinf_reduced) else repr(cert.hinf_reduced)
            lines.append(f"{chi!r},{cert.verdict.value},{hinf},{consts}")
        expected = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "s.sweep.csv").read_bytes() == expected

    @pytest.mark.parametrize("start, stop", [("-0.1", "0.2"), ("0.2", "0.0")])
    def test_bad_chi_point_writes_no_csv(self, tmp_path, calls, start, stop):
        args = ["sweep", *opa_flags(tmp_path / "s"), "--parameter", "chi",
                "--start", start, "--stop", stop, "--steps", "3"]
        assert main(args) == EXIT_CONFIG
        assert not (tmp_path / "s.sweep.csv").exists()
        assert calls["run_certify"] == 0

    def test_region_and_validate_compute_no_norm(self, tmp_path, calls):
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        path = tmp_path / "system.json"
        path.write_text(json.dumps(serialize.system_to_json(sys)))
        assert main(["validate", "--system", str(path)]) == EXIT_OK
        assert main(["opa-region", *opa_flags(tmp_path / "r"), "--grid", "20"]) == EXIT_OK
        assert calls == {"hinf_norm": 0, "run_certify": 0, "certify_sweep": 0}


class TestCheckIdentitiesCommand:
    def test_opa_identities_pass(self, tmp_path):
        out = tmp_path / "ids"
        code = main(
            [
                "check-identities",
                "--kappa1", "1", "--kappa2", "2", "--chi", "0.1",
                "--gamma", "4.5",
                "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "ids.identities.json").read_text())
        assert len(doc) == 5
        assert max(doc.values()) <= 1e-10

    @pytest.mark.parametrize(
        "command, artifact", [("check-identities", ".identities.json"), ("simulate", ".trajectory.csv")]
    )
    def test_artifacts_do_not_depend_on_the_algebra_cache(self, tmp_path, command, artifact):
        args = [command, *opa_flags(tmp_path / "run", gamma="8"), "--dim", "10", "--t-final", "0.1"]
        focksim._algebra.cache_clear()
        assert main(args) == EXIT_OK
        cold = _artifacts(tmp_path, "run")
        assert artifact in cold
        assert focksim._algebra.cache_info().currsize == 1
        assert main(args) == EXIT_OK
        assert focksim._algebra.cache_info().hits >= 1
        assert _artifacts(tmp_path, "run") == cold

    @pytest.mark.parametrize("command", ["check-identities", "simulate"])
    @pytest.mark.parametrize("p", [3, 1])
    def test_series_channel_count_must_match_system(self, tmp_path, capsys, command, p):
        # the OPA as --system JSON has p = 2 channels
        sys_doc = serialize.system_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[0])
        sys_path = tmp_path / "system.json"
        sys_path.write_text(json.dumps(sys_doc))
        term = {"i": p, "j": p, "k": 1, "l": 1, "re": 1}  # z_p z_p', on channel p
        series_path = tmp_path / "series.json"
        series_path.write_text(json.dumps({"p": p, "terms": [term]}))
        code = main([
            command, "--system", str(sys_path), "--series", str(series_path),
            "--gamma", "4.5", "--dim", "4", "--t-final", "0.01",
        ])
        assert code == EXIT_CONFIG
        assert f"the series has {p} channels, the system has 2" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_residual_fails(self, tmp_path, capsys):
        # finite, but its operator z1 z1' overflows inside the safe block and
        # the commutator there reads inf - inf
        series = tmp_path / "series.json"
        series.write_text(json.dumps(
            {"p": 2, "terms": [{"i": 1, "j": 1, "k": 1, "l": 1, "re": 1e308}]}
        ))
        code = main([
            "check-identities", "--kappa1", "1", "--kappa2", "1", "--chi", "0.05",
            "--dim", "6", "--series", str(series),
        ])
        assert "perturbation_commutator: nan" in capsys.readouterr().out
        assert code == EXIT_CHECK_FAILED

    @pytest.mark.parametrize(
        "command",
        ["check-identities", "simulate", "certify", "opa-region", "sweep", "validate"],
    )
    @pytest.mark.parametrize("kept", [0, 1])
    def test_series_must_be_self_adjoint(self, tmp_path, capsys, command, kept):
        # the OPA as JSON with only one of its two chi terms
        doc = serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[1])
        doc["terms"] = [doc["terms"][kept]]
        sweep = ["--parameter", "gamma", "--start", "3", "--stop", "6", "--steps", "4"]
        code = main([
            command, *opa_system_and_series(tmp_path, doc), *(sweep if command == "sweep" else []),
            "--gamma", "4.5", "--dim", "6", "--t-final", "0.01", "--out", str(tmp_path / "r"),
        ])
        assert code == EXIT_CONFIG
        assert "not self-adjoint: S[1,2,2,1] != conj(S[2,1,1,2])" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))


def _fresh_interpreter(code: str) -> list[str]:
    """Words of the last line that ``code`` prints in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    result = subprocess.run(
        [executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return result.stdout.splitlines()[-1].split()


def test_trajectory_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # M1 mixes the modes and M2 squeezes them, so no block of rho decouples
    # and msq sums over all 14 641 kept entries at dim 11
    opa_sys, series = build_opa(OpaParams(1.0, 1.0, 0.05))
    system = LinearQuantumSystem(
        M1=[[0.0, 0.05], [0.05, 0.0]], M2=0.05 * np.eye(2), N1=opa_sys.N1,
        N2=opa_sys.N2, E1=opa_sys.E1, E2=opa_sys.E2,
    )
    (tmp_path / "system.json").write_text(json.dumps(serialize.system_to_json(system)))
    (tmp_path / "series.json").write_text(json.dumps(serialize.series_to_json(series)))
    texts = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        args = ["simulate", "--system", str(tmp_path / "system.json"),
                "--series", str(tmp_path / "series.json"), "--gamma", "8",
                "--delta1", "0.1", "--delta2", "0.1", "--dim", "11", "--t-final", "0.1",
                "--out", str(out)]
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        code = f"from qstab.cli import main; raise SystemExit(main({args!r}))"
        subprocess.run([executable, "-c", code], env=env, capture_output=True, check=True)
        texts.append(Path(str(out) + ".trajectory.csv").read_bytes())
    assert len(texts[0].splitlines()) == 12
    assert texts[0] == texts[1]


def test_cli_import_loads_no_fock_simulator():
    code = (
        "import sys, qstab.cli; "
        "print('qstab.focksim' in sys.modules, 'scipy' in sys.modules)"
    )
    assert _fresh_interpreter(code) == ["False", "False"]


def _detuned_opa_flags(tmp_path):
    """A generic system (the OPA with a detuning) as a ``--system`` file."""
    sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
    detuned = LinearQuantumSystem(M1=np.diag([0.3, -0.2]), M2=sys.M2, N1=sys.N1,
                                  N2=sys.N2, E1=sys.E1, E2=sys.E2)
    path = tmp_path / "system.json"
    path.write_text(json.dumps(serialize.system_to_json(detuned)))
    return ["--system", str(path)]


@pytest.mark.parametrize(
    "args, riccati",
    [
        (lambda out: ["certify", *opa_flags(out)], False),
        (lambda out: ["sweep", *opa_flags(out), "--parameter", "gamma",
                      "--start", "3", "--stop", "6", "--steps", "8"], False),
        (lambda out: ["sweep", *opa_flags(out), "--parameter", "kappa1",
                      "--start", "0.5", "--stop", "2", "--steps", "4"], False),
        (lambda out: ["opa-region", *opa_flags(out), "--grid", "20"], False),
        (lambda out: ["certify", *opa_system_and_series(
            out.parent, serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[1])),
            "--gamma", "4.5", "--delta1", "0.1", "--delta2", "0.1", "--out", str(out)], False),
        (lambda out: ["opa-region", *opa_system_and_series(
            out.parent, serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[1])),
            "--gamma", "4.5", "--delta1", "0.1", "--delta2", "0.1", "--out", str(out)], False),
        (lambda out: ["certify", *opa_flags(out), "--eps", "1e-3"], True),
        (lambda out: ["certify", *_detuned_opa_flags(out.parent), "--gamma", "4.5",
                      "--delta1", "0.1", "--delta2", "0.1", "--out", str(out)], True),
    ],
    ids=["certify", "sweep-gamma", "sweep-kappa1", "opa-region", "certify-files",
         "opa-region-files", "certify-eps", "certify-generic"],
)
def test_fresh_cli_run_loads_scipy_only_for_riccati(tmp_path, args, riccati):
    """An OPA certify, sweep or region run loads no SciPy module at all; the
    Riccati path (``--eps`` or a generic system) loads ``scipy.linalg`` on
    demand and still certifies."""
    argv = args(tmp_path / "run")
    code = (
        "import sys; from qstab.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'scipy' in sys.modules, 'scipy.linalg' in sys.modules)"
    )
    loaded = str(riccati)
    assert _fresh_interpreter(code) == [str(EXIT_OK), loaded, loaded]
    if argv[0] == "certify":
        doc = json.loads((tmp_path / "run.certificate.json").read_text())
        assert doc["verdict"] == "Certified"
        assert (doc["eps"] is not None) == riccati


@pytest.mark.parametrize(
    "args, simulates",
    [
        (["check-identities", "--dim", "6"], False),
        (["simulate", "--dim", "6", "--t-final", "0.05"], True),
    ],
    ids=["check-identities", "simulate"],
)
def test_fresh_fock_run_loads_scipy_sparse_only_to_simulate(tmp_path, args, simulates):
    """check-identities works on flat diagonals and loads no SciPy module at
    all; simulate steps its kept superoperator as a CSR matrix, so it loads
    ``scipy.sparse``."""
    argv = [*args, *opa_flags(tmp_path / "run")]
    code = (
        "import sys; from qstab.cli import main; "
        f"code = main({argv!r}); "
        "print(code, 'scipy' in sys.modules, 'scipy.sparse' in sys.modules)"
    )
    loaded = str(simulates)
    assert _fresh_interpreter(code) == [str(EXIT_OK), loaded, loaded]


class TestFileDrivenInputs:
    def test_system_and_series_files_match_builtin_opa(self, tmp_path):
        params = OpaParams(1.0, 2.0, 0.1)
        sys, series = build_opa(params)
        sys_path = tmp_path / "system.json"
        series_path = tmp_path / "series.json"
        sys_path.write_text(json.dumps(serialize.system_to_json(sys)))
        series_path.write_text(json.dumps(serialize.series_to_json(series)))
        out_file = tmp_path / "file_run"
        out_opa = tmp_path / "opa_run"
        base = ["--gamma", "4.5", "--delta1", "0.1", "--delta2", "0.1"]
        code_file = main(
            ["certify", "--system", str(sys_path), *base, "--out", str(out_file)]
        )
        code_opa = main(["certify", *opa_flags(out_opa)])
        assert code_file == code_opa == EXIT_OK
        doc_file = json.loads((tmp_path / "file_run.certificate.json").read_text())
        doc_opa = json.loads((tmp_path / "opa_run.certificate.json").read_text())
        # without a series the system carries no region, so no level
        assert "invariant_level" not in doc_file
        doc_opa.pop("invariant_level")
        assert doc_file == doc_opa
        # with the series the certificate is the OPA's, byte for byte
        out_both = tmp_path / "both_run"
        code_both = main(["certify", "--system", str(sys_path), "--series", str(series_path),
                          *base, "--out", str(out_both)])
        assert code_both == EXIT_OK
        assert ((tmp_path / "both_run.certificate.json").read_bytes()
                == (tmp_path / "opa_run.certificate.json").read_bytes())

        code_ids = main(
            [
                "check-identities",
                "--system", str(sys_path), "--series", str(series_path),
                "--out", str(tmp_path / "ids"),
            ]
        )
        assert code_ids == EXIT_OK

        # the region, and a gamma sweep, from files are the parameter run's bytes
        files = ["--system", str(sys_path), "--series", str(series_path)]
        sweep = ["--parameter", "gamma", "--start", "3", "--stop", "6", "--steps", "8"]
        for command, extra in (("opa-region", ["--grid", "20"]), ("sweep", sweep)):
            assert main([command, *opa_flags(tmp_path / f"{command}-opa"), *extra]) == EXIT_OK
            assert main([command, *files, *base, *extra,
                         "--out", str(tmp_path / f"{command}-files")]) == EXIT_OK
            opa_run = _artifacts(tmp_path, f"{command}-opa")
            assert opa_run and _artifacts(tmp_path, f"{command}-files") == opa_run
        assert main(["sweep", *files[:2], *base, *sweep,
                     "--out", str(tmp_path / "sweep-system")]) == EXIT_OK
        assert _artifacts(tmp_path, "sweep-system") == _artifacts(tmp_path, "sweep-opa")

    def test_region_comes_from_the_series(self, tmp_path):
        """opa-region --chi 0.1 --series <chi = 0.5> writes the --chi 0.5 region."""
        series_path = _opa_series_file(
            tmp_path, serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.5))[1]))
        argv = ["opa-region", *opa_flags(tmp_path / "from-series"), "--series", str(series_path)]
        assert main([*argv, "--grid", "20"]) == EXIT_OK
        chi_flags = opa_flags(tmp_path / "chi")
        chi_flags[chi_flags.index("--chi") + 1] = "0.5"
        assert main(["opa-region", *chi_flags, "--grid", "20"]) == EXIT_OK
        chi_run = _artifacts(tmp_path, "chi")
        assert len(chi_run) == 3 and _artifacts(tmp_path, "from-series") == chi_run
        report = json.loads(chi_run[".region.json"])
        assert report["z2_ceiling"] == pytest.approx(0.1)  # 0.1 / (4 * 0.25)

    @pytest.mark.parametrize(
        "inputs",
        [
            lambda tmp_path: _detuned_opa_flags(tmp_path) + ["--series", str(_opa_series_file(
                tmp_path, serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[1])))],
            lambda tmp_path: opa_system_and_series(tmp_path, _EXTRA_TERM_SERIES),
            lambda tmp_path: opa_system_and_series(tmp_path, _EXTRA_TERM_SERIES)[:2],
            lambda tmp_path: [*_OPA_FLAGS, "--series", str(_opa_series_file(
                tmp_path, _EXTRA_TERM_SERIES))],
        ],
        ids=["detuned-system", "extra-term", "no-series", "opa-with-extra-term"],
    )
    def test_region_of_a_non_opa_is_refused(self, tmp_path, capsys, inputs):
        argv = ["opa-region", *inputs(tmp_path), "--gamma", "4.5", "--delta1", "0.1",
                "--delta2", "0.1", "--out", str(tmp_path / "r")]
        assert main(argv) == EXIT_CONFIG
        assert "opa-region needs the OPA's system and series" in capsys.readouterr().err
        assert not list(tmp_path.glob("r.*"))

    @pytest.mark.parametrize("parameter", ["kappa1", "chi"])
    def test_model_sweep_needs_opa_parameters(self, tmp_path, capsys, parameter):
        series_doc = serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[1])
        argv = ["sweep", *opa_system_and_series(tmp_path, series_doc)[:2], "--gamma", "4.5",
                "--parameter", parameter, "--start", "0.5", "--stop", "2", "--steps", "4",
                "--out", str(tmp_path / "s")]
        assert main(argv) == EXIT_CONFIG
        assert f"a {parameter} sweep builds an OPA per point" in capsys.readouterr().err
        assert not list(tmp_path.glob("s.*"))

    def test_simulate_reads_each_file_once(self, tmp_path, monkeypatch):
        sys, series = build_opa(OpaParams(1.0, 2.0, 0.1))
        sys_path = tmp_path / "system.json"
        series_path = tmp_path / "series.json"
        sys_path.write_text(json.dumps(serialize.system_to_json(sys)))
        series_path.write_text(json.dumps(serialize.series_to_json(series)))
        reads = []
        load = cli._load_json

        def counting_load(path, what):
            reads.append(what)
            return load(path, what)

        monkeypatch.setattr(cli, "_load_json", counting_load)
        code = main(
            ["simulate", "--system", str(sys_path), "--series", str(series_path), "--gamma", "3.0"]
        )
        assert code == EXIT_SMALL_GAIN
        assert sorted(reads) == ["series", "system"]


# a self-adjoint term, z1 z1* with a real coefficient
_TERM = {"i": 1, "j": 1, "k": 1, "l": 1, "re": 0.5}
# a damped mode, N1 = 1, whose N1 entry is given as a pair of strings
_STRING_ENTRY_SYSTEM = {
    "M1": [[[0, 0]]], "M2": [[[0, 0]]], "N1": [[["1", "0"]]],
    "N2": [[[0, 0]]], "E1": [[[0, 0]]], "E2": [[[1, 0]]],
}


def _series_with(**fields):
    return {"p": 2, "terms": [{**_TERM, **fields}]}


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path):
        config = {
            "system": {"opa": {"kappa1": 1.0, "kappa2": 2.0, "chi": 0.1}},
            "bounds": {"gamma": 3.0, "delta1": 0.1, "delta2": 0.1},
            "output": str(tmp_path / "c"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        # config alone fails the small-gain test; the flag override passes
        assert main(["certify", "--config", str(path)]) == EXIT_SMALL_GAIN
        assert main(["certify", "--config", str(path), "--gamma", "5.0"]) == EXIT_OK

    @pytest.mark.parametrize(
        "config_alpha, flags, alphas",
        [
            ([0.1, 0.9], ["--alpha1", "0.3"], ["0.3", "0.9"]),
            ([0.1, 0.9], ["--alpha2", "0.3"], ["0.1", "0.3"]),
            ([0.1], ["--alpha1", "0.3"], ["0.3", "0.5"]),
            (None, ["--alpha2", "0.3"], ["0.5", "0.3"]),
        ],
        ids=["alpha1-keeps-config-alpha2", "alpha2-keeps-config-alpha1",
             "alpha1-pads-with-default", "alpha2-without-config"],
    )
    def test_alpha_flag_replaces_only_its_own_entry(self, tmp_path, config_alpha, flags, alphas):
        sim = {"dim": 4, "t_final": 0.05}
        if config_alpha is not None:
            sim["alpha"] = config_alpha
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "system": {"opa": {"kappa1": 1.0, "kappa2": 2.0, "chi": 0.05}},
            "bounds": {"gamma": 8.0, "delta1": 0.1, "delta2": 0.1}, "sim": sim,
        }))
        assert main(["simulate", "--config", str(config), *flags,
                     "--out", str(tmp_path / "mixed")]) == EXIT_OK
        assert main(["simulate", "--config", str(config), "--alpha1", alphas[0],
                     "--alpha2", alphas[1], "--out", str(tmp_path / "flags")]) == EXIT_OK
        trajectory = "{}.trajectory.csv".format
        mixed = (tmp_path / trajectory("mixed")).read_bytes()
        assert mixed == (tmp_path / trajectory("flags")).read_bytes()

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["certify", "--config", str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "flag, content",
        [("--system", b"{not json"), ("--series", b"{not json"), ("--config", b"\xff\xfe{}"),
         ("--system", b"\xff\xfe{}"), ("--series", b"\xff\xfe{}")],
    )
    def test_unparseable_input_file_is_config_error(self, tmp_path, capsys, flag, content):
        # one reader for every JSON input: bytes that are not UTF-8 are malformed too
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        system = [] if flag == "--system" else _OPA_FLAGS
        assert main(["certify", *system, "--gamma", "4.5", flag, str(path)]) == EXIT_CONFIG
        assert f"{flag[2:]} {path} is not valid JSON" in capsys.readouterr().err

    def test_missing_required_inputs(self):
        assert main(["certify", "--gamma", "4.0"]) == EXIT_CONFIG

    def test_unknown_flag_exits_config_code(self):
        assert main(["certify", "--not-a-flag", "1"]) == EXIT_CONFIG

    def test_unknown_command_exits_config_code(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_incomplete_opa_params(self):
        assert main(["certify", "--kappa1", "1.0", "--gamma", "4.0"]) == EXIT_CONFIG

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_two_system_sources_are_config_error(self, tmp_path, capsys, source):
        """OPA parameters and a --system file together name two systems."""
        path = tmp_path / "system.json"
        path.write_text(json.dumps(serialize.system_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[0])))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"system": {"path": str(path)}}))
        system = ["--system", str(path)] if source == "flag" else ["--config", str(config)]
        assert main(["certify", *opa_flags(tmp_path / "run"), *system]) == EXIT_CONFIG
        assert "give exactly one system" in capsys.readouterr().err
        assert not list(tmp_path.glob("run.*"))

    @pytest.mark.parametrize(
        "document, key, value",
        [
            ("system", "M1", 5),
            ("system", "M1", [[["a", 0]]]),
            ("config", "bounds", 5),
            ("config", "sim", [1]),
        ],
        ids=["block-not-a-list", "entry-not-a-number", "bounds-not-an-object", "sim-not-an-object"],
    )
    def test_malformed_document_is_config_error(self, tmp_path, document, key, value):
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        system_doc = serialize.system_to_json(sys)
        config = {"system": {"path": str(tmp_path / "system.json")}, "bounds": {"gamma": 4.5}}
        (system_doc if document == "system" else config)[key] = value
        (tmp_path / "system.json").write_text(json.dumps(system_doc))
        (tmp_path / "config.json").write_text(json.dumps(config))
        assert main(["certify", "--config", str(tmp_path / "config.json")]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, flag, content",
        [
            (["certify", "--gamma", "4.5"], "--system", 5),
            (["check-identities", *_OPA_FLAGS], "--series", {"p": 1, "terms": 5}),
            (["check-identities", *_OPA_FLAGS], "--series", {"p": "x", "terms": []}),
            (["check-identities", *_OPA_FLAGS], "--series", {"p": 2.7, "terms": [_TERM]}),
            (["check-identities", *_OPA_FLAGS], "--series", _series_with(i=1.9)),
            (["check-identities", *_OPA_FLAGS], "--series", _series_with(j="1")),
            (["check-identities", *_OPA_FLAGS], "--series", _series_with(k=True)),
            (["check-identities", *_OPA_FLAGS], "--series", _series_with(re="0.5")),
            (["check-identities", *_OPA_FLAGS], "--series", _series_with(re=float("nan"))),
            (["check-identities", *_OPA_FLAGS], "--series", _series_with(im=float("inf"))),
            (["simulate", *_OPA_FLAGS, "--gamma", "8"], "--series", _series_with(re=float("nan"))),
            (["certify", "--gamma", "4.5"], "--system", _STRING_ENTRY_SYSTEM),
        ],
        ids=["system-not-an-object", "terms-not-a-list", "p-not-an-integer",
             "p-fractional", "term-index-fractional", "term-index-string",
             "term-power-boolean", "term-coefficient-string",
             "term-coefficient-nan", "term-coefficient-inf", "simulate-coefficient-nan",
             "system-entry-string"],
    )
    def test_malformed_input_file_is_config_error(self, tmp_path, command, flag, content):
        path = tmp_path / "input.json"
        path.write_text(json.dumps(content))
        assert main([*command, flag, str(path)]) == EXIT_CONFIG

    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("sweep", "--steps", "-1"),
            ("sweep", "--steps", "0"),
            ("simulate", "--dt", "0"),
            ("simulate", "--dt", "nan"),
            ("simulate", "--t-final", "-1"),
            ("certify", "--eps", "nan"),
            ("certify", "--eps", "-1"),
            ("certify", "--eps", "0"),
            ("simulate", "--alpha1", "nan"),
            ("simulate", "--alpha2", "inf"),
            ("simulate", "--alpha1", "1e200"),
            ("opa-region", "--grid", "1"),
            ("opa-region", "--grid", "0"),
            ("opa-region", "--grid", "-5"),
        ],
        ids=["steps-negative", "steps-zero", "dt-zero", "dt-nan", "t-final-negative",
             "eps-nan", "eps-negative", "eps-zero", "alpha1-nan", "alpha2-inf",
             "alpha1-overflow", "grid-one", "grid-zero", "grid-negative"],
    )
    def test_malformed_run_parameter_is_config_error(self, tmp_path, command, flag, value):
        args = [command, *opa_flags(tmp_path / "run", gamma="8.0"), "--dim", "5", flag, value]
        if command == "sweep":
            args += ["--parameter", "gamma", "--start", "3.0", "--stop", "6.0"]
        assert main(args) == EXIT_CONFIG
        assert not (tmp_path / "run.trajectory.csv").exists()
        assert not (tmp_path / "run.sweep.csv").exists()
        assert not (tmp_path / "run.region.csv").exists()

    @pytest.mark.parametrize(
        "command, section, value",
        [
            ("simulate", "sim", {"dt": "abc"}),
            ("simulate", "sim", {"t_final": "x"}),
            ("simulate", "sim", {"dt": True}),
            ("certify", "eps", "x"),
            ("certify", "sim", {"alpha": 5}),
            ("certify", "sim", {"dim": [1]}),
            ("certify", "grid", {}),
            ("certify", "system", {"opa": {"kappa1": [1], "kappa2": 1, "chi": 0.1}}),
            ("certify", "sweep", {"parameter": "gamma", "start": [1], "stop": 6, "steps": 3}),
            ("certify", "system", {"path": 5}),
            ("certify", "series", {"path": [1]}),
            ("certify", "output", 5),
            ("simulate", "sim", {"dim": 5.9}),
            ("certify", "grid", 5.9),
            ("certify", "sweep", {"parameter": "gamma", "start": 3, "stop": 6, "steps": 2.5}),
            ("simulate", "sim", {"alpha": [[True, 0], 0.5]}),
            ("certify", "bounds", {"gamma": "8"}),
            ("certify", "system", {"opa": {"kappa1": "1", "kappa2": 1, "chi": 0.05}}),
            ("certify", "grid", "50"),
            ("simulate", "sim", {"alpha": [["0.5", "0"], 0.5]}),
            ("certify", "bounds", {"gamma": 10**400}),
        ],
        ids=["dt-string", "t-final-string", "dt-boolean", "eps-string", "alpha-not-a-list",
             "dim-list", "grid-object", "kappa1-list", "sweep-start-list", "system-path-number",
             "series-path-list", "output-number", "dim-fractional", "grid-fractional",
             "steps-fractional", "alpha-pair-boolean", "gamma-string", "kappa1-string",
             "grid-string", "alpha-pair-string", "gamma-integer-overflow"],
    )
    def test_wrong_json_type_is_config_error(self, tmp_path, command, section, value):
        config = {
            "system": {"opa": {"kappa1": 1.0, "kappa2": 1.0, "chi": 0.05}},
            "bounds": {"gamma": 8.0, "delta1": 0.1, "delta2": 0.1},
            "sim": {"dim": 5, "t_final": 0.01},
            "output": str(tmp_path / "run"),
        }
        if section == "sim":
            config["sim"].update(value)
        else:
            config[section] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main([command, "--config", str(path)]) == EXIT_CONFIG
        assert not (tmp_path / "run.trajectory.csv").exists()

    @pytest.mark.parametrize(
        "command, flags, message",
        [
            ("check-identities", ["--dim", "2"], "need at least 3 Fock levels"),
            ("simulate", ["--dim", "3", "--t-final", "0.01"], "exceeds truncation"),
        ],
        ids=["below-three-levels", "series-degree-beyond-truncation"],
    )
    def test_truncation_too_small_is_config_error(self, tmp_path, capsys, command, flags, message):
        args = [command, "--kappa1", "1", "--kappa2", "1", "--chi", "0.05", "--gamma", "8"]
        assert main([*args, *flags, "--out", str(tmp_path / "run")]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run.trajectory.csv").exists()


class TestScripts:
    @pytest.mark.parametrize(
        "script, args, artifact",
        [
            ("opa_case_study.py", ["--out", "opa"], "opa.certificate.json"),
        ],
        ids=["opa_case_study"],
    )
    def test_script_writes_artifact(self, tmp_path, script, args, artifact):
        run_script(tmp_path, script, args)
        assert (tmp_path / artifact).exists()

    def test_case_study_level_belongs_to_its_certificate(self, tmp_path):
        run_script(tmp_path, "opa_case_study.py", ["--out", "opa"])
        doc = json.loads((tmp_path / "opa.certificate.json").read_text())
        # the script certifies at its default OPA parameters and delta1 = delta2 = 0.1
        params = OpaParams(1.0, 2.0, 0.1)
        bounds = SectorBounds(gamma=doc["gamma"], delta1=0.1, delta2=0.1)
        P = serialize.matrix_from_json(doc["P"])
        level = invariant_ellipsoid(P, OpaRegion(params, bounds))
        assert doc["invariant_level"] == pytest.approx(level, rel=1e-12)


def run_script(cwd, script, args):
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(root / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [executable, str(root / "scripts" / script), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_certifies_the_readme_example(tmp_path):
    # the README's certify example, run as ``python -m qstab.cli``
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [executable, "-m", "qstab.cli", "certify", *opa_flags("run")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == EXIT_OK, proc.stderr
    assert proc.stdout == "verdict: Certified\n"
    assert json.loads((tmp_path / "run.certificate.json").read_text())["verdict"] == "Certified"


@pytest.mark.parametrize(
    "args",
    [
        ["certify", "--gamma", "20", "--delta1", "0.1", "--delta2", "0.1"],
        ["sweep", "--gamma", "20", "--parameter", "gamma", "--start", "10", "--stop", "20",
         "--steps", "3"],
        ["simulate", "--gamma", "20", "--dim", "6", "--t-final", "0.05"],
        ["check-identities", "--gamma", "20", "--dim", "6"],
    ],
    ids=["certify", "sweep", "simulate", "check-identities"],
)
def test_non_physical_system_is_a_config_error(tmp_path, capsys, args):
    # M1 = [[0, 1], [0, 0]] is not Hermitian; its drift matrix is Hurwitz
    zero = np.zeros((2, 2))
    system = LinearQuantumSystem(
        M1=[[0.0, 1.0], [0.0, 0.0]], M2=zero, N1=np.eye(2), N2=zero, E1=zero, E2=np.eye(2)
    )
    path = tmp_path / "system.json"
    path.write_text(json.dumps(serialize.system_to_json(system)))
    series_doc = serialize.series_to_json(build_opa(OpaParams(1.0, 2.0, 0.1))[1])
    files = ["--system", str(path), "--series", str(_opa_series_file(tmp_path, series_doc))]
    assert main(["validate", *files]) == EXIT_CHECK_FAILED
    assert "M1 not Hermitian" in capsys.readouterr().err
    assert main([*args, *files, "--out", str(tmp_path / "r")]) == EXIT_CONFIG
    assert "not a physical system: M1 not Hermitian" in capsys.readouterr().err
    assert not list(tmp_path.glob("r.*"))
