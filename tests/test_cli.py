import json
import os
import subprocess
from pathlib import Path
from sys import executable

import numpy as np
import pytest

import qstab.model
from qstab import cli, serialize
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
from qstab.opa import OpaParams, build_opa, invariant_ellipsoid, region_curve
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
        curve = region_curve(OpaParams(1.0, 2.0, 0.1), SectorBounds(4.5, 0.1, 0.1), 64)
        levels = []
        for grid in ("2", "200"):
            out = tmp_path / f"grid{grid}"
            assert main(["certify", *opa_flags(out), "--grid", grid]) == EXIT_OK
            doc = json.loads((tmp_path / f"grid{grid}.certificate.json").read_text())
            expected = invariant_ellipsoid(serialize.certificate_from_json(doc).P, curve)
            assert doc["invariant_level"] == expected
            levels.append(doc["invariant_level"])
        assert levels[0] == levels[1] > 0

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
        assert report["lambda_bar_root"] == pytest.approx(6.25, abs=1e-12)
        assert report["lambda_bar_caption"] == pytest.approx(6.25, abs=1e-12)
        scan_lines = (tmp_path / "region.scan.csv").read_text().splitlines()
        assert scan_lines[0] == "|z1|^2,|z2|^2,admissible,margin1,margin2"
        origin = scan_lines[1].split(",")
        assert origin[2] == "1"  # the origin is always admissible


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
        last = lines[-1].split(",")
        assert float(last[3]) >= 0.0  # slack nonnegative
        cert = json.loads((tmp_path / "sim.certificate.json").read_text())
        assert cert["verdict"] == "Certified"

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
    """A gamma or delta sweep builds one system and computes its two norms
    once; a kappa or chi sweep builds a system, and two norms, per point.
    Every point runs one certify call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"hinf_norm": 0, "run_certify": 0}
        for module, name in ((qstab.model, "hinf_norm"), (cli, "run_certify")):
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
            ("chi", "0.05", "0.2", 4, 8),
        ],
    )
    def test_norm_and_certify_calls(self, tmp_path, calls, parameter, start, stop, steps, norms):
        args = ["sweep", *opa_flags(tmp_path / "s"), "--parameter", parameter,
                "--start", start, "--stop", stop, "--steps", str(steps)]
        assert main(args) == EXIT_OK
        assert len((tmp_path / "s.sweep.csv").read_text().splitlines()) == steps + 1
        assert calls == {"hinf_norm": norms, "run_certify": steps}

    def test_region_and_validate_compute_no_norm(self, tmp_path, calls):
        sys, _ = build_opa(OpaParams(1.0, 2.0, 0.1))
        path = tmp_path / "system.json"
        path.write_text(json.dumps(serialize.system_to_json(sys)))
        assert main(["validate", "--system", str(path)]) == EXIT_OK
        assert main(["opa-region", *opa_flags(tmp_path / "r"), "--grid", "20"]) == EXIT_OK
        assert calls == {"hinf_norm": 0, "run_certify": 0}


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
        # identical certificate apart from the OPA-only ellipsoid level
        doc_opa.pop("invariant_level")
        assert doc_file == doc_opa

        code_ids = main(
            [
                "check-identities",
                "--system", str(sys_path), "--series", str(series_path),
                "--out", str(tmp_path / "ids"),
            ]
        )
        assert code_ids == EXIT_OK

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


_OPA_FLAGS = ["--kappa1", "1", "--kappa2", "2", "--chi", "0.1"]
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

    def test_missing_config_is_io_error(self, tmp_path):
        assert main(["certify", "--config", str(tmp_path / "nope.json")]) == EXIT_IO

    def test_malformed_config_is_config_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["certify", "--config", str(path)]) == EXIT_CONFIG

    def test_missing_required_inputs(self):
        assert main(["certify", "--gamma", "4.0"]) == EXIT_CONFIG

    def test_unknown_flag_exits_config_code(self):
        assert main(["certify", "--not-a-flag", "1"]) == EXIT_CONFIG

    def test_unknown_command_exits_config_code(self):
        assert main(["frobnicate"]) == EXIT_CONFIG

    def test_incomplete_opa_params(self):
        assert main(["certify", "--kappa1", "1.0", "--gamma", "4.0"]) == EXIT_CONFIG

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
            (["certify", "--gamma", "4.5"], "--system", _STRING_ENTRY_SYSTEM),
        ],
        ids=["system-not-an-object", "terms-not-a-list", "p-not-an-integer",
             "p-fractional", "term-index-fractional", "term-index-string",
             "term-power-boolean", "term-coefficient-string", "system-entry-string"],
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
            (
                "msq_bound_demo.py",
                ["--dim", "6", "--t-final", "0.05", "--out", "msq"],
                "msq.trajectory.csv",
            ),
        ],
        ids=["opa_case_study", "msq_bound_demo"],
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
        level = invariant_ellipsoid(P, region_curve(params, bounds, 2))
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
