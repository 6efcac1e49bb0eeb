"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import gate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", sorted({w["name"] for w in SPEC["workloads"]} | {"generic-certify"}))
def test_tiny_run_emits_exactly_the_declared_metrics(workload, trace):
    result, lines = run.run_benchmark(workload, seed=3, seconds=0, trace=trace, tiny=True)
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert result["correct"], lines
    assert result["attempted"] >= 1
    assert json.loads(lines[0])["context"]["blas_threads"] == 1


def _opa_certificate(kappa1=1.0, kappa2=2.0, chi=0.1, gamma=4.5):
    from qstab.certify import certify
    from qstab.opa import OpaParams, build_opa
    from qstab.perturbation import SectorBounds

    system, _ = build_opa(OpaParams(kappa1, kappa2, chi))
    return certify(system, SectorBounds(gamma, 0.1, 0.1)), gate.opa_blocks(kappa1, kappa2), gamma


def _check(cert, blocks, gamma, **changes):
    fields = dict(P=cert.P, lam=cert.lam, c=cert.c, c1=cert.c1, c2=cert.c2, c3=cert.c3)
    fields.update(changes)
    return gate.check_certificate(blocks, gamma, 0.1, 0.1, **fields)


def test_gate_accepts_a_valid_certificate():
    cert, blocks, gamma = _opa_certificate()
    assert _check(cert, blocks, gamma) == []


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda cert: {"c": cert.c * 1.001},
        lambda cert: {"c1": cert.c1 * 1.01},
        lambda cert: {"c3": cert.c3 * 0.99},
        lambda cert: {"lam": cert.lam * 1.1, "c3": cert.c3 * 1.1},  # consistent, but lam is wrong
        lambda cert: {"P": -cert.P},
        lambda cert: {"P": cert.P * 1e-6},  # still P > 0, but the QMI no longer holds
    ],
)
def test_gate_rejects_a_corrupted_certificate(corrupt):
    cert, blocks, gamma = _opa_certificate()
    assert _check(cert, blocks, gamma, **corrupt(cert))


def test_gate_recomputes_lambda_on_a_generic_system():
    from qstab.certify import certify
    from qstab.model import LinearQuantumSystem
    from qstab.perturbation import SectorBounds

    blocks = workloads.random_blocks(np.random.default_rng(7), 3, 4)
    gamma = 4.0 * 2.0 * workloads.reduced_norm_lower_bound(blocks)
    cert = certify(LinearQuantumSystem(**blocks), SectorBounds(gamma, 0.1, 0.1))
    assert cert.certified
    assert _check(cert, blocks, gamma) == []
    assert _check(cert, blocks, gamma, lam=cert.lam * 1.001, c3=cert.c3 * 1.001)


def test_gate_rejects_a_corrupted_certificate_file(tmp_path):
    from qstab.serialize import certificate_to_json

    cert, _, gamma = _opa_certificate()
    doc = certificate_to_json(cert) | {"invariant_level": 1.0}
    path = tmp_path / "c.certificate.json"
    path.write_text(json.dumps(doc))
    assert gate.check_opa_certificate_file(path, 1.0, 2.0, gamma, 0.1, 0.1) == []
    doc["c3"] *= 1.5
    path.write_text(json.dumps(doc))
    assert gate.check_opa_certificate_file(path, 1.0, 2.0, gamma, 0.1, 0.1)
    doc["hinf_reduced"] *= 1.001
    path.write_text(json.dumps(doc))
    assert any("hinf_reduced" in p for p in gate.check_opa_certificate_file(path, 1.0, 2.0, gamma, 0.1, 0.1))


def test_gate_rejects_a_trajectory_off_the_reference(tmp_path):
    reference = {"t": [0.0, 0.001, 0.002], "msq": [3.0, 2.999, 2.998]}
    cert = {"c1": 1.0, "c2": 0.1, "c3": 1.0}
    path = tmp_path / "traj.csv"
    path.write_text("t,msq,bound,slack\n0.0,3.0,4,1\n0.001,2.999,4,1\n0.002,2.998,4,1\n")
    assert gate.check_trajectory(path, cert, reference) == []
    path.write_text("t,msq,bound,slack\n0.0,3.0,4,1\n0.002,2.998,4,1\n")  # coarser stride
    assert gate.check_trajectory(path, cert, reference) == []
    path.write_text("t,msq,bound,slack\n0.0,3.0,4,1\n0.001,2.999,4,1\n0.002,2.9981,4,1\n")
    assert gate.check_trajectory(path, cert, reference)
    path.write_text("t,msq,bound,slack\n0.0,3.0,4,1\n0.0015,2.9985,4,1\n")  # off the grid
    assert gate.check_trajectory(path, cert, reference)


def _fock_requests(tmp_path, kind):
    ctx = workloads.Context(tmp_path, workloads.TINY, json.loads(run.REFERENCE_PATH.read_text()))
    return [r for r in workloads.fock_verify(np.random.default_rng(3), ctx) if r.kind == kind]


def test_gate_rejects_identity_residuals_the_cli_failed_on(tmp_path, monkeypatch):
    import qstab.focksim

    original = qstab.focksim.check_commutator_identities
    monkeypatch.setattr(qstab.focksim, "check_commutator_identities",
                        lambda *a: {k: v + 1e-8 for k, v in original(*a).items()})
    tally = run.Tally()
    for req in _fock_requests(tmp_path, "identities"):
        run.run_request(req, tally)
    assert not any(r.answered for r in tally.records)
    assert any("own check failed" in p for p in tally.problems)
    assert any("residual" in p for p in tally.problems)


def test_gate_rejects_a_simulated_bound_the_cli_failed_on(tmp_path, monkeypatch):
    import qstab.focksim

    original = qstab.focksim.lindblad_evolve

    def drifting(*args):
        traj = original(*args)
        traj.msq = traj.msq + 1e9 * traj.times  # a propagator that leaks energy in (c3 ~ 2e5)
        return traj

    monkeypatch.setattr(qstab.focksim, "lindblad_evolve", drifting)
    tally = run.Tally()
    for req in _fock_requests(tmp_path, "simulate"):
        run.run_request(req, tally)
    assert not any(r.answered for r in tally.records)
    assert any("own check failed" in p for p in tally.problems)
    assert any("bound violated" in p for p in tally.problems)
    assert any("deviates from the reference" in p for p in tally.problems)


def test_a_raised_solver_error_is_a_failure_not_a_wrong_output(tmp_path):
    check = workloads._checked(str(tmp_path / "r0"), lambda: ["must not run"], ".identities.json")
    assert check(workloads.CliOutcome(3, "QMI infeasible")) == []


def test_traced_certify_counts_and_rebinding():
    import qstab.certify
    import qstab.cli
    import qstab.focksim

    original = qstab.cli.run_certify
    recorder = tracer.Tracer()
    recorder.install()
    try:
        assert qstab.cli.run_certify is not original
        assert qstab.focksim.mu_constants is qstab.certify.mu_constants
        root = recorder.request("certify")
        cert, _, _ = _opa_certificate()
        recorder.end_request(root)
    finally:
        recorder.uninstall()
    assert qstab.cli.run_certify is original
    assert cert.certified
    metrics = tracer.layer_metrics(recorder.spans, "certify", 0.0)
    assert metrics["model.doubled_matrices.calls_per_certify"] == 4
    assert metrics["certify.hinf_norm_grid.calls_per_certify"] == 4
    assert metrics["certify.is_hurwitz.calls_per_certify"] == 5


def test_sweep_worker_spans_attach_to_their_request(tmp_path):
    from qstab.cli import RunConfig, SweepSpec
    from qstab.opa import OpaParams
    from qstab.perturbation import SectorBounds

    config = RunConfig("sweep", opa_params=OpaParams(1.0, 2.0, 0.1), bounds=SectorBounds(4.5, 0.1, 0.1),
                       sweep=SweepSpec("gamma", 3.0, 6.0, 6), output=str(tmp_path / "s"))
    recorder = tracer.Tracer()
    recorder.install()
    try:
        root = recorder.request("sweep")
        assert workloads._cli(config).code == 0
        recorder.end_request(root)
    finally:
        recorder.uninstall()
    parents = {s.id: s.parent for s in recorder.spans}
    certifies = [s for s in recorder.spans if s.name == "certify.certify"]
    assert len(certifies) == 6
    for span in certifies:
        node = span.id
        while parents[node] is not None:
            node = parents[node]
        assert node == root.id


def test_generic_inputs_depend_only_on_the_seed(tmp_path):
    ctx = workloads.Context(tmp_path, workloads.TINY, {})
    first = workloads.random_blocks(np.random.default_rng(5), 4, 5)
    again = workloads.random_blocks(np.random.default_rng(5), 4, 5)
    assert all(np.array_equal(first[k], again[k]) for k in first)
    kinds = [r.tag for r in workloads.generic_certify(np.random.default_rng(5), ctx)]
    assert sorted(kinds) == sorted(["n2"] * 5 + ["n4"] * 5)


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "opa-study", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
