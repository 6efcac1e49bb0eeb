"""qstab benchmark: one closed-loop workload per run, timed from outside.

    python3 perfbench/run.py --workload opa-study --seed 1 --seconds 55 --trace 0

One client sends the next request when the previous one returns.  Requests
come in sessions of fixed composition (see ``workloads.py``) until
``--seconds`` of wall time have passed; a request already sent finishes.
Every output is checked by ``gate.py`` after it is timed.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.  ``--trace 1``
sends each request twice, once plain and once with the package's public
functions wrapped in spans (``tracer.py``), and prints the per-layer
metrics.  The last line of standard output is the JSON result; the lines
before it give the run context and every number with its sample count.
Details and spans go to ``perfbench/out/``.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every interpreter started below.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import itertools
import json
import math
import platform
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median

import numpy as np

import tracer as tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"
REFERENCE_PATH = HERE / "reference_msq.json"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def ref_eig64_ms(seconds: float = 0.3) -> float:
    """Median time of one 64x64 complex eigvals, a fixed host-speed probe."""
    rng = np.random.default_rng(64)
    A = rng.normal(size=(64, 64)) + 1j * rng.normal(size=(64, 64))
    times, stop = [], time.perf_counter() + seconds
    while time.perf_counter() < stop:
        t0 = time.perf_counter()
        np.linalg.eigvals(A)
        times.append(time.perf_counter() - t0)
    return 1e3 * median(times)


def launch_setup() -> float:
    """Wall time of one fresh interpreter that imports qstab.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import qstab.cli"], env=env, check=True, cwd=ROOT)
    return time.perf_counter() - t0


@dataclass
class SetupSampler:
    """Set-up launches spread evenly over the measured window.

    The host's speed moves in phases of a few seconds; launches made back to
    back all land in one phase, so their median jumped between runs.  Spread
    out, they sample the phases the requests see.  A launch runs between two
    requests and is never inside a request's time.
    """

    start: float
    seconds: float
    launches: int
    times: list[float] = field(default_factory=list)

    def poll(self) -> None:
        due = self.start + self.seconds * len(self.times) / self.launches
        if len(self.times) < self.launches and time.perf_counter() >= due:
            self.times.append(launch_setup())

    def finish(self) -> list[float]:
        while len(self.times) < self.launches:
            self.times.append(launch_setup())
        return self.times


def run_context(workload: str, seed: int) -> dict:
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qstab").glob("*.py")):
        digest.update(path.name.encode() + path.read_bytes())
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": int(BLAS_THREADS),
    }


@dataclass
class Record:
    kind: str
    tag: str
    seconds: float
    answered: bool
    points: int


@dataclass
class Tally:
    records: list[Record] = field(default_factory=list)
    session_seconds: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    plain_seconds: float = 0.0  # traced runs: the plain and traced copies
    traced_seconds: float = 0.0


def run_request(req, tally: Tally, tracer=None) -> float:
    """Send one request, record it, check its output; returns its wall time."""
    root = tracer.request(req.kind) if tracer else None
    t0 = time.perf_counter()
    result = req.call()
    elapsed = time.perf_counter() - t0
    if root is not None:
        tracer.end_request(root)
    answered = workloads.answered(result)
    tally.records.append(Record(req.kind, req.tag, elapsed, answered, req.points))
    if not answered:
        tally.errors.append(f"{req.kind} {req.tag}: {getattr(result, 'stderr', result)!r}"[:300])
    tally.problems += [f"{req.kind} {req.tag}: {p}" for p in req.check(result)]
    return elapsed


def run_session(requests, tally: Tally, stop: float, recorder=None, setup: SetupSampler | None = None) -> bool:
    """Send the requests one after another until ``stop``.

    With a recorder, each request is sent twice in a row, once plain and once
    traced, the order alternating, so the pair sees the same host phase.
    Returns False when the deadline cut the session short; its requests
    still count, the session does not.
    """
    total = 0.0
    for i, req in enumerate(requests):
        if setup is not None:
            setup.poll()
        if time.perf_counter() >= stop:
            return False
        if recorder is None:
            total += run_request(req, tally)
            continue
        for traced in (False, True) if i % 2 == 0 else (True, False):
            if traced:
                recorder.install()
                try:
                    tally.traced_seconds += run_request(req, tally, recorder)
                finally:
                    recorder.uninstall()
            else:
                elapsed = run_request(req, tally)
                tally.plain_seconds += elapsed
                total += elapsed
    tally.session_seconds.append(total)
    return True


def end_to_end(tally: Tally, answer_kind: str, setup: list[float]) -> tuple[dict, list[str]]:
    """The bounded metrics, plus report lines with every number and its sample count."""
    recs = tally.records
    answers = [r for r in recs if r.kind == answer_kind]
    answer_ms = [1e3 * r.seconds for r in answers]
    answered = sum(r.answered for r in recs)
    metrics = {
        "setup_s": median(setup),
        "request_ms_p90": percentile(answer_ms, 90),
        "answers_per_s": sum(r.answered for r in answers) / sum(r.seconds for r in answers),
        "sessions_per_s": len(tally.session_seconds) / sum(tally.session_seconds),
        "answered_frac": answered / len(recs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"setup_s          {metrics['setup_s']:.4f} s    (median of {len(setup)} launches)",
        f"request_ms_p90   {metrics['request_ms_p90']:.3f} ms   ({answer_kind} requests, n={len(answers)})",
        # Not bounded: the host's fast and slow phases split the request times
        # into two overlapping clusters, and the median sits where they meet.
        f"request_ms_p50   {median(answer_ms):.3f} ms   (n={len(answers)}; reported, not bounded)",
        f"answers_per_s    {metrics['answers_per_s']:.4f} 1/s",
        f"sessions_per_s   {metrics['sessions_per_s']:.5f} 1/s  (n={len(tally.session_seconds)} sessions)",
        f"answered_frac    {metrics['answered_frac']:.4f}      ({answered}/{len(recs)}; error_frac "
        f"{1 - metrics['answered_frac']:.4f})",
        f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB",
    ]
    # Per-kind figures (not bounded): simulate by dim, library calls by n and outcome.
    def group(r: Record) -> str:
        if r.kind == "simulate":
            return f"simulate.{r.tag}"
        if r.kind == "call":
            return f"call.{r.tag}.{'verdict' if r.answered else 'raised'}"
        return r.kind

    groups: dict[str, list[float]] = {}
    for r in recs:
        groups.setdefault(group(r), []).append(1e3 * r.seconds)
    for label, ms in sorted(groups.items()):
        lines.append(f"  {label:20s} p50 {median(ms):10.3f} ms   p90 {percentile(ms, 90):10.3f} ms   n={len(ms)}")
    sweeps = [r for r in recs if r.kind == "sweep"]
    if sweeps:
        lines.append(f"  sweep_pts_per_s    {sum(r.points for r in sweeps) / sum(r.seconds for r in sweeps):.3f} 1/s"
                     f"  (n={len(sweeps)} sweeps)")
    return metrics, lines


def check_spec(spec: dict, key: str, metrics: dict) -> None:
    declared = [m["name"] for m in spec[key]]
    if sorted(declared) != sorted(metrics):
        raise SystemExit(f"metric names differ from BENCHMARK.json {key}: "
                         f"{sorted(set(declared) ^ set(metrics))}")


def run_benchmark(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> tuple[dict, list[str]]:
    """Run one workload; returns (result object, report lines)."""
    if not (SRC / "qstab" / "cli.py").is_file():
        raise FileNotFoundError(f"package source not found under {SRC}")
    sys.path.insert(0, str(SRC))
    spec = json.loads(SPEC_PATH.read_text())
    scale = workloads.TINY if tiny else workloads.FULL
    answer_kind, make_session = workloads.WORKLOADS[workload]
    context = run_context(workload, seed)
    context["host.ref_eig64_ms.start"] = ref_eig64_ms()

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"tmp-{workload}-{seed}-{os.getpid()}"
    workdir.mkdir()
    ctx = workloads.Context(workdir, scale, json.loads(REFERENCE_PATH.read_text()))
    tally = Tally()
    try:
        # Warm-up: first calls pay lazy imports and allocator growth.
        warm = workloads.Context(workdir, workloads.TINY, ctx.reference)
        run_session(make_session(np.random.default_rng([seed, 1]), warm), Tally(), math.inf)
        rng = np.random.default_rng(seed)
        recorder = tracing.Tracer() if trace else None
        start = time.perf_counter()
        stop = start + seconds
        sampler = SetupSampler(start, seconds, scale.setup_launches)
        for sessions in itertools.count():  # the first session always completes
            complete = run_session(make_session(rng, ctx), tally, stop if sessions else math.inf, recorder,
                                   sampler)
            if not complete or time.perf_counter() >= stop:
                break
        setup = sampler.finish()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    context["host.ref_eig64_ms.end"] = ref_eig64_ms()

    e2e, lines = end_to_end(tally, answer_kind, setup)
    if trace:
        metrics = tracing.layer_metrics(recorder.spans, answer_kind,
                                        tally.traced_seconds / tally.plain_seconds - 1.0)
        check_spec(spec, "per_layer", metrics)
        lines = [f"{k:48s} {v:.6g}" for k, v in metrics.items()] + ["(plain and traced copies together:)"] + lines
    else:
        metrics = e2e
        check_spec(spec, "end_to_end", metrics)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    attempted = len(tally.records)
    failed = attempted - sum(r.answered for r in tally.records)
    result = {
        "correct": not tally.problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }
    details = {"context": context, "result": result, "report": lines,
               "problems": tally.problems[:50], "errors": sorted(set(tally.errors))[:50]}
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (OUT / f"{stem}.json").write_text(json.dumps(details, indent=1) + "\n")
    if trace:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(
            [[s.id, s.parent, s.name, s.start, s.end, s.error, s.info] for s in recorder.spans]) + "\n")
    return result, [json.dumps({"context": context})] + lines + [f"problem: {p}" for p in tally.problems[:20]]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
