"""The three workloads, as sessions: fixed-composition blocks of requests.

A session always holds the same mix of request kinds and strata, so the
mix of a run does not depend on how many sessions fit in it; the seed only
draws the parameters and the order.  Each request carries the call that is
timed and the correctness check that runs after it, untimed.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.optimize import minimize_scalar

import gate

OPA_GAMMA_FACTORS = (0.9, 1.001, 1.2, 2.0, 4.0)
GENERIC_GAMMA_FACTORS = (1.05, 1.2, 1.5, 2.0, 4.0)
IDENTITY_GAMMA_FACTORS = (1.2, 2.0, 4.0)
DELTA1 = DELTA2 = 0.1
# fock-verify simulate requests: the acceptance-criterion-6 configuration
SIM_KAPPA, SIM_CHI, SIM_GAMMA, SIM_ALPHAS = 1.0, 0.05, 8.0, (0.5, 0.5)
SIM_DIMS = (12, 10)


@dataclass(frozen=True)
class Scale:
    certify_per_factor: int  # opa-study certify requests per gamma factor
    sweep_points: int
    region_grid: int
    systems: tuple[tuple[int, int], ...]  # generic-certify (n, calls per gamma factor per session)
    identity_dims: tuple[int, ...]
    identity_rounds: int
    sim_t_final: float
    setup_launches: int


FULL = Scale(4, 64, 200, ((2, 12), (4, 4), (8, 4), (16, 1)), tuple(range(6, 15)), 2, 0.5, 7)
TINY = Scale(1, 8, 20, ((2, 1), (4, 1)), (6, 7), 1, 0.02, 1)


@dataclass
class Request:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], list[str]]
    points: int = 1  # sweep points, for throughput
    tag: str = ""  # sub-kind: the dim of a Fock request, the n of a library call


@dataclass
class Context:
    workdir: Path
    scale: Scale
    reference: dict  # stored msq(t) trajectories of the simulate requests, by dim
    ids: itertools.count = dataclasses.field(default_factory=itertools.count)

    def prefix(self) -> str:
        """A fresh artifact prefix in the work directory."""
        return str(self.workdir / f"r{next(self.ids)}")


@dataclass
class CliOutcome:
    code: int
    stderr: str


# A CLI exit code that carries a verdict or a pass; 3, 64 and 66 do not.
VERDICT_CODES = (0, 1, 2)
# The CLI's own identity or simulated-bound check failed, or a solver raised.
EXIT_CHECK_FAILED = 3


def _cli(config) -> CliOutcome:
    # Imported here: src joins sys.path only when a run starts.  qstab.cli.run
    # is looked up per call, so a traced request goes through the wrapper.
    import qstab.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = qstab.cli.run(config)
    return CliOutcome(code, err.getvalue())


def answered(result) -> bool:
    """A verdict or a pass: not a raised error, not a failing CLI exit code."""
    if isinstance(result, CliOutcome):
        return result.code in VERDICT_CODES
    return not isinstance(result, Exception)


def _checked(prefix: str, check: Callable[[], list[str]], output: str | None = None
             ) -> Callable[[CliOutcome], list[str]]:
    """Run ``check`` on the artifacts under ``prefix``, then delete them.

    An exit code without a verdict leaves nothing to check: a raised solver
    error is counted as an error, not a wrong output.  The exception is exit
    3 with ``output`` written: the command's own check (identity residuals,
    simulated bound) ran and failed, so the output is wrong.
    """

    def run(outcome: CliOutcome) -> list[str]:
        try:
            if outcome.code in VERDICT_CODES:
                return check()
            if outcome.code == EXIT_CHECK_FAILED and output and Path(prefix + output).exists():
                return [f"the command's own check failed (exit {outcome.code})"] + check()
            return []
        except (OSError, KeyError, ValueError) as exc:
            return [f"unreadable artifact under {prefix}: {exc!r}"]
        finally:
            for path in Path(prefix).parent.glob(Path(prefix).name + ".*"):
                path.unlink()

    return run


def _opa_draw(rng: np.random.Generator):
    from qstab.opa import OpaParams

    kappa1, kappa2 = (float(k) for k in rng.uniform(0.2, 5.0, size=2))
    chi = float(rng.uniform(0.02, 0.3))
    return OpaParams(kappa1, kappa2, chi)


# ---------------------------------------------------------------------------
# opa-study


def opa_study(rng: np.random.Generator, ctx: Context) -> list[Request]:
    from qstab.cli import RunConfig, SweepSpec
    from qstab.perturbation import SectorBounds

    requests = []
    for factor in OPA_GAMMA_FACTORS * ctx.scale.certify_per_factor:
        p = _opa_draw(rng)
        gamma = factor * 2.0 * gate.opa_hinf(p.kappa1, p.kappa2)
        prefix = ctx.prefix()
        config = RunConfig("certify", opa_params=p, bounds=SectorBounds(gamma, DELTA1, DELTA2),
                           output=prefix, grid=ctx.scale.region_grid)
        check = (lambda prefix=prefix, p=p, gamma=gamma: gate.check_opa_certificate_file(
            Path(prefix + ".certificate.json"), p.kappa1, p.kappa2, gamma, DELTA1, DELTA2))
        requests.append(Request("certify", lambda c=config: _cli(c), _checked(prefix, check)))

    p = _opa_draw(rng)
    threshold = 2.0 * gate.opa_hinf(p.kappa1, p.kappa2)
    prefix = ctx.prefix()
    config = RunConfig("sweep", opa_params=p, bounds=SectorBounds(threshold, DELTA1, DELTA2),
                       sweep=SweepSpec("gamma", 0.5 * threshold, 2.0 * threshold, ctx.scale.sweep_points),
                       output=prefix)
    check = (lambda prefix=prefix, p=p: gate.check_sweep_csv(
        Path(prefix + ".sweep.csv"), p.kappa1, p.kappa2, ctx.scale.sweep_points))
    requests.append(Request("sweep", lambda c=config: _cli(c), _checked(prefix, check),
                            points=ctx.scale.sweep_points))

    p = _opa_draw(rng)
    gamma = float(rng.choice(OPA_GAMMA_FACTORS)) * 2.0 * gate.opa_hinf(p.kappa1, p.kappa2)
    prefix = ctx.prefix()
    config = RunConfig("opa-region", opa_params=p, bounds=SectorBounds(gamma, DELTA1, DELTA2),
                       output=prefix, grid=ctx.scale.region_grid)
    check = (lambda prefix=prefix, p=p, gamma=gamma: gate.check_region(
        prefix, p.chi, gamma, DELTA1, DELTA2, ctx.scale.region_grid))
    requests.append(Request("region", lambda c=config: _cli(c), _checked(prefix, check)))

    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# generic-certify


def random_blocks(rng: np.random.Generator, n: int, p: int, max_tries: int = 200) -> dict:
    """Random valid system with a Hurwitz drift, drawn like the test suite's
    ``random_system``: one coupling channel per mode, a dominant passive
    part that grows with each rejected draw, E1 and E2 both nonzero."""
    m = n
    for attempt in range(max_tries):
        damp = 1.0 + 0.5 * attempt
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        N1 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        N1[:n, :n] += damp * np.eye(n)
        blocks = {
            "M1": (A + A.conj().T) / 2,
            "M2": (B + B.T) / 2,
            "N1": N1,
            "N2": 0.25 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))),
            "E1": rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n)),
            "E2": rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n)),
        }
        F, _ = gate.drift_and_channels(blocks)
        if np.max(np.linalg.eigvals(F).real) < -1e-9:
            return blocks
    raise RuntimeError("failed to sample a Hurwitz system")


def reduced_norm_lower_bound(blocks: dict) -> float:
    """Peak of sigma_max(Etilde (iw - F)^-1 J Etilde') over frequency.

    A dense two-sided log grid plus the resonances, refined around the best
    point; a lower bound on the small-gain norm that in practice matches it
    to ~1e-9.  Computed here, not by the package, so the inputs do not depend
    on the code under test.
    """
    F, Et = gate.drift_and_channels(blocks)
    n2 = F.shape[0]
    B = gate.signature(n2 // 2) @ Et.conj().T
    eye = np.eye(n2)

    def sigmas(omegas: np.ndarray) -> np.ndarray:
        X = np.linalg.solve(1j * omegas[:, None, None] * eye - F, B)
        return np.linalg.svd(Et @ X, compute_uv=False)[:, 0]

    eigs = np.linalg.eigvals(F)
    scale = max(1.0, float(np.max(np.abs(eigs))))
    base = np.logspace(np.log10(scale) - 4, np.log10(scale) + 3, 100)
    grid = np.unique(np.concatenate([[0.0], base, -base, eigs.imag]))
    values = sigmas(grid)
    best = int(np.argmax(values))
    lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
    if hi > lo:
        res = minimize_scalar(lambda w: -float(sigmas(np.array([w]))[0]), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-12 * (1.0 + abs(grid[best]))})
        return max(float(values[best]), -float(res.fun))
    return float(values[best])


def generic_certify(rng: np.random.Generator, ctx: Context) -> list[Request]:
    from qstab.errors import QstabError
    from qstab.model import LinearQuantumSystem
    from qstab.perturbation import SectorBounds

    def call(system, bounds):
        import qstab.certify

        try:
            return qstab.certify.certify(system, bounds)
        except QstabError as exc:
            return exc

    requests = []
    for n, count in ctx.scale.systems:
        calls = len(GENERIC_GAMMA_FACTORS) * count
        # p spread evenly over 1..n+1 within the session (stratified draw)
        ps = 1 + ((np.arange(calls) + rng.uniform(size=calls)) * (n + 1) / calls).astype(int)
        for factor, p in zip(GENERIC_GAMMA_FACTORS * count, rng.permutation(ps)):
            # one system per call, so a run averages over many systems
            blocks = random_blocks(rng, n, int(p))
            lower = reduced_norm_lower_bound(blocks)
            gamma = factor * 2.0 * lower

            def check(cert, blocks=blocks, gamma=gamma, lower=lower) -> list[str]:
                if isinstance(cert, Exception):
                    return []
                problems = []
                if not cert.hinf_reduced >= lower * (1.0 - gate.HINF_RTOL):
                    problems.append(f"hinf_reduced {cert.hinf_reduced!r} below the sweep peak {lower!r}")
                if cert.certified:
                    problems += gate.check_certificate(blocks, gamma, DELTA1, DELTA2, cert.P, cert.lam, cert.c,
                                                       cert.c1, cert.c2, cert.c3)
                return problems

            system = LinearQuantumSystem(**blocks)
            bounds = SectorBounds(gamma, DELTA1, DELTA2)
            requests.append(Request("call", lambda s=system, b=bounds: call(s, b), check,
                                    tag=f"n{n}"))
    rng.shuffle(requests)
    return requests


# ---------------------------------------------------------------------------
# fock-verify


def fock_verify(rng: np.random.Generator, ctx: Context) -> list[Request]:
    from qstab.cli import RunConfig, SimParams
    from qstab.opa import OpaParams
    from qstab.perturbation import SectorBounds

    requests = []
    for dim in ctx.scale.identity_dims * ctx.scale.identity_rounds:
        p = _opa_draw(rng)
        gamma = float(rng.choice(IDENTITY_GAMMA_FACTORS)) * 2.0 * gate.opa_hinf(p.kappa1, p.kappa2)
        prefix = ctx.prefix()
        config = RunConfig("check-identities", opa_params=p, bounds=SectorBounds(gamma, DELTA1, DELTA2),
                           sim=SimParams(dim=dim), output=prefix)
        check = lambda prefix=prefix: gate.check_identities_file(Path(prefix + ".identities.json"))
        requests.append(Request("identities", lambda c=config: _cli(c),
                                _checked(prefix, check, ".identities.json"), tag=f"dim{dim}"))

    params = OpaParams(SIM_KAPPA, SIM_KAPPA, SIM_CHI)
    bounds = SectorBounds(SIM_GAMMA, DELTA1, DELTA2)
    for dim in SIM_DIMS:
        prefix = ctx.prefix()
        config = RunConfig("simulate", opa_params=params, bounds=bounds, output=prefix,
                           sim=SimParams(dim=dim, t_final=ctx.scale.sim_t_final, alphas=SIM_ALPHAS))

        def check(prefix=prefix, dim=dim) -> list[str]:
            cert_path = Path(prefix + ".certificate.json")
            problems = gate.check_opa_certificate_file(cert_path, SIM_KAPPA, SIM_KAPPA, SIM_GAMMA,
                                                        DELTA1, DELTA2)
            return problems + gate.check_trajectory(Path(prefix + ".trajectory.csv"),
                                                    json.loads(cert_path.read_text()), ctx.reference[str(dim)])

        requests.append(Request("simulate", lambda c=config: _cli(c),
                                _checked(prefix, check, ".trajectory.csv"), tag=f"dim{dim}"))
    rng.shuffle(requests)
    return requests


WORKLOADS = {
    "opa-study": ("certify", opa_study),
    "generic-certify": ("call", generic_certify),
    "fock-verify": ("identities", fock_verify),
}
