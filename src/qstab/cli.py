"""Command-line front end.

Subcommands: validate, certify, opa-region, simulate, sweep,
check-identities.  A single JSON config document can supply everything;
command-line flags override config fields.  Artifacts are written atomically
under the --out prefix.  A sweep over gamma, delta1 or delta2 certifies
all its points in one stacked call (``certify_sweep``); a sweep over
kappa1 or kappa2 builds and certifies a system per point, and a sweep over
chi, which changes only the series, certifies the run's one system.

Exit codes: 0 success / certified / all checks pass; 1 drift matrix not
Hurwitz; 2 small-gain condition failed; 3 a numerical check failed
(validation report nonempty, identity residual too large, the simulated
mean-square bound violated, or the region's phase scan disagreeing with its
closed form); 64 config error, including a Fock truncation too small for the
request; 66 unreadable input or unwritable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import opa, serialize
from .certify import Verdict, certify_sweep
from .certify import certify as run_certify
from .errors import NotHurwitzError, QstabError, StructureError, TruncationError
from .model import LinearQuantumSystem, validate_system
from .perturbation import (
    PerturbationSeries,
    SectorBounds,
    scan_sector_region,
    validate_selfadjoint,
)
from .serialize import json_number

__all__ = ["RunConfig", "SimParams", "SweepSpec", "run", "main"]

EXIT_OK = 0
EXIT_HURWITZ = 1
EXIT_SMALL_GAIN = 2
EXIT_CHECK_FAILED = 3
EXIT_CONFIG = 64
EXIT_IO = 66

IDENTITY_TOL = 1e-10
SAMPLE_SPACING = 0.01  # simulate's default dt; the integrator picks its own RK4 step


@dataclass(frozen=True)
class SimParams:
    # dim defaults per command: 12 for simulate, 6 for check-identities
    dim: int | None = None
    dt: float | None = None
    t_final: float | None = None
    alphas: tuple[complex, ...] = (0.5, 0.5)

    def __post_init__(self):
        for name in ("dt", "t_final"):
            value = getattr(self, name)
            if value is not None and not 0 < value < np.inf:
                raise StructureError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class SweepSpec:
    parameter: str
    start: float
    stop: float
    steps: int

    def __post_init__(self):
        if self.steps < 1:
            raise StructureError(f"sweep needs at least one step, got {self.steps}")


@dataclass(frozen=True)
class RunConfig:
    command: str
    opa_params: opa.OpaParams | None = None
    system_path: str | None = None
    series_path: str | None = None
    bounds: SectorBounds | None = None
    sim: SimParams = field(default_factory=SimParams)
    sweep: SweepSpec | None = None
    output: str | None = None
    grid: int = 200
    eps: float | None = None


# ---------------------------------------------------------------------------
# Config assembly


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="qstab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "validate": "check the block symmetries of a system description",
        "certify": "run the stability certification pipeline",
        "opa-region": "emit the admissible amplitude region of the OPA",
        "simulate": "integrate the master equation and test the bound",
        "sweep": "certify across a parameter range",
        "check-identities": "verify the operator identities on a truncated space",
    }
    for name, help_text in commands.items():
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config")
        cmd.add_argument("--system", help="system JSON path")
        cmd.add_argument("--series", help="series JSON path")
        cmd.add_argument("--out")
        cmd.add_argument("--parameter", help="sweep parameter")
        for flag in ("--kappa1", "--kappa2", "--chi", "--gamma", "--delta1", "--delta2", "--dt",
                     "--t-final", "--alpha1", "--alpha2", "--eps", "--start", "--stop"):
            cmd.add_argument(flag, type=float)
        for flag in ("--dim", "--grid", "--steps"):
            cmd.add_argument(flag, type=int)
    return parser


def _load_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {what} {path}: {exc}") from exc
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise StructureError(f"{what} {path} is not valid JSON: {exc}") from exc


def _pick(flag, doc: dict, key: str, default=None):
    if flag is not None:
        return flag
    return doc.get(key, default)


def _optional(value, kind=float):
    """None for an absent field, else its JSON number."""
    return None if value is None else json_number(value, kind)


def _path(value, what: str) -> str | None:
    if value is not None and not isinstance(value, str):
        raise StructureError(f"{what} must be a path string, got {json.dumps(value)}")
    return value


def _section(doc: dict, key: str) -> dict:
    section = doc.get(key, {})
    if not isinstance(section, dict):
        raise StructureError(f"config section {key!r} must be a JSON object")
    return section


def _assemble_config(args: argparse.Namespace) -> RunConfig:
    doc = _load_json(args.config, "config") if args.config else {}
    if not isinstance(doc, dict):
        raise StructureError("config document must be a JSON object")
    system_doc = _section(doc, "system")
    opa_doc = _section(system_doc, "opa")
    kappa1 = _pick(args.kappa1, opa_doc, "kappa1")
    kappa2 = _pick(args.kappa2, opa_doc, "kappa2")
    chi = _pick(args.chi, opa_doc, "chi")
    opa_params = None
    if kappa1 is not None or kappa2 is not None or chi is not None:
        if None in (kappa1, kappa2, chi):
            raise StructureError("OPA parameters need kappa1, kappa2 and chi")
        opa_params = opa.OpaParams(*map(json_number, (kappa1, kappa2, chi)))
    system_path = _path(args.system or system_doc.get("path"), "system path")
    series_path = _path(args.series or _section(doc, "series").get("path"), "series path")

    bounds_doc = _section(doc, "bounds")
    gamma = _pick(args.gamma, bounds_doc, "gamma")
    bounds = None
    if gamma is not None:
        bounds = SectorBounds(
            gamma=json_number(gamma),
            delta1=json_number(_pick(args.delta1, bounds_doc, "delta1", 0.0)),
            delta2=json_number(_pick(args.delta2, bounds_doc, "delta2", 0.0)),
        )

    sim_doc = _section(doc, "sim")
    alphas = sim_doc.get("alpha")
    alphas = [0.5, 0.5] if alphas is None else list(alphas)
    # a flag replaces its own entry; the other comes from the config, or is 0.5
    for i, flag in enumerate((args.alpha1, args.alpha2)):
        if flag is not None:
            alphas += [0.5] * (2 - len(alphas))
            alphas[i] = flag
    parsed_alphas = tuple(
        serialize.pair_to_complex(a) if isinstance(a, (list, tuple)) else json_number(a, complex)
        for a in alphas
    )
    sim = SimParams(
        dim=_optional(_pick(args.dim, sim_doc, "dim"), int),
        dt=_optional(_pick(args.dt, sim_doc, "dt")),
        t_final=_optional(_pick(args.t_final, sim_doc, "t_final")),
        alphas=parsed_alphas,
    )

    sweep_doc = _section(doc, "sweep")
    parameter = _pick(args.parameter, sweep_doc, "parameter")
    sweep = None
    if parameter is not None:
        start = _pick(args.start, sweep_doc, "start")
        stop = _pick(args.stop, sweep_doc, "stop")
        steps = _pick(args.steps, sweep_doc, "steps")
        if None in (start, stop, steps):
            raise StructureError("sweep needs parameter, start, stop and steps")
        sweep = SweepSpec(
            str(parameter), json_number(start), json_number(stop), json_number(steps, int)
        )

    return RunConfig(
        command=args.command,
        opa_params=opa_params,
        system_path=system_path,
        series_path=series_path,
        bounds=bounds,
        sim=sim,
        sweep=sweep,
        output=_path(args.out or doc.get("output"), "output"),
        grid=json_number(_pick(args.grid, doc, "grid", 200), int),
        eps=_optional(_pick(args.eps, doc, "eps")),
    )


def _load_system(config: RunConfig) -> tuple[LinearQuantumSystem, PerturbationSeries | None]:
    """The run's one system, from OPA parameters or --system, and its series;
    a --series file overrides the OPA's and must be self-adjoint."""
    if (config.opa_params is None) == (config.system_path is None):
        raise StructureError("give exactly one system: OPA parameters or --system")
    if config.opa_params is not None:
        system, series = opa.build_opa(config.opa_params)
    else:
        system, series = serialize.system_from_json(_load_json(config.system_path, "system")), None
    if config.series_path is not None:
        series = serialize.series_from_json(_load_json(config.series_path, "series"))
        violations = validate_selfadjoint(series)
        if violations:
            pairs = "; ".join(
                f"S[{i},{j},{k},{l}] != conj(S[{j},{i},{l},{k}])"
                for (i, j, k, l), _ in violations
            )
            raise StructureError(f"series is not self-adjoint: {pairs}")
    return system, series


def _load_perturbed(config: RunConfig) -> tuple[LinearQuantumSystem, PerturbationSeries]:
    """System and series of a Fock-space command, which needs a series."""
    system, series = _load_system(config)
    if series is None:
        raise StructureError(f"{config.command} needs a perturbation series (OPA or --series)")
    return system, series


def _require_bounds(config: RunConfig) -> SectorBounds:
    if config.bounds is None:
        raise StructureError("this command needs sector bounds (--gamma at least)")
    return config.bounds


def _out_path(config: RunConfig, suffix: str) -> Path | None:
    if config.output is None:
        return None
    return Path(config.output + suffix)


def _write_json(config: RunConfig, suffix: str, doc: dict) -> None:
    path = _out_path(config, suffix)
    if path is not None:
        serialize.dump_json(doc, path)


def _write_text(config: RunConfig, suffix: str, text: str) -> None:
    path = _out_path(config, suffix)
    if path is not None:
        serialize.atomic_write_text(path, text)


# ---------------------------------------------------------------------------
# Command implementations


def _cmd_validate(config: RunConfig) -> int:
    system, _ = _load_system(config)
    report = validate_system(system)
    doc = [
        {"matrix": v.matrix, "kind": v.kind, "residual": v.residual} for v in report
    ]
    _write_json(config, ".validation.json", {"violations": doc})
    for violation in report:
        print(str(violation), file=sys.stderr)
    return EXIT_OK if not report else EXIT_CHECK_FAILED


def _verdict_exit(verdict: Verdict) -> int:
    return {
        Verdict.CERTIFIED: EXIT_OK,
        Verdict.FAILED_HURWITZ: EXIT_HURWITZ,
        Verdict.FAILED_SMALL_GAIN: EXIT_SMALL_GAIN,
    }[verdict]


def _cmd_certify(config: RunConfig) -> int:
    bounds = _require_bounds(config)
    system, series = _load_system(config)
    cert = run_certify(system, bounds, eps=config.eps, series=series)
    _write_json(config, ".certificate.json", serialize.certificate_to_json(cert))
    print(f"verdict: {cert.verdict.value}")
    return _verdict_exit(cert.verdict)


def _cmd_opa_region(config: RunConfig) -> int:
    bounds = _require_bounds(config)
    system, series = _load_system(config)
    region = opa.opa_region(system, series, bounds)
    if region is None:
        raise StructureError("opa-region needs the OPA's system and series")
    lb, ceiling = region.lambda_bar, region.ceiling
    rows = opa.region_curve(region, config.grid)
    _write_text(config, ".region.csv", serialize.region_csv(rows))
    # phase-sampled admissibility mask on the same extent as the curve: a check
    n_cells = min(config.grid, 100)
    grids = [
        np.linspace(0.0, lb.root * 1.05, n_cells),
        np.linspace(0.0, max(ceiling, 1e-12) * 1.2, n_cells),
    ]
    mask, m1, m2 = scan_sector_region(series, bounds, grids)
    _write_text(config, ".scan.csv", serialize.scan_csv(grids, mask))
    disagreements, worst = opa.scan_disagreements(region, grids, mask, m1, m2)
    report = {
        "lambda_bar_caption": lb.caption,
        "lambda_bar_root": lb.root,
        "caption_discrepancy": lb.discrepancy,
        "z2_ceiling": ceiling,
        "scan_disagreements": disagreements,
        "scan_worst_margin": worst,
    }
    _write_json(config, ".region.json", report)
    print(
        f"right endpoint |z1|^2 = {lb.root!r} (caption formula {lb.caption!r}, "
        f"discrepancy {lb.discrepancy!r}); |z2|^2 ceiling {ceiling!r}"
    )
    if disagreements:
        msg = f"the phase scan disagrees with the closed-form region on {disagreements} of"
        print(f"{msg} {mask.size} cells", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def _cmd_simulate(config: RunConfig) -> int:
    bounds = _require_bounds(config)
    system, series = _load_perturbed(config)
    from . import focksim
    sim = config.sim
    # the Fock-space inputs are checked before the certificate is written
    dim = sim.dim if sim.dim is not None else 12
    alg = focksim.build_algebra(system.n, dim)
    H = focksim.operator_of_series(alg, system, series)
    H += 0.5 * focksim.quadratic_form(alg, system.M)
    L_ops = focksim.coupling_operators(alg, system)
    rho0 = focksim.coherent_state(alg, np.asarray(sim.alphas))
    cert = run_certify(system, bounds, eps=config.eps, series=series)
    _write_json(config, ".certificate.json", serialize.certificate_to_json(cert))
    if not cert.certified:
        print(f"verdict: {cert.verdict.value}; not simulating")
        return _verdict_exit(cert.verdict)

    dt = sim.dt if sim.dt is not None else SAMPLE_SPACING
    # five decay times of the slowest mode: 10 / min kappa for the OPA
    t_final = sim.t_final if sim.t_final is not None else -5.0 / system.abscissa
    traj = focksim.lindblad_evolve(alg, H, L_ops, rho0, t_final, dt)
    ok, worst = focksim.check_ms_bound(traj, cert.c1, cert.c2, cert.c3)
    _write_text(config, ".trajectory.csv", serialize.trajectory_csv(traj))
    print(f"mean-square bound {'holds' if ok else 'VIOLATED'}; min slack {worst!r}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_sweep(config: RunConfig) -> int:
    if config.sweep is None:
        raise StructureError("sweep needs --parameter/--start/--stop/--steps")
    bounds = _require_bounds(config)
    system, _ = _load_system(config)
    sweep, params, name = config.sweep, config.opa_params, config.sweep.parameter
    values = [float(v) for v in np.linspace(sweep.start, sweep.stop, sweep.steps)]
    if name in ("gamma", "delta1", "delta2"):
        # one system, certified at every point in one stacked pass
        points = [SectorBounds(**{**vars(bounds), name: v}) for v in values]
        certs = certify_sweep(system, points, config.eps)
    elif name in ("kappa1", "kappa2", "chi"):
        if params is None:
            raise StructureError(f"a {name} sweep builds an OPA per point; give its parameters")
        # every point's parameters are checked before any is certified
        points = [replace(params, **{name: v}) for v in values]
        if name == "chi":
            # chi enters only the series, which the sweep does not certify
            # with: every point has the run's system and its certificate
            certs = [run_certify(system, bounds, eps=config.eps)] * len(points)
        else:
            certs = [run_certify(opa.build_opa(p)[0], bounds, eps=config.eps) for p in points]
    else:
        raise StructureError(f"unknown sweep parameter {name!r}")
    lines = [f"{name},verdict,hinf_reduced,c1,c2,c3"]
    for value, cert in zip(values, certs):
        consts = ",".join("" if c is None else repr(c) for c in (cert.c1, cert.c2, cert.c3))
        hinf = "" if not np.isfinite(cert.hinf_reduced) else repr(cert.hinf_reduced)
        lines.append(f"{value!r},{cert.verdict.value},{hinf},{consts}")
    _write_text(config, ".sweep.csv", "\n".join(lines) + "\n")
    print(f"certified {sum(cert.certified for cert in certs)}/{len(certs)} points")
    return EXIT_OK


def _cmd_check_identities(config: RunConfig) -> int:
    from . import focksim
    system, series = _load_perturbed(config)
    dim = config.sim.dim if config.sim.dim is not None else 6
    alg = focksim.build_algebra(system.n, dim)
    P = np.eye(2 * system.n, dtype=complex)
    if config.bounds is not None:
        cert = run_certify(system, config.bounds, eps=config.eps)
        if cert.certified:
            P = cert.P
        else:
            print(f"verdict: {cert.verdict.value}; using identity Lyapunov matrix")
    residuals = focksim.check_commutator_identities(alg, system, series, P)
    _write_json(config, ".identities.json", residuals)
    for name, value in residuals.items():
        print(f"{name}: {value:.3e}")
    # every residual must pass; a NaN one does not
    return EXIT_OK if all(v <= IDENTITY_TOL for v in residuals.values()) else EXIT_CHECK_FAILED


_COMMANDS = {
    "validate": _cmd_validate,
    "certify": _cmd_certify,
    "opa-region": _cmd_opa_region,
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "check-identities": _cmd_check_identities,
}


def run(config: RunConfig) -> int:
    """Execute a command described by a RunConfig; returns the exit code."""
    try:
        return _COMMANDS[config.command](config)
    except KeyError:
        print(f"unknown command {config.command!r}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NotHurwitzError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_HURWITZ
    except (StructureError, TruncationError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    except QstabError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CHECK_FAILED


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _assemble_config(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except FileNotFoundError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_IO
    except (StructureError, ValueError, TypeError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_CONFIG
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
