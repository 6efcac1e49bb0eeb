"""Command-line front end.

Subcommands: validate, certify, opa-region, simulate, sweep,
check-identities.  A single JSON config document can supply everything;
command-line flags override config fields.  Artifacts are written atomically
under the --out prefix.

Exit codes: 0 success / certified / all checks pass; 1 drift matrix not
Hurwitz; 2 small-gain condition failed; 3 a numerical check failed
(validation report nonempty, identity residual too large, or the simulated
mean-square bound violated); 64 config error, including a Fock truncation
too small for the request; 66 unreadable input or unwritable output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import focksim, opa, serialize
from .certify import Verdict
from .certify import certify as run_certify
from .errors import NotHurwitzError, QstabError, StructureError, TruncationError
from .model import LinearQuantumSystem, validate_system
from .perturbation import PerturbationSeries, SectorBounds, scan_sector_region
from .serialize import json_number

__all__ = ["RunConfig", "SimParams", "SweepSpec", "run", "main"]

EXIT_OK = 0
EXIT_HURWITZ = 1
EXIT_SMALL_GAIN = 2
EXIT_CHECK_FAILED = 3
EXIT_CONFIG = 64
EXIT_IO = 66

IDENTITY_TOL = 1e-10


@dataclass(frozen=True)
class SimParams:
    # dim defaults per command: 12 for simulate, 6 for check-identities
    dim: int | None = None
    dt: float | None = None
    t_final: float | None = None
    alphas: tuple[complex, ...] = (0.5, 0.5)


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
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--system", type=str, default=None, help="system JSON path")
        cmd.add_argument("--series", type=str, default=None, help="series JSON path")
        cmd.add_argument("--kappa1", type=float, default=None)
        cmd.add_argument("--kappa2", type=float, default=None)
        cmd.add_argument("--chi", type=float, default=None)
        cmd.add_argument("--gamma", type=float, default=None)
        cmd.add_argument("--delta1", type=float, default=None)
        cmd.add_argument("--delta2", type=float, default=None)
        cmd.add_argument("--dim", type=int, default=None)
        cmd.add_argument("--dt", type=float, default=None)
        cmd.add_argument("--t-final", type=float, default=None)
        cmd.add_argument("--alpha1", type=float, default=None)
        cmd.add_argument("--alpha2", type=float, default=None)
        cmd.add_argument("--grid", type=int, default=None)
        cmd.add_argument("--out", type=str, default=None)
        cmd.add_argument("--eps", type=float, default=None)
        cmd.add_argument("--parameter", type=str, default=None, help="sweep parameter")
        cmd.add_argument("--start", type=float, default=None)
        cmd.add_argument("--stop", type=float, default=None)
        cmd.add_argument("--steps", type=int, default=None)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FileNotFoundError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StructureError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise StructureError("config document must be a JSON object")
    return doc


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
    doc = _load_config_file(args.config) if args.config else {}
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
    if args.alpha1 is not None or args.alpha2 is not None:
        alphas = [args.alpha1 if args.alpha1 is not None else 0.5,
                  args.alpha2 if args.alpha2 is not None else 0.5]
    if alphas is None:
        alphas = [0.5, 0.5]
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


def _load_json(path: str, what: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileNotFoundError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise StructureError(f"{what} file is not valid JSON: {exc}") from exc


def _load_system(config: RunConfig) -> tuple[LinearQuantumSystem, PerturbationSeries | None]:
    if config.opa_params is not None:
        system, series = opa.build_opa(config.opa_params)
    elif config.system_path is not None:
        system = serialize.system_from_json(_load_json(config.system_path, "system"))
        series = None
    else:
        raise StructureError("no system given: pass OPA parameters or --system")
    if config.series_path is not None:
        series = serialize.series_from_json(_load_json(config.series_path, "series"))
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


def _certificate_with_level(
    config: RunConfig, system: LinearQuantumSystem, bounds: SectorBounds
):
    cert = run_certify(system, bounds, eps=config.eps)
    if cert.certified and config.opa_params is not None:
        # the level reads the exact boundary, not the curve's samples
        curve = opa.region_curve(config.opa_params, bounds, 2)
        cert = replace(cert, invariant_level=opa.invariant_ellipsoid(cert.P, curve))
    return cert


def _cmd_certify(config: RunConfig) -> int:
    bounds = _require_bounds(config)
    system, _ = _load_system(config)
    cert = _certificate_with_level(config, system, bounds)
    _write_json(config, ".certificate.json", serialize.certificate_to_json(cert))
    print(f"verdict: {cert.verdict.value}")
    return _verdict_exit(cert.verdict)


def _cmd_opa_region(config: RunConfig) -> int:
    if config.opa_params is None:
        raise StructureError("opa-region needs OPA parameters")
    bounds = _require_bounds(config)
    curve = opa.region_curve(config.opa_params, bounds, config.grid)
    lb = opa.lambda_bar(config.opa_params, bounds)
    _write_text(config, ".region.csv", serialize.region_csv(curve))
    if _out_path(config, "") is not None:
        # phase-sampled admissibility mask on the same extent as the curve
        _, series = opa.build_opa(config.opa_params)
        n_cells = min(config.grid, 100)
        grids = [
            np.linspace(0.0, curve.lambda_bar * 1.05, n_cells),
            np.linspace(0.0, max(curve.cap2, 1e-12) * 1.2, n_cells),
        ]
        mask, m1, m2 = scan_sector_region(series, bounds, grids)
        _write_text(config, ".scan.csv", serialize.scan_csv(grids, mask, m1, m2))
    report = {
        "lambda_bar_caption": lb.caption,
        "lambda_bar_root": lb.root,
        "caption_discrepancy": lb.discrepancy,
        "z2_ceiling": curve.cap2,
    }
    _write_json(config, ".region.json", report)
    print(
        f"right endpoint |z1|^2 = {lb.root!r} (caption formula {lb.caption!r}, "
        f"discrepancy {lb.discrepancy!r}); |z2|^2 ceiling {curve.cap2!r}"
    )
    return EXIT_OK


def _cmd_simulate(config: RunConfig) -> int:
    bounds = _require_bounds(config)
    system, series = _load_system(config)
    if series is None:
        raise StructureError("simulate needs a perturbation series (OPA or --series)")
    cert = _certificate_with_level(config, system, bounds)
    _write_json(config, ".certificate.json", serialize.certificate_to_json(cert))
    if not cert.certified:
        print(f"verdict: {cert.verdict.value}; not simulating")
        return _verdict_exit(cert.verdict)

    sim = config.sim
    dim = sim.dim if sim.dim is not None else 12
    alg = focksim.build_algebra(system.n, dim)
    H = focksim.operator_of_series(alg, system, series)
    H += 0.5 * focksim.quadratic_form(alg, system.M)
    L_ops = focksim.coupling_operators(alg, system)
    kappas = [float(np.max(np.abs(system.N1))) ** 2, 1.0]
    if config.opa_params is not None:
        kappas = [config.opa_params.kappa1, config.opa_params.kappa2]
        chi = config.opa_params.chi
    else:
        chi = max((abs(c) for c in series.coeffs.values()), default=0.0)
    dt = sim.dt if sim.dt is not None else focksim.default_dt(kappas, chi, dim)
    t_final = sim.t_final if sim.t_final is not None else 10.0 / min(kappas)
    rho0 = focksim.coherent_state(alg, np.asarray(sim.alphas))
    traj = focksim.lindblad_evolve(alg, H, L_ops, rho0, t_final, dt)
    ok, worst = focksim.check_ms_bound(traj, cert.c1, cert.c2, cert.c3)
    _write_text(config, ".trajectory.csv", serialize.trajectory_csv(traj))
    print(f"mean-square bound {'holds' if ok else 'VIOLATED'}; min slack {worst!r}")
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def _cmd_sweep(config: RunConfig) -> int:
    if config.sweep is None:
        raise StructureError("sweep needs --parameter/--start/--stop/--steps")
    if config.opa_params is None:
        raise StructureError("sweep operates on the OPA model; give its parameters")
    bounds = _require_bounds(config)
    sweep, params, name = config.sweep, config.opa_params, config.sweep.parameter
    values = [float(v) for v in np.linspace(sweep.start, sweep.stop, sweep.steps)]
    # points are made as the sweep reaches them, so a bad value raises there
    if name in ("gamma", "delta1", "delta2"):
        system, _ = opa.build_opa(params)  # shared, so its norms are computed once
        points = ((system, replace(bounds, **{name: v})) for v in values)
    elif name in ("kappa1", "kappa2", "chi"):
        points = ((opa.build_opa(replace(params, **{name: v}))[0], bounds) for v in values)
    else:
        raise StructureError(f"unknown sweep parameter {name!r}")
    certs = [run_certify(s, b, eps=config.eps) for s, b in points]
    lines = [f"{name},verdict,hinf_reduced,c1,c2,c3"]
    for value, cert in zip(values, certs):
        consts = ",".join("" if c is None else repr(c) for c in (cert.c1, cert.c2, cert.c3))
        hinf = "" if not np.isfinite(cert.hinf_reduced) else repr(cert.hinf_reduced)
        lines.append(f"{value!r},{cert.verdict.value},{hinf},{consts}")
    _write_text(config, ".sweep.csv", "\n".join(lines) + "\n")
    print(f"certified {sum(cert.certified for cert in certs)}/{len(certs)} points")
    return EXIT_OK


def _cmd_check_identities(config: RunConfig) -> int:
    system, series = _load_system(config)
    if series is None:
        raise StructureError("check-identities needs a perturbation series")
    dim = config.sim.dim if config.sim.dim is not None else 6
    alg = focksim.build_algebra(system.n, dim)
    if config.bounds is not None:
        cert = run_certify(system, config.bounds, eps=config.eps)
        if not cert.certified:
            print(f"verdict: {cert.verdict.value}; using identity Lyapunov matrix")
            P = np.eye(2 * system.n, dtype=complex)
        else:
            P = cert.P
    else:
        P = np.eye(2 * system.n, dtype=complex)
    residuals = focksim.check_commutator_identities(alg, system, series, P)
    _write_json(config, ".identities.json", residuals)
    worst = max(residuals.values())
    for name, value in residuals.items():
        print(f"{name}: {value:.3e}")
    return EXIT_OK if worst <= IDENTITY_TOL else EXIT_CHECK_FAILED


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
