#!/usr/bin/env python3
"""Empirical check of a certified mean-square bound.

Certifies the parametric amplifier at the given parameters, integrates the
master equation from a coherent state inside the admissible region, and
reports the worst slack of msq(t) <= c1 exp(-c2 t) msq(0) + c3.

Usage: python scripts/msq_bound_demo.py [--dim 12] [--t-final 10]
"""

import argparse
from pathlib import Path

from qstab import serialize
from qstab.certify import certify
from qstab.focksim import (
    build_algebra,
    check_ms_bound,
    coherent_state,
    coupling_operators,
    lindblad_evolve,
    operator_of_series,
)
from qstab.opa import OpaParams, OpaRegion, build_opa
from qstab.perturbation import SectorBounds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/msq")
    parser.add_argument("--kappa1", type=float, default=1.0)
    parser.add_argument("--kappa2", type=float, default=1.0)
    parser.add_argument("--chi", type=float, default=0.05)
    parser.add_argument("--gamma", type=float, default=8.0)
    parser.add_argument("--delta1", type=float, default=0.1)
    parser.add_argument("--delta2", type=float, default=0.1)
    parser.add_argument("--dim", type=int, default=12)
    parser.add_argument("--t-final", type=float, default=10.0)
    parser.add_argument("--alpha", type=float, default=0.5)
    args = parser.parse_args()

    params = OpaParams(args.kappa1, args.kappa2, args.chi)
    bounds = SectorBounds(gamma=args.gamma, delta1=args.delta1, delta2=args.delta2)
    sys, series = build_opa(params)
    cert = certify(sys, bounds)
    print(f"verdict: {cert.verdict.value}")
    if not cert.certified:
        raise SystemExit(1)
    print(f"constants: c1 = {cert.c1:.6f}, c2 = {cert.c2:.6e}, c3 = {cert.c3:.6e}")

    a2 = args.alpha**2
    inside = OpaRegion(params, bounds).contains(a2, a2)
    print(f"initial (|z1|^2, |z2|^2) = ({a2}, {a2}); inside region: {inside}")

    alg = build_algebra(2, args.dim)
    H = operator_of_series(alg, sys, series)
    L_ops = coupling_operators(alg, sys)
    rho0 = coherent_state(alg, [args.alpha, args.alpha])
    traj = lindblad_evolve(alg, H, L_ops, rho0, args.t_final, 0.01)
    ok, worst = check_ms_bound(traj, cert.c1, cert.c2, cert.c3)
    print(f"msq(0) = {traj.msq[0]:.6f}, msq(t_final) = {traj.msq[-1]:.6f}")
    print(f"bound {'holds' if ok else 'VIOLATED'}; minimum slack {worst:.6e}")

    out = Path(args.out)
    serialize.atomic_write_text(out.with_suffix(".trajectory.csv"), serialize.trajectory_csv(traj))
    print(f"trajectory written to {out.with_suffix('.trajectory.csv')}")
    raise SystemExit(0 if ok else 3)


if __name__ == "__main__":
    main()
