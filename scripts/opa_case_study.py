#!/usr/bin/env python3
"""Worked stability analysis of the optical parametric amplifier.

Sweeps the sector gain through the small-gain threshold, prints the
certificate at a comfortably passing gain, and writes the admissible
amplitude region plus the invariant-ellipsoid level to CSV/JSON.

Usage: python scripts/opa_case_study.py [--out results/opa]
"""

import argparse
import json
from pathlib import Path

import numpy as np

from qstab import serialize
from qstab.certify import certify
from qstab.opa import OpaParams, build_opa, closed_form_hinf, invariant_ellipsoid, lambda_bar, region_curve
from qstab.perturbation import SectorBounds


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="results/opa")
    parser.add_argument("--kappa1", type=float, default=1.0)
    parser.add_argument("--kappa2", type=float, default=2.0)
    parser.add_argument("--chi", type=float, default=0.1)
    args = parser.parse_args()

    params = OpaParams(args.kappa1, args.kappa2, args.chi)
    sys, _ = build_opa(params)

    norm = closed_form_hinf(params)
    threshold = sys.hinf.threshold
    print(f"damping transfer norm     : {norm:.6f}")
    print(f"smallest certifiable gamma: {threshold:.6f} (= 2 * norm)")

    print("\ngamma sweep across the threshold:")
    for gamma in np.linspace(0.8 * threshold, 1.6 * threshold, 9):
        cert = certify(sys, SectorBounds(gamma=float(gamma), delta1=0.1, delta2=0.1))
        extra = f"  c={cert.c:.3e}" if cert.certified else ""
        print(f"  gamma = {gamma:7.4f}  ->  {cert.verdict.value}{extra}")

    bounds = SectorBounds(gamma=1.125 * threshold, delta1=0.1, delta2=0.1)
    cert = certify(sys, bounds)
    print(f"\ncertificate at gamma = {bounds.gamma:.4f}:")
    print(f"  c1 = {cert.c1:.6f}, c2 = {cert.c2:.6e}, c3 = {cert.c3:.6e}")
    print(f"  lambda_tilde = {cert.lambda_tilde:.6e}, lambda = {cert.lam:.6e}")
    # the level belongs to the certificate's own bounds and reads the exact
    # boundary, not the curve's samples
    level = invariant_ellipsoid(cert.P, region_curve(params, bounds, 2)) if cert.certified else None
    if level is not None:
        print(f"  invariant-ellipsoid level: {level:.6e}")

    region_bounds = SectorBounds(gamma=4.0 / params.kappa1, delta1=0.0, delta2=0.04)
    curve = region_curve(params, region_bounds, 400)
    lb = lambda_bar(params, region_bounds)
    print(f"\nadmissible region at gamma = {region_bounds.gamma:.4f}:")
    print(f"  |z2|^2 ceiling        : {curve.cap2:.6f}")
    print(f"  right endpoint |z1|^2 : {lb.root:.6f} (caption reading {lb.caption:.6f})")

    out = Path(args.out)
    serialize.atomic_write_text(out.with_suffix(".region.csv"), serialize.region_csv(curve))
    doc = serialize.certificate_to_json(cert)
    if level is not None:
        doc["invariant_level"] = level
    serialize.atomic_write_text(out.with_suffix(".certificate.json"), json.dumps(doc, indent=2) + "\n")
    print(f"\nartifacts written under {out}.*")


if __name__ == "__main__":
    main()
