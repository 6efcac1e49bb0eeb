"""Regenerate reference_msq.json, the msq(t) trajectories the gate compares
fock-verify simulate requests against.

    python3 perfbench/make_reference.py

Run it only when the simulated model or its output grid changes on purpose;
the stored file pins the trajectory of the code it was generated from.
"""

import json
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from qstab import focksim  # noqa: E402
from qstab.opa import OpaParams, build_opa  # noqa: E402

import workloads  # noqa: E402


def trajectory(dim: int, t_final: float) -> dict:
    params = OpaParams(workloads.SIM_KAPPA, workloads.SIM_KAPPA, workloads.SIM_CHI)
    system, series = build_opa(params)
    alg = focksim.build_algebra(system.n, dim)
    H = focksim.operator_of_series(alg, system, series)
    L_ops = focksim.coupling_operators(alg, system)
    dt = focksim.default_dt([params.kappa1, params.kappa2], params.chi, dim)
    rho0 = focksim.coherent_state(alg, np.asarray(workloads.SIM_ALPHAS))
    traj = focksim.lindblad_evolve(alg, H, L_ops, rho0, t_final, dt)
    return {"t": traj.times.tolist(), "msq": traj.msq.tolist()}


if __name__ == "__main__":
    doc = {str(dim): trajectory(dim, workloads.FULL.sim_t_final) for dim in workloads.SIM_DIMS}
    (HERE / "reference_msq.json").write_text(json.dumps(doc) + "\n")
