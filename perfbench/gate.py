"""Correctness gate: independent checks of every output the benchmark gets back.

Each check returns a list of problems; an empty list means the output is
right.  The checks rebuild what they need from the system blocks with plain
numpy and parse the artifacts without the package's own readers, so a bug
in the package cannot vouch for itself.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

HINF_RTOL = 1e-6  # closed-form OPA norm agreement, as in acceptance criterion 1
CONST_RTOL = 1e-8  # recomputed certificate constants, as in criterion 4
IDENTITY_TOL = 1e-10
# An exact propagator on the same output grid differs from the stored RK4
# trajectory by ~1e-14; truncation and step-size changes show far above this.
MSQ_RTOL = 1e-6


def signature(n: int) -> np.ndarray:
    return np.diag(np.r_[np.ones(n), -np.ones(n)])


def _swap(n: int) -> np.ndarray:
    eye, zero = np.eye(n), np.zeros((n, n))
    return np.block([[zero, eye], [eye, zero]])


def drift_and_channels(blocks: dict) -> tuple[np.ndarray, np.ndarray]:
    """(F, Etilde) of the doubled-up system, from the six defining blocks."""
    M1, M2, N1, N2, E1, E2 = (
        np.asarray(blocks[k], dtype=complex) for k in ("M1", "M2", "N1", "N2", "E1", "E2")
    )
    n, m = M1.shape[0], N1.shape[0]
    M = np.block([[M1, M2], [M2.conj(), M1.conj()]])
    N = np.block([[N1, N2], [N2.conj(), N1.conj()]])
    J, Jm = signature(n), signature(m)
    F = -1j * J @ M - 0.5 * J @ N.conj().T @ Jm @ N
    return F, np.hstack([E1, E2])


def opa_blocks(kappa1: float, kappa2: float) -> dict:
    zero = np.zeros((2, 2))
    return {
        "M1": zero, "M2": zero, "N1": np.diag([math.sqrt(kappa1), math.sqrt(kappa2)]),
        "N2": zero, "E1": zero, "E2": np.eye(2),
    }


def certificate_lambda(blocks: dict, P: np.ndarray, delta1: float, delta2: float) -> float:
    """lam = lambda_tilde + delta1 + sum |mu_i|^2 / 4 + delta2, from the blocks and P.

    lambda_tilde = Re tr(R J P J R'), R = [N1 N2] the first block row of N.
    mu_i = 2 u_i P Sigma u_i^T with u_i = Etilde_i J: the double commutator
    Etilde_i J Sigma (P^T + Sigma P Sigma) J Etilde_i^T, with the transposed
    term folded into the other (a scalar equals its transpose).
    """
    N1, N2, E1, E2 = (np.asarray(blocks[k], dtype=complex) for k in ("N1", "N2", "E1", "E2"))
    n = N1.shape[1]
    J = signature(n)
    R = np.hstack([N1, N2])
    lambda_tilde = float(np.real(np.trace(R @ J @ P @ J @ R.conj().T)))
    U = np.hstack([E1, E2]) @ J
    mu = 2.0 * np.einsum("ia,ab,ib->i", U, P @ _swap(n), U)
    return lambda_tilde + delta1 + float(np.sum(np.abs(mu) ** 2)) / 4.0 + delta2


def check_certificate(blocks: dict, gamma: float, delta1: float, delta2: float,
                      P, lam: float, c: float, c1: float, c2: float, c3: float) -> list[str]:
    """P > 0, QMI left-hand side < 0, and lam, c, c1, c3 recomputed from P (Cholesky)."""
    P = np.asarray(P, dtype=complex)
    F, Et = drift_and_channels(blocks)
    n = F.shape[0] // 2
    S, J = _swap(n), signature(n)
    W = S @ Et.T @ Et.conj() @ S
    lhs = F.conj().T @ P + P @ F + 4.0 * P @ J @ W @ J @ P + W / gamma**2
    problems = []
    if np.max(np.abs(P - P.conj().T)) > 1e-10 * (1.0 + np.max(np.abs(P))):
        problems.append("P is not Hermitian")
        return problems
    eigs = np.linalg.eigvalsh(P)
    if not eigs[0] > 0:
        problems.append(f"P not positive definite (min eig {eigs[0]:.3e})")
        return problems
    lhs = 0.5 * (lhs + lhs.conj().T)
    lhs_max = float(np.max(np.linalg.eigvalsh(lhs)))
    if not lhs_max < 0:
        problems.append(f"QMI left-hand side not negative definite (max eig {lhs_max:.3e})")
    L = np.linalg.cholesky(P)
    inner = np.linalg.solve(L, lhs)
    inner = np.linalg.solve(L, inner.conj().T).conj().T
    c_ref = float(np.min(np.linalg.eigvalsh(-0.5 * (inner + inner.conj().T))))
    c1_ref = float(eigs[-1] / eigs[0])
    lam_ref = certificate_lambda(blocks, P, delta1, delta2)
    c3_ref = lam_ref / (c_ref * float(eigs[0]))
    for name, got, want in (("lambda", lam, lam_ref), ("c", c, c_ref), ("c1", c1, c1_ref), ("c2", c2, c_ref),
                            ("c3", c3, c3_ref)):
        if got is None or not abs(got - want) <= CONST_RTOL * (1.0 + abs(want)):
            problems.append(f"{name} = {got!r}, recomputed {want!r}")
    return problems


def _rows(path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _matrix(pairs) -> np.ndarray:
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def opa_hinf(kappa1: float, kappa2: float) -> float:
    return max(2.0 / kappa1, 2.0 / kappa2)


def expected_opa_verdict(kappa1: float, kappa2: float, gamma: float) -> str | None:
    """Closed-form small-gain verdict; None inside the norm tolerance band."""
    hinf = opa_hinf(kappa1, kappa2)
    if abs(gamma / 2.0 - hinf) <= HINF_RTOL * hinf:
        return None
    return "Certified" if hinf < gamma / 2.0 else "FailedSmallGain"


def check_opa_answer(kappa1, kappa2, gamma, verdict, hinf_reduced) -> list[str]:
    problems = []
    want = expected_opa_verdict(kappa1, kappa2, gamma)
    if want is not None and verdict != want:
        problems.append(f"OPA verdict {verdict} at gamma {gamma!r}, closed form says {want}")
    hinf = opa_hinf(kappa1, kappa2)
    if hinf_reduced is None or not abs(hinf_reduced - hinf) <= HINF_RTOL * hinf:
        problems.append(f"OPA hinf_reduced {hinf_reduced!r}, closed form {hinf!r}")
    return problems


def check_opa_certificate_file(path: Path, kappa1, kappa2, gamma, delta1, delta2) -> list[str]:
    doc = json.loads(path.read_text())
    problems = check_opa_answer(kappa1, kappa2, gamma, doc["verdict"], doc["hinf_reduced"])
    if doc["verdict"] == "Certified":
        problems += check_certificate(opa_blocks(kappa1, kappa2), gamma, delta1, delta2, _matrix(doc["P"]),
                                      doc["lambda"], doc["c"], doc["c1"], doc["c2"], doc["c3"])
        level = doc.get("invariant_level")
        if level is None or not level > 0:
            problems.append(f"invariant level {level!r} is not positive")
    return problems


def check_sweep_csv(path: Path, kappa1, kappa2, n_points: int) -> list[str]:
    rows = _rows(path)
    problems = [] if len(rows) == n_points else [f"sweep has {len(rows)} rows, expected {n_points}"]
    for row in rows:
        gamma = float(row["gamma"])
        hinf = float(row["hinf_reduced"]) if row["hinf_reduced"] else None
        problems += check_opa_answer(kappa1, kappa2, gamma, row["verdict"], hinf)
        if row["verdict"] == "Certified" and not all(row[k] and float(row[k]) > 0 for k in ("c1", "c2", "c3")):
            problems.append(f"certified sweep point {gamma!r} lacks positive constants")
    return problems


def check_region(prefix: str, chi, gamma, delta1, delta2, grid: int) -> list[str]:
    doc = json.loads(Path(prefix + ".region.json").read_text())
    half = 1.0 / (2.0 * gamma**2 * chi**2)
    root = half + math.sqrt(half**2 + delta1 / chi**2)
    ceiling = delta2 / (4.0 * chi**2)
    problems = []
    if not abs(doc["lambda_bar_root"] - root) <= 1e-12 * root:
        problems.append(f"lambda_bar root {doc['lambda_bar_root']!r}, expected {root!r}")
    if not abs(doc["z2_ceiling"] - ceiling) <= 1e-12 * ceiling:
        problems.append(f"z2 ceiling {doc['z2_ceiling']!r}, expected {ceiling!r}")
    rows = _rows(prefix + ".region.csv")
    if len(rows) != grid:
        problems.append(f"region curve has {len(rows)} samples, expected {grid}")
    elif any(not 0.0 <= float(r["z2sq_cap"]) <= ceiling * (1 + 1e-12) for r in rows):
        problems.append("region curve leaves [0, ceiling]")
    n_cells = min(grid, 100)
    with open(prefix + ".scan.csv") as handle:
        scan_rows = sum(1 for _ in handle) - 1
    if scan_rows != n_cells**2:
        problems.append(f"scan has {scan_rows} cells, expected {n_cells ** 2}")
    return problems


def check_identities_file(path: Path) -> list[str]:
    residuals = json.loads(path.read_text())
    if len(residuals) != 5:
        return [f"expected 5 identity residuals, got {len(residuals)}"]
    return [f"identity {k} residual {v:.3e}" for k, v in residuals.items() if not v <= IDENTITY_TOL]


def check_trajectory(path: Path, cert: dict, reference: dict) -> list[str]:
    """Bound holds at every sample and msq(t) matches the stored reference."""
    rows = _rows(path)
    t = np.array([float(r["t"]) for r in rows])
    msq = np.array([float(r["msq"]) for r in rows])
    slack = np.array([float(r["slack"]) for r in rows])
    problems = []
    if np.any(slack < 0):
        problems.append(f"simulated bound violated (min slack {slack.min():.3e})")
    bound = cert["c1"] * np.exp(-cert["c2"] * t) * msq[0] + cert["c3"]
    if np.any(msq > bound + 1e-6 * (1.0 + cert["c3"])):
        problems.append("msq exceeds the certified bound recomputed from the certificate")
    # Any output grid made of reference times passes, so a coarser record
    # stride is not an error; a time off the reference grid is.
    ref_t = np.asarray(reference["t"])
    ref_msq = np.asarray(reference["msq"])
    idx = np.clip(np.searchsorted(ref_t, t), 1, len(ref_t) - 1)
    idx -= np.abs(ref_t[idx - 1] - t) < np.abs(ref_t[idx] - t)
    if t[-1] > ref_t[-1] + 1e-12 or np.any(np.abs(ref_t[idx] - t) > 1e-12):
        problems.append("trajectory times are not on the reference grid")
    else:
        dev = np.abs(msq - ref_msq[idx]) / (1.0 + np.abs(ref_msq[idx]))
        if dev.max() > MSQ_RTOL:
            problems.append(f"msq deviates from the reference by {dev.max():.3e} (relative)")
    return problems
