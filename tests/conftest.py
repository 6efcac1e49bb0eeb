import numpy as np
import pytest

from qstab.model import HURWITZ_TOL, LinearQuantumSystem, structure_matrices

SEED = 20240811

# ---------------------------------------------------------------------------
# Acceptance reporting: one pass/fail line per criterion in the summary.

ACCEPTANCE_CRITERIA = {
    1: "closed-form H-infinity reproduction over random mirror couplings",
    2: "original and reduced H-infinity norms agree on random systems",
    3: "certification threshold and sys.hinf.threshold at the small-gain boundary",
    4: "Riccati solution validity and independently recomputed constants",
    5: "operator identities on the safe truncated subspace",
    6: "simulated mean-square bound and truncation consistency",
    7: "admissible-region geometry against the sector scan",
    8: "lossy-cavity analytic decay",
}
_acceptance_results: dict[int, bool] = {}


def record_criterion(number: int, passed: bool) -> None:
    _acceptance_results[number] = bool(passed) and _acceptance_results.get(number, True)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_results:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_CRITERIA):
        desc = ACCEPTANCE_CRITERIA[number]
        if number in _acceptance_results:
            status = "PASS" if _acceptance_results[number] else "FAIL"
        else:
            status = "NOT RUN"
        terminalreporter.write_line(f"criterion {number}: {status} - {desc}")


# ---------------------------------------------------------------------------
# Shared random-instance generators.


def random_system(
    rng: np.random.Generator,
    n: int,
    m: int | None = None,
    p: int = 2,
    require_hurwitz: bool = True,
    max_tries: int = 200,
) -> LinearQuantumSystem:
    """Random valid system, rejection-sampled for a Hurwitz drift.

    Coupling defaults to one channel per mode with a dominant passive part;
    purely random couplings leave undamped subspaces too often to sample
    stable drifts reliably.
    """
    if m is None:
        m = n
    for attempt in range(max_tries):
        # Growing passive damping makes late attempts almost surely stable.
        damp = 1.0 + 0.5 * attempt
        A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        N1 = rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))
        N1[: min(m, n), : min(m, n)] += damp * np.eye(min(m, n))
        sys = LinearQuantumSystem(
            M1=(A + A.conj().T) / 2,
            M2=(B + B.T) / 2,
            N1=N1,
            N2=0.25 * (rng.normal(size=(m, n)) + 1j * rng.normal(size=(m, n))),
            E1=rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n)),
            E2=rng.normal(size=(p, n)) + 1j * rng.normal(size=(p, n)),
        )
        if not require_hurwitz:
            return sys
        if sys.abscissa < -HURWITZ_TOL:
            return sys
    raise RuntimeError("failed to sample a Hurwitz system")


def random_block_P(rng: np.random.Generator, n: int, definite: bool = True) -> np.ndarray:
    """Random Hermitian matrix with the block structure Sigma P^# Sigma = P."""
    A = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P1 = (A + A.conj().T) / 2
    B = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    P2 = (B + B.T) / 2
    P = np.block([[P1, P2], [P2.conj(), P1.conj()]])
    if definite:
        shift = abs(float(np.min(np.linalg.eigvalsh(P)))) + 0.5
        P = P + shift * np.eye(2 * n)
    sm = structure_matrices(n)
    assert np.allclose(P, sm.Sigma @ P.conj() @ sm.Sigma)
    return P


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(SEED)
