"""Doubled-up representation of the nominal linear quantum system.

A system with n bosonic modes, m coupling channels and p perturbation
channels is specified by the blocks (M1, M2) of the quadratic Hamiltonian,
(N1, N2) of the coupling operator and (E1, E2) of the perturbation channel.
All matrices act on the stacked vector [a; a#] of annihilation and creation
operators.  The scattering matrix is fixed to the identity.

The system also owns its Hurwitz verdict and the H-infinity norm of its
small-gain transfer function, with the smallest gamma that passes the
small-gain condition; none of these depends on the sector bounds.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConsistencyError, NotHurwitzError, StructureError

__all__ = [
    "StructureMatrices",
    "LinearQuantumSystem",
    "HinfResult",
    "hinf_norm",
    "SymmetryViolation",
    "structure_matrices",
    "validate_system",
]

# Validation tolerance relative to the largest entry; inputs are user-supplied
# exact or near-exact constants, so this is generous.
SYMMETRY_RTOL = 1e-10

HURWITZ_TOL = 1e-9
NORM_RTOL = 1e-9
NORM_AGREEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class StructureMatrices:
    """Signature matrix J = diag(I, -I) and block swap Sigma = [[0, I], [I, 0]]."""

    n: int
    J: np.ndarray = field(repr=False)
    Sigma: np.ndarray = field(repr=False)


@functools.cache
def structure_matrices(n: int) -> StructureMatrices:
    """J and Sigma for n modes, built once per n and shared read-only."""
    if n < 1:
        raise StructureError(f"mode count must be positive, got {n}")
    eye = np.eye(n)
    zero = np.zeros((n, n))
    J = np.block([[eye, zero], [zero, -eye]])
    Sigma = np.block([[zero, eye], [eye, zero]])
    J.setflags(write=False)
    Sigma.setflags(write=False)
    return StructureMatrices(n=n, J=J, Sigma=Sigma)


def _blocks(top_left, top_right, bottom_left, bottom_right) -> np.ndarray:
    """The 2 x 2 block matrix, as ``np.block`` builds it, without its generic
    nesting checks (which cost more than the copy at these sizes)."""
    return np.concatenate([
        np.concatenate([top_left, top_right], axis=1),
        np.concatenate([bottom_left, bottom_right], axis=1),
    ])


def _as_complex(name: str, value) -> np.ndarray:
    arr = np.asarray(value, dtype=complex)
    if arr.ndim != 2:
        raise StructureError(f"{name} must be a 2-D matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise StructureError(f"{name} has non-finite entries")
    return arr


def _stable(abscissa: float) -> bool:
    """The Hurwitz verdict on a spectral abscissa."""
    return abscissa < -HURWITZ_TOL


def _require_hurwitz(abscissa: float) -> None:
    if not _stable(abscissa):
        raise NotHurwitzError(f"drift matrix not Hurwitz (abscissa {abscissa:.3e})")


def _peak_gain(F: np.ndarray, B: np.ndarray, C: np.ndarray, omegas: np.ndarray) -> float:
    """Largest sigma_max(C (iw - F)^-1 B) over the given frequencies, by direct solves."""
    shifted = 1j * np.asarray(omegas)[:, None, None] * np.eye(F.shape[0]) - F
    T = C @ np.linalg.solve(shifted, B)
    return float(np.max(np.linalg.svd(T, compute_uv=False)[:, 0]))


def hinf_norm(
    F: np.ndarray, B: np.ndarray, C: np.ndarray, eigs: np.ndarray | None = None
) -> float:
    """H-infinity norm of C (sI - F)^-1 B for Hurwitz F (Bruinsma-Steinbuch).

    A level d is crossed at the frequency w iff iw is an eigenvalue of

        [[F, B B' / d], [-C' C / d, -F']],

    so the level is an upper bound on the norm iff no eigenvalue lies on the
    imaginary axis.  Starting from the attained gain ``lo`` at w = 0 and at
    the resonances, each step tests the level (1 + 2 NORM_RTOL) lo and
    raises ``lo`` to the largest gain at the midpoints between consecutive
    crossings.  The first level that crosses nowhere is returned: a certified
    upper bound within 2 NORM_RTOL of an attained gain.  A sharp peak can
    leave eigenvalues just above it inside the axis tolerance; when a step
    makes no progress the margin doubles instead, and the widened level is
    still returned only once it crosses nowhere.

    ``eigs`` are the eigenvalues of F when the caller has them already (a
    system keeps its own); they give both the Hurwitz guard and the
    resonances.  Without them F is factored here.
    """
    F = np.asarray(F, dtype=complex)
    B = np.asarray(B, dtype=complex)
    C = np.asarray(C, dtype=complex)
    if eigs is None:
        eigs = np.linalg.eigvals(F)
    _require_hurwitz(float(np.max(eigs.real)))
    if B.size == 0 or C.size == 0 or not (B.any() and C.any()):
        return 0.0

    BBt = B @ B.conj().T
    CtC = C.conj().T @ C

    def crossings(level: float) -> np.ndarray:
        H = _blocks(F, BBt / level, -CtC / level, -F.conj().T)
        eigs = np.linalg.eigvals(H)
        tol = 1e-8 * (1.0 + float(np.max(np.abs(eigs))))
        return np.sort(eigs.imag[np.abs(eigs.real) < tol])

    resonances = eigs.imag
    # each distinct probe once (all nine of the OPA's are 0)
    probes = sorted({0.0, *resonances.tolist(), *(-resonances).tolist()})
    lo = _peak_gain(F, B, C, np.array(probes))
    if lo == 0.0:
        # The probes found nothing; confirm the transfer function vanishes.
        if crossings(1e-12).size == 0:
            return 0.0
        lo = 1e-12
    step = NORM_RTOL
    for _ in range(100):
        level = (1.0 + 2.0 * step) * lo
        omegas = crossings(level)
        if omegas.size == 0:
            return level
        if omegas.size > 1:
            omegas = 0.5 * (omegas[:-1] + omegas[1:])
        peak = _peak_gain(F, B, C, omegas)
        if peak > (1.0 + NORM_RTOL) * lo:
            lo, step = peak, NORM_RTOL
        else:
            step *= 2.0
    raise ConsistencyError("H-infinity iteration did not find an uncrossed level")


def _realizations(Etilde: np.ndarray) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """(B, C) of the original and the reduced small-gain transfer function.

    The output matrix is C = Etilde^# Sigma for the original form and
    C = Etilde for the reduced one; in both the input matrix is B = J C'.
    Sigma and J are signed permutations, so every product is exact.
    """
    sm = structure_matrices(Etilde.shape[1] // 2)
    return tuple((sm.J @ C.conj().T, C) for C in (Etilde.conj() @ sm.Sigma, Etilde))


@dataclass(frozen=True)
class HinfResult:
    """Original and reduced norms of the small-gain transfer function."""

    hinf_primary: float
    hinf_reduced: float

    @property
    def threshold(self) -> float:
        """Smallest gamma passing the small-gain condition ||transfer|| < gamma / 2.

        The next float above 2 * ||transfer||, so the condition fails one float
        below it; the floor 1e-9 for a vanishing perturbation channel.
        """
        return max(1e-9, float(np.nextafter(2.0 * self.hinf_reduced, np.inf)))


@dataclass(frozen=True)
class LinearQuantumSystem:
    """Known linear part of the model: the six defining blocks, with shapes
    M1, M2: n x n, N1, N2: m x n, E1, E2: p x n, and the doubled-up matrices
    on [a; a#] assembled from them once, at construction:

        M = [[M1, M2], [M2#, M1#]] (Hermitian),   N = [[N1, N2], [N2#, N1#]],
        Etilde = [E1 E2] (row i defines z_i),     F = -i J M - (1/2) J N' J_m N,

    with J_m = diag(I_m, -I_m); F is the drift matrix, ``spectrum`` its
    eigenvalues and ``abscissa`` their largest real part, the one Hurwitz
    verdict every stage reads.  The small-gain ``realizations``, both norms
    ``hinf`` and the OPA structure test ``opa_kappa`` are computed on first use.
    Instances are immutable values with read-only arrays;
    ``dataclasses.replace`` re-derives the assembled matrices and the norms.
    """

    M1: np.ndarray
    M2: np.ndarray
    N1: np.ndarray
    N2: np.ndarray
    E1: np.ndarray
    E2: np.ndarray
    M: np.ndarray = field(init=False, repr=False, compare=False)
    N: np.ndarray = field(init=False, repr=False, compare=False)
    Etilde: np.ndarray = field(init=False, repr=False, compare=False)
    F: np.ndarray = field(init=False, repr=False, compare=False)
    spectrum: np.ndarray = field(init=False, repr=False, compare=False)
    abscissa: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("M1", "M2", "N1", "N2", "E1", "E2"):
            arr = _as_complex(name, getattr(self, name))
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        n = self.M1.shape[0]
        if self.M1.shape != (n, n) or self.M2.shape != (n, n):
            raise StructureError(
                f"Hamiltonian blocks must be square and equally sized: "
                f"M1 {self.M1.shape} vs M2 {self.M2.shape}"
            )
        for name in ("N1", "N2", "E1", "E2"):
            arr = getattr(self, name)
            if arr.shape[1] != n:
                raise StructureError(
                    f"{name} has {arr.shape[1]} columns, expected {n} (mode count)"
                )
        if self.N1.shape != self.N2.shape:
            raise StructureError(
                f"coupling blocks differ in shape: N1 {self.N1.shape} vs N2 {self.N2.shape}"
            )
        if self.E1.shape != self.E2.shape:
            raise StructureError(
                f"perturbation blocks differ in shape: E1 {self.E1.shape} vs E2 {self.E2.shape}"
            )
        m = self.N1.shape[0]
        J = structure_matrices(n).J
        Jm = np.diag(np.concatenate([np.ones(m), -np.ones(m)]))
        M = _blocks(self.M1, self.M2, self.M2.conj(), self.M1.conj())
        N = _blocks(self.N1, self.N2, self.N2.conj(), self.N1.conj())
        assembled = {
            "M": M,
            "N": N,
            "Etilde": np.hstack([self.E1, self.E2]),
            "F": -1j * J @ M - 0.5 * J @ N.conj().T @ Jm @ N,
        }
        assembled["spectrum"] = np.linalg.eigvals(assembled["F"])
        for name, arr in assembled.items():
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "abscissa", float(np.max(self.spectrum.real)))

    @functools.cached_property
    def realizations(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        """(B, C) of the original and the reduced small-gain transfer function."""
        return _realizations(self.Etilde)

    @functools.cached_property
    def hinf(self) -> HinfResult:
        """Both small-gain transfer norms, computed on first use and kept.

        They depend on the system alone, not on gamma, delta1 or delta2.  A
        drift matrix that is not Hurwitz raises NotHurwitzError.  The norms are
        equal in exact arithmetic; a disagreement beyond 1e-6 relative raises
        ConsistencyError (an implementation bug, not bad input).  Both
        iterations take the system's own spectrum, so F is factored once.
        """
        _require_hurwitz(self.abscissa)
        primary, reduced = (hinf_norm(self.F, B, C, self.spectrum) for B, C in self.realizations)
        if abs(primary - reduced) > NORM_AGREEMENT_RTOL * (1.0 + reduced):
            raise ConsistencyError(
                f"transfer-function norms disagree: original {primary:.12g} "
                f"vs reduced {reduced:.12g}"
            )
        return HinfResult(primary, reduced)

    @functools.cached_property
    def opa_kappa(self) -> np.ndarray | None:
        """kappa_k = |N1_kk|^2 when M1 = M2 = N2 = E1 = 0, E2 = I_n and N1 is diagonal
        n x n (the OPA's structure: F = -diag(kappa, kappa) / 2), else None.  The
        closed-form P of ``certify`` and ``opa.opa_region`` read this one test."""
        n, N1, E2 = self.n, self.N1, self.E2
        if N1.shape != (n, n) or E2.shape != (n, n):
            return None
        if any(map(np.count_nonzero, (self.M1, self.M2, self.N2, self.E1))):
            return None
        diag = N1.diagonal()
        off_diagonal = np.count_nonzero(N1) - np.count_nonzero(diag)
        identity = np.count_nonzero(E2) == np.count_nonzero(E2.diagonal() == 1) == n
        return np.abs(diag) ** 2 if identity and not off_diagonal else None

    @property
    def n(self) -> int:
        return self.M1.shape[0]

    @property
    def m(self) -> int:
        return self.N1.shape[0]

    @property
    def p(self) -> int:
        return self.E1.shape[0]


@dataclass(frozen=True)
class SymmetryViolation:
    matrix: str
    kind: str
    residual: float

    def __str__(self) -> str:
        return f"{self.matrix} {self.kind}, residual {self.residual:g}"


def validate_system(sys: LinearQuantumSystem) -> list[SymmetryViolation]:
    """Check the block symmetries that make the doubled Hamiltonian Hermitian.

    Returns an empty list iff M1 is Hermitian and M2 is symmetric within
    tolerance.  Dimension mismatches raise at construction time, not here.
    ``certify`` refuses a system with a nonempty report.
    """
    report = []
    M1, M2 = sys.M1, sys.M2
    tol = SYMMETRY_RTOL * (1.0 + max(np.abs(M1).max(initial=0.0), np.abs(M2).max(initial=0.0)))
    r_herm = float(np.abs(M1 - M1.conj().T).max(initial=0.0))
    if r_herm > tol:
        report.append(SymmetryViolation("M1", "not Hermitian", r_herm))
    r_sym = float(np.abs(M2 - M2.T).max(initial=0.0))
    if r_sym > tol:
        report.append(SymmetryViolation("M2", "asymmetric", r_sym))
    return report

