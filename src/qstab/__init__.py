"""Robust mean-square stability certificates for nonlinear open quantum systems.

The package decides stability of a nominal linear quantum system whose
Hamiltonian carries an unknown non-quadratic, sector-bounded perturbation,
computes explicit certificates (H-infinity margins, a block-form Lyapunov
matrix, decay and offset constants), specializes the analysis to the optical
parametric amplifier, and verifies both the operator identities and the
resulting mean-square bound on a truncated Fock space.
"""

# The pipeline entry point is qstab.certify.certify; it is not re-exported
# here so the submodule name stays reachable as qstab.certify.
from .certify import StabilityCertificate, Verdict, mu_constants, solve_qmi
from .errors import (
    ConsistencyError,
    NotHurwitzError,
    QmiInfeasibleError,
    QstabError,
    SimulationError,
    StructureError,
    TruncationError,
)
from .model import LinearQuantumSystem, hinf_norm, structure_matrices, validate_system
from .opa import OpaParams, build_opa, closed_form_hinf, region_curve
from .perturbation import (
    PerturbationSeries,
    SectorBounds,
    eval_semiclassical,
    partial_z,
    second_partial_z,
    sector_margins,
    validate_selfadjoint,
)

__version__ = "0.1.0"

__all__ = [
    "LinearQuantumSystem",
    "PerturbationSeries",
    "SectorBounds",
    "OpaParams",
    "StabilityCertificate",
    "Verdict",
    "build_opa",
    "closed_form_hinf",
    "eval_semiclassical",
    "hinf_norm",
    "mu_constants",
    "partial_z",
    "region_curve",
    "second_partial_z",
    "sector_margins",
    "solve_qmi",
    "structure_matrices",
    "validate_selfadjoint",
    "validate_system",
    "QstabError",
    "StructureError",
    "NotHurwitzError",
    "ConsistencyError",
    "QmiInfeasibleError",
    "TruncationError",
    "SimulationError",
    "__version__",
]
