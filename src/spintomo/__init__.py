"""Quasiprobability tables and tomographic probabilities for spin states.

A spin-1/2 state can be written as a density matrix, as eight complex
quasiprobabilities on the sign triples of the three spin projections, or
as measured probabilities along rotated axes.  This package implements
those representations, the exact maps between them, and an integral
reconstruction that recovers a density matrix of arbitrary spin from its
tomograms.
"""

from .errors import AdmissibilityError, NonPhysicalStateError
from .general_inversion import (
    QuadratureGrid,
    build_quadrature,
    m_values,
    reconstruct_density_j,
    require_density_j,
    rotation_matrix_j,
    validate_density_j,
    w_callable_from_density,
    wigner_3j,
    wigner_D,
    wigner_small_d,
)
from .quasiprob import (
    VERTEX_ORDER,
    AdmissibilityReport,
    MarginalCheck,
    QuasiProbTable,
    check_admissibility,
    density_from_p,
    marginal,
    p_from_density,
    p_oracle,
)
from .radon_link import ConsistencyReport, p_from_w, verify_radon_consistency
from .sampling import random_bloch_vectors, random_density_j, random_density_matrices
from .spin_core import (
    AXES,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    TOL,
    ValidationReport,
    bloch_from_density,
    density_from_bloch,
    density_from_mean_values,
    eigenket,
    overlap,
    overlap_triple,
    pauli_matrix,
    purity,
    require_density,
    validate_density,
)
from .tomography import (
    AXIS_DIRECTIONS,
    AxisTriple,
    Direction,
    EulerAngles,
    Tomogram,
    density_from_w_axes,
    mean_from_w,
    rotate_density,
    rotation_matrix,
    w_axes,
    w_from_bloch,
    w_value,
)

__version__ = "0.1.0"

__all__ = [
    "AXES",
    "AXIS_DIRECTIONS",
    "AdmissibilityError",
    "AdmissibilityReport",
    "AxisTriple",
    "ConsistencyReport",
    "Direction",
    "EulerAngles",
    "MarginalCheck",
    "NonPhysicalStateError",
    "QuadratureGrid",
    "QuasiProbTable",
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "TOL",
    "Tomogram",
    "VERTEX_ORDER",
    "ValidationReport",
    "bloch_from_density",
    "build_quadrature",
    "check_admissibility",
    "density_from_bloch",
    "density_from_mean_values",
    "density_from_p",
    "density_from_w_axes",
    "eigenket",
    "m_values",
    "marginal",
    "mean_from_w",
    "overlap",
    "overlap_triple",
    "p_from_density",
    "p_from_w",
    "p_oracle",
    "pauli_matrix",
    "purity",
    "random_bloch_vectors",
    "random_density_j",
    "random_density_matrices",
    "reconstruct_density_j",
    "require_density",
    "require_density_j",
    "rotate_density",
    "rotation_matrix",
    "rotation_matrix_j",
    "validate_density",
    "validate_density_j",
    "verify_radon_consistency",
    "w_axes",
    "w_callable_from_density",
    "w_from_bloch",
    "w_value",
    "wigner_3j",
    "wigner_D",
    "wigner_small_d",
]
