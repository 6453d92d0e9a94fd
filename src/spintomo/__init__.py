"""Quasiprobability tables and tomographic probabilities for spin states.

A spin-1/2 state can be written as a density matrix, as eight complex
quasiprobabilities on the sign triples of the three spin projections, or
as measured probabilities along rotated axes.  This package implements
those representations, the exact maps between them, and an integral
reconstruction that recovers a density matrix of arbitrary spin from its
tomograms.

``import spintomo`` loads none of the package's modules: each public name
imports its home module on first use (PEP 562), so a program, or a CLI
verb, loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

# Each module and the public names it homes.
_HOMES = {
    "errors": ("AdmissibilityError", "NonPhysicalStateError"),
    "general_inversion": (
        "QuadratureGrid", "build_quadrature", "m_values", "reconstruct_density_j",
        "require_density_j", "rotation_matrix_j", "validate_density_j",
        "w_callable_from_density", "wigner_3j", "wigner_D", "wigner_small_d",
    ),
    "quasiprob": (
        "VERTEX_ORDER", "AdmissibilityReport", "MarginalCheck", "QuasiProbTable",
        "check_admissibility", "density_from_p", "marginal", "p_from_density", "p_oracle",
    ),
    "radon_link": ("ConsistencyReport", "p_from_w", "verify_radon_consistency"),
    "sampling": ("random_bloch_vectors", "random_density_j", "random_density_matrices"),
    "spin_core": (
        "AXES", "SIGMA_X", "SIGMA_Y", "SIGMA_Z", "TOL", "ValidationReport",
        "bloch_from_density", "density_from_bloch", "density_from_mean_values", "eigenket",
        "overlap", "overlap_triple", "pauli_matrix", "purity", "require_density",
        "validate_density",
    ),
    "tomography": (
        "AXIS_DIRECTIONS", "AxisTriple", "Direction", "EulerAngles", "Tomogram",
        "density_from_w_axes", "mean_from_w", "rotate_density", "rotation_matrix", "w_axes",
        "w_from_bloch", "w_value",
    ),
}
_HOME_OF = {name: module for module, names in _HOMES.items() for name in names}

__all__ = sorted(_HOME_OF)


def __getattr__(name):
    """The public ``name``, imported from its home module and kept here, so
    that the next lookup finds it without this call."""
    if name not in _HOME_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
