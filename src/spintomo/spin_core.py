"""Spin-1/2 building blocks.

Pauli matrices, the six eigenkets of the spin projections along x, y, z,
Bloch-vector parametrization of 2x2 density matrices, and validation of
the density-matrix axioms (hermiticity, unit trace, positivity).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalStateError

TOL = 1e-10
AXES = ("x", "y", "z")

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

_PAULI = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

_INV_SQRT2 = 1.0 / np.sqrt(2.0)

# Spin-up along z is (1, 0); the x and y kets follow the standard phase
# choice |+-x> = (|z> +- |-z>)/sqrt2, |+-y> = (|z> +- i|-z>)/sqrt2.
_EIGENKETS = {
    ("z", 1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
    ("x", 1): np.array([_INV_SQRT2, _INV_SQRT2], dtype=complex),
    ("x", -1): np.array([_INV_SQRT2, -_INV_SQRT2], dtype=complex),
    ("y", 1): np.array([_INV_SQRT2, 1.0j * _INV_SQRT2], dtype=complex),
    ("y", -1): np.array([_INV_SQRT2, -1.0j * _INV_SQRT2], dtype=complex),
}


def _check_axis(axis: str) -> str:
    if axis not in _PAULI:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    return axis


def _check_sign(sign: int) -> int:
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign!r}")
    return sign


def pauli_matrix(axis: str) -> np.ndarray:
    """Return a copy of the Pauli matrix for ``axis`` in {'x', 'y', 'z'}."""
    return _PAULI[_check_axis(axis)].copy()


def eigenket(axis: str, sign: int) -> np.ndarray:
    """Return the normalized eigenvector of ``pauli_matrix(axis)`` with eigenvalue ``sign``."""
    return _EIGENKETS[_check_axis(axis), _check_sign(sign)].copy()


def overlap(axis_a: str, sign_a: int, axis_b: str, sign_b: int) -> complex:
    """Inner product <a|b> of two spin-projection eigenkets."""
    ket_a = _EIGENKETS[_check_axis(axis_a), _check_sign(sign_a)]
    ket_b = _EIGENKETS[_check_axis(axis_b), _check_sign(sign_b)]
    return complex(np.vdot(ket_a, ket_b))


def overlap_triple(cx: int, by: int, az: int, az2: int) -> complex:
    """Product <cx|by><by|az><az2|cx> of x, y, z eigenket overlaps.

    ``cx``, ``by``, ``az``, ``az2`` are +-1 eigenvalue labels along x, y, z, z
    respectively.  These products are the kernel entries that generate the
    eight-vertex quasiprobability table; each has modulus (1/sqrt2)^3.
    """
    return (
        overlap("x", cx, "y", by)
        * overlap("y", by, "z", az)
        * overlap("z", az2, "x", cx)
    )


@dataclass(frozen=True)
class ValidationReport:
    """Deviations of a candidate matrix from the density-matrix axioms.

    ``min_eigenvalue`` is computed on the Hermitian part of the candidate,
    so positivity is judged after symmetrizing away any tiny skew part.
    """

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    tol: float

    @property
    def passed(self) -> bool:
        return (
            self.hermiticity_deviation <= self.tol
            and self.trace_deviation <= self.tol
            and self.min_eigenvalue >= -self.tol
        )

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return (
            f"{status}: hermiticity_deviation={self.hermiticity_deviation:.3e} "
            f"trace_deviation={self.trace_deviation:.3e} "
            f"min_eigenvalue={self.min_eigenvalue:.3e} (tol={self.tol:.1e})"
        )


def _nanmax(values) -> float:
    """The largest value, or NaN if any is NaN (as numpy's max; ``max`` may drop it)."""
    return math.nan if any(map(math.isnan, values)) else max(values)


def _array_abs(z: complex) -> float:
    # numpy's vectorised |z| and libm hypot (Python's abs) disagree in the last
    # bit on about a third of inputs; this is the vectorised one.  With a zero
    # part, as for any Hermitian input, both give the other part's magnitude.
    if z.real == 0.0 or z.imag == 0.0:
        return abs(z)
    return float(np.abs(np.array(z)))


def _report(a: complex, b: complex, c: complex, d: complex, tol: float) -> ValidationReport:
    """Validation report of the matrix [[a, b], [c, d]] of Python complex entries.

    Each step is the scalar form of the array expression it replaces
    (m - m^dagger, m + m^dagger, ...), in the same order, so the report is
    bit for bit the one numpy gives: the hermiticity deviation keeps numpy's
    vectorised |z| and the eigenvalue radius libm hypot.
    """
    herm_dev = _nanmax(
        (_array_abs(b - c.conjugate()), abs(a - a.conjugate()), abs(d - d.conjugate()))
    )
    trace_dev = abs(a + d - 1.0)
    h00 = (0.5 * (a + a.conjugate())).real
    h11 = (0.5 * (d + d.conjugate())).real
    h01 = 0.5 * (b + c.conjugate())
    mean = 0.5 * (h00 + h11)
    radius = abs(complex(0.5 * (h00 - h11), abs(h01)))
    return ValidationReport(herm_dev, trace_dev, mean - radius, tol)


def _entries(matrix):
    """``matrix`` as a complex array, and its four entries as Python complex."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    (a, b), (c, d) = m.tolist()
    return m, (a, b, c, d)


def validate_density(matrix, tol: float = TOL) -> ValidationReport:
    """Measure how far ``matrix`` is from being a 2x2 density matrix.

    Returns a :class:`ValidationReport` with the max-entry deviation from
    hermiticity, the deviation of the trace from 1, and the smallest
    eigenvalue of the Hermitian part (closed form for 2x2, no eigensolver).
    """
    return _report(*_entries(matrix)[1], tol)


def _require(matrix, tol: float):
    """Validate ``matrix`` once; return the complex array and its entries."""
    m, entries = _entries(matrix)
    report = _report(*entries, tol)
    if not report.passed:
        raise NonPhysicalStateError(
            f"not a physical density matrix ({report.summary()})", report=report
        )
    return m, entries


def require_density(matrix, tol: float = TOL) -> np.ndarray:
    """Return ``matrix`` as a complex array after validating it, else raise.

    Raises :class:`NonPhysicalStateError` carrying the failing report.
    """
    return _require(matrix, tol)[0]


def _bloch_vector(b, tol: float) -> np.ndarray:
    """``b`` as a float array, checked to be a finite vector with |b| <= 1/2."""
    v = np.asarray(b, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a length-3 Bloch vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise NonPhysicalStateError(f"Bloch vector {v.tolist()} is not finite")
    # What np.linalg.norm computes for a vector, without its dispatch.
    norm = math.sqrt(v.dot(v))
    if norm > 0.5 + tol:
        raise NonPhysicalStateError(
            f"Bloch vector norm {norm:.6g} exceeds 1/2; state would not be positive"
        )
    return v


# Row-major entries of I, sigma_x, sigma_y, sigma_z as Python complex numbers.
_BLOCH_BASIS = tuple(
    zip(*(m.ravel().tolist() for m in (np.eye(2, dtype=complex), SIGMA_X, SIGMA_Y, SIGMA_Z)))
)


def density_from_bloch(b, tol: float = TOL) -> np.ndarray:
    """Density matrix (1/2)(I + 2 b . sigma) for a Bloch vector with |b| <= 1/2.

    Raises :class:`NonPhysicalStateError` for a longer or a non-finite vector.
    """
    x, y, z = _bloch_vector(b, tol).tolist()
    # 0.5 I + x sigma_x + y sigma_y + z sigma_z entry by entry, with the same
    # products and sums in the same order, so even the signed zeros match
    # _densities_from_bloch.
    return np.array(
        [0.5 * e + x * sx + y * sy + z * sz for e, sx, sy, sz in _BLOCH_BASIS]
    ).reshape(2, 2)


def _densities_from_bloch(vectors: np.ndarray) -> np.ndarray:
    """Density matrices of an ``(n, 3)`` array of Bloch vectors, unchecked."""
    v = vectors[:, :, None, None]
    return (
        0.5 * np.eye(2, dtype=complex)
        + v[:, 0] * SIGMA_X
        + v[:, 1] * SIGMA_Y
        + v[:, 2] * SIGMA_Z
    )


def bloch_from_density(rho, tol: float = TOL) -> np.ndarray:
    """Bloch vector b with components (1/2) Tr(rho sigma_k)."""
    m = require_density(rho, tol)
    return np.array(
        [0.5 * float(np.trace(m @ _PAULI[axis]).real) for axis in AXES]
    )


def density_from_mean_values(mx: float, my: float, mz: float, tol: float = TOL) -> np.ndarray:
    """Density matrix with Pauli mean values Tr(rho sigma_k) = (mx, my, mz).

    Physical inputs satisfy mx^2 + my^2 + mz^2 <= 1; the corresponding
    Bloch vector is half the mean-value vector.
    """
    if mx * mx + my * my + mz * mz > 1.0 + tol:
        raise NonPhysicalStateError(
            f"mean values ({mx:.6g}, {my:.6g}, {mz:.6g}) lie outside the unit ball"
        )
    return density_from_bloch(np.array([0.5 * mx, 0.5 * my, 0.5 * mz]), tol=tol)


def purity(rho, tol: float = TOL) -> float:
    """Tr(rho^2); 1 for pure states, 1/2 for the unpolarized state."""
    m = require_density(rho, tol)
    return float(np.trace(m @ m).real)
