"""Spin-1/2 building blocks.

Pauli matrices, the six eigenkets of the spin projections along x, y, z,
Bloch-vector parametrization of 2x2 density matrices, and validation of
the density-matrix axioms (hermiticity, unit trace, positivity), written
once for one matrix's Python scalars and for numpy arrays of many.
"""

from __future__ import annotations

import math
import threading

import numpy as np

# TOL and ValidationReport are public names of this module too.
from .common import _ARRAY, TOL, ValidationReport, _check_tol, _frozen, _max
from .errors import NonPhysicalStateError

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


# The three steps of the spin-1/2 maps whose bits depend on the form of the
# input: |z|, a max (``common._max``) and a positive part
# (``common._positive``).  The maps are written once, in + - * and these
# helpers, and take Python scalars, as the library passes them, or numpy
# arrays of many inputs, as the CLI's ``sweep`` does.  Each entry of an
# array gets the bits that its scalar gets.


def _abs(z):
    """|z| by libm hypot, which is Python's ``abs`` of a complex; numpy's own
    |z| (``_numpy_abs``) differs from it in the last bit."""
    return np.hypot(z.real, z.imag) if type(z) is _ARRAY else abs(z)


def _hypot(x, y):
    """libm hypot of two reals: ``_abs(complex(x, y))``."""
    return np.hypot(x, y) if type(x) is _ARRAY else abs(complex(x, y))


def _numpy_abs(z):
    """numpy's vectorised |z|.  It equals libm hypot's when a part is zero,
    as for any Hermitian input, and a scalar then skips numpy."""
    if type(z) is _ARRAY:
        return np.abs(z)
    return abs(z) if z.real == 0.0 or z.imag == 0.0 else float(np.abs(np.array(z)))


def _deviations(a, b, c, d):
    """The hermiticity and trace deviations and the minimum eigenvalue of the
    matrix [[a, b], [c, d]], as scalars or arrays.

    The steps are those of the array expressions m - m^dagger, m + m^dagger,
    ..., in order.  The hermiticity deviation keeps numpy's |z| of b - conj(c)
    and the eigenvalue radius libm hypot, as those expressions did.
    """
    a_bar, c_bar, d_bar = a.conjugate(), c.conjugate(), d.conjugate()
    herm_dev = _max(_numpy_abs(b - c_bar), _abs(a - a_bar), _abs(d - d_bar))
    h00 = (0.5 * (a + a_bar)).real
    h11 = (0.5 * (d + d_bar)).real
    radius = _hypot(0.5 * (h00 - h11), _abs(0.5 * (b + c_bar)))
    return herm_dev, _abs(a + d - 1.0), 0.5 * (h00 + h11) - radius


def _report(entries, tol: float) -> ValidationReport:
    """``validate_density``'s report of the matrix of four ``entries``: array
    entries give a report of array fields."""
    herm_dev, trace_dev, min_eig = _deviations(*entries)
    return _frozen(ValidationReport, hermiticity_deviation=herm_dev, trace_deviation=trace_dev,
                   min_eigenvalue=min_eig, tol=tol)


def _check(entries, tol: float, error=NonPhysicalStateError, what="not a physical density matrix"):
    """Raise ``error`` with a report unless the matrix of ``entries`` is valid:
    ``_report(entries, tol).passed``, written inline for the hot maps."""
    herm_dev, trace_dev, min_eig = _deviations(*entries)
    if not (herm_dev <= tol and trace_dev <= tol and min_eig >= -tol):
        report = _report(entries, tol)
        raise error(f"{what} ({report.summary()})", report=report)


def _matrix(matrix) -> np.ndarray:
    """``matrix`` as a complex array, checked to be 2x2."""
    m = np.asarray(matrix, dtype=complex)
    if m.shape != (2, 2):
        raise ValueError(f"expected a 2x2 matrix, got shape {m.shape}")
    return m


def _entries(matrix):
    """``matrix`` as a complex array, and its four entries as Python complex."""
    m = _matrix(matrix)
    (a, b), (c, d) = m.tolist()
    return m, (a, b, c, d)


def validate_density(matrix, tol: float = TOL) -> ValidationReport:
    """Measure how far ``matrix`` is from being a 2x2 density matrix.

    Returns a :class:`ValidationReport` with the max-entry deviation from
    hermiticity, the deviation of the trace from 1, and the smallest
    eigenvalue of the Hermitian part (closed form for 2x2, no eigensolver).
    ``tol`` must be a finite, non-negative real (not a bool), or
    ``TypeError`` or ``ValueError`` names it.
    """
    _check_tol(tol)
    return _report(_entries(matrix)[1], tol)


class _Passed(threading.local):
    """The last matrix that ``_require`` passed in this thread: the key
    ``(bytes, tol)`` and the entries, as one pair.  A refusal is never stored."""

    last = (None, None)


_PASSED = _Passed()


def _require(matrix, tol: float):
    """Validate ``matrix``; return the complex array and its entries.

    A matrix with the bytes and ``tol`` (a float) of the last one passed in
    this thread is not checked again, so one state handed to a chain of maps
    is validated once.  Its entries are the ones ``tolist`` gives, since the
    bytes are the same.  A ``tol`` that is not a finite, non-negative real is
    refused by name when the matrix is checked; a stored key's has passed.
    """
    m = _matrix(matrix)
    key = (m.tobytes(), tol) if type(tol) is float else None
    last_key, entries = _PASSED.last
    if key is None or key != last_key:
        _check_tol(tol)
        (a, b), (c, d) = m.tolist()
        entries = (a, b, c, d)
        _check(entries, tol)
        if key is not None:
            _PASSED.last = key, entries
    return m, entries


def require_density(matrix, tol: float = TOL) -> np.ndarray:
    """Return ``matrix`` as a complex array after validating it, else raise.

    Raises :class:`NonPhysicalStateError` carrying the failing report, and
    refuses a bad ``tol`` as :func:`validate_density` does.
    """
    return _require(matrix, tol)[0]


def _bloch_excess(x: float, y: float, z: float) -> float:
    """|b| - 1/2 for Python floats: inf once b . b overflows, with no numpy
    warning.  The state is physical when this is <= tol, ``validate_density``'s
    positivity test, as the least eigenvalue is 1/2 - |b| (exactly so for
    |b| >= 1/4)."""
    return math.sqrt(x * x + y * y + z * z) - 0.5


def _bloch_vector(b, tol: float) -> np.ndarray:
    """``b`` as a float array, checked to be a finite vector with |b| <= 1/2,
    after ``tol`` is checked."""
    _check_tol(tol)
    v = np.asarray(b, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a length-3 Bloch vector, got shape {v.shape}")
    values = v.tolist()
    if not all(map(math.isfinite, values)):
        raise NonPhysicalStateError(f"Bloch vector {values} is not finite")
    excess = _bloch_excess(*values)
    if not excess <= tol:
        raise NonPhysicalStateError(
            f"Bloch vector norm {excess + 0.5:.6g} exceeds 1/2; state would not be positive"
        )
    return v


def density_from_bloch(b, tol: float = TOL) -> np.ndarray:
    """Density matrix (1/2)(I + 2 b . sigma) for a Bloch vector with |b| <= 1/2.

    Raises :class:`NonPhysicalStateError` for a longer or a non-finite vector.
    """
    real, imag = _bloch_parts(*_bloch_vector(b, tol).tolist())
    return np.array(list(map(complex, real, imag))).reshape(2, 2)


def _bloch_parts(x, y, z):
    # Real and imaginary parts of the row-major entries of 0.5 I + x sigma_x +
    # y sigma_y + z sigma_z, for finite floats or arrays of them, unchecked.
    # Adding 0.0 gives the zero signs of that sum of complex products.
    return (0.5 + z, x + 0.0, x + 0.0, 0.5 - z), (0.0, 0.0 - y, y + 0.0, 0.0)


def bloch_from_density(rho, tol: float = TOL) -> np.ndarray:
    """Bloch vector b with components (1/2) Tr(rho sigma_k)."""
    m = require_density(rho, tol)
    return np.array(
        [0.5 * float(np.trace(m @ _PAULI[axis]).real) for axis in AXES]
    )


def density_from_mean_values(mx: float, my: float, mz: float, tol: float = TOL) -> np.ndarray:
    """Density matrix with Pauli mean values Tr(rho sigma_k) = (mx, my, mz).

    The Bloch vector b is half the mean values and must have |b| - 1/2 <= tol,
    ``validate_density``'s positivity test.
    """
    _check_tol(tol)
    mx, my, mz = float(mx), float(my), float(mz)
    b = [0.5 * mx, 0.5 * my, 0.5 * mz]
    # A NaN mean value is left to density_from_bloch, which names it not finite.
    if not (_bloch_excess(*b) <= tol or any(map(math.isnan, b))):
        raise NonPhysicalStateError(
            f"mean values ({mx:.6g}, {my:.6g}, {mz:.6g}) lie outside the unit ball"
        )
    return density_from_bloch(b, tol=tol)


def purity(rho, tol: float = TOL) -> float:
    """Tr(rho^2); 1 for pure states, 1/2 for the unpolarized state."""
    m = require_density(rho, tol)
    return float(np.trace(m @ m).real)
