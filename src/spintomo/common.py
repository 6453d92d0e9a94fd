"""Constants, argument checks and the validation report that every spin shares.

The spin-1/2 modules and the spin-j reconstruction both read these, so
that neither loads the other's module for them: a spin-j reconstruction
loads no spin-1/2 module, and a spin-1/2 verb no spin-j one.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import reduce

import numpy as np

TOL = 1e-10

# The refinement of the spin-j quadrature grid when none is given, by the
# library and the CLI.  It is kept here, with TOL, so that the CLI's parser
# reads both without loading the spin-j module.
_DEFAULT_OVERSAMPLE = 2
_TWO_PI = 2.0 * math.pi


def _finite_angle(name: str, value) -> float:
    """``value`` as a float, refused with a ``ValueError`` unless finite."""
    angle = float(value)
    if not math.isfinite(angle):
        raise ValueError(f"{name} must be finite, got {angle!r}")
    return angle


def _check_tol(tol) -> None:
    """Refuse a ``tol`` that is not a finite, non-negative real, by name."""
    # As in _twice, a bool is no real here; a float passes on its type, as
    # the numbers.Real check costs about 0.45 us, 2% of a warm dim-7 call.
    # The comparison refuses a NaN.
    if type(tol) is not float and (isinstance(tol, bool) or not isinstance(tol, numbers.Real)):
        raise TypeError(f"tol must be a real number, got {type(tol).__name__}")
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")


def _frozen(cls, **fields):
    """``cls(**fields)`` for a frozen dataclass ``cls`` and its fields in order,
    without running ``__init__``: for values the code computed itself."""
    instance = object.__new__(cls)
    instance.__dict__.update(fields)
    return instance


@dataclass(frozen=True)
class ValidationReport:
    """Deviations of a candidate matrix from the density-matrix axioms.

    ``min_eigenvalue`` is computed on the Hermitian part of the candidate,
    so positivity is judged after symmetrizing away any tiny skew part.
    ``passed`` compares one number with ``tol``: the largest of the
    hermiticity and trace deviations and of max(0, -min_eigenvalue), NaN if
    any is NaN.  A report of arrays (see ``spin_core._report``) passes
    elementwise.
    """

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float
    tol: float

    @property
    def passed(self) -> bool:
        return _density_deviation(self) <= self.tol

    def summary(self) -> str:
        status = "ok" if self.passed else "FAILED"
        return (
            f"{status}: hermiticity_deviation={self.hermiticity_deviation:.3e} "
            f"trace_deviation={self.trace_deviation:.3e} "
            f"min_eigenvalue={self.min_eigenvalue:.3e} (tol={self.tol:.1e})"
        )


# Helpers of the spin-1/2 maps, which take Python scalars or arrays (see
# ``spin_core``), that ``ValidationReport.passed`` reads too.  ``_ARRAY``
# spares each call of the scalar maps an attribute lookup.
_ARRAY = np.ndarray


def _max(*values):
    """The largest of ``values``, magnitudes that are all scalars or all arrays
    (elementwise), and NaN if any is NaN, which Python's ``max`` may drop.  A
    sum of magnitudes is NaN exactly when one of them is."""
    if type(values[0]) is _ARRAY:
        return reduce(np.maximum, values)
    total = sum(values)
    return max(values) if total == total else total


def _positive(x):
    """max(0.0, x), +0.0 for x = -0.0, and NaN for a NaN x."""
    return np.where(x <= 0.0, 0.0, x) if type(x) is _ARRAY else 0.0 if x <= 0.0 else x


def _density_deviation(report: ValidationReport):
    """The one number that ``report.passed`` compares with its tol."""
    return _max(report.hermiticity_deviation, report.trace_deviation,
                _positive(-report.min_eigenvalue))
