"""Single Wigner 3j symbols and rotation matrix elements of any spin.

* :func:`wigner_3j` evaluates single symbols with exact rational
  arithmetic and one final square root.  The reconstruction kernel does not
  use it; the tests compare the kernel's 3j recursion against it.
* :func:`wigner_small_d`, :func:`wigner_D` and :func:`rotation_matrix_j`
  read the cached d^j(theta) of ``general_inversion``, from one
  eigendecomposition of J_y per spin, in its convention:
  D^j_{m', m}(phi, theta, psi) = exp(i m' psi) d^j_{m', m}(theta)
  exp(i m phi), with d^j_{m', m}(theta) the common d^j_{m, m'}(theta).

A spin-j reconstruction does not load this module.
"""

from __future__ import annotations

import math
from math import factorial

import numpy as np

from .common import _check_type, _finite_angle
from .general_inversion import _check_projection, _m_array, _small_d_matrix, _twice, _twice_spin


def _half_factorial(t: int) -> int:
    # factorial of t/2 for an even doubled value
    return factorial(t // 2)


def _w3j_twice(tj1, tj2, tj3, tm1, tm2, tm3) -> float:
    # Imported here: only this exact reference needs it, and importing it
    # (with decimal) costs every process that imports the package.
    from fractions import Fraction

    for tj, tm in ((tj1, tm1), (tj2, tm2), (tj3, tm3)):
        if abs(tm) > tj or (tj + tm) % 2 != 0:
            return 0.0
    if tm1 + tm2 + tm3 != 0:
        return 0.0
    if tj3 > tj1 + tj2 or tj3 < abs(tj1 - tj2):
        return 0.0
    f = _half_factorial
    tkmin = max(0, tj2 - tj3 - tm1, tj1 - tj3 + tm2)
    tkmax = min(tj1 + tj2 - tj3, tj1 - tm1, tj2 + tm2)
    total = Fraction(0)
    for tk in range(tkmin, tkmax + 1, 2):
        denom = (
            f(tk)
            * f(tj1 + tj2 - tj3 - tk)
            * f(tj1 - tm1 - tk)
            * f(tj2 + tm2 - tk)
            * f(tj3 - tj2 + tm1 + tk)
            * f(tj3 - tj1 - tm2 + tk)
        )
        total += Fraction((-1) ** (tk // 2), denom)
    if total == 0:
        return 0.0
    prefactor = Fraction(
        f(tj1 + tj2 - tj3) * f(tj1 - tj2 + tj3) * f(-tj1 + tj2 + tj3),
        f(tj1 + tj2 + tj3 + 2),
    )
    prefactor *= (
        f(tj1 + tm1)
        * f(tj1 - tm1)
        * f(tj2 + tm2)
        * f(tj2 - tm2)
        * f(tj3 + tm3)
        * f(tj3 - tm3)
    )
    # The sum is exact, so square it, keep everything rational, and take a
    # single square root at the end.
    magnitude = math.sqrt(float(prefactor * total * total))
    sign = (-1) ** (((tj1 - tj2 - tm3) // 2) % 2)
    return sign * magnitude if total > 0 else -sign * magnitude


def wigner_3j(j1, j2, j3, m1, m2, m3) -> float:
    """Wigner 3j symbol (j1 j2 j3; m1 m2 m3).

    Arguments are ints or floats; values that are not multiples of 1/2
    raise ``ValueError``.  Selection-rule violations return 0.0.
    Evaluated with exact rational arithmetic and one final square root.
    """
    return _w3j_twice(
        _twice_spin(j1),
        _twice_spin(j2),
        _twice_spin(j3),
        _twice(m1),
        _twice(m2),
        _twice(m3),
    )


def wigner_small_d(j, mp, m, theta: float) -> float:
    """Rotation matrix element d^j_{mp, m}(theta) in this module's convention.

    Out-of-multiplet projections and a non-finite ``theta`` raise
    ``ValueError``.  For j = 1/2 the matrix over (mp, m) in descending order is
    [[cos(theta/2), sin(theta/2)], [-sin(theta/2), cos(theta/2)]].
    """
    tj = _twice_spin(j)
    tmp = _twice(mp)
    tm = _twice(m)
    _check_projection(tj, tmp, "mp")
    _check_projection(tj, tm, "m")
    d = _small_d_matrix(tj, _finite_angle("theta", theta))
    return float(d[(tj - tmp) // 2, (tj - tm) // 2])


def wigner_D(j, mp, m, u: EulerAngles) -> complex:
    """Full rotation matrix element exp(i mp psi) d^j_{mp, m}(theta) exp(i m phi).

    Any ``u`` but :class:`EulerAngles` raises ``TypeError`` naming its type."""
    # Imported here, so that the other functions of this module load no
    # spin-1/2 module.
    from .tomography import EulerAngles

    _check_type(u, EulerAngles, "wigner_D takes EulerAngles")
    d = wigner_small_d(j, mp, m, u.theta)
    phase = (_twice(mp) / 2.0) * u.psi + (_twice(m) / 2.0) * u.phi
    return complex(d * np.exp(1j * phase))


def rotation_matrix_j(j, u: EulerAngles) -> np.ndarray:
    """(2j+1)-dimensional unitary of the Euler rotation, rows and columns in
    descending projection order.  Coincides with the 2x2 tomography rotation
    at j = 1/2.  Any ``u`` but :class:`EulerAngles` raises ``TypeError``
    naming its type."""
    from .tomography import EulerAngles

    _check_type(u, EulerAngles, "rotation_matrix_j takes EulerAngles")
    tj = _twice_spin(j)
    d = _small_d_matrix(tj, float(u.theta))
    ms = _m_array(tj)
    return np.exp(1j * ms * u.psi)[:, None] * d * np.exp(1j * ms * u.phi)[None, :]
