"""Tomographic probabilities of a spin-1/2 state along rotated quantization axes.

A measurement direction is encoded either as a unit vector (polar angle
``theta``, azimuth ``phi``) or as Euler angles (phi, theta, psi) of the
frame rotation.  The probability of outcome +-1/2 along the rotated axis
is the corresponding diagonal element of the rotated density matrix, and
it never depends on the third Euler angle psi.

Those diagonal elements are computed in closed form, in real float
arithmetic (``_w_pair``), never as the matrix product D rho D^dagger: so
psi drops out exactly, and no tomogram depends on how BLAS multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .common import _TWO_PI, TOL, _check_tol, _check_type, _finite_angle, _frozen
from .errors import AdmissibilityError
from .spin_core import (
    AXES,
    _bloch_parts,
    _bloch_vector,
    _check,
    _entries,
    _require,
    require_density,
)


def _azimuth(angle: float) -> float:
    """``angle`` folded into [0, 2pi).  ``%`` rounds a tiny negative angle up
    to 2pi itself, which is the angle 0."""
    angle = angle % _TWO_PI
    return 0.0 if angle == _TWO_PI else angle


def _canonical_angles(phi: float, theta: float, psi: float):
    """Fold angles into phi, psi in [0, 2pi) and theta in [0, pi].

    A polar angle in (pi, 2pi) describes the same rotation as its mirror
    2pi - theta with both azimuthal angles advanced by pi, so every input
    triple has an equivalent representative in the canonical ranges.

    The canonical triple always generates the same physical rotation
    (conjugation D rho D^dagger) as the raw one.  The 2x2 matrix itself is
    only fixed up to a global sign, because its half-angle phases are
    4pi-periodic in phi and psi; probabilities never see that sign.
    """
    theta = theta % _TWO_PI
    if theta > math.pi:
        theta = _TWO_PI - theta
        phi = phi + math.pi
        psi = psi + math.pi
    return _azimuth(phi), theta, _azimuth(psi)


@dataclass(frozen=True)
class EulerAngles:
    """Frame rotation angles (phi, theta, psi), stored in canonical ranges.

    A non-finite angle raises ``ValueError``.
    """

    phi: float
    theta: float
    psi: float = 0.0

    def __post_init__(self):
        phi, theta, psi = _canonical_angles(
            _finite_angle("phi", self.phi),
            _finite_angle("theta", self.theta),
            _finite_angle("psi", self.psi),
        )
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class Direction:
    """Measurement direction on the sphere: polar ``theta``, azimuth ``phi``.

    A non-finite angle raises ``ValueError``.
    """

    theta: float
    phi: float

    def __post_init__(self):
        theta, phi = self.theta, self.phi
        # Floats strictly inside the canonical ranges are canonical already;
        # zeros of either sign and boundary values take the full path.
        inside = type(theta) is type(phi) is float and 0.0 < theta < math.pi
        if not (inside and 0.0 < phi < _TWO_PI):
            theta = _finite_angle("theta", theta)
            phi, theta, _ = _canonical_angles(_finite_angle("phi", phi), theta, 0.0)
            object.__setattr__(self, "theta", theta)
            object.__setattr__(self, "phi", phi)

    @property
    def unit_vector(self) -> np.ndarray:
        sin_t = math.sin(self.theta)
        return np.array(
            [sin_t * math.cos(self.phi), sin_t * math.sin(self.phi), math.cos(self.theta)]
        )

    def euler(self) -> EulerAngles:
        """Euler angles of the rotation that maps this direction onto z (psi = 0)."""
        return EulerAngles(self.phi, self.theta, 0.0)


AXIS_DIRECTIONS = {
    "x": Direction(theta=math.pi / 2.0, phi=0.0),
    "y": Direction(theta=math.pi / 2.0, phi=math.pi / 2.0),
    "z": Direction(theta=0.0, phi=0.0),
}


@dataclass(frozen=True)
class Tomogram:
    """Outcome probabilities (w_plus, w_minus) along one direction."""

    w_plus: float
    w_minus: float
    direction: Direction


@dataclass(frozen=True)
class AxisTriple:
    """The three up-probabilities along the fixed x, y, z axes."""

    wx_plus: float
    wy_plus: float
    wz_plus: float

    def mean_values(self):
        """Pauli mean values (mx, my, mz) = 2 w_plus - 1 per axis."""
        return (
            2.0 * self.wx_plus - 1.0,
            2.0 * self.wy_plus - 1.0,
            2.0 * self.wz_plus - 1.0,
        )


def rotation_matrix(u: EulerAngles) -> np.ndarray:
    """2x2 unitary for the Euler rotation (phi, theta, psi).

    Convention fixed by its action in tomography: row 0 applied to a state
    gives the amplitude of outcome +1/2 along the direction (theta, phi),
    and psi only contributes opposite phases to the two rows.
    """
    c = math.cos(0.5 * u.theta)
    s = math.sin(0.5 * u.theta)
    e_sum = np.exp(0.5j * (u.phi + u.psi))
    e_diff = np.exp(0.5j * (u.phi - u.psi))
    return np.array(
        [[c * e_sum, s * np.conj(e_diff)], [-s * e_diff, c * np.conj(e_sum)]], dtype=complex
    )


def rotate_density(rho, u: EulerAngles, tol: float = TOL) -> np.ndarray:
    """Conjugate a density matrix by the Euler rotation: D rho D^dagger."""
    m = require_density(rho, tol)
    d = rotation_matrix(u)
    return d @ m @ d.conj().T


def _factors(theta: float, phi: float):
    """cos and sin of theta/2 and of phi, from ``math``: the factors of the
    direction (theta, phi) in ``_w_pair``."""
    half = 0.5 * theta
    return math.cos(half), math.sin(half), math.cos(phi), math.sin(phi)


def _w_pair(entries, cos_t, sin_t, cos_p, sin_p):
    """(w_plus, w_minus) of the matrix [[a, b], [c, d]] of ``entries`` along
    the direction with ``_factors`` (cos_t, sin_t, cos_p, sin_p).

    The real part of the diagonal of D m D^dagger, expanded: for any matrix,
    not only Hermitian ones.  Only real + - *, so Python floats and float
    arrays, which broadcast, give the same bits (no fused multiply-add).
    """
    a, b, c, d = entries
    a_re, d_re = a.real, d.real
    cos2, sin2 = cos_t * cos_t, sin_t * sin_t
    cross = (cos_t * sin_t) * (
        (cos_p * b.real - sin_p * b.imag) + (cos_p * c.real + sin_p * c.imag)
    )
    return cos2 * a_re + sin2 * d_re + cross, sin2 * a_re + cos2 * d_re - cross


def _w_grid(m: np.ndarray, thetas, phis):
    """``(w_plus, w_minus)`` of an already validated ``m`` at every direction
    of a product grid, as arrays of shape ``(len(thetas), len(phis))``.

    The angles must lie in the canonical ranges (theta in [0, pi], phi in
    [0, 2pi)).  Each value then has the bits of ``w_value`` along
    ``Direction(theta, phi)``: ``_factors`` come from ``math``, once per
    node (numpy's vectorised cos and sin differ from libm's), and
    ``_w_pair`` runs on them as arrays.
    """
    half = [0.5 * theta for theta in thetas]
    cos_t = np.array([math.cos(h) for h in half])[:, None]
    sin_t = np.array([math.sin(h) for h in half])[:, None]
    cos_p = np.array([math.cos(phi) for phi in phis])
    sin_p = np.array([math.sin(phi) for phi in phis])
    return _w_pair(m.ravel().tolist(), cos_t, sin_t, cos_p, sin_p)


def w_value(rho, u, tol: float = TOL) -> Tomogram:
    """Tomographic probabilities of ``rho`` along ``u``.

    ``u`` may be a :class:`Direction` or :class:`EulerAngles`; the result is
    the pair of diagonal elements of the rotated density matrix, which is
    independent of psi.  Any other ``u`` raises ``TypeError`` naming its type.
    """
    entries = _require(rho, tol)[1]
    # A Direction is canonical: it is also the direction that its Euler
    # angles (phi, theta, psi) give back, whatever psi is.
    if isinstance(u, Direction):
        direction = u
    elif isinstance(u, EulerAngles):
        direction = Direction(theta=u.theta, phi=u.phi)
    else:
        raise TypeError(f"w_value takes a Direction or EulerAngles, got {type(u).__name__}")
    w_plus, w_minus = _w_pair(entries, *_factors(direction.theta, direction.phi))
    return _frozen(Tomogram, w_plus=w_plus, w_minus=w_minus, direction=direction)


def w_from_bloch(b, direction: Direction, tol: float = TOL) -> Tomogram:
    """Tomogram w_+- = 1/2 +- b . n of a Bloch vector, bit for bit as ``w_value`` gives it
    for ``density_from_bloch(b)``.  A non-Direction raises ``TypeError`` naming its type."""
    _check_type(direction, Direction, "w_from_bloch takes a Direction")
    entries = tuple(map(complex, *_bloch_parts(*_bloch_vector(b, tol).tolist())))
    w_plus, w_minus = _w_pair(entries, *_factors(direction.theta, direction.phi))
    return Tomogram(w_plus=w_plus, w_minus=w_minus, direction=direction)


def mean_from_w(tomogram: Tomogram) -> float:
    """Pauli mean value along the tomogram's direction: 2 w_plus - 1.

    Anything but a :class:`Tomogram` raises ``TypeError`` naming its type.
    """
    _check_type(tomogram, Tomogram, "mean_from_w takes a Tomogram")
    return 2.0 * tomogram.w_plus - 1.0


# ``_factors`` of the x, y and z axes, in the order of ``AXES``.
_AXIS_FACTORS = tuple(_factors(AXIS_DIRECTIONS[a].theta, AXIS_DIRECTIONS[a].phi) for a in AXES)


def _w_axes_values(entries):
    """Up-probabilities (wx, wy, wz) of a validated matrix's ``entries``, as
    floats or, for four arrays of entries, arrays, with the bits of ``w_value``
    along ``AXIS_DIRECTIONS``."""
    x, y, z = _AXIS_FACTORS
    return _w_pair(entries, *x)[0], _w_pair(entries, *y)[0], _w_pair(entries, *z)[0]


def w_axes(rho, tol: float = TOL) -> AxisTriple:
    """Up-probabilities of ``rho`` along the three fixed axes."""
    wx, wy, wz = _w_axes_values(_require(rho, tol)[1])
    return _frozen(AxisTriple, wx_plus=wx, wy_plus=wy, wz_plus=wz)


def _density_entries(triple: AxisTriple):
    # The matrix entries of a triple of floats or of arrays.
    wz = triple.wz_plus
    off = (triple.wx_plus - 0.5) - 1.0j * (triple.wy_plus - 0.5)
    return wz, off, off.conjugate(), 1.0 - wz


def density_from_w_axes(triple: AxisTriple, tol: float = TOL) -> np.ndarray:
    """Reconstruct the density matrix from three-axis up-probabilities.

    The diagonal is (wz_plus, 1 - wz_plus) and the off-diagonal collects the
    x and y probabilities; the result is validated and an
    :class:`AdmissibilityError` is raised for incompatible triples.
    Anything but an :class:`AxisTriple` raises ``TypeError`` naming its type.
    """
    _check_type(triple, AxisTriple, "density_from_w_axes takes an AxisTriple")
    _check_tol(tol)
    rho_pp, rho_pm, rho_mp, rho_mm = _density_entries(triple)
    m, entries = _entries(np.array([[rho_pp, rho_pm], [rho_mp, rho_mm]], dtype=complex))
    _check(entries, tol, AdmissibilityError, "axis probabilities do not describe a physical state")
    return m
