"""Tomographic probabilities of a spin-1/2 state along rotated quantization axes.

A measurement direction is encoded either as a unit vector (polar angle
``theta``, azimuth ``phi``) or as Euler angles (phi, theta, psi) of the
frame rotation.  The probability of outcome +-1/2 along the rotated axis
is the corresponding diagonal element of the rotated density matrix, and
it never depends on the third Euler angle psi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError
from .spin_core import AXES, TOL, _bloch_vector, require_density, validate_density

_TWO_PI = 2.0 * math.pi


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
    return phi % _TWO_PI, theta, psi % _TWO_PI


@dataclass(frozen=True)
class EulerAngles:
    """Frame rotation angles (phi, theta, psi), stored in canonical ranges."""

    phi: float
    theta: float
    psi: float = 0.0

    def __post_init__(self):
        phi, theta, psi = _canonical_angles(
            float(self.phi), float(self.theta), float(self.psi)
        )
        object.__setattr__(self, "phi", phi)
        object.__setattr__(self, "theta", theta)
        object.__setattr__(self, "psi", psi)


@dataclass(frozen=True)
class Direction:
    """Measurement direction on the sphere: polar ``theta``, azimuth ``phi``."""

    theta: float
    phi: float

    def __post_init__(self):
        phi, theta, _ = _canonical_angles(float(self.phi), float(self.theta), 0.0)
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


def _half_phase(angle: float) -> complex:
    """exp(i angle / 2), with the bits of np.exp(0.5j * angle)."""
    # Adding 0.0 turns -0.0 into 0.0, as forming 0.5j * angle does.
    half = 0.5 * angle + 0.0
    return complex(math.cos(half), math.sin(half))


def _rotation(phi: float, theta: float, psi: float) -> np.ndarray:
    half = 0.5 * theta
    c = math.cos(half)
    s = math.sin(half)
    e_sum = _half_phase(phi + psi)
    e_diff = _half_phase(phi - psi)
    return np.array(
        [
            [c * e_sum, s * e_diff.conjugate()],
            [-s * e_diff, c * e_sum.conjugate()],
        ],
        dtype=complex,
    )


def rotation_matrix(u: EulerAngles) -> np.ndarray:
    """2x2 unitary for the Euler rotation (phi, theta, psi).

    Convention fixed by its action in tomography: row 0 applied to a state
    gives the amplitude of outcome +1/2 along the direction (theta, phi),
    and psi only contributes opposite phases to the two rows.
    """
    return _rotation(u.phi, u.theta, u.psi)


def rotate_density(rho, u: EulerAngles, tol: float = TOL) -> np.ndarray:
    """Conjugate a density matrix by the Euler rotation: D rho D^dagger."""
    m = require_density(rho, tol)
    d = rotation_matrix(u)
    return d @ m @ d.conj().T


def _w_of(m: np.ndarray, u) -> Tomogram:
    """Tomogram of an already validated matrix ``m`` along ``u``."""
    if isinstance(u, Direction):
        # A Direction is canonical: it is also the direction that its Euler
        # angles (phi, theta, 0) give back.
        direction, d = u, _rotation(u.phi, u.theta, 0.0)
    else:
        direction, d = Direction(theta=u.theta, phi=u.phi), _rotation(u.phi, u.theta, u.psi)
    # The matrix product, not a scalar formula for the diagonal: the two
    # differ in the last bit on most inputs.
    rotated = d @ m @ d.conj().T
    return Tomogram(
        w_plus=float(rotated[0, 0].real),
        w_minus=float(rotated[1, 1].real),
        direction=direction,
    )


def w_value(rho, u, tol: float = TOL) -> Tomogram:
    """Tomographic probabilities of ``rho`` along ``u``.

    ``u`` may be a :class:`Direction` or :class:`EulerAngles`; the result is
    the pair of diagonal elements of the rotated density matrix, which is
    independent of psi.
    """
    return _w_of(require_density(rho, tol), u)


def w_from_bloch(b, direction: Direction, tol: float = TOL) -> Tomogram:
    """Tomogram from a Bloch vector: w_+- = 1/2 +- b . n(theta, phi)."""
    v = _bloch_vector(b, tol)
    dot = float(v @ direction.unit_vector)
    return Tomogram(w_plus=0.5 + dot, w_minus=0.5 - dot, direction=direction)


def mean_from_w(tomogram: Tomogram) -> float:
    """Pauli mean value along the tomogram's direction: 2 w_plus - 1."""
    return 2.0 * tomogram.w_plus - 1.0


def _w_axes_of(m: np.ndarray) -> AxisTriple:
    wx, wy, wz = (_w_of(m, AXIS_DIRECTIONS[axis]).w_plus for axis in AXES)
    return AxisTriple(wx_plus=wx, wy_plus=wy, wz_plus=wz)


def w_axes(rho, tol: float = TOL) -> AxisTriple:
    """Up-probabilities of ``rho`` along the three fixed axes."""
    return _w_axes_of(require_density(rho, tol))


def density_from_w_axes(triple: AxisTriple, tol: float = TOL) -> np.ndarray:
    """Reconstruct the density matrix from three-axis up-probabilities.

    The diagonal is (wz_plus, 1 - wz_plus) and the off-diagonal collects the
    x and y probabilities; the result is validated and an
    :class:`AdmissibilityError` is raised for incompatible triples.
    """
    wx, wy, wz = triple.wx_plus, triple.wy_plus, triple.wz_plus
    off = (wx - 0.5) - 1.0j * (wy - 0.5)
    m = np.array([[wz, off], [np.conj(off), 1.0 - wz]], dtype=complex)
    report = validate_density(m, tol)
    if not report.passed:
        raise AdmissibilityError(
            f"axis probabilities do not describe a physical state ({report.summary()})",
            report=report,
        )
    return m
