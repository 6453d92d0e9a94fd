import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintomo import (
    AXIS_DIRECTIONS,
    AdmissibilityError,
    AxisTriple,
    Direction,
    EulerAngles,
    bloch_from_density,
    density_from_bloch,
    density_from_w_axes,
    mean_from_w,
    p_from_w,
    rotate_density,
    rotation_matrix,
    w_axes,
    w_from_bloch,
    w_value,
)

ANGLES = st.floats(-10.0, 10.0, allow_nan=False)


def reference_rotation(phi, theta, psi):
    # Written out independently of the implementation.
    c = math.cos(theta / 2.0)
    s = math.sin(theta / 2.0)
    return np.array(
        [
            [c * np.exp(1j * (phi + psi) / 2), s * np.exp(-1j * (phi - psi) / 2)],
            [-s * np.exp(1j * (phi - psi) / 2), c * np.exp(-1j * (phi + psi) / 2)],
        ]
    )


def test_rotation_matrix_closed_form():
    rng = np.random.default_rng(3)
    for _ in range(100):
        phi, theta, psi = rng.uniform(0, 2 * np.pi, 3)
        theta = theta % np.pi
        got = rotation_matrix(EulerAngles(phi=phi, theta=theta, psi=psi))
        assert np.abs(got - reference_rotation(phi, theta, psi)).max() < 1e-14


@given(ANGLES, ANGLES, ANGLES)
def test_rotation_matrix_unitary(phi, theta, psi):
    d = rotation_matrix(EulerAngles(phi=phi, theta=theta, psi=psi))
    assert np.abs(d @ d.conj().T - np.eye(2)).max() < 1e-13


def test_rotation_matrix_special_points():
    ident = rotation_matrix(EulerAngles(phi=0.0, theta=0.0, psi=0.0))
    assert np.abs(ident - np.eye(2)).max() < 1e-15
    flip = rotation_matrix(EulerAngles(phi=0.0, theta=np.pi, psi=0.0))
    assert np.abs(flip - np.array([[0.0, 1.0], [-1.0, 0.0]])).max() < 1e-15


def test_angle_canonicalization_preserves_rotation():
    # Folding theta back into [0, pi] and reducing phi, psi mod 2pi keeps the
    # physical rotation: conjugation is unchanged, while the matrix itself may
    # flip its overall sign (half-angle phases are 4pi-periodic).
    rng = np.random.default_rng(5)
    probe = density_from_bloch(np.array([0.1, -0.2, 0.3]))
    for _ in range(50):
        phi, psi = rng.uniform(-4 * np.pi, 4 * np.pi, 2)
        theta = rng.uniform(-2 * np.pi, 2 * np.pi)
        u = EulerAngles(phi=phi, theta=theta, psi=psi)
        assert 0.0 <= u.theta <= np.pi
        assert 0.0 <= u.phi < 2 * np.pi and 0.0 <= u.psi < 2 * np.pi
        raw = reference_rotation(phi, theta, psi)
        canonical = rotation_matrix(u)
        assert min(np.abs(canonical - raw).max(), np.abs(canonical + raw).max()) < 1e-12
        assert np.abs(
            canonical @ probe @ canonical.conj().T - raw @ probe @ raw.conj().T
        ).max() < 1e-12


def test_axis_directions():
    assert AXIS_DIRECTIONS["x"].unit_vector == pytest.approx([1.0, 0.0, 0.0], abs=1e-15)
    assert AXIS_DIRECTIONS["y"].unit_vector == pytest.approx([0.0, 1.0, 0.0], abs=1e-15)
    assert AXIS_DIRECTIONS["z"].unit_vector == pytest.approx([0.0, 0.0, 1.0], abs=1e-15)


def expected_w_plus(name, theta, phi):
    if name == "up_z":
        return 0.5 * (1.0 + math.cos(theta))
    if name == "up_x":
        return 0.5 * (1.0 + math.sin(theta) * math.cos(phi))
    if name == "up_y":
        return 0.5 * (1.0 + math.sin(theta) * math.sin(phi))
    return 0.5


def test_golden_w_formulas(named_states):
    rng = np.random.default_rng(11)
    for _ in range(100):
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        for name, rho in named_states.items():
            t = w_value(rho, Direction(theta=theta, phi=phi))
            assert abs(t.w_plus - expected_w_plus(name, theta, phi)) < 1e-13
            assert abs(t.w_plus + t.w_minus - 1.0) < 1e-14
            assert -1e-14 <= t.w_plus <= 1.0 + 1e-14


def test_w_independent_of_psi(named_states, random_states):
    rng = np.random.default_rng(13)
    states = list(named_states.values()) + list(random_states[:20])
    for rho in states:
        theta = rng.uniform(0, np.pi)
        phi = rng.uniform(0, 2 * np.pi)
        base = w_value(rho, EulerAngles(phi=phi, theta=theta, psi=0.0))
        for _ in range(5):
            psi = rng.uniform(0, 2 * np.pi)
            t = w_value(rho, EulerAngles(phi=phi, theta=theta, psi=psi))
            assert abs(t.w_plus - base.w_plus) < 1e-14
            assert abs(t.w_minus - base.w_minus) < 1e-14


def test_w_value_agrees_with_bloch_form(random_states):
    rng = np.random.default_rng(17)
    for rho in random_states[:50]:
        b = bloch_from_density(rho)
        d = Direction(theta=rng.uniform(0, np.pi), phi=rng.uniform(0, 2 * np.pi))
        from_rho = w_value(rho, d)
        from_bloch = w_from_bloch(b, d)
        assert abs(from_rho.w_plus - from_bloch.w_plus) < 1e-14
        assert abs(from_rho.w_minus - from_bloch.w_minus) < 1e-14


def test_mean_from_w_projects_bloch(random_states):
    for rho in random_states[:20]:
        b = bloch_from_density(rho)
        d = Direction(theta=1.1, phi=2.2)
        assert mean_from_w(w_value(rho, d)) == pytest.approx(
            2.0 * float(b @ d.unit_vector), abs=1e-14
        )


def test_rotate_density_preserves_trace_and_spectrum(random_states):
    u = EulerAngles(phi=0.3, theta=1.2, psi=2.1)
    for rho in random_states[:10]:
        rotated = rotate_density(rho, u)
        assert np.trace(rotated) == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(
            np.linalg.eigvalsh(rotated), np.linalg.eigvalsh(rho), atol=1e-13
        )


def test_w_axes_round_trip(named_states, random_states):
    for rho in list(named_states.values()) + list(random_states):
        triple = w_axes(rho)
        assert np.abs(density_from_w_axes(triple) - rho).max() < 1e-13


def test_w_axes_matches_bloch_components(random_states):
    for rho in random_states[:20]:
        b = bloch_from_density(rho)
        triple = w_axes(rho)
        assert triple.wx_plus == pytest.approx(0.5 + b[0], abs=1e-14)
        assert triple.wy_plus == pytest.approx(0.5 + b[1], abs=1e-14)
        assert triple.wz_plus == pytest.approx(0.5 + b[2], abs=1e-14)


def test_mean_values_of_axis_triple():
    triple = AxisTriple(wx_plus=0.6, wy_plus=0.4, wz_plus=0.9)
    assert triple.mean_values() == pytest.approx((0.2, -0.2, 0.8))


def test_incompatible_axis_triple_rejected():
    with pytest.raises(AdmissibilityError) as excinfo:
        density_from_w_axes(AxisTriple(wx_plus=1.0, wy_plus=1.0, wz_plus=1.0))
    assert excinfo.value.report is not None
    assert excinfo.value.report.min_eigenvalue < 0
    # mean_from_w takes one direction's Tomogram, not a triple or a bare
    # probability, and names what it got.
    for value in (AxisTriple(wx_plus=0.5, wy_plus=0.5, wz_plus=0.5), 0.5):
        with pytest.raises(TypeError, match=f"got {type(value).__name__}$"):
            mean_from_w(value)


@pytest.mark.parametrize("value", [(0.5, 0.5, 1.0), [0.5, 0.5, 1.0], np.array([0.5, 0.5, 1.0]), 0.5])
def test_axis_triple_maps_name_what_they_got(value):
    # p_from_w and density_from_w_axes take an AxisTriple, as mean_from_w
    # takes a Tomogram, and name anything else by its type.
    maps = (p_from_w, lambda triple: p_from_w(triple, validate=False), density_from_w_axes)
    for map_ in maps:
        with pytest.raises(TypeError, match=f"takes an AxisTriple, got {type(value).__name__}$"):
            map_(value)


@pytest.mark.parametrize("value", [(1.0, 0.5), {"theta": 1.0, "phi": 0.5}, 0.5, None])
def test_w_value_names_what_it_got(value):
    # w_value takes a Direction or EulerAngles and names anything else by its type.
    with pytest.raises(TypeError, match=f"takes a Direction or EulerAngles, got {type(value).__name__}$"):
        w_value(np.eye(2) / 2, value)


@pytest.mark.parametrize("value", [EulerAngles(0.1, 0.2, 0.3), (1.0, 0.5), 0.5, None])
def test_w_from_bloch_names_what_it_got(value):
    # w_from_bloch takes a Direction only, and names anything else by its
    # type before it reads the vector, a bad one included.
    for b in ([0.0, 0.0, 0.5], [0.7, 0.0, 0.0], "b"):
        with pytest.raises(TypeError, match=f"takes a Direction, got {type(value).__name__}$"):
            w_from_bloch(b, value)


def test_w_from_bloch_rejects_long_vector():
    from spintomo import NonPhysicalStateError

    with pytest.raises(NonPhysicalStateError):
        w_from_bloch(np.array([0.7, 0.0, 0.0]), AXIS_DIRECTIONS["x"])


def test_direction_canonicalizes_theta():
    d = Direction(theta=4.0, phi=0.5)
    assert 0.0 <= d.theta <= math.pi
    raw = np.array(
        [
            math.sin(4.0) * math.cos(0.5),
            math.sin(4.0) * math.sin(0.5),
            math.cos(4.0),
        ]
    )
    assert np.allclose(d.unit_vector, raw, atol=1e-14)


@pytest.mark.parametrize(
    "theta, phi", [(1, 0.5), (np.float64(1.0), 0.5), (Fraction(1), 0.5), (1.0, 1), (1, 2)]
)
def test_direction_stores_python_floats(theta, phi):
    # Angles of any real type are stored as Python floats, also when they
    # lie inside the canonical ranges already.
    d = Direction(theta=theta, phi=phi)
    assert type(d.theta) is float and type(d.phi) is float
    assert (d.theta, d.phi) == (theta, phi)


def test_w_from_bloch_rejects_non_finite_vector():
    from spintomo import NonPhysicalStateError

    with pytest.raises(NonPhysicalStateError, match="not finite"):
        w_from_bloch(np.array([0.1, np.nan, 0.0]), AXIS_DIRECTIONS["x"])


NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["theta", "phi"])
def test_direction_refuses_non_finite_angle(name, value):
    angles = {"theta": 1.0, "phi": 0.5, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
        Direction(**angles)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        w_value(np.eye(2) / 2, Direction(**angles))


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["phi", "theta", "psi"])
def test_euler_angles_refuse_non_finite_angle(name, value):
    angles = {"phi": 0.5, "theta": 1.0, "psi": 0.1, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
        EulerAngles(**angles)
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        w_value(np.eye(2) / 2, EulerAngles(**angles))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        rotation_matrix(EulerAngles(**angles))


def test_finite_angles_are_taken_as_floats():
    u = EulerAngles(np.float32(0.5), 1, np.int64(0))
    assert (u.phi, u.theta, u.psi) == (float(np.float32(0.5)), 1.0, 0.0)
    assert all(type(a) is float for a in (u.phi, u.theta, u.psi))
    d = Direction(theta=np.float64(1.0), phi=-0.0)
    assert (d.theta, d.phi) == (1.0, 0.0)
    assert all(type(a) is float for a in (d.theta, d.phi))
    # Inside the canonical ranges, where only exact floats skip the fold.
    for value in (np.float64(1.0), np.float32(1.0), np.int64(1), 1, True):
        d = Direction(theta=value, phi=value)
        assert (d.theta, d.phi) == (1.0, 1.0)
        assert all(type(a) is float for a in (d.theta, d.phi))


def _bits(*values):
    return tuple(struct.pack("<d", v) for v in values)


# Zeros of both signs, pi, 2pi and -2pi with their neighbours on either side,
# a huge angle, a subnormal, and interior values, where the Direction
# constructor skips canonicalization.
_EDGE_ANGLES = [
    x
    for edge in (0.0, -0.0, math.pi, 2.0 * math.pi, -2.0 * math.pi)
    for x in (edge, math.nextafter(edge, -math.inf), math.nextafter(edge, math.inf))
] + [1e300, 5e-324, 0.5, math.pi / 2.0, 4.0]


def test_edge_angles_take_the_bits_of_canonical_angles():
    from spintomo.tomography import _canonical_angles

    for theta in _EDGE_ANGLES:
        for phi in _EDGE_ANGLES:
            u = Direction(theta=theta, phi=phi)
            want = _canonical_angles(phi, theta, 0.0)
            assert _bits(u.phi, u.theta) == _bits(*want[:2])
            assert type(u.theta) is float and type(u.phi) is float
            for psi in _EDGE_ANGLES:
                e = EulerAngles(phi=phi, theta=theta, psi=psi)
                assert _bits(e.phi, e.theta, e.psi) == _bits(*_canonical_angles(phi, theta, psi))



def _multiples(*edges):
    return sorted({sign * k * edge for edge in edges for sign in (1.0, -1.0) for k in (1, 2, 3, 7)})


# Zeros of both signs, tiny angles that ``%`` rounds to 2pi, pi and 2pi, and
# their multiples.
_FOLD_ANGLES = _multiples(0.0, 1e-300, 1e-17, math.pi, 2.0 * math.pi) + [-0.0]


def test_canonical_angles_are_fixed_points_of_the_constructors():
    rng = np.random.default_rng(20)
    for theta in _FOLD_ANGLES:
        for phi in _FOLD_ANGLES:
            d = Direction(theta=theta, phi=phi)
            assert 0.0 <= d.theta <= math.pi and 0.0 <= d.phi < 2.0 * math.pi
            again = Direction(theta=d.theta, phi=d.phi)
            assert _bits(again.theta, again.phi) == _bits(d.theta, d.phi)
    for phi, theta, psi in rng.choice(_FOLD_ANGLES, size=(3000, 3)).tolist():
        e = EulerAngles(phi=phi, theta=theta, psi=psi)
        assert 0.0 <= e.theta <= math.pi and 0.0 <= e.phi < 2.0 * math.pi and 0.0 <= e.psi < 2.0 * math.pi
        again = EulerAngles(phi=e.phi, theta=e.theta, psi=e.psi)
        assert _bits(again.phi, again.theta, again.psi) == _bits(e.phi, e.theta, e.psi)


def test_tiny_negative_azimuth_folds_to_zero():
    assert _bits(Direction(theta=1.0, phi=-1e-17).phi) == _bits(0.0)
    e = EulerAngles(phi=-1e-17, theta=1.0, psi=-1e-300)
    assert _bits(e.phi, e.theta, e.psi) == _bits(0.0, 1.0, 0.0)
    # A tiny negative polar angle mirrors to 0 with the azimuths advanced by pi.
    e = EulerAngles(phi=0.0, theta=-1e-17, psi=0.0)
    assert _bits(e.phi, e.theta, e.psi) == _bits(math.pi, 0.0, math.pi)
    rho = density_from_bloch([0.1, -0.2, 0.3])
    assert w_value(rho, Direction(theta=1.0, phi=-1e-17)) == w_value(rho, Direction(theta=1.0, phi=0.0))
