import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintomo import (
    NonPhysicalStateError,
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

SIGNS = (1, -1)


def test_pauli_matrices_square_to_identity():
    for axis in "xyz":
        s = pauli_matrix(axis)
        assert np.allclose(s @ s, np.eye(2))
        assert np.allclose(s, s.conj().T)


def test_pauli_commutator_cycle():
    sx, sy, sz = (pauli_matrix(a) for a in "xyz")
    assert np.allclose(sx @ sy - sy @ sx, 2j * sz)
    assert np.allclose(sy @ sz - sz @ sy, 2j * sx)
    assert np.allclose(sz @ sx - sx @ sz, 2j * sy)


@pytest.mark.parametrize("axis", ["x", "y", "z"])
@pytest.mark.parametrize("sign", SIGNS)
def test_eigenkets_are_eigenvectors(axis, sign):
    ket = eigenket(axis, sign)
    assert np.allclose(pauli_matrix(axis) @ ket, sign * ket, atol=1e-15)
    assert abs(np.vdot(ket, ket) - 1.0) < 1e-15


def test_eigenkets_fixed_phases():
    s2 = 1.0 / np.sqrt(2.0)
    assert np.allclose(eigenket("z", 1), [1.0, 0.0])
    assert np.allclose(eigenket("z", -1), [0.0, 1.0])
    assert np.allclose(eigenket("x", 1), [s2, s2])
    assert np.allclose(eigenket("x", -1), [s2, -s2])
    assert np.allclose(eigenket("y", 1), [s2, 1j * s2])
    assert np.allclose(eigenket("y", -1), [s2, -1j * s2])


def test_overlap_matches_vdot():
    for axis_a in "xyz":
        for sign_a in SIGNS:
            for axis_b in "xyz":
                for sign_b in SIGNS:
                    expected = np.vdot(eigenket(axis_a, sign_a), eigenket(axis_b, sign_b))
                    assert overlap(axis_a, sign_a, axis_b, sign_b) == pytest.approx(expected)


def test_bad_axis_and_sign_rejected():
    with pytest.raises(ValueError):
        pauli_matrix("w")
    with pytest.raises(ValueError):
        eigenket("x", 0)
    with pytest.raises(ValueError):
        overlap("x", 1, "q", -1)


# The sixteen products <cx|by><by|az><az2|cx> that can occur in the table
# construction, frozen as (cx, by, az, az2) -> value.
QUARTER = 0.25 * (1.0 + 1.0j)
QUARTER_C = 0.25 * (1.0 - 1.0j)
TRIPLE_PRODUCTS = {
    (1, 1, 1, 1): QUARTER,
    (-1, -1, 1, 1): QUARTER,
    (-1, 1, -1, -1): QUARTER,
    (1, -1, -1, -1): QUARTER,
    (-1, -1, -1, -1): QUARTER_C,
    (1, 1, -1, -1): QUARTER_C,
    (1, -1, 1, 1): QUARTER_C,
    (-1, 1, 1, 1): QUARTER_C,
    (1, 1, 1, -1): QUARTER,
    (-1, -1, 1, -1): -QUARTER,
    (-1, 1, -1, 1): -QUARTER,
    (1, -1, -1, 1): QUARTER,
    (1, -1, 1, -1): QUARTER_C,
    (-1, 1, 1, -1): -QUARTER_C,
    (-1, -1, -1, 1): -QUARTER_C,
    (1, 1, -1, 1): QUARTER_C,
}


@pytest.mark.parametrize("signs,expected", sorted(TRIPLE_PRODUCTS.items()))
def test_overlap_triple_products(signs, expected):
    assert overlap_triple(*signs) == pytest.approx(expected, abs=1e-15)


def test_all_triple_products_have_equal_modulus():
    # Three successive overlaps of mutually unbiased kets: modulus 2^(-3/2).
    expected = 2.0 ** -1.5
    for cx in SIGNS:
        for by in SIGNS:
            for az in SIGNS:
                for az2 in SIGNS:
                    assert abs(abs(overlap_triple(cx, by, az, az2)) - expected) < 1e-15


def test_bloch_round_trip_named(named_states):
    expected = {
        "up_z": [0.0, 0.0, 0.5],
        "up_x": [0.5, 0.0, 0.0],
        "up_y": [0.0, 0.5, 0.0],
        "unpolarized": [0.0, 0.0, 0.0],
    }
    for name, rho in named_states.items():
        b = bloch_from_density(rho)
        assert np.allclose(b, expected[name], atol=1e-15)
        assert np.allclose(density_from_bloch(b), rho, atol=1e-15)


@given(
    st.tuples(
        st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)
    ).filter(lambda b: b[0] ** 2 + b[1] ** 2 + b[2] ** 2 <= 0.25)
)
def test_bloch_round_trip_random(b):
    rho = density_from_bloch(np.array(b))
    assert validate_density(rho).passed
    assert np.allclose(bloch_from_density(rho), b, atol=1e-14)


def test_bloch_vector_too_long_rejected():
    with pytest.raises(NonPhysicalStateError):
        density_from_bloch(np.array([0.6, 0.0, 0.0]))


def test_mean_values_are_twice_bloch():
    rho = density_from_mean_values(0.2, -0.4, 0.6)
    assert np.allclose(bloch_from_density(rho), [0.1, -0.2, 0.3], atol=1e-15)
    with pytest.raises(NonPhysicalStateError):
        density_from_mean_values(0.9, 0.9, 0.9)


def test_purity_extremes(named_states):
    assert purity(named_states["up_z"]) == pytest.approx(1.0)
    assert purity(named_states["unpolarized"]) == pytest.approx(0.5)


def test_validate_density_detects_each_failure():
    good = validate_density(np.array([[0.5, 0.0], [0.0, 0.5]]))
    assert good.passed
    not_hermitian = validate_density(np.array([[0.5, 0.3], [0.0, 0.5]]))
    assert not_hermitian.hermiticity_deviation == pytest.approx(0.3)
    assert not not_hermitian.passed
    bad_trace = validate_density(np.array([[0.6, 0.0], [0.0, 0.6]]))
    assert bad_trace.trace_deviation == pytest.approx(0.2)
    assert not bad_trace.passed
    not_positive = validate_density(np.array([[0.9, 0.4], [0.4, 0.1]]))
    assert not_positive.min_eigenvalue < -1e-3
    assert not not_positive.passed


@given(
    st.floats(0.0, 1.0),
    st.floats(-0.5, 0.5),
    st.floats(-0.5, 0.5),
)
def test_min_eigenvalue_closed_form_matches_eigensolver(diag, off_re, off_im):
    m = np.array(
        [[diag, off_re + 1j * off_im], [off_re - 1j * off_im, 1.0 - diag]],
        dtype=complex,
    )
    report = validate_density(m)
    assert report.min_eigenvalue == pytest.approx(
        np.linalg.eigvalsh(m)[0], abs=1e-12
    )


def test_require_density_carries_report():
    with pytest.raises(NonPhysicalStateError) as excinfo:
        require_density(np.array([[0.9, 0.4], [0.4, 0.1]]))
    assert excinfo.value.report is not None
    assert excinfo.value.report.min_eigenvalue < 0


def test_wrong_shape_rejected():
    with pytest.raises(ValueError):
        validate_density(np.eye(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_bloch_vector_rejected(bad):
    with pytest.raises(NonPhysicalStateError, match="not finite"):
        density_from_bloch(np.array([bad, 0.0, 0.0]))


def test_non_finite_entry_fails_validation():
    report = validate_density(np.array([[np.nan, 0.0], [0.0, 1.0]]))
    assert not report.passed
    assert np.isnan(report.hermiticity_deviation)
    assert not validate_density(np.array([[0.5, np.inf], [0.0, 0.5]])).passed
