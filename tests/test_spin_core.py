import math
import re
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintomo import (
    TOL,
    AxisTriple,
    Direction,
    NonPhysicalStateError,
    bloch_from_density,
    check_admissibility,
    density_from_bloch,
    density_from_mean_values,
    density_from_p,
    density_from_w_axes,
    eigenket,
    overlap,
    overlap_triple,
    p_from_density,
    p_from_w,
    p_oracle,
    pauli_matrix,
    purity,
    random_density_matrices,
    require_density,
    validate_density,
    verify_radon_consistency,
    w_axes,
    w_from_bloch,
    w_value,
)
from spintomo import spin_core

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
    for b in ([0.1, 0.2], np.zeros((3, 1))):
        with pytest.raises(ValueError, match="expected a length-3 Bloch vector, got shape"):
            density_from_bloch(b)


@pytest.mark.parametrize(
    "b", [[1e149, -3e149, 2e149], [5e153, 0.0, -4e153], [1e154, 1e154, 1e154], [1e308, 1e308, 0.0]]
)
def test_long_bloch_vector_norm_without_warning(b):
    # The reported norm is sqrt(b . b), summed over Python floats, which give
    # inf once the sum of squares overflows and never numpy's overflow warning.
    v = np.array(b)
    with np.errstate(over="ignore"):
        expected = np.sqrt(v.dot(v))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPhysicalStateError, match=re.escape(f"norm {expected:.6g} exceeds")):
            density_from_bloch(v)


def test_mean_values_are_twice_bloch():
    rho = density_from_mean_values(0.2, -0.4, 0.6)
    assert np.allclose(bloch_from_density(rho), [0.1, -0.2, 0.3], atol=1e-15)
    with pytest.raises(NonPhysicalStateError):
        density_from_mean_values(0.9, 0.9, 0.9)


@pytest.mark.parametrize(
    "refuse",
    [
        lambda: density_from_mean_values(np.float32(1e38), 0, 0),
        lambda: p_from_w(AxisTriple(np.float32(1e38), 0.5, 0.5)),
    ],
    ids=["density_from_mean_values", "p_from_w"],
)
def test_float32_outside_unit_ball_refused_without_warning(refuse):
    # Squared in float32, 1e38 overflows with numpy's RuntimeWarning; the
    # unit-ball test squares Python floats, so only the refusal is raised.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonPhysicalStateError, match="1e\\+38"):
            refuse()


def _unchecked_density(b):
    # 1/2 (I + 2 b . sigma), built without any check.
    return 0.5 * np.eye(2) + sum(c * pauli_matrix(a) for c, a in zip(b, "xyz"))


# Each spin-1/2 input form of the Bloch vector b, and the map that judges it.
_BLOCH_INPUTS = {
    "density_from_bloch": lambda b, tol: density_from_bloch(b, tol),
    "w_from_bloch": lambda b, tol: w_from_bloch(b, Direction(theta=0.3, phi=0.2), tol),
    "density_from_mean_values": lambda b, tol: density_from_mean_values(*(2.0 * b), tol=tol),
    "p_from_w": lambda b, tol: p_from_w(AxisTriple(*(0.5 + b)), tol),
    "density_from_w_axes": lambda b, tol: density_from_w_axes(AxisTriple(*(0.5 + b)), tol),
    "require_density": lambda b, tol: require_density(_unchecked_density(b), tol),
}


def _boundary_inputs(tol, offset):
    # Bloch vectors of norm 1/2 + tol + offset along 200 seeded directions.
    v = np.random.default_rng(24).normal(size=(200, 3))
    return (0.5 + tol + offset) * v / np.linalg.norm(v, axis=1)[:, None]


@pytest.mark.parametrize("tol", [0.0, 1e-10, 1e-3])
@pytest.mark.parametrize("name", sorted(_BLOCH_INPUTS))
def test_spin_half_inputs_share_the_bloch_ball_edge(name, tol):
    # One rule, |b| <= 1/2 + tol, for the vector, mean-value, triple and
    # matrix inputs alike: each accepts just inside the edge and refuses just
    # outside it.
    judge = _BLOCH_INPUTS[name]
    for b in _boundary_inputs(tol, -1e-15):
        judge(b, tol)
    for b in _boundary_inputs(tol, 1e-15):
        with pytest.raises(NonPhysicalStateError):
            judge(b, tol)


@pytest.mark.parametrize("name", sorted(_BLOCH_INPUTS))
@pytest.mark.parametrize("b", [[0.1, -0.2, 0.3], [10.0, 0.0, 0.0]], ids=["physical", "unphysical"])
def test_nan_tol_refuses(name, b):
    # Every comparison with a NaN tol is false, so a test written as the
    # accepting comparison refuses whatever the input.
    with pytest.raises(NonPhysicalStateError):
        _BLOCH_INPUTS[name](np.array(b), math.nan)


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


# A matrix ``_require`` refuses: its minimum eigenvalue is about -0.06.
_NOT_A_STATE = np.array([[0.9, 0.4], [0.4, 0.1]])


def _entry_bits(entries):
    return [(z.real.hex(), z.imag.hex()) for z in entries]


def test_matrix_mutated_after_validation_is_refused():
    m = density_from_bloch([0.1, 0.2, 0.3])
    p_from_density(m)
    m[:] = _NOT_A_STATE
    for public_map in (require_density, p_from_density, p_oracle, purity, w_axes):
        with pytest.raises(NonPhysicalStateError):
            public_map(m)
    with pytest.raises(NonPhysicalStateError):
        w_value(m, Direction(theta=1.0, phi=0.5))


def test_refusal_raises_with_its_report_every_time():
    raised = []
    for _ in range(2):
        with pytest.raises(NonPhysicalStateError) as excinfo:
            require_density(_NOT_A_STATE)
        raised.append(excinfo.value)
    assert raised[0].report is not None and raised[0].report.min_eigenvalue < 0
    assert raised[1].report == raised[0].report
    assert str(raised[1]) == str(raised[0])


def test_same_bytes_are_checked_again_at_a_tighter_tol():
    m = np.array([[0.5, 0.1 + 1e-12], [0.1, 0.5]], dtype=complex)
    assert 1e-13 < validate_density(m).hermiticity_deviation < 1e-11
    for _ in range(2):
        require_density(m, 1e-10)
        with pytest.raises(NonPhysicalStateError, match="hermiticity_deviation=1.000e-12 "):
            require_density(m, 0.0)
    # Tolerances that are not Python floats take the check every time.
    for tol in (0, np.float64(0.0)):
        require_density(m, 1e-10)
        with pytest.raises(NonPhysicalStateError):
            require_density(m, tol)


def test_every_form_of_one_matrix_gives_its_entries():
    m = random_density_matrices(1, seed=19)[0]
    read_only = m.view()
    read_only.flags.writeable = False
    strided = np.zeros((4, 4), dtype=complex)
    strided[::2, ::2] = m
    want = _entry_bits(m.ravel().tolist())
    for form in (m.tolist(), np.asfortranarray(m), read_only, strided[::2, ::2]):
        for last in (m, np.eye(2) / 2):
            require_density(last)
            got_m, entries = spin_core._require(form, TOL)
            assert _entry_bits(entries) == want
            assert _entry_bits(got_m.ravel().tolist()) == want


def test_threads_each_get_their_own_outcome():
    states = random_density_matrices(2, seed=23)
    refused = [_NOT_A_STATE, np.array([[0.5, 0.0], [0.0, 0.6]])]
    wrong, finished = [], []
    start = threading.Barrier(2)

    def run(good, bad):
        want = _entry_bits(good.ravel().tolist())
        start.wait(timeout=60)
        for _ in range(10_000):
            if _entry_bits(spin_core._require(good, TOL)[1]) != want:
                wrong.append("entries")
            try:
                spin_core._require(bad, TOL)
            except NonPhysicalStateError:
                pass
            else:
                wrong.append("passed")
        finished.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=run, args=pair) for pair in zip(states, refused)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert len(finished) == 2
    assert wrong == []


def test_one_state_through_the_maps_is_validated_once(monkeypatch):
    # The maps of one op of the half-maps benchmark, on one state.  Only the
    # first map that validates rho runs the check; density_from_p,
    # density_from_w_axes and check_admissibility check matrices of their own.
    require_density(np.eye(2) / 2)
    calls = []
    deviations = spin_core._deviations

    def counted(*entries):
        calls.append(entries)
        return deviations(*entries)

    monkeypatch.setattr(spin_core, "_deviations", counted)
    rho = density_from_bloch([0.1, -0.2, 0.3])
    table = p_from_density(rho)
    check_admissibility(table)
    density_from_p(table)
    for k in range(8):
        w_value(rho, Direction(theta=0.3 * k + 0.1, phi=0.7 * k + 0.2))
    triple = w_axes(rho)
    density_from_w_axes(triple)
    p_from_w(triple)
    p_oracle(rho)
    verify_radon_consistency(rho)
    assert len(calls) == 4
