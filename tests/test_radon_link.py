import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintomo import (
    VERTEX_ORDER,
    AxisTriple,
    NonPhysicalStateError,
    p_from_density,
    p_from_w,
    verify_radon_consistency,
    w_axes,
)

FINITE = st.floats(-5.0, 5.0, allow_nan=False)


# Entries for the triple (wx, wy, wz) = (1/2, 1/2, 1), i.e. spin up along z,
# frozen from the defining affine combinations.
def test_affine_map_on_reference_triple():
    table = p_from_w(AxisTriple(0.5, 0.5, 1.0))
    q = 0.25 * (1.0 + 1.0j)
    qc = 0.25 * (1.0 - 1.0j)
    expected = {
        (1, 1, 1): q, (-1, 1, 1): qc, (1, -1, 1): qc, (-1, -1, 1): q,
        (1, 1, -1): 0.0, (-1, 1, -1): 0.0, (1, -1, -1): 0.0, (-1, -1, -1): 0.0,
    }
    for vertex in VERTEX_ORDER:
        assert table[vertex] == pytest.approx(expected[vertex], abs=1e-15)


def test_direct_route_matches_composed_route(named_states, random_states):
    for rho in list(named_states.values()) + list(random_states):
        direct = p_from_w(w_axes(rho)).to_array()
        composed = p_from_density(rho).to_array()
        assert np.abs(direct - composed).max() < 1e-13


def test_consistency_report(named_states, random_states):
    for rho in list(named_states.values()) + list(random_states[:50]):
        report = verify_radon_consistency(rho)
        assert report.passed
        assert report.max_abs_delta < 1e-13
        assert 0.0 <= report.axis_triple.wz_plus <= 1.0


@given(FINITE, FINITE, FINITE)
def test_entries_sum_to_one_for_arbitrary_triples(wx, wy, wz):
    # The additive constants cancel, so the total is 1 even far outside the
    # physical region.
    table = p_from_w(AxisTriple(wx, wy, wz), validate=False)
    assert table.total() == pytest.approx(1.0, abs=1e-12)


@given(FINITE, FINITE, FINITE)
def test_map_is_affine(wx, wy, wz):
    base = p_from_w(AxisTriple(0.0, 0.0, 0.0), validate=False).to_array()
    value = p_from_w(AxisTriple(wx, wy, wz), validate=False).to_array()
    x_part = p_from_w(AxisTriple(1.0, 0.0, 0.0), validate=False).to_array() - base
    y_part = p_from_w(AxisTriple(0.0, 1.0, 0.0), validate=False).to_array() - base
    z_part = p_from_w(AxisTriple(0.0, 0.0, 1.0), validate=False).to_array() - base
    assembled = base + wx * x_part + wy * y_part + wz * z_part
    assert np.abs(value - assembled).max() < 1e-12


def test_marginals_reproduce_the_inputs():
    from spintomo import marginal

    triple = AxisTriple(0.6, 0.45, 0.7)
    table = p_from_w(triple)
    assert marginal(table, "x", 1).real == pytest.approx(0.6, abs=1e-14)
    assert marginal(table, "y", 1).real == pytest.approx(0.45, abs=1e-14)
    assert marginal(table, "z", 1).real == pytest.approx(0.7, abs=1e-14)
    for axis in "xyz":
        assert abs(marginal(table, axis, 1).imag) < 1e-14


def test_nonphysical_triple_rejected_by_default():
    with pytest.raises(NonPhysicalStateError):
        p_from_w(AxisTriple(1.0, 1.0, 1.0))
    # but the raw map stays evaluable on request
    p_from_w(AxisTriple(1.0, 1.0, 1.0), validate=False)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_triple_rejected_by_default(bad):
    with pytest.raises(NonPhysicalStateError, match="not finite"):
        p_from_w(AxisTriple(bad, 0.5, 0.5))
    table = p_from_w(AxisTriple(bad, 0.5, 0.5), validate=False)
    assert not np.isfinite(table.to_array()).all()
