import numpy as np
import pytest

from spintomo import (
    VERTEX_ORDER,
    AdmissibilityError,
    QuasiProbTable,
    check_admissibility,
    density_from_bloch,
    density_from_p,
    marginal,
    p_from_density,
    p_oracle,
    random_density_matrices,
)

Q = 0.25 * (1.0 + 1.0j)
QC = 0.25 * (1.0 - 1.0j)

# Tables of the four reference states, frozen entry by entry.
GOLDEN_TABLES = {
    "up_z": {
        (1, 1, 1): Q, (-1, 1, 1): QC, (1, -1, 1): QC, (-1, -1, 1): Q,
        (1, 1, -1): 0.0, (-1, 1, -1): 0.0, (1, -1, -1): 0.0, (-1, -1, -1): 0.0,
    },
    "up_x": {
        (1, 1, 1): Q, (-1, 1, 1): 0.0, (1, -1, 1): QC, (-1, -1, 1): 0.0,
        (1, 1, -1): QC, (-1, 1, -1): 0.0, (1, -1, -1): Q, (-1, -1, -1): 0.0,
    },
    "up_y": {
        (1, 1, 1): 0.25, (-1, 1, 1): 0.25, (1, -1, 1): -0.25j, (-1, -1, 1): 0.25j,
        (1, 1, -1): 0.25, (-1, 1, -1): 0.25, (1, -1, -1): 0.25j, (-1, -1, -1): -0.25j,
    },
    "unpolarized": {
        (1, 1, 1): 0.5 * Q, (-1, 1, 1): 0.5 * QC, (1, -1, 1): 0.5 * QC,
        (-1, -1, 1): 0.5 * Q, (1, 1, -1): 0.5 * QC, (-1, 1, -1): 0.5 * Q,
        (1, -1, -1): 0.5 * Q, (-1, -1, -1): 0.5 * QC,
    },
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_golden_tables(name, named_states):
    table = p_from_density(named_states[name])
    for vertex in VERTEX_ORDER:
        assert table[vertex] == pytest.approx(GOLDEN_TABLES[name][vertex], abs=1e-15)


def test_tables_not_related_by_vertex_permutation(named_states):
    # Rotating the state from +z to +y does not just permute the entries: the
    # multisets differ, so no relabeling of the cube vertices maps one table
    # onto the other.
    def multiset(rho):
        return sorted(
            (round(v.real, 12), round(v.imag, 12))
            for v in p_from_density(rho).to_array()
        )

    assert multiset(named_states["up_z"]) != multiset(named_states["up_y"])


def test_table_requires_exactly_eight_vertices():
    entries = {v: 0.125 for v in VERTEX_ORDER}
    QuasiProbTable(entries)
    with pytest.raises(ValueError):
        QuasiProbTable({v: 0.125 for v in VERTEX_ORDER[:-1]})
    with pytest.raises(ValueError):
        QuasiProbTable({**entries, (0, 1, 1): 0.0})
    for values in ([0.125] * 7, np.full((2, 4), 0.125)):
        with pytest.raises(ValueError, match="expected 8 entries, got shape"):
            QuasiProbTable.from_array(values)


def test_table_is_immutable():
    table = p_from_density(np.eye(2) / 2)
    with pytest.raises(AttributeError):
        table._entries = {}


def test_array_round_trip():
    table = GOLDEN_TABLES["up_y"]
    rebuilt = QuasiProbTable.from_array([table[v] for v in VERTEX_ORDER])
    assert np.allclose(rebuilt.to_array(), QuasiProbTable(table).to_array())
    assert list(rebuilt) == list(VERTEX_ORDER)
    assert repr(QuasiProbTable(GOLDEN_TABLES["up_z"])) == (
        "QuasiProbTable((1, 1, 1): 0.25+0.25j, (-1, 1, 1): 0.25-0.25j, "
        "(1, -1, 1): 0.25-0.25j, (-1, -1, 1): 0.25+0.25j, (1, 1, -1): 0+0j, "
        "(-1, 1, -1): 0+0j, (1, -1, -1): 0+0j, (-1, -1, -1): 0+0j)"
    )


def test_oracle_equals_closed_form(named_states, random_states):
    for rho in list(named_states.values()) + list(random_states):
        direct = p_from_density(rho).to_array()
        from_kets = p_oracle(rho).to_array()
        assert np.abs(direct - from_kets).max() < 1e-14


def test_entries_sum_to_one(random_states):
    for rho in random_states:
        assert p_from_density(rho).total() == pytest.approx(1.0, abs=1e-14)


def test_marginals_are_measurement_probabilities(random_states):
    # Each one-axis marginal must be real and match 1/2 + sign * b_axis.
    from spintomo import bloch_from_density

    for rho in random_states[:50]:
        table = p_from_density(rho)
        b = bloch_from_density(rho)
        for slot, axis in enumerate("xyz"):
            for sign in (1, -1):
                value = marginal(table, axis, sign)
                assert abs(value.imag) < 1e-14
                assert value.real == pytest.approx(0.5 + sign * b[slot], abs=1e-14)


def test_marginals_complementary(random_states):
    for rho in random_states[:20]:
        table = p_from_density(rho)
        for axis in "xyz":
            total = marginal(table, axis, 1) + marginal(table, axis, -1)
            assert total == pytest.approx(1.0, abs=1e-14)


def test_round_trip_defining_entries(named_states, random_states):
    for rho in list(named_states.values()) + list(random_states):
        table = p_from_density(rho)
        assert np.abs(density_from_p(table) - rho).max() < 1e-13


def test_linearity_in_the_state():
    rng = np.random.default_rng(7)
    states = random_density_matrices(6, seed=11)
    for k in range(0, 6, 2):
        rho_a, rho_b = states[k], states[k + 1]
        lam = rng.uniform()
        mixed = lam * rho_a + (1.0 - lam) * rho_b
        expected = lam * p_from_density(rho_a).to_array() + (1.0 - lam) * p_from_density(
            rho_b
        ).to_array()
        assert np.abs(p_from_density(mixed).to_array() - expected).max() < 1e-14


def test_admissibility_passes_for_physical_tables(random_states):
    for rho in random_states[:50]:
        report = check_admissibility(p_from_density(rho))
        assert report.passed
        assert report.total_deviation < 1e-14
        assert report.redundancy_deviation < 1e-14


def test_admissibility_catches_perturbed_entry():
    table = p_from_density(density_from_bloch(np.array([0.1, 0.2, 0.3])))
    values = table.to_array()
    values[0] += 1e-6
    report = check_admissibility(QuasiProbTable.from_array(values))
    assert not report.passed
    assert report.total_deviation > 1e-7


def test_redundancy_check_catches_consistent_sum_but_wrong_entries():
    # All entries equal to 1/8 sum to 1 and give real marginals, yet no state
    # produces that table; only the redundancy comparison can tell.
    table = QuasiProbTable({v: 0.125 for v in VERTEX_ORDER})
    report = check_admissibility(table)
    assert report.total_deviation < 1e-15
    assert all(m.imag_magnitude < 1e-15 for m in report.marginals)
    assert report.density_report.passed
    assert report.redundancy_deviation > 0.01
    assert not report.passed


def test_density_from_p_raises_with_report():
    bad = QuasiProbTable(
        {v: (0.5 if v == (1, 1, 1) else 0.5 / 7.0) for v in VERTEX_ORDER}
    )
    with pytest.raises(AdmissibilityError) as excinfo:
        density_from_p(bad)
    assert excinfo.value.report is not None


def test_marginal_rejects_bad_labels():
    table = p_from_density(np.eye(2) / 2)
    with pytest.raises(ValueError):
        marginal(table, "q", 1)
    with pytest.raises(ValueError):
        marginal(table, "x", 2)


_UNPOLARIZED = dict(zip(VERTEX_ORDER, [0.125] * 8))


@pytest.mark.parametrize(
    "value",
    [_UNPOLARIZED, tuple(_UNPOLARIZED.values()), np.full(8, 0.125 + 0j), 0.5],
    ids=["dict", "tuple", "array", "float"],
)
def test_table_maps_name_what_they_got(value):
    # The maps that take a QuasiProbTable name anything else by its type,
    # a mapping of the eight vertices included.
    maps = {
        "check_admissibility": check_admissibility,
        "density_from_p": density_from_p,
        "marginal": lambda table: marginal(table, "x", 1),
    }
    for name, map_ in maps.items():
        message = f"^{name} takes a QuasiProbTable, got {type(value).__name__}$"
        with pytest.raises(TypeError, match=message):
            map_(value)


@pytest.mark.parametrize("vertex", [(1, 1, 1), (-1, 1, -1)])
def test_admissibility_fails_on_non_finite_entry(vertex):
    entries = dict(p_from_density(np.eye(2) / 2).items())
    entries[vertex] = complex(np.nan, 0.0)
    report = check_admissibility(QuasiProbTable(entries))
    assert not report.passed
    assert np.isnan(report.redundancy_deviation)
    assert any(np.isnan(m.range_violation) for m in report.marginals)
