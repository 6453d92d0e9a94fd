"""The spin-1/2 maps give bit-for-bit the results of their numpy-array forms.

The scalar core computes on Python complex numbers.  The references below
keep the array formulas it replaced, and every comparison is on the bytes of
the float64 values, so a last-bit difference or a flipped zero sign fails.
"""

import math
import struct

import numpy as np
import pytest

from spintomo import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    VERTEX_ORDER,
    AxisTriple,
    Direction,
    EulerAngles,
    QuasiProbTable,
    Tomogram,
    check_admissibility,
    density_from_bloch,
    density_from_p,
    eigenket,
    overlap,
    p_from_density,
    p_from_w,
    p_oracle,
    random_bloch_vectors,
    random_density_matrices,
    rotation_matrix,
    validate_density,
    verify_radon_consistency,
    w_axes,
    w_value,
)
from spintomo.quasiprob import _table_from_entries

from conftest import NAMED_STATES


def bits(*values):
    """The bytes of each value as a complex float64 pair."""
    return tuple(struct.pack("<dd", complex(v).real, complex(v).imag) for v in values)


def table_bits(table):
    return bits(*(table[v] for v in VERTEX_ORDER))


# ---------------------------------------------------------------------------
# Array-formula references.


def ref_validate(matrix):
    m = np.asarray(matrix, dtype=complex)
    herm_dev = float(np.abs(m - m.conj().T).max())
    trace_dev = float(abs(m[0, 0] + m[1, 1] - 1.0))
    h = 0.5 * (m + m.conj().T)
    mean = 0.5 * float(h[0, 0].real + h[1, 1].real)
    radius = float(np.hypot(0.5 * (h[0, 0].real - h[1, 1].real), abs(h[0, 1])))
    return herm_dev, trace_dev, mean - radius


def ref_table_from_matrix(m):
    rho_pp, rho_pm = m[0, 0], m[0, 1]
    rho_mp, rho_mm = m[1, 0], m[1, 1]
    plus = 0.25 * (1.0 + 1.0j)
    minus = 0.25 * (1.0 - 1.0j)
    return QuasiProbTable(
        {
            (1, 1, 1): plus * (rho_pp + rho_pm),
            (-1, 1, 1): minus * (rho_pp - rho_pm),
            (1, -1, 1): minus * (rho_pp + rho_pm),
            (-1, -1, 1): plus * (rho_pp - rho_pm),
            (1, 1, -1): minus * (rho_mm + rho_mp),
            (-1, 1, -1): plus * (rho_mm - rho_mp),
            (1, -1, -1): plus * (rho_mm + rho_mp),
            (-1, -1, -1): minus * (rho_mm - rho_mp),
        }
    )


def ref_matrix_from_table(table):
    p_ppp = table[1, 1, 1]
    p_mpp = table[-1, 1, 1]
    rho_pp = (1.0 - 1.0j) * p_ppp + (1.0 + 1.0j) * p_mpp
    rho_pm = (1.0 - 1.0j) * p_ppp - (1.0 + 1.0j) * p_mpp
    return np.array([[rho_pp, rho_pm], [np.conj(rho_pm), 1.0 - rho_pp]], dtype=complex)


def ref_p_oracle(m):
    entries = {}
    for c, b, a in VERTEX_ORDER:
        entries[(c, b, a)] = (
            overlap("x", c, "y", b)
            * overlap("y", b, "z", a)
            * complex(np.vdot(eigenket("z", a), m @ eigenket("x", c)))
        )
    return QuasiProbTable(entries)


def ref_rotation(u):
    c = math.cos(0.5 * u.theta)
    s = math.sin(0.5 * u.theta)
    e_sum = np.exp(0.5j * (u.phi + u.psi))
    e_diff = np.exp(0.5j * (u.phi - u.psi))
    return np.array(
        [[c * e_sum, s * np.conj(e_diff)], [-s * e_diff, c * np.conj(e_sum)]], dtype=complex
    )


def ref_w_value(m, u):
    angles = u.euler() if isinstance(u, Direction) else u
    d = ref_rotation(angles)
    rotated = d @ m @ d.conj().T
    return Tomogram(
        w_plus=float(rotated[0, 0].real),
        w_minus=float(rotated[1, 1].real),
        direction=Direction(theta=angles.theta, phi=angles.phi),
    )


def ref_w_axes(m):
    axes = [
        Direction(theta=math.pi / 2, phi=0.0),
        Direction(theta=math.pi / 2, phi=math.pi / 2),
        Direction(theta=0.0, phi=0.0),
    ]
    return AxisTriple(*(ref_w_value(m, d).w_plus for d in axes))


def ref_p_from_w(triple):
    wx, wy, wz = triple.wx_plus, triple.wy_plus, triple.wz_plus
    plus, minus = 0.25 * (1.0 + 1.0j), 0.25 * (1.0 - 1.0j)
    up = wx - 1.0j * wy + wz
    up_flip = -wx + 1.0j * wy + wz
    down = wx + 1.0j * wy + (1.0 - wz)
    down_flip = -wx - 1.0j * wy + (1.0 - wz)
    values = [
        plus * up - 0.25,
        minus * up_flip - 0.25j,
        minus * up + 0.25j,
        plus * up_flip + 0.25,
        minus * down - 0.25,
        plus * down_flip + 0.25j,
        plus * down - 0.25j,
        minus * down_flip + 0.25,
    ]
    return QuasiProbTable(dict(zip(VERTEX_ORDER, values)))


def ref_admissibility(table):
    total = complex(sum(table[v] for v in VERTEX_ORDER))
    marginals = []
    for slot in range(3):
        for sign in (1, -1):
            value = complex(sum(table[v] for v in VERTEX_ORDER if v[slot] == sign))
            marginals.append((value, abs(value.imag), max(0.0, -value.real, value.real - 1.0)))
    m = ref_matrix_from_table(table)
    regenerated = ref_table_from_matrix(m)
    redundancy = float(max(abs(table[v] - regenerated[v]) for v in VERTEX_ORDER))
    return total, abs(total - 1.0), marginals, ref_validate(m), redundancy


def ref_density_from_bloch(v):
    return 0.5 * np.eye(2, dtype=complex) + v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z


# ---------------------------------------------------------------------------
# Inputs.

N_STATES = 2000
N_MATRICES = 500


def _states():
    named = [m.copy() for m in NAMED_STATES.values()]
    return named + list(random_density_matrices(N_STATES, seed=314))


def _matrices():
    """Non-Hermitian matrices without unit trace, plus a few with signed zeros."""
    rng = np.random.default_rng(2718)
    shape = (N_MATRICES, 2, 2)
    scale = 10.0 ** rng.integers(-3, 2, size=shape)
    out = list((rng.normal(size=shape) + 1j * rng.normal(size=shape)) * scale)
    zeros = [0.0, -0.0]
    for re in zeros:
        for im in zeros:
            z = complex(re, im)
            out.append(np.array([[z, z], [z, z]]))
            out.append(np.array([[z, 0.5], [0.25j, -z]]))
    return out


def _directions(n):
    rng = np.random.default_rng(1618)
    theta = rng.uniform(-7.0, 13.0, size=n)
    phi = rng.uniform(-7.0, 13.0, size=n)
    psi = rng.uniform(-7.0, 13.0, size=n)
    return theta.tolist(), phi.tolist(), psi.tolist()


STATES = _states()
MATRICES = _matrices()


# ---------------------------------------------------------------------------
# Tests.


def test_validate_density_matches_array_form():
    for m in STATES + MATRICES:
        report = validate_density(m)
        got = (report.hermiticity_deviation, report.trace_deviation, report.min_eigenvalue)
        assert bits(*got) == bits(*ref_validate(m))


def test_tables_match_array_form():
    for m in STATES + MATRICES:
        entries = m.tolist()
        table = _table_from_entries(*entries[0], *entries[1])
        assert table_bits(table) == table_bits(ref_table_from_matrix(m))
    for rho in STATES:
        assert table_bits(p_from_density(rho)) == table_bits(ref_table_from_matrix(rho))


def test_density_from_p_matches_array_form():
    for rho in STATES:
        table = p_from_density(rho)
        assert bits(*density_from_p(table).ravel()) == bits(*ref_matrix_from_table(table).ravel())


def test_check_admissibility_matches_array_form():
    rng = np.random.default_rng(5)
    random_tables = [
        QuasiProbTable.from_array(rng.normal(size=8) + 1j * rng.normal(size=8))
        for _ in range(N_MATRICES)
    ]
    for table in [p_from_density(rho) for rho in STATES] + random_tables:
        report = check_admissibility(table)
        total, total_dev, marginals, density, redundancy = ref_admissibility(table)
        assert bits(report.total, report.total_deviation) == bits(total, total_dev)
        got = [(m.value, m.imag_magnitude, m.range_violation) for m in report.marginals]
        assert [bits(*g) for g in got] == [bits(*r) for r in marginals]
        d = report.density_report
        assert bits(d.hermiticity_deviation, d.trace_deviation, d.min_eigenvalue) == bits(*density)
        assert bits(report.redundancy_deviation) == bits(redundancy)


def test_p_oracle_matches_array_form():
    for rho in STATES:
        assert table_bits(p_oracle(rho)) == table_bits(ref_p_oracle(rho))


def test_rotation_matrix_matches_array_form():
    angles = list(zip(*_directions(N_STATES)))
    angles += [(0.0, 0.0, 0.0), (math.pi, math.pi, math.pi), (1.0, 2.0, 2.0)]
    for theta, phi, psi in angles:
        u = EulerAngles(phi=phi, theta=theta, psi=psi)
        assert rotation_matrix(u).tobytes() == ref_rotation(u).tobytes()


def test_w_value_matches_array_form():
    for rho, theta, phi, psi in zip(STATES, *_directions(len(STATES))):
        for u in (Direction(theta=theta, phi=phi), EulerAngles(phi=phi, theta=theta, psi=psi)):
            got, ref = w_value(rho, u), ref_w_value(rho, u)
            assert bits(got.w_plus, got.w_minus) == bits(ref.w_plus, ref.w_minus)
            assert bits(got.direction.theta, got.direction.phi) == bits(
                ref.direction.theta, ref.direction.phi
            )


def test_w_axes_and_radon_link_match_array_form():
    for rho in STATES:
        triple, ref = w_axes(rho), ref_w_axes(rho)
        assert bits(triple.wx_plus, triple.wy_plus, triple.wz_plus) == bits(
            ref.wx_plus, ref.wy_plus, ref.wz_plus
        )
        assert table_bits(p_from_w(triple)) == table_bits(ref_p_from_w(ref))
        delta = np.abs(ref_p_from_w(ref).to_array() - ref_table_from_matrix(rho).to_array())
        assert bits(verify_radon_consistency(rho).max_abs_delta) == bits(float(np.max(delta)))


def test_density_from_bloch_matches_array_form():
    vectors = list(random_bloch_vectors(N_STATES, seed=99))
    signed = [0.0, -0.0, 0.25, -0.25]
    vectors += [np.array([x, y, z]) for x in signed for y in signed for z in signed]
    for v in vectors:
        assert density_from_bloch(v).tobytes() == ref_density_from_bloch(v).tobytes()


@pytest.mark.parametrize("n", [0, 1, 1000])
def test_random_density_matrices_match_per_vector_loop(n):
    batch = random_density_matrices(n, seed=17)
    loop = np.empty((n, 2, 2), dtype=complex)
    for i, b in enumerate(random_bloch_vectors(n, seed=17)):
        loop[i] = density_from_bloch(b)
    assert batch.shape == (n, 2, 2) and batch.dtype == complex
    assert batch.tobytes() == loop.tobytes()
