"""The spin-1/2 maps give bit-for-bit the results of their numpy-array forms.

The scalar core computes on Python complex numbers.  The references below
keep the array formulas it replaced, and every comparison is on the bytes of
the float64 values, so a last-bit difference or a flipped zero sign fails.
The tomograms are the one exception: their reference is the closed formula
for the diagonal of d m d^dagger on float64 arrays, and the matrix product
itself stays as an oracle, to 1e-15.
The other way round, the array twins of the scalar maps, and the array
paths that use them, ``radon_link._sweep_deviations`` behind the CLI's
``sweep`` and ``tomography._w_grid`` behind ``w --grid``, give bit for bit
what the scalar functions give state by state and direction by direction.
"""

import dataclasses
import math
import pickle
import struct

import numpy as np
import pytest

from spintomo import (
    AXIS_DIRECTIONS,
    NonPhysicalStateError,
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
    density_from_w_axes,
    eigenket,
    overlap,
    p_from_density,
    p_from_w,
    p_oracle,
    random_bloch_vectors,
    random_density_matrices,
    require_density,
    rotation_matrix,
    validate_density,
    verify_radon_consistency,
    w_axes,
    w_value,
)
from spintomo.quasiprob import (
    AdmissibilityReport,
    MarginalCheck,
    _admissibility_maxima,
    _batch_admissibility_maxima,
    _p_oracles,
    _table_values,
)
from spintomo.radon_link import ConsistencyReport, _sweep_deviations
from spintomo.spin_core import AXES, ValidationReport, _reports
from spintomo.tomography import _w_grid

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


def ref_w_product(m, u):
    """(w_plus, w_minus) as the diagonal of the matrix product d m d^dagger:
    an oracle, which rounds differently from the closed formula."""
    angles = u.euler() if isinstance(u, Direction) else u
    d = ref_rotation(angles)
    rotated = d @ m @ d.conj().T
    return float(rotated[0, 0].real), float(rotated[1, 1].real)


def ref_w_closed(matrices, directions):
    """(w_plus, w_minus) of each matrix along each (canonical) direction, as
    arrays: the diagonal of d m d^dagger expanded in real float arithmetic,
    with cos and sin of theta/2 and of phi from ``math``."""
    m = np.array(matrices, dtype=complex)
    re, im = m.real, m.imag
    half = [0.5 * u.theta for u in directions]
    cos_t = np.array([math.cos(h) for h in half])
    sin_t = np.array([math.sin(h) for h in half])
    cos_p = np.array([math.cos(u.phi) for u in directions])
    sin_p = np.array([math.sin(u.phi) for u in directions])
    b = cos_p * re[:, 0, 1] - sin_p * im[:, 0, 1]
    c = cos_p * re[:, 1, 0] + sin_p * im[:, 1, 0]
    cross = (cos_t * sin_t) * (b + c)
    a, d = re[:, 0, 0], re[:, 1, 1]
    cos2, sin2 = cos_t * cos_t, sin_t * sin_t
    return cos2 * a + sin2 * d + cross, sin2 * a + cos2 * d - cross


def ref_w_axes(matrices):
    """The triple of each matrix: ``ref_w_closed`` along x, y and z."""
    n = len(matrices)
    plus = [ref_w_closed(matrices, [AXIS_DIRECTIONS[axis]] * n)[0].tolist() for axis in AXES]
    return [AxisTriple(*w) for w in zip(*plus)]


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
    matrices = STATES + MATRICES
    batch = _reports(*np.array(matrices).reshape(-1, 4).T)
    for i, m in enumerate(matrices):
        report = validate_density(m)
        got = (report.hermiticity_deviation, report.trace_deviation, report.min_eigenvalue)
        assert bits(*got) == bits(*ref_validate(m))
        got = (batch.hermiticity_deviation[i], batch.trace_deviation[i], batch.min_eigenvalue[i])
        assert bits(*got) == bits(*ref_validate(m))
        assert batch.passed[i] == report.passed


def test_tables_match_array_form():
    matrices = STATES + MATRICES
    batch = np.stack(_table_values(*np.array(matrices).reshape(-1, 4).T), axis=1)
    for m, row in zip(matrices, batch):
        entries = m.tolist()
        ref = table_bits(ref_table_from_matrix(m))
        assert bits(*_table_values(*entries[0], *entries[1])) == ref
        assert bits(*row) == ref
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
    # Entries with zero parts of either sign, all zero or mixed with nonzero
    # ones: sum() starts from the int 0, so an all -0.0 marginal reads +0.0.
    signed = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    zero_tables = [QuasiProbTable.from_array([z] * 8) for z in signed]
    zero_tables += [
        QuasiProbTable.from_array(rng.choice(signed + [0.25, -0.5j, 1.0 - 0.0j], size=8))
        for _ in range(200)
    ]
    tables = [p_from_density(rho) for rho in STATES] + random_tables + zero_tables
    batch = _batch_admissibility_maxima(np.array([table.to_array() for table in tables]))
    for i, table in enumerate(tables):
        report = check_admissibility(table)
        total, total_dev, marginals, density, redundancy = ref_admissibility(table)
        assert bits(report.total, report.total_deviation) == bits(total, total_dev)
        got = [(m.value, m.imag_magnitude, m.range_violation) for m in report.marginals]
        assert [bits(*g) for g in got] == [bits(*r) for r in marginals]
        d = report.density_report
        assert bits(d.hermiticity_deviation, d.trace_deviation, d.min_eigenvalue) == bits(*density)
        assert bits(report.redundancy_deviation) == bits(redundancy)
        maxima = _admissibility_maxima(report)
        assert sorted(batch) == sorted(maxima)
        assert bits(*(batch[name][i] for name in maxima)) == bits(*maxima.values())


def test_p_oracle_matches_array_form():
    batch = _p_oracles(np.array(STATES))
    for rho, row in zip(STATES, batch):
        ref = table_bits(ref_p_oracle(rho))
        assert table_bits(p_oracle(rho)) == ref
        assert bits(*row) == ref


def test_rotation_matrix_matches_array_form():
    angles = list(zip(*_directions(N_STATES)))
    angles += [(0.0, 0.0, 0.0), (math.pi, math.pi, math.pi), (1.0, 2.0, 2.0)]
    signed = [0.0, -0.0, 1.0, -1.0, 2 * math.pi]
    angles += [(theta, phi, psi) for theta in (0.0, 1.0) for phi in signed for psi in signed]
    for theta, phi, psi in angles:
        u = EulerAngles(phi=phi, theta=theta, psi=psi)
        assert rotation_matrix(u).tobytes() == ref_rotation(u).tobytes()


def _signed_zero_states():
    """Density matrices whose zero parts take either sign, as in ``_matrices``."""
    out = []
    for re in (0.0, -0.0):
        for im in (0.0, -0.0):
            z = complex(re, im)
            out.append(np.array([[complex(1.0, im), z], [z, z]]))
            out.append(np.array([[z, z], [z, complex(1.0, re)]]))
            half = complex(0.5, im)
            out.append(np.array([[half, complex(re, 0.5)], [complex(re, -0.5), complex(0.5, re)]]))
            out.append(np.array([[half, complex(0.25, re)], [complex(0.25, im), half]]))
    return out


def _axis_states():
    # Random and named states; Bloch states with signed zero components, the
    # unpolarized state among them; states with signed zero parts; pure
    # states on the sphere; and transposed views, which are density matrices
    # in a strided layout.
    states = STATES + _signed_zero_bloch_states() + _signed_zero_states()
    states += list(_pure_states(200, 11))
    return states + [rho.T for rho in STATES[:100]]


def test_w_value_matches_array_form():
    # Raw angles mostly lie outside the canonical ranges, so a Direction of
    # the folded angles, which lie inside, takes the constructor's short path.
    states = _axis_states()
    cases = []
    for rho, theta, phi, psi in zip(states, *_directions(len(states))):
        raw = Direction(theta=theta, phi=phi)
        euler = EulerAngles(phi=phi, theta=theta, psi=psi)
        inside = Direction(theta=theta % math.pi, phi=phi % (2.0 * math.pi))
        cases += [(rho, raw), (rho, euler), (rho, inside)]
    ref_plus, ref_minus = ref_w_closed(*zip(*cases))
    for (rho, u), ref in zip(cases, zip(ref_plus.tolist(), ref_minus.tolist())):
        got = w_value(rho, u)
        assert bits(got.w_plus, got.w_minus) == bits(*ref)
        assert bits(got.direction.theta, got.direction.phi) == bits(u.theta, u.phi)
        product = ref_w_product(rho, u)
        assert abs(got.w_plus - product[0]) <= 1e-15
        assert abs(got.w_minus - product[1]) <= 1e-15


def test_w_axes_and_radon_link_match_array_form():
    states = _axis_states()
    for rho, ref in zip(states, ref_w_axes(states)):
        triple = w_axes(rho)
        got = (triple.wx_plus, triple.wy_plus, triple.wz_plus)
        assert bits(*got) == bits(ref.wx_plus, ref.wy_plus, ref.wz_plus)
        for w, axis in zip(got, AXES):
            assert abs(w - ref_w_product(rho, AXIS_DIRECTIONS[axis])[0]) <= 1e-15
        assert table_bits(p_from_w(triple)) == table_bits(ref_p_from_w(ref))
        delta = np.abs(ref_p_from_w(ref).to_array() - ref_table_from_matrix(rho).to_array())
        report = verify_radon_consistency(rho)
        assert bits(report.max_abs_delta) == bits(float(np.max(delta)))
        assert report.axis_triple == triple


def test_w_value_direction_and_euler_angles_agree():
    # The Euler angles (phi, theta, 0) of a Direction's own, canonical angles,
    # and the raw angles with a random psi: psi never enters w, also when
    # theta is folded from (pi, 2pi), which moves pi into phi and psi.
    theta, phi, psi = _directions(N_STATES)
    signed = [0.0, -0.0, math.pi / 2, math.pi, 3 * math.pi, -math.pi]
    angles = list(zip(theta, phi, psi)) + [(t, p, 1.0) for t in signed for p in signed]
    assert sum(math.pi < t % (2.0 * math.pi) for t in theta) > N_STATES // 3
    states = _axis_states()
    for k, (theta, phi, psi) in enumerate(angles):
        rho = states[k % len(states)]
        u = Direction(theta=theta, phi=phi)
        by_direction = w_value(rho, u)
        for euler in (EulerAngles(phi=u.phi, theta=u.theta), EulerAngles(phi, theta, psi)):
            by_euler = w_value(rho, euler)
            assert bits(by_direction.w_plus, by_direction.w_minus) == bits(
                by_euler.w_plus, by_euler.w_minus
            )
            assert by_direction.direction == by_euler.direction


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


def ref_state_deviations(rho, tol):
    """The ``sweep`` deviations of one state, through the scalar functions."""
    table = p_from_density(rho, tol)
    deviations = {
        "p_round_trip": float(np.abs(density_from_p(table, tol) - rho).max()),
        "w_axes_round_trip": float(
            np.abs(density_from_w_axes(w_axes(rho, tol), tol) - rho).max()
        ),
        "radon_consistency": verify_radon_consistency(rho, tol).max_abs_delta,
        "oracle_equivalence": float(
            np.abs(p_oracle(rho, tol).to_array() - table.to_array()).max()
        ),
    }
    maxima = _admissibility_maxima(check_admissibility(table, tol))
    deviations["admissibility"] = max(
        maxima["total"],
        maxima["redundancy"],
        maxima["marginal-imag"],
        maxima["marginal-range"],
        maxima["density"],
    )
    return deviations


def _signed_zero_bloch_states():
    signed = [0.0, -0.0, 0.25, -0.25]
    return [density_from_bloch(np.array([x, y, z])) for x in signed for y in signed for z in signed]


def test_sweep_deviations_match_scalar_route():
    states = np.array(STATES + _signed_zero_bloch_states())
    got = _sweep_deviations(states, 1e-10)
    assert sorted(got) == sorted(ref_state_deviations(states[0], 1e-10))
    for i, rho in enumerate(states):
        ref = ref_state_deviations(rho, 1e-10)
        assert bits(*(got[name][i] for name in ref)) == bits(*ref.values())


def _scalar_refusal(states, tol):
    try:
        for rho in states:
            ref_state_deviations(rho, tol)
    except NonPhysicalStateError as exc:
        return type(exc), str(exc)
    return None


def _pure_states(n, seed):
    v = np.random.default_rng(seed).normal(size=(n, 3))
    return np.array([density_from_bloch(0.5 * b / np.linalg.norm(b)) for b in v])


def test_sweep_refuses_as_scalar_route():
    # At these tolerances some states fail some check, pure states all three
    # kinds: the array path must raise the error of the first failing state,
    # for its first failing check.
    kinds = set()
    for tol in (0.0, 1e-17, 6e-17, 1e-16, 2e-16, 4e-16):
        batches = [random_density_matrices(10, seed=seed) for seed in range(15)]
        batches += [_pure_states(10, seed) for seed in range(15)]
        for states in batches:
            try:
                _sweep_deviations(states, tol)
                got = None
            except NonPhysicalStateError as exc:
                got = type(exc), str(exc)
                kinds.add(str(exc)[:20])
            assert got == _scalar_refusal(states, tol)
    assert kinds == {
        "not a physical densi",
        "table does not descr",
        "axis probabilities d",
    }


def test_radon_consistency_reports_every_validated_state():
    # The triple of a state that require_density accepts is not judged again
    # by a rule of its own: verify_radon_consistency reports on every such
    # state, pure states at tiny tolerances and states just past |b| = 1/2.
    cases = [
        (rho, tol)
        for tol in (0.0, 1e-17, 6e-17, 4e-16)
        for seed in range(15)
        for rho in _pure_states(10, seed)
    ]
    edge = [np.diag([1.0 + eps / 2, -eps / 2]) for eps in (0.8e-10, 1.6e-10)]
    for rho in edge:
        require_density(rho, 1e-10)  # accepted, so never skipped below
    cases += [(rho, 1e-10) for rho in edge]
    accepted = 0
    for rho, tol in cases:
        try:
            require_density(rho, tol)
        except NonPhysicalStateError:
            continue
        assert isinstance(verify_radon_consistency(rho, tol), ConsistencyReport)
        accepted += 1
    assert accepted > len(cases) // 2


def test_sweep_disagreement_raises(monkeypatch):
    # A state that an array check refuses and the scalar route accepts must
    # fail the sweep loudly, not let it report on the batch.
    from spintomo import radon_link

    for name in ("density_from_p", "density_from_w_axes", "verify_radon_consistency"):
        monkeypatch.setattr(radon_link, name, lambda *args: None)
    with pytest.raises(AssertionError, match=r"sweep state \d+ fails an array check"):
        _sweep_deviations(random_density_matrices(3, seed=3), 0.0)


def _grid_nodes(n):
    # The nodes of ``w --grid n``.
    x, _ = np.polynomial.legendre.leggauss(n)
    return np.arccos(x)[::-1].tolist(), (np.arange(n) * (2.0 * np.pi / n)).tolist()


@pytest.mark.parametrize(
    "n, states",
    [(n, ("up_x", "up_y", "bloch")) for n in range(1, 34)] + [(256, ("bloch",))],
)
def test_grid_tomograms_match_w_value(n, states):
    named = dict(NAMED_STATES, bloch=density_from_bloch(np.array([0.1, -0.3, 0.2])))
    thetas, phis = _grid_nodes(n)
    for name in states:
        w_plus, w_minus = _w_grid(named[name], thetas, phis)
        for it, theta in enumerate(thetas):
            for ip, phi in enumerate(phis):
                t = w_value(named[name], Direction(theta=theta, phi=phi))
                assert bits(t.direction.theta, t.direction.phi) == bits(theta, phi)
                assert bits(t.w_plus, t.w_minus) == bits(w_plus[it, ip], w_minus[it, ip])


def _public(record):
    """The same record built field by field through the public constructors."""
    if not dataclasses.is_dataclass(record):
        return tuple(map(_public, record)) if isinstance(record, tuple) else record
    fields = {f.name: _public(getattr(record, f.name)) for f in dataclasses.fields(record)}
    return type(record)(**fields)


def _computed_records():
    """One record of each class that the maps build without ``__init__``."""
    rho = STATES[5]
    adm = check_admissibility(p_from_density(rho))
    return {
        ValidationReport: validate_density(rho),
        Tomogram: w_value(rho, Direction(theta=1.0, phi=2.0)),
        AxisTriple: w_axes(rho),
        MarginalCheck: adm.marginals[0],
        AdmissibilityReport: adm,
        ConsistencyReport: verify_radon_consistency(rho),
    }


@pytest.mark.parametrize("cls", list(_computed_records()), ids=lambda cls: cls.__name__)
def test_fast_constructor_matches_public_constructor(cls):
    fast = _computed_records()[cls]
    public = _public(fast)
    assert type(fast) is cls and fast == public and public == fast
    assert list(vars(fast).items()) == list(vars(public).items())
    assert repr(fast) == repr(public)
    assert hash(fast) == hash(public)
    assert dataclasses.asdict(fast) == dataclasses.asdict(public)
    assert dataclasses.replace(fast) == public
    assert pickle.dumps(fast) == pickle.dumps(public)
    assert pickle.loads(pickle.dumps(fast)) == public
    name = dataclasses.fields(cls)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(fast, name, None)
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(fast, name)
    assert fast == public
