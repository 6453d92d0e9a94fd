import math
import re
import subprocess
import sys
import threading
import warnings
from itertools import product

import numpy as np
import pytest

from spintomo import (
    EulerAngles,
    NonPhysicalStateError,
    QuadratureGrid,
    build_quadrature,
    m_values,
    random_density_j,
    reconstruct_density_j,
    require_density_j,
    rotation_matrix,
    rotation_matrix_j,
    validate_density_j,
    w_callable_from_density,
    w_value,
    wigner_3j,
    wigner_D,
    wigner_small_d,
)

SQ = math.sqrt


def test_m_values():
    assert m_values(0.5) == (0.5, -0.5)
    assert m_values(1) == (1.0, 0.0, -1.0)
    assert m_values(1.5) == (1.5, 0.5, -0.5, -1.5)
    with pytest.raises(ValueError):
        m_values(-1)
    # A value whose double is not finite, or is an exact int beyond the float
    # range, is refused with its name, not with an OverflowError from
    # rounding or dividing it; a huge int by its magnitude, not its digits.
    refusals = [
        (value, ValueError, f"{value!r} doubled is not finite")
        for value in (math.inf, -math.inf, math.nan, 1e308, np.float64(1e308))
    ]
    refusals += [
        (10**400, ValueError, "1.000e+400 doubled lies beyond the float range"),
        (-10**400, ValueError, "-1.000e+400 doubled lies beyond the float range"),
    ]
    # A bool, Python's or numpy's, is no spin or projection, though Python
    # counts True as the int 1; a str, None or a complex is no number.
    refusals += [
        (value, TypeError, f"expected a real multiple of 1/2, got {value!r}")
        for value in (True, False, np.bool_(True), "1", None, 1 + 0j)
    ]
    family = w_callable_from_density(np.eye(3) / 3)
    calls = (
        m_values,
        build_quadrature,
        lambda j: wigner_3j(j, 1, 1, 0, 0, 0),
        lambda m: wigner_3j(1, 1, 0, m, 0, 0),
        lambda m: wigner_small_d(1, m, 0, 0.1),
        lambda m: family(m, 0.1, 0.2),
    )
    for value, error, message in refusals:
        for call in calls:
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                call(value)


def test_twice_accepts_its_edges():
    # The largest exact int whose double a float still holds, and a value
    # 1e-9 / 2 off a multiple of 1/2, whose double is off by exactly the
    # 1e-9 allowed; each is refused by its > -> >= mutant.
    from fractions import Fraction

    from spintomo.general_inversion import _twice

    assert _twice(int(sys.float_info.max) // 2) == int(sys.float_info.max)
    assert _twice(Fraction(1, 2) + Fraction(1e-9) / 2) == 1


# Closed-form values; the last two were evaluated exactly with an
# independent computer-algebra 3j implementation.
FROZEN_3J = [
    ((0.5, 0.5, 0, 0.5, -0.5, 0), 1 / SQ(2)),
    ((0.5, 0.5, 1, 0.5, 0.5, -1), -1 / SQ(3)),
    ((0.5, 0.5, 1, 0.5, -0.5, 0), 1 / SQ(6)),
    ((1, 1, 0, 0, 0, 0), -1 / SQ(3)),
    ((1, 1, 0, 1, -1, 0), 1 / SQ(3)),
    ((1, 1, 1, 0, 0, 0), 0.0),
    ((1, 1, 1, 1, -1, 0), 1 / SQ(6)),
    ((1, 1, 2, 0, 0, 0), SQ(2.0 / 15.0)),
    ((1, 1, 2, 1, -1, 0), 1 / SQ(30)),
    ((1.5, 1.5, 0, 0.5, -0.5, 0), -0.5),
    ((1.5, 1.5, 0, 1.5, -1.5, 0), 0.5),
    ((1.5, 1.5, 2, 1.5, -1.5, 0), 1 / SQ(20)),
    ((1.5, 1.5, 3, 1.5, -1.5, 0), 1 / SQ(140)),
]


@pytest.mark.parametrize("args,expected", FROZEN_3J)
def test_wigner_3j_frozen_values(args, expected):
    assert wigner_3j(*args) == pytest.approx(expected, abs=1e-15)


def test_wigner_3j_stretched_diagonal():
    # (j j 0; m -m 0) = (-1)^(j - m) / sqrt(2j + 1)
    for tj in range(0, 8):
        j = tj / 2.0
        for tm in range(-tj, tj + 1, 2):
            m = tm / 2.0
            expected = (-1) ** round(j - m) / SQ(2 * j + 1)
            assert wigner_3j(j, j, 0, m, -m, 0) == pytest.approx(expected, abs=1e-15)


def test_wigner_3j_selection_rules():
    assert wigner_3j(0.5, 0.5, 2, 0.5, -0.5, 0) == 0.0  # triangle violated
    assert wigner_3j(1, 1, 1, 1, 1, -1) == 0.0  # m-sum nonzero
    assert wigner_3j(1, 1, 2, 1, 1, -2) != 0.0  # stretched but allowed
    assert wigner_3j(1, 1, 2, 1, 0, 0) == 0.0  # m-sum nonzero
    assert wigner_3j(0.5, 0.5, 1, 0.5, 0.5, -1.5) == 0.0  # m3 outside j3
    with pytest.raises(ValueError):
        wigner_3j(0.6, 1, 1, 0, 0, 0)


def test_wigner_3j_column_swap_symmetry():
    # Swapping two columns multiplies by (-1)^(j1 + j2 + j3).
    rng = np.random.default_rng(23)
    for _ in range(50):
        tj1, tj2 = rng.integers(0, 4, 2) * 1
        tj1, tj2 = int(tj1), int(tj2)
        tj3 = int(rng.integers(abs(tj1 - tj2), tj1 + tj2 + 1))
        if (tj1 + tj2 + tj3) % 2:
            continue
        tm1 = int(rng.integers(-tj1, tj1 + 1))
        tm2 = int(rng.integers(-tj2, tj2 + 1))
        if (tj1 + tm1) % 2 or (tj2 + tm2) % 2:
            continue
        tm3 = -tm1 - tm2
        if abs(tm3) > tj3:
            continue
        args = (tj1 / 2, tj2 / 2, tj3 / 2, tm1 / 2, tm2 / 2, tm3 / 2)
        swapped = (tj2 / 2, tj1 / 2, tj3 / 2, tm2 / 2, tm1 / 2, tm3 / 2)
        parity = (-1) ** ((tj1 + tj2 + tj3) // 2)
        assert wigner_3j(*swapped) == pytest.approx(
            parity * wigner_3j(*args), abs=1e-14
        )


def test_wigner_3j_orthogonality():
    # sum_{m1 m2} (2 j3 + 1) 3j(m1 m2 m3) 3j(m1 m2 m3') = delta_{j3 j3'} delta_{m3 m3'}
    for tj1, tj2 in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        j1, j2 = tj1 / 2, tj2 / 2
        triples = []
        for tj3 in range(abs(tj1 - tj2), tj1 + tj2 + 1, 2):
            for tm3 in range(-tj3, tj3 + 1, 2):
                triples.append((tj3, tm3))
        for (tj3, tm3), (tj3b, tm3b) in product(triples, repeat=2):
            acc = 0.0
            for tm1 in range(-tj1, tj1 + 1, 2):
                tm2 = -tm1 - tm3
                if abs(tm2) > tj2:
                    continue
                acc += wigner_3j(j1, j2, tj3 / 2, tm1 / 2, tm2 / 2, tm3 / 2) * wigner_3j(
                    j1, j2, tj3b / 2, tm1 / 2, tm2 / 2, tm3b / 2
                )
            expected = 1.0 / (tj3 + 1) if (tj3, tm3) == (tj3b, tm3b) else 0.0
            assert acc == pytest.approx(expected, abs=1e-14)


def test_wigner_3j_against_sympy_sweep():
    sympy_wigner = pytest.importorskip("sympy.physics.wigner")
    from sympy import Rational

    checked = 0
    for tj1, tj2, tj3 in product(range(0, 4), repeat=3):
        for tm1 in range(-tj1, tj1 + 1, 2):
            for tm2 in range(-tj2, tj2 + 1, 2):
                tm3 = -tm1 - tm2
                if abs(tm3) > tj3 or (tj3 + tm3) % 2:
                    continue
                mine = wigner_3j(
                    tj1 / 2, tj2 / 2, tj3 / 2, tm1 / 2, tm2 / 2, tm3 / 2
                )
                theirs = float(
                    sympy_wigner.wigner_3j(
                        Rational(tj1, 2),
                        Rational(tj2, 2),
                        Rational(tj3, 2),
                        Rational(tm1, 2),
                        Rational(tm2, 2),
                        Rational(tm3, 2),
                    )
                )
                assert mine == pytest.approx(theirs, abs=1e-12)
                checked += 1
    assert checked > 100


def test_kernel_coupling_families_match_exact_symbols():
    # The kernel's 3j table, from the recursion, against the exact-rational
    # symbols: (-1)^i (j j j3; m -m' M) over (M, i, j3) for each entry
    # rho_{i+M, i} inside the matrix, m = j - i - M and m' = j - i, and
    # exactly 0 for the entries past it, at every j3 = 0..2j.
    from spintomo.general_inversion import _coupling_families, _w3j_twice

    for tj in range(25):
        dim = tj + 1
        table = _coupling_families(tj)
        assert table.shape == (dim,) * 3
        inside = np.add.outer(np.arange(dim), np.arange(dim)) <= tj
        exact = np.array(
            [
                [
                    (-1) ** i * _w3j_twice(tj, tj, 2 * j3, tj - 2 * (i + big_m), 2 * i - tj, 2 * big_m)
                    for j3 in range(dim)
                ]
                for big_m, i in np.argwhere(inside).tolist()
            ]
        )
        assert np.abs(table[inside] - exact).max() <= 1e-14, tj
        past = table[~inside]
        assert past.tobytes() == bytes(past.nbytes), tj


def test_small_d_half_matrix():
    theta = 0.7
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    assert wigner_small_d(0.5, 0.5, 0.5, theta) == pytest.approx(c, abs=1e-15)
    assert wigner_small_d(0.5, 0.5, -0.5, theta) == pytest.approx(s, abs=1e-15)
    assert wigner_small_d(0.5, -0.5, 0.5, theta) == pytest.approx(-s, abs=1e-15)
    assert wigner_small_d(0.5, -0.5, -0.5, theta) == pytest.approx(c, abs=1e-15)


def test_small_d_one_matrix():
    # Closed form of the spin-1 matrix in this convention (transposed
    # relative to the common convention), rows mp = 1, 0, -1.
    rng = np.random.default_rng(29)
    for theta in rng.uniform(0, np.pi, 20):
        c, s = math.cos(theta), math.sin(theta)
        expected = np.array(
            [
                [(1 + c) / 2, s / SQ(2), (1 - c) / 2],
                [-s / SQ(2), c, s / SQ(2)],
                [(1 - c) / 2, -s / SQ(2), (1 + c) / 2],
            ]
        )
        got = np.array(
            [
                [wigner_small_d(1, mp, m, theta) for m in (1, 0, -1)]
                for mp in (1, 0, -1)
            ]
        )
        assert np.abs(got - expected).max() < 1e-14


def test_small_d_transposition_against_sympy():
    spin = pytest.importorskip("sympy.physics.quantum.spin")
    from sympy import Rational, Symbol, lambdify, pi
    from sympy.physics.wigner import wigner_d_small

    # At a general angle Rotation.d simplifies symbolically, about 0.1 s per
    # entry at 2j = 8; at pi/2 it has a closed form.
    for theta, max_tj in ((1.234, 4), (pi / 2, 8)):
        for tj in range(max_tj + 1):
            j = Rational(tj, 2)
            for tmp in range(-tj, tj + 1, 2):
                for tm in range(-tj, tj + 1, 2):
                    theirs = complex(
                        spin.Rotation.d(j, Rational(tm, 2), Rational(tmp, 2), theta).doit()
                    ).real
                    mine = wigner_small_d(tj / 2, tmp / 2, tm / 2, float(theta))
                    assert mine == pytest.approx(theirs, abs=1e-13)
    # Whole matrices at a general angle; wigner_d_small uses this module's
    # convention, rows mp and columns m in descending order.
    beta = Symbol("beta", real=True)
    for tj in range(9):
        theirs = np.array(
            lambdify(beta, wigner_d_small(Rational(tj, 2), beta))(1.234), dtype=complex
        )
        ms = m_values(tj / 2)
        mine = np.array([[wigner_small_d(tj / 2, mp, m, 1.234) for m in ms] for mp in ms])
        assert np.abs(mine - theirs).max() < 1e-13


def test_small_d_rejects_out_of_range_projections():
    with pytest.raises(ValueError):
        wigner_small_d(0.5, 1.5, 0.5, 0.3)
    with pytest.raises(ValueError):
        wigner_small_d(1, 0.5, 0, 0.3)


def test_rotation_matrix_j_unitary():
    rng = np.random.default_rng(31)
    for j in (0.5, 1, 1.5, 2, 10, 20.5, 30, 50):
        dim = int(round(2 * j)) + 1
        for _ in range(10):
            u = EulerAngles(*rng.uniform(0, 2 * np.pi, 3))
            d = rotation_matrix_j(j, u)
            assert np.abs(d @ d.conj().T - np.eye(dim)).max() < 1e-13


def test_rotation_matrix_j_half_matches_two_by_two():
    rng = np.random.default_rng(37)
    for _ in range(100):
        u = EulerAngles(*rng.uniform(0, 2 * np.pi, 3))
        assert np.abs(
            rotation_matrix_j(0.5, u) - rotation_matrix(u)
        ).max() < 1e-14


def test_wigner_D_element_consistency():
    u = EulerAngles(phi=0.4, theta=1.1, psi=2.5)
    for j in (0.5, 1, 1.5):
        full = rotation_matrix_j(j, u)
        ms = m_values(j)
        for i, mp in enumerate(ms):
            for k, m in enumerate(ms):
                assert wigner_D(j, mp, m, u) == pytest.approx(full[i, k], abs=1e-14)


def test_zero_projection_D_is_psi_free():
    for psi in (0.0, 1.0, 4.0):
        u = EulerAngles(phi=0.7, theta=0.9, psi=psi)
        assert wigner_D(1, 0, 1, u) == pytest.approx(
            wigner_D(1, 0, 1, EulerAngles(phi=0.7, theta=0.9, psi=0.0)), abs=1e-15
        )


def test_quadrature_weights_normalized():
    for j in (0.5, 1, 2.5):
        grid = build_quadrature(j)
        assert np.sum(grid.theta_weights) == pytest.approx(1.0, abs=1e-13)
        assert np.sum(grid.phi_weights) == pytest.approx(1.0, abs=1e-14)
        assert grid.n_theta >= 8 and grid.n_phi >= 8
    with pytest.raises(ValueError):
        build_quadrature(1, oversample=0)


def test_quadrature_integrates_D_orthogonality():
    # (1/(8 pi^2)) int D^j_{0 m} conj(D^j'_{0 m'}) dOmega
    #   = delta_jj' delta_mm' / (2j + 1), for integer j.
    grid = build_quadrature(2)
    pairs = [(0, 0), (1, 0), (1, 1), (2, 0), (2, -1), (2, 2)]
    for (ja, ma), (jb, mb) in product(pairs, repeat=2):
        vals_a = np.array(
            [
                [
                    wigner_D(ja, 0, ma, EulerAngles(phi=p, theta=t, psi=0.0))
                    for p in grid.phi_nodes
                ]
                for t in grid.theta_nodes
            ]
        )
        vals_b = np.array(
            [
                [
                    wigner_D(jb, 0, mb, EulerAngles(phi=p, theta=t, psi=0.0))
                    for p in grid.phi_nodes
                ]
                for t in grid.theta_nodes
            ]
        )
        integral = np.einsum(
            "t,p,tp->", grid.theta_weights, grid.phi_weights, vals_a * vals_b.conj()
        )
        expected = 1.0 / (2 * ja + 1) if (ja, ma) == (jb, mb) else 0.0
        assert abs(integral - expected) < 1e-13


def test_validate_density_j_matches_small_case():
    from spintomo import validate_density

    m = np.array([[0.7, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]])
    a = validate_density(m)
    b = validate_density_j(m)
    assert a.min_eigenvalue == pytest.approx(b.min_eigenvalue, abs=1e-13)
    assert a.passed == b.passed


def _family_probabilities(rho, u):
    # The tomogram family at one direction, in descending m1 order.
    family = w_callable_from_density(rho)
    return np.array([family(m1, u.theta, u.phi) for m1 in m_values((len(rho) - 1) / 2)])


def test_density_family_matches_spin_half(random_states):
    rng = np.random.default_rng(41)
    for rho in random_states[:20]:
        u = EulerAngles(*rng.uniform(0, 2 * np.pi, 3))
        probs = _family_probabilities(rho, u)
        t = w_value(rho, u)
        assert probs[0] == pytest.approx(t.w_plus, abs=1e-14)
        assert probs[1] == pytest.approx(t.w_minus, abs=1e-14)


def test_density_family_is_probability_vector():
    rng = np.random.default_rng(43)
    for dim in (2, 3, 4):
        for rho in random_density_j(dim, 5, seed=dim):
            u = EulerAngles(*rng.uniform(0, 2 * np.pi, 3))
            probs = _family_probabilities(rho, u)
            assert probs.min() > -1e-14
            assert np.sum(probs) == pytest.approx(1.0, abs=1e-13)


def test_reconstruct_spin_half_named(named_states):
    for name, rho in named_states.items():
        rec = reconstruct_density_j(w_callable_from_density(rho), 0.5)
        assert np.abs(rec - rho).max() < 1e-13, name


def test_reconstruct_trivial_spin_zero():
    rec = reconstruct_density_j(lambda m1, t, p: 1.0, 0)
    assert rec.shape == (1, 1)
    assert rec[0, 0] == pytest.approx(1.0, abs=1e-13)


@pytest.mark.parametrize(
    "dim,j,tol",
    [
        (2, 0.5, 1e-12),
        (3, 1.0, 1e-12),
        (4, 1.5, 1e-11),
        (21, 10.0, 1e-10),
        (41, 20.0, 1e-10),
        (51, 25.0, 1e-10),
    ],
)
def test_reconstruct_random_states(dim, j, tol):
    # The README's accuracy claim for mixed states; the largest error seen
    # is 1.8e-15, at j = 20.  Each result also passes validation at tol.
    for rho in random_density_j(dim, 10, seed=100 + dim):
        rec = reconstruct_density_j(w_callable_from_density(rho), j)
        assert np.abs(rec - rho).max() < 1e-13
        assert validate_density_j(rec, tol=tol).passed


def test_reconstruct_stable_under_grid_refinement():
    rho = random_density_j(3, 1, seed=55)[0]
    family = w_callable_from_density(rho)
    coarse = reconstruct_density_j(family, 1, grid=build_quadrature(1, oversample=2))
    fine = reconstruct_density_j(family, 1, grid=build_quadrature(1, oversample=4))
    assert np.abs(coarse - fine).max() < 1e-13


def _printed_triple_sum(samples, j, grid, literal):
    # The inversion formula term by term, independent of the kernel:
    # rho_{m1', m2'} = sum over j3, m3 and m1 of (2 j3 + 1)^2 s(m1, m2')
    # (j j j3; m1 -m1 0) (j j j3; m1' -m2' m3) times the Euler-angle integral
    # of w(m1, u) D^(j3)_{0, m3}(u).  The sign s is the integer power
    # (-1)^(m2' - m1), or, read literally, exp(i pi m2') exp(i pi m1).
    ms = m_values(j)
    weights = np.outer(grid.theta_weights, grid.phi_weights)
    phis = grid.phi_nodes
    integrals = {}
    for j3 in range(len(ms)):
        for m3 in range(-j3, j3 + 1):
            d = np.array(
                [
                    [wigner_D(j3, 0, m3, EulerAngles(phi=p, theta=t, psi=0.0)) for p in phis]
                    for t in grid.theta_nodes
                ]
            )
            for k, m1 in enumerate(ms):
                integrals[j3, m3, m1] = np.sum(weights * d * samples[k])
    rho = np.zeros((len(ms), len(ms)), dtype=complex)
    for (a, m1p), (b, m2p) in product(enumerate(ms), repeat=2):
        for (j3, m3, m1), integral in integrals.items():
            if literal:
                sign = np.exp(1j * np.pi * m2p) * np.exp(1j * np.pi * m1)
            else:
                sign = (-1) ** round(m2p - m1)
            rho[a, b] += (
                (2 * j3 + 1) ** 2
                * sign
                * wigner_3j(j, j, j3, m1, -m1, 0)
                * wigner_3j(j, j, j3, m1p, -m2p, m3)
                * integral
            )
    return rho


@pytest.mark.parametrize("j", [0.5, 1, 1.5])
def test_printed_triple_sum_matches_kernel_in_both_sign_readings(j):
    # Reading the two sign factors as independent exponentials is only
    # equivalent for integer spin; for half-integer spin it returns minus
    # the state.
    dim = int(2 * j) + 1
    rho = random_density_j(dim, 1, seed=400 + dim)[0]
    grid = build_quadrature(j, oversample=1)
    samples = _looped_samples(w_callable_from_density(rho), j, grid)
    reconstructed = reconstruct_density_j(samples, j, grid=grid)
    combined = _printed_triple_sum(samples, j, grid, literal=False)
    literal = _printed_triple_sum(samples, j, grid, literal=True)
    assert np.abs(combined - reconstructed).max() < 1e-12
    assert np.abs(literal - (-1) ** (dim - 1) * reconstructed).max() < 1e-12
    assert np.abs(reconstructed - rho).max() < 1e-12


def test_reconstruct_rejects_unnormalized_family():
    rho = np.eye(2, dtype=complex) / 2
    family = w_callable_from_density(rho)

    def broken(m1, theta, phi):
        return family(m1, theta, phi) + 0.01

    with pytest.raises(NonPhysicalStateError):
        reconstruct_density_j(broken, 0.5)

    # A NaN tol accepts nothing, as in validate_density_j.
    grid = build_quadrature(0.5)
    message = "not a normalized probability family"
    for values in (2 * family.samples(grid), family.samples(grid)):
        with pytest.raises(NonPhysicalStateError, match=message):
            reconstruct_density_j(values, 0.5, grid=grid, tol=float("nan"))
    assert not validate_density_j(rho, tol=float("nan")).passed


def test_sample_checks_accept_their_edges():
    # Dyadic samples, so every bound and sum is exact.  One node pair at
    # (-t, 1 + t) puts the minimum at -t and the maximum at 1 + t, with sums
    # of 1; one at (1/2, 1/2 + t) a sum at 1 + t.  Each is accepted at tol = t,
    # where its comparison holds with equality, and refused at t / 2.
    grid = build_quadrature(0.5)
    t = 2.0 ** -10
    half = np.full((2, len(grid.theta_nodes), len(grid.phi_nodes)), 0.5)
    for pair in ((-t, 1.0 + t), (0.5, 0.5 + t)):
        values = half.copy()
        values[:, 3, 5] = pair
        reconstruct_density_j(values, 0.5, grid=grid, tol=t)
        with pytest.raises(NonPhysicalStateError, match="normalized probability family"):
            reconstruct_density_j(values, 0.5, grid=grid, tol=t / 2)


def test_reconstruct_rejects_negative_probabilities():
    def negative(m1, theta, phi):
        return 1.5 if m1 > 0 else -0.5

    with pytest.raises(NonPhysicalStateError):
        reconstruct_density_j(negative, 0.5)


@pytest.mark.parametrize("off_diagonal", [(1e308, -1e308), (1e308, 1e308)])
def test_overflowing_density_j_fails_without_warnings(off_diagonal):
    # m - m^dagger, or m + m^dagger, overflows; the report fails on its own.
    m = np.array([[0.5, off_diagonal[0]], [off_diagonal[1], 0.5]], dtype=complex)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_density_j(m)
        with pytest.raises(NonPhysicalStateError, match="not a physical density matrix"):
            w_callable_from_density(m)
    assert not report.passed


NON_FINITE_ENTRIES = [math.nan, math.inf, -math.inf, complex(0, math.nan), complex(0, math.inf)]


def _with_entry(dim, position, value):
    m = np.eye(dim, dtype=complex) / dim
    m[position] = value
    return m


@pytest.mark.parametrize("dim", [3, 5])
@pytest.mark.parametrize("value", NON_FINITE_ENTRIES)
def test_non_finite_density_j_gets_a_failing_report(dim, value):
    # LAPACK does not converge on these; the report says so with a NaN
    # minimum eigenvalue instead of raising numpy's LinAlgError.
    m = _with_entry(dim, (0, 1), value)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = validate_density_j(m)
        for refuse in (require_density_j, w_callable_from_density):
            with pytest.raises(NonPhysicalStateError, match="not a physical density matrix"):
                refuse(m)
    assert not report.passed
    assert math.isnan(report.min_eigenvalue)
    assert report.trace_deviation == 0.0


def test_overflowing_density_j_keeps_its_eigenvalue():
    # Where LAPACK converges the report keeps its numbers: here m - m^dagger
    # overflows, but the Hermitian part diag(1/2, 1/2, 0) is finite.
    m = np.zeros((3, 3), dtype=complex)
    m[0, 0] = m[1, 1] = 0.5
    m[0, 1], m[1, 0] = 1e308, -1e308
    report = validate_density_j(m)
    assert (report.hermiticity_deviation, report.trace_deviation) == (math.inf, 0.0)
    assert report.min_eigenvalue == 0.0
    assert not report.passed


@pytest.mark.parametrize("dim", [1, 2, 3, 8])
@pytest.mark.parametrize(
    "value", NON_FINITE_ENTRIES + [complex(0.5, math.nan), complex(0.5, -math.inf)]
)
def test_non_finite_diagonal_gets_a_nan_eigenvalue(dim, value):
    # LAPACK reads only the real part of the diagonal, and returned finite
    # eigenvalues here: 0.0 for [[nan, 0], [0, 0.5]].
    for k in sorted({0, dim - 1}):
        m = _with_entry(dim, (k, k), value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = validate_density_j(m)
        assert math.isnan(report.min_eigenvalue)
        assert not report.passed


def test_eigenvalue_gufunc_matches_eigvalsh():
    # The private LAPACK gufunc that validation calls gives eigvalsh's bits.
    from spintomo.general_inversion import _eigvalsh_lo

    rng = np.random.default_rng(91)
    for dim in range(1, 52):
        for _ in range(3):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            h = 0.5 * (a + a.conj().T)
            assert _eigvalsh_lo(h, signature="D->d").tobytes() == np.linalg.eigvalsh(h).tobytes()


def test_every_reconstruction_is_exactly_hermitian():
    # The inversion writes each entry above the diagonal as the conjugate
    # of the one below it, so the result is Hermitian bit for bit, with
    # diagonal imaginary parts +0.0: from a family of
    # w_callable_from_density, from a sample array, and from a callable
    # sampled node by node (here on the coarsest grid, to keep it quick).
    for dim in range(1, 52):
        j = (dim - 1) / 2
        rho = random_density_j(dim, 1, seed=500 + dim)[0]
        family = w_callable_from_density(rho)
        coarse = build_quadrature(j, oversample=1)
        values = iter(family.samples(coarse).ravel().tolist())
        results = [
            reconstruct_density_j(family, j),
            reconstruct_density_j(family.samples(build_quadrature(j)), j),
            reconstruct_density_j(lambda m1, theta, phi: next(values), j, coarse),
        ]
        for out in results:
            assert np.array_equal(out, out.conj().T)
            assert validate_density_j(out).hermiticity_deviation == 0.0
            diagonal = out.diagonal().imag
            assert not diagonal.any() and not np.signbit(diagonal).any()
            assert np.abs(out - rho).max() < 1e-12


def test_require_density_j_rejects_bad_input():
    with pytest.raises(NonPhysicalStateError):
        require_density_j(np.eye(3, dtype=complex))  # trace 3
    with pytest.raises(ValueError):
        validate_density_j(np.zeros((2, 3)))


def _looped_samples(family, j, grid):
    # The node-by-node reference for the vectorised sampling.
    return np.array(
        [
            [[family(m1, t, p) for p in grid.phi_nodes] for t in grid.theta_nodes]
            for m1 in m_values(j)
        ]
    )


@pytest.mark.parametrize("j", [0.5, 1, 1.5, 3, 4.5, 6])
def test_array_and_callable_inputs_agree(j):
    dim = int(round(2 * j)) + 1
    rho = random_density_j(dim, 1, seed=200 + dim)[0]
    family = w_callable_from_density(rho)
    grid = build_quadrature(j)
    looped = _looped_samples(family, j, grid)
    assert looped.shape == (dim, grid.n_theta, grid.n_phi)
    assert np.abs(family.samples(grid) - looped).max() < 1e-15
    from_array = reconstruct_density_j(looped, j)
    from_callable = reconstruct_density_j(lambda m1, t, p: family(m1, t, p), j)
    assert np.array_equal(from_array, from_callable)
    assert np.abs(reconstruct_density_j(family, j) - from_array).max() < 1e-15
    assert np.abs(from_array - rho).max() < 1e-12


@pytest.mark.parametrize("j", [10, 20, 25])
def test_grid_samples_match_single_nodes_at_large_spin(j):
    # samples(grid) runs the kernel's 3j families in reverse, so a round
    # trip through the kernel cannot catch an error they share.  A single
    # node call builds d^j from the J_y eigenvectors with no 3j symbol.
    # Near the poles the samples of |j, j> underflow to about 1e-39.
    dim = 2 * j + 1
    rng = np.random.default_rng(900 + dim)
    vector = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    vector /= np.linalg.norm(vector)
    top = np.zeros((dim, dim), dtype=complex)
    top[0, 0] = 1.0
    states = {
        "mixed": random_density_j(dim, 1, seed=900 + dim)[0],
        "pure": np.outer(vector, vector.conj()),
        "top": top,
    }
    grid = build_quadrature(j)
    nodes = rng.integers(0, [dim, grid.n_theta, grid.n_phi], size=(300, 3))
    ms = m_values(j)
    for name, rho in states.items():
        family = w_callable_from_density(rho)
        reference = [family(ms[k], grid.theta_nodes[t], grid.phi_nodes[p]) for k, t, p in nodes]
        assert np.abs(family.samples(grid)[tuple(nodes.T)] - reference).max() < 1e-14, name
        # The default tol accepts the samples.  The README's accuracy claim
        # for pure states: |j, j> errs most, by 6.0e-14 at j = 20.
        assert np.abs(reconstruct_density_j(family, j, grid) - rho).max() < 1e-12, name


def test_reconstruct_rejects_malformed_sample_arrays():
    grid = build_quadrature(0.5)
    good = w_callable_from_density(np.eye(2) / 2).samples(grid)
    with pytest.raises(ValueError, match="shape"):
        reconstruct_density_j(good[:, :-1], 0.5)
    with pytest.raises(ValueError, match="real"):
        reconstruct_density_j(good.astype(complex), 0.5)
    with pytest.raises(ValueError, match="spin"):
        reconstruct_density_j(w_callable_from_density(np.eye(3) / 3), 0.5)


def test_reconstruct_refuses_non_finite_samples():
    with pytest.raises(NonPhysicalStateError, match="non-finite"):
        reconstruct_density_j(lambda m1, t, p: float("nan"), 0.5)
    values = w_callable_from_density(np.eye(2) / 2).samples(build_quadrature(0.5))
    one = rf"^tomogram samples contain 1 non-finite value\(s\) out of {values.size}$"
    for bad in (np.nan, np.inf, -np.inf):
        broken = values.copy()
        broken[1, 3, 4] = bad
        with pytest.raises(NonPhysicalStateError, match=one):
            reconstruct_density_j(broken, 0.5)
    broken = values.copy()
    broken[0, 2, 1] = np.inf
    broken[1, 5, 0] = -np.inf
    two = rf"^tomogram samples contain 2 non-finite value\(s\) out of {values.size}$"
    with pytest.raises(NonPhysicalStateError, match=two):
        reconstruct_density_j(broken, 0.5)


def test_family_rejects_out_of_multiplet_projection():
    family = w_callable_from_density(np.eye(2) / 2)
    with pytest.raises(ValueError, match="m1=1.5"):
        family(1.5, 0.3, 0.2)
    with pytest.raises(ValueError, match="m1=0.0"):
        family(0, 0.3, 0.2)


def test_kernel_keys_on_node_values_not_shapes():
    j = 1
    rho = random_density_j(3, 1, seed=61)[0]
    family = w_callable_from_density(rho)
    default = build_quadrature(j)
    assert np.abs(reconstruct_density_j(family, j, grid=default) - rho).max() < 1e-13
    shifted = QuadratureGrid(
        theta_nodes=default.theta_nodes,
        theta_weights=default.theta_weights,
        phi_nodes=default.phi_nodes + 0.37,
        phi_weights=default.phi_weights,
    )
    assert np.abs(reconstruct_density_j(family, j, grid=shifted) - rho).max() < 1e-13


_GRID_FIELDS = ("theta_nodes", "theta_weights", "phi_nodes", "phi_weights")


def test_grid_keeps_read_only_copies_of_caller_arrays():
    j = 1
    family = w_callable_from_density(random_density_j(3, 1, seed=71)[0])
    default = build_quadrature(j)
    given = {name: np.array(getattr(default, name)) for name in _GRID_FIELDS}
    grid = QuadratureGrid(**given)
    for name, values in given.items():
        held = getattr(grid, name)
        assert held.dtype == np.float64
        assert not held.flags.writeable
        assert not np.shares_memory(held, values)
    first = reconstruct_density_j(family, j, grid=grid)
    for values in given.values():
        values *= 2.0
    for name in _GRID_FIELDS:
        assert np.array_equal(getattr(grid, name), getattr(default, name))
    assert reconstruct_density_j(family, j, grid=grid).tobytes() == first.tobytes()
    # Lists become float64 arrays as well.
    listed = QuadratureGrid(**{name: getattr(default, name).tolist() for name in _GRID_FIELDS})
    for name in _GRID_FIELDS:
        assert getattr(listed, name).dtype == np.float64
        assert getattr(listed, name).tobytes() == getattr(default, name).tobytes()


@pytest.mark.parametrize(
    "changes, message",
    [
        pytest.param(
            {"theta_nodes": lambda a: np.stack([a, a])},
            r"theta_nodes must be a non-empty 1-D array, got \(2, 16\)",
            id="2-D",
        ),
        pytest.param(
            {"phi_nodes": lambda a: a[:0], "phi_weights": lambda a: a[:0]},
            r"phi_nodes must be a non-empty 1-D array, got \(0,\)",
            id="empty",
        ),
        pytest.param(
            {"theta_weights": lambda a: a[:-1]},
            "theta_weights has 15 entries for 16 nodes",
            id="short",
        ),
        pytest.param(
            {"phi_nodes": lambda a: np.append(a[:-1], np.nan)},
            "phi_nodes has a non-finite entry",
            id="nan",
        ),
        pytest.param(
            {"theta_weights": lambda a: np.append(a[:-1], np.inf)},
            "theta_weights has a non-finite entry",
            id="inf",
        ),
    ],
)
def test_grid_refuses_malformed_arrays_by_field(changes, message):
    from spintomo.general_inversion import _kernel

    j = 1
    default = build_quadrature(j)
    given = {name: getattr(default, name) for name in _GRID_FIELDS}
    for name, change in changes.items():
        given[name] = change(given[name])
    family = w_callable_from_density(random_density_j(3, 1, seed=79)[0])
    before = _kernel.cache_info().misses
    with pytest.raises(ValueError, match=message):
        reconstruct_density_j(family, j, grid=QuadratureGrid(**given))
    assert _kernel.cache_info().misses == before


def _overflowing_both_ways(a):
    return np.concatenate([[1e308, 1e308, -1e308, -1e308], np.zeros(len(a) - 4)])


@pytest.mark.parametrize(
    "field, change, total",
    [
        ("phi_weights", lambda a: 2.0 * a, "2.0"),
        ("theta_weights", lambda a: 0.5 * a, "0.5"),
        ("phi_weights", lambda a: (1.0 + 2e-12) * a, "1.000000000002"),
        ("theta_weights", lambda a: -a, "-1.0"),
        ("phi_weights", lambda a: np.append(a[:-1], 1e308), "1e+308"),
        ("phi_weights", _overflowing_both_ways, "nan"),
    ],
    ids=["phi-doubled", "theta-halved", "phi-2e-12-over", "theta-negated", "huge", "nan-sum"],
)
def test_grid_refuses_weights_that_do_not_sum_to_one(field, change, total):
    # The message names the field and its sum; a sum that overflows is
    # refused with no numpy warning, which the test settings make an error.
    from spintomo.general_inversion import _kernel

    j = 1
    default = build_quadrature(j)
    given = {name: getattr(default, name) for name in _GRID_FIELDS}
    given[field] = change(given[field])
    family = w_callable_from_density(random_density_j(3, 1, seed=83)[0])
    before = _kernel.cache_info().misses
    with pytest.raises(ValueError, match=f"^{re.escape(f'{field} sum to {total}, not 1')}$"):
        reconstruct_density_j(family, j, grid=QuadratureGrid(**given))
    assert _kernel.cache_info().misses == before


def test_grid_accepts_weights_within_1e_12_of_one():
    default = build_quadrature(1)
    given = {name: getattr(default, name) for name in _GRID_FIELDS}
    for field in ("theta_weights", "phi_weights"):
        given[field] = given[field] * (1.0 + 5e-13)
    QuadratureGrid(**given)


@pytest.mark.parametrize(
    "j, n_theta, n_phi",
    [(1, 3, 3), (1, 2, 5), (1, 3, 4), (0.5, 1, 3), (0.5, 2, 2), (2.5, 5, 11), (2.5, 6, 10)],
)
def test_reconstruct_refuses_grids_too_coarse_for_the_spin(j, n_theta, n_phi):
    # At j = 1 a 3 x 3 grid returned a matrix 0.67 from the state, with no
    # error.  A spin-j family needs 2j + 1 theta nodes and, for harmonics up
    # to 4j, 4j + 1 phi nodes; the family, a callable or a sample array, is
    # refused before any kernel is built.
    from spintomo.general_inversion import _kernel, _product_grid

    tj = int(2 * j)
    grid = _product_grid(n_theta, n_phi)
    family = w_callable_from_density(random_density_j(tj + 1, 1, seed=89 + tj)[0])
    message = (
        f"a grid of {n_theta} theta and {n_phi} phi nodes is too coarse for spin "
        f"{float(j)}, which needs at least {tj + 1} and {2 * tj + 1}"
    )
    before = _kernel.cache_info().misses
    uniform = np.full((tj + 1, n_theta, n_phi), 1.0 / (tj + 1))
    for w in (family, lambda m1, theta, phi: family(m1, theta, phi), uniform):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            reconstruct_density_j(w, j, grid=grid)
    assert _kernel.cache_info().misses == before


@pytest.mark.parametrize("j", [0.5, 1, 2.5, 6])
def test_reconstruct_accepts_the_least_grid_for_the_spin(j):
    from spintomo.general_inversion import _product_grid

    tj = int(2 * j)
    rho = random_density_j(tj + 1, 1, seed=97 + tj)[0]
    grid = _product_grid(tj + 1, 2 * tj + 1)
    assert np.abs(reconstruct_density_j(w_callable_from_density(rho), j, grid=grid) - rho).max() < 1e-13


def test_second_reconstruction_on_one_grid_hits_the_caches():
    from spintomo.general_inversion import _kernel

    j = 1.5
    family = w_callable_from_density(random_density_j(4, 1, seed=73)[0])
    # A grid object that no earlier test has used.
    default = build_quadrature(j)
    grid = QuadratureGrid(**{name: getattr(default, name) for name in _GRID_FIELDS})
    # A reconstruction looks the kernel up once, to sample and to invert.
    # The first call builds it, and the second finds it.
    before = _kernel.cache_info()
    first = reconstruct_density_j(family, j, grid=grid)
    after_first = _kernel.cache_info()
    second = reconstruct_density_j(family, j, grid=grid)
    after_second = _kernel.cache_info()
    assert (after_first.hits, after_first.misses) == (before.hits, before.misses + 1)
    assert (after_second.hits, after_second.misses) == (after_first.hits + 1, after_first.misses)
    assert second.tobytes() == first.tobytes()


def test_refusals_come_before_any_table_or_kernel_is_built():
    from spintomo.general_inversion import _kernel

    # At j = 25 the kernel of even the default grid and its scratch arrays
    # take tens of megabytes; a refused request must not build them.
    j = 25
    grid = QuadratureGrid(
        **{name: getattr(build_quadrature(j), name) for name in _GRID_FIELDS}
    )
    shape = (51, grid.n_theta, grid.n_phi)
    uniform = np.full(shape, 1.0 / 51)
    non_finite = uniform.copy()
    non_finite[3, 2, 1] = np.nan
    unnormalized = 2.0 * uniform
    refusals = [
        (uniform[:, :-1], ValueError),
        (uniform.astype(complex), ValueError),
        (w_callable_from_density(np.eye(3) / 3), ValueError),
        (non_finite, NonPhysicalStateError),
        (unnormalized, NonPhysicalStateError),
    ]
    before = _kernel.cache_info().misses
    for w, error in refusals:
        with pytest.raises(error):
            reconstruct_density_j(w, j, grid=grid)
    assert _kernel.cache_info().misses == before


def test_build_quadrature_is_memoised():
    assert build_quadrature(2) is build_quadrature(2.0)
    assert build_quadrature(2, oversample=3) is not build_quadrature(2)
    assert build_quadrature(2, oversample=np.int64(3)) is build_quadrature(2, oversample=3)


def test_build_quadrature_refuses_float_or_boolean_oversample():
    # Refused whether or not the integer grid is cached; a spin no other
    # test builds at oversample 3 keeps the first call cold.
    j = 11.5
    for warm in (False, True):
        if warm:
            build_quadrature(j, oversample=3)
        for oversample in (3.0, np.float64(3.0), 2.5, "3"):
            with pytest.raises(ValueError, match="oversample must be an integer"):
                build_quadrature(j, oversample=oversample)
    for oversample in (True, np.bool_(True)):
        with pytest.raises(ValueError, match="oversample must be an integer"):
            build_quadrature(1, oversample=oversample)
    with pytest.raises(ValueError, match="oversample must be at least 1, got 0"):
        build_quadrature(1, oversample=np.int64(0))


def test_angle_cache_is_bounded():
    from spintomo.general_inversion import _small_d_matrix

    bound = _small_d_matrix.cache_info().maxsize
    assert bound is not None
    rng = np.random.default_rng(67)
    for angles in rng.uniform(0, 2 * np.pi, (2 * bound, 3)):
        rotation_matrix_j(1, EulerAngles(*angles))
    assert _small_d_matrix.cache_info().currsize <= bound


def test_threads_reconstructing_at_once_match_serial_results():
    # The cached kernel is shared; its scratch arrays are not.
    j = 3
    grid = build_quadrature(j)
    states = [random_density_j(7, 4, seed=seed) for seed in (81, 82)]
    expected = [
        [reconstruct_density_j(w_callable_from_density(rho), j, grid).tobytes() for rho in rhos]
        for rhos in states
    ]
    mismatches = [0, 0]
    done = [0, 0]

    def work(n):
        for i in range(200):
            rho = states[n][i % 4]
            out = reconstruct_density_j(w_callable_from_density(rho), j, grid)
            mismatches[n] += out.tobytes() != expected[n][i % 4]
            done[n] += 1

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(n,)) for n in (0, 1)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert done == [200, 200]
    assert mismatches == [0, 0]


@pytest.mark.parametrize("j", [6, 10])
def test_warm_reconstruction_temporaries_stay_small(j):
    # A warm reconstruction works in scratch arrays kept with the cached
    # kernel; what it allocates stays below one sample array.
    # Larger transients are handed back to the operating system after each
    # call and faulted in again on the next, which makes repeated
    # reconstructions slow and uneven.
    import tracemalloc

    dim = 2 * j + 1
    family = w_callable_from_density(random_density_j(dim, 1, seed=300 + dim)[0])
    grid = build_quadrature(j)
    reconstruct_density_j(family, j, grid)  # fills the caches
    size = family.samples(grid).nbytes
    tracemalloc.start()
    try:
        family.samples(grid)
        sampling_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        reconstruct_density_j(family, j, grid)
        reconstruction_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampling_peak < 2.5 * size
    assert reconstruction_peak < 1.0 * size


def test_import_leaves_out_fractions():
    # Only the exact reference wigner_3j needs fractions; importing it (and
    # decimal with it) would cost every process that imports the package.
    code = "import sys, spintomo; print('fractions' in sys.modules, 'decimal' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "False"]


def test_gauss_legendre_is_leggauss_bit_for_bit():
    # The grid's nodes and weights are numpy's, computed by its steps without
    # importing numpy.polynomial; here numpy.polynomial is the reference.
    from spintomo.general_inversion import _gauss_legendre

    sizes = {build_quadrature(tj / 2, oversample).n_theta for tj in range(51) for oversample in range(1, 5)}
    for n in sorted(sizes | set(range(1, 65)) | {256}):
        nodes, weights = _gauss_legendre(n)
        reference_nodes, reference_weights = np.polynomial.legendre.leggauss(n)
        assert nodes.tobytes() == reference_nodes.tobytes(), n
        assert weights.tobytes() == reference_weights.tobytes(), n


# Run with ``python -c`` and the paths of two output files and an input file.
_GRIDS_WITHOUT_POLYNOMIAL = """
import sys
from spintomo.cli import main
grid_out, integral_out, integral_in = sys.argv[1:]
codes = [
    main(["w", "--state", "up_x", "--grid", "8", "--output", grid_out]),
    main(["reconstruct", "--mode", "from-w-integral", "--input", integral_in, "--output", integral_out]),
]
print(codes, "numpy.polynomial" in sys.modules)
"""


def test_cli_grids_leave_out_numpy_polynomial(tmp_path):
    # A grid costs one Gauss-Legendre rule; importing numpy.polynomial for it
    # cost each fresh process 4-8 ms.
    integral_in = tmp_path / "up_x.json"
    integral_in.write_text('{"j": 0.5, "state": "up_x"}')
    paths = [str(tmp_path / "grid.json"), str(tmp_path / "integral.json"), str(integral_in)]
    result = subprocess.run([sys.executable, "-c", _GRIDS_WITHOUT_POLYNOMIAL, *paths], capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "[0, 0] False\n"


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", ["phi", "theta", "psi"])
def test_spin_j_rotations_refuse_non_finite_angle(name, value):
    # The Euler angles are refused before any d^j is evaluated.
    angles = {"phi": 0.5, "theta": 1.0, "psi": 0.1, name: value}
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
        wigner_D(1, 0, 1, EulerAngles(**angles))
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
        rotation_matrix_j(1.5, EulerAngles(**angles))
    # So are the raw angles of wigner_small_d and of a tomogram family.
    if name == "theta":
        with pytest.raises(ValueError, match=rf"^theta must be finite, got {value!r}$"):
            wigner_small_d(1, 0, 1, value)
    if name != "psi":
        w = w_callable_from_density(np.eye(3) / 3)
        with pytest.raises(ValueError, match=rf"^{name} must be finite, got {value!r}$"):
            w(0, angles["theta"], angles["phi"])
