"""Each report's ``passed`` against the deviations it prints.

A density report passes when its hermiticity and trace deviations are at
most tol and its least eigenvalue at least -tol; ``_check``, which the
spin-1/2 maps run, writes that rule inline and must raise exactly when the
report fails.  A table's report passes when each of the five largest
deviations that ``verify`` prints as ``table-*`` checks is at most tol.
Both rules are checked on Python scalars and on the arrays that ``sweep``
passes, over seeded random states and tables and over edges: pure states
at tol 0, signed zero, negative, infinite and NaN tols, non-finite entries,
and parts from subnormal to 1e300.
"""

import math

import numpy as np
import pytest

from spintomo import NonPhysicalStateError, QuasiProbTable, check_admissibility, random_density_matrices
from spintomo.quasiprob import _admissibility_maxima, _table_values
from spintomo.spin_core import _bloch_parts, _check, _report

TOLS = (0.0, -0.0, 1e-10, -1e-3, math.inf, math.nan)

# Parts that replace one real or imaginary part of an entry.
_PARTS = (
    0.0, -0.0, 5e-324, 2.5e-310, 1e-300, 1e-150, 1e-10, 0.5, 1.0, 1e10, 1e150, 1e300,
    -1e300, math.nan, math.inf, -math.inf,
)

# |b| = 1/2 exactly: the least eigenvalue is 0.0, which tol 0 accepts.
_PURE = ((0.0, 0.0, 0.5), (0.5, 0.0, 0.0), (0.0, -0.5, 0.0), (0.3, 0.4, 0.0), (0.0, 0.3, -0.4))


def _perturbed(rng, values, count):
    """``count`` copies of random picks of ``values`` (tuples of Python
    complex), each with one real or imaginary part replaced by a part of
    ``_PARTS`` times a power of ten from 1e-300 to 1e300, or left as it is."""
    out = []
    for _ in range(count):
        entries = list(values[rng.integers(len(values))])
        k = rng.integers(len(entries))
        part = _PARTS[rng.integers(len(_PARTS))]
        scale = 10.0 ** int(rng.integers(-300, 301)) if rng.random() < 0.3 else 1.0
        part = part * scale if math.isfinite(part * scale) else part
        z = entries[k]
        entries[k] = complex(part, z.imag) if rng.random() < 0.5 else complex(z.real, part)
        out.append(tuple(entries))
    return out


def _matrices(seed):
    rng = np.random.default_rng(seed)
    states = [tuple(m.ravel().tolist()) for m in random_density_matrices(48, seed)]
    pure = [tuple(map(complex, *_bloch_parts(*b))) for b in _PURE]
    noise = [tuple(complex(*rng.choice(_PARTS, 2)) for _ in range(4)) for _ in range(48)]
    return states + pure + noise + _perturbed(rng, states + pure, 200)


def _tables(seed):
    rng = np.random.default_rng(seed)
    tables = [_table_values(*entries) for entries in _matrices(seed)]
    noise = [tuple(complex(*rng.choice(_PARTS, 2)) for _ in range(8)) for _ in range(48)]
    return tables + noise + _perturbed(rng, tables, 200)


def _columns(rows):
    """Rows of Python complex as one complex array per position, as ``sweep``
    passes them."""
    return tuple(np.array(column, dtype=complex) for column in zip(*rows))


@pytest.mark.parametrize("seed", [3, 17])
def test_density_passed_and_check_state_one_rule(seed):
    matrices = _matrices(seed)
    outcomes = set()
    for tol in TOLS:
        passed = []
        for entries in matrices:
            report = _report(entries, tol)
            h, t, m = report.hermiticity_deviation, report.trace_deviation, report.min_eigenvalue
            expected = h <= tol and t <= tol and m >= -tol
            assert bool(report.passed) == expected, (entries, tol)
            try:
                _check(entries, tol)
                raised = False
            except NonPhysicalStateError as exc:
                raised = True
                assert repr(exc.report) == repr(report)
            assert raised == (not expected), (entries, tol)
            passed.append(expected)
            outcomes.add(expected)
        # The array form, as sweep runs it; non-finite entries make numpy warn.
        with np.errstate(all="ignore"):
            together = _report(_columns(matrices), tol).passed
        assert together.tolist() == passed, tol
    assert outcomes == {True, False}


def test_pure_states_pass_at_tol_zero():
    for b in _PURE:
        entries = tuple(map(complex, *_bloch_parts(*b)))
        for tol in (0.0, -0.0):
            assert _report(entries, tol).min_eigenvalue == 0.0
            assert _report(entries, tol).passed
            _check(entries, tol)


@pytest.mark.parametrize("seed", [5, 29])
def test_table_passed_is_its_printed_maxima_against_tol(seed):
    tables = _tables(seed)
    outcomes = set()
    for tol in TOLS:
        passed = []
        for values in tables:
            report = check_admissibility(QuasiProbTable._trusted(values), tol)
            maxima = _admissibility_maxima(report)
            expected = all(value <= tol for value in maxima.values())
            assert report.passed == expected, (values, tol)
            assert (maxima["density"] <= tol) == bool(report.density_report.passed)
            passed.append(expected)
            outcomes.add(expected)
        with np.errstate(all="ignore"):
            together = _admissibility_maxima(
                check_admissibility(QuasiProbTable._trusted(_columns(tables)), tol))
        assert np.logical_and.reduce([value <= tol for value in together.values()]).tolist() == passed
    assert outcomes == {True, False}
