"""Direct affine map from three-axis probabilities to the quasiprobability table.

Each table entry is an affine function of (wx_plus, wy_plus, wz_plus), so
the eight entries can be produced without ever forming a density matrix.
For a physical triple this agrees with the composed route
``p_from_density(density_from_w_axes(...))``; the map itself is defined for
arbitrary real triples, and its entries always sum to 1 because the
additive constants cancel.

``verify_radon_consistency`` checks the map against the composed route for
one state.  ``_sweep_deviations``, the batch route of the CLI's ``sweep``,
runs the same maps on arrays of many states at once, and replays the first
state it refuses through the library's functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import sub

import numpy as np

from .common import TOL, _frozen, _max
from .errors import NonPhysicalStateError
from .quasiprob import (
    _MINUS, _PLUS, QuasiProbTable, _admissibility_maxima, _matrix_entries, _oracle_values,
    _table_values, check_admissibility, density_from_p, p_from_density,
)
from .spin_core import _bloch_excess, _numpy_abs, _report, _require
from .tomography import AxisTriple, _density_entries, _w_axes_values, density_from_w_axes, w_axes


def p_from_w(triple: AxisTriple, tol: float = TOL, validate: bool = True) -> QuasiProbTable:
    """Quasiprobability table from three-axis up-probabilities.

    With ``validate`` (the default) the triple must be finite and physical:
    b = w - 1/2, half the mean values, must have |b| - 1/2 <= tol, which is
    ``validate_density``'s positivity test and which a NaN ``tol`` fails.
    ``validate=False`` evaluates the affine map as-is, which is useful for
    checking its structural identities on arbitrary triples.  Anything but
    an :class:`AxisTriple` raises ``TypeError`` naming its type.
    """
    if not isinstance(triple, AxisTriple):
        raise TypeError(f"p_from_w takes an AxisTriple, got {type(triple).__name__}")
    # Python floats, so that the entries are Python complex numbers and the
    # Bloch-ball test squares without numpy's overflow warning.
    wx, wy, wz = float(triple.wx_plus), float(triple.wy_plus), float(triple.wz_plus)
    if validate:
        if not (math.isfinite(wx) and math.isfinite(wy) and math.isfinite(wz)):
            raise NonPhysicalStateError(
                f"axis probabilities ({wx!r}, {wy!r}, {wz!r}) are not finite"
            )
        if not _bloch_excess(wx - 0.5, wy - 0.5, wz - 0.5) <= tol:
            raise NonPhysicalStateError(
                f"axis probabilities ({wx:.6g}, {wy:.6g}, {wz:.6g}) do not "
                "describe a physical state"
            )
    return QuasiProbTable._trusted(_w_table_values(wx, wy, wz))


def _w_table_values(wx, wy, wz):
    """The table of ``p_from_w`` in ``VERTEX_ORDER``.  Only + - *, so Python
    floats and arrays give the same bits."""
    wz_minus = 1.0 - wz
    # Four linear combinations shared by pairs of entries; "flip" negates the
    # transverse (x, y) contributions.
    up = wx - 1.0j * wy + wz
    up_flip = -wx + 1.0j * wy + wz
    down = wx + 1.0j * wy + wz_minus
    down_flip = -wx - 1.0j * wy + wz_minus
    return (
        _PLUS * up - 0.25, _MINUS * up_flip - 0.25j,
        _MINUS * up + 0.25j, _PLUS * up_flip + 0.25,
        _MINUS * down - 0.25, _PLUS * down_flip + 0.25j,
        _PLUS * down - 0.25j, _MINUS * down_flip + 0.25,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Largest entrywise gap between the direct and composed table routes."""

    axis_triple: AxisTriple
    max_abs_delta: float
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_abs_delta <= self.tol


def _largest_gap(left, right):
    """The largest numpy |z| of the entrywise differences of two sequences of
    scalars (a numpy float) or of arrays (an array)."""
    return np.maximum.reduce(_numpy_abs(np.array(list(map(sub, left, right)))))


def verify_radon_consistency(rho, tol: float = TOL) -> ConsistencyReport:
    """Compare p_from_w(w_axes(rho)) against p_from_density(rho) entrywise."""
    entries = _require(rho, tol)[1]
    wx, wy, wz = _w_axes_values(entries)  # Python floats, as p_from_w takes them
    delta = float(_largest_gap(_w_table_values(wx, wy, wz), _table_values(*entries)))
    triple = _frozen(AxisTriple, wx_plus=wx, wy_plus=wy, wz_plus=wz)
    return _frozen(ConsistencyReport, axis_triple=triple, max_abs_delta=delta, tol=tol)


def _sweep_deviations(states: np.ndarray, tol: float) -> dict:
    """The five ``sweep`` deviations of each of the ``(N, 2, 2)`` states, as
    arrays of shape ``(N,)``.

    Each array has the bits that the library gives state by state:
    ``p_from_density`` -> ``density_from_p``, ``w_axes`` ->
    ``density_from_w_axes``, ``verify_radon_consistency``, ``p_oracle`` and
    ``check_admissibility``, whose maps run here on arrays of all states at
    once.  The first state that fails a check goes through the library's
    functions, which raise its error.
    """
    entries = tuple(states.reshape(len(states), 4).T)
    table = _table_values(*entries)
    from_p = _matrix_entries(table[0], table[1])
    w = _w_axes_values(entries)
    from_w_axes = _density_entries(AxisTriple(*w))
    failed = ~(_report(entries, tol).passed & _report(from_p, tol).passed
               & _report(from_w_axes, tol).passed)
    if failed.any():
        rho = states[int(failed.argmax())]
        density_from_p(p_from_density(rho, tol), tol)
        density_from_w_axes(w_axes(rho, tol), tol)
        raise AssertionError(
            f"sweep state {int(failed.argmax())} fails an array check that its "
            "scalar route passes"
        )
    return {
        "p_round_trip": _largest_gap(from_p, entries),
        "w_axes_round_trip": _largest_gap(from_w_axes, entries),
        "radon_consistency": _largest_gap(_w_table_values(*w), table),
        "oracle_equivalence": _largest_gap(_oracle_values(states).T, table),
        "admissibility": _max(*_admissibility_maxima(
            check_admissibility(QuasiProbTable._trusted(table), tol)).values()),
    }
