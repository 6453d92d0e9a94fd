"""Direct affine map from three-axis probabilities to the quasiprobability table.

Each table entry is an affine function of (wx_plus, wy_plus, wz_plus), so
the eight entries can be produced without ever forming a density matrix.
For a physical triple this agrees with the composed route
``p_from_density(density_from_w_axes(...))``; the map itself is defined for
arbitrary real triples, and its entries always sum to 1 because the
additive constants cancel.

``verify_radon_consistency`` checks the map against the composed route for
one state; ``_sweep_deviations``, the batch route of the CLI's ``sweep``, for
many at once, and replays the first state it refuses through the scalar route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalStateError
from .quasiprob import (
    _MINUS, _PLUS, QuasiProbTable, _batch_admissibility_maxima, _matrix_entries, _p_oracles,
    _table_values, density_from_p, p_from_density,
)
from .spin_core import TOL, _bloch_excess, _frozen, _nanmax, _reports, _require
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


def verify_radon_consistency(rho, tol: float = TOL) -> ConsistencyReport:
    """Compare p_from_w(w_axes(rho)) against p_from_density(rho) entrywise."""
    entries = _require(rho, tol)[1]
    wx, wy, wz = _w_axes_values(entries)  # Python floats, as p_from_w takes them
    p0, p1, p2, p3, p4, p5, p6, p7 = _w_table_values(wx, wy, wz)
    q0, q1, q2, q3, q4, q5, q6, q7 = _table_values(*entries)
    gaps = [p0 - q0, p1 - q1, p2 - q2, p3 - q3, p4 - q4, p5 - q5, p6 - q6, p7 - q7]
    # numpy's |z|, whose last bit differs from Python's abs.
    delta = _nanmax(*np.abs(np.array(gaps)).tolist())
    triple = _frozen(AxisTriple, wx_plus=wx, wy_plus=wy, wz_plus=wz)
    return _frozen(ConsistencyReport, axis_triple=triple, max_abs_delta=delta, tol=tol)


def _sweep_deviations(states: np.ndarray, tol: float) -> dict:
    """The five ``sweep`` deviations of each of the ``(N, 2, 2)`` states, as
    arrays of shape ``(N,)``.

    Each array has the bits that the scalar route gives state by state:
    ``p_from_density`` -> ``density_from_p``, ``w_axes`` ->
    ``density_from_w_axes``, ``verify_radon_consistency``, ``p_oracle`` and
    ``check_admissibility``, whose arithmetic, or its array twin, runs on all
    states at once.  The first state that fails a check goes through the
    scalar functions, which raise its error.
    """

    def passes(entries):
        # validate_density of each row of an (N, 4) array of matrix entries
        return _reports(*entries.T, tol).passed

    def largest_gap(a, b):
        return np.abs(a - b).max(axis=1)

    flat = states.reshape(len(states), 4)
    table = np.stack(_table_values(*flat.T), axis=1)
    from_p = np.stack(_matrix_entries(table[:, 0], table[:, 1]), axis=1)
    w = _w_axes_values(flat.T)
    from_w_axes = np.stack(_density_entries(AxisTriple(*w)), axis=1)
    failed = ~(passes(flat) & passes(from_p) & passes(from_w_axes))
    if failed.any():
        rho = states[int(failed.argmax())]
        density_from_p(p_from_density(rho, tol), tol)
        density_from_w_axes(w_axes(rho, tol), tol)
        raise AssertionError(
            f"sweep state {int(failed.argmax())} fails an array check that its "
            "scalar route passes"
        )
    return {
        "p_round_trip": largest_gap(from_p, flat),
        "w_axes_round_trip": largest_gap(from_w_axes, flat),
        "radon_consistency": largest_gap(np.stack(_w_table_values(*w), axis=1), table),
        "oracle_equivalence": largest_gap(_p_oracles(states), table),
        "admissibility": np.maximum.reduce([*_batch_admissibility_maxima(table).values()]),
    }
