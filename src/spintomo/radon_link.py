"""Direct affine map from three-axis probabilities to the quasiprobability table.

Each table entry is an affine function of (wx_plus, wy_plus, wz_plus), so
the eight entries can be produced without ever forming a density matrix.
For a physical triple this agrees with the composed route
``p_from_density(density_from_w_axes(...))``; the map itself is defined for
arbitrary real triples, and its entries always sum to 1 because the
additive constants cancel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonPhysicalStateError
from .quasiprob import _MINUS, _PLUS, QuasiProbTable, _table_values
from .spin_core import TOL, _frozen, _nanmax, _require
from .tomography import AxisTriple, _w_axes_values


def p_from_w(triple: AxisTriple, tol: float = TOL, validate: bool = True) -> QuasiProbTable:
    """Quasiprobability table from three-axis up-probabilities.

    With ``validate`` (the default) the triple must correspond to a physical
    state: its probabilities have to be finite and its mean values have to
    lie inside the unit ball.  Passing ``validate=False`` evaluates the
    affine map as-is, which is useful for checking its structural identities
    on arbitrary triples.
    """
    # Python floats, so that the entries are Python complex numbers.
    wx, wy, wz = float(triple.wx_plus), float(triple.wy_plus), float(triple.wz_plus)
    if validate:
        if not (math.isfinite(wx) and math.isfinite(wy) and math.isfinite(wz)):
            raise NonPhysicalStateError(
                f"axis probabilities ({wx!r}, {wy!r}, {wz!r}) are not finite"
            )
        if _outside_unit_ball(triple, tol):
            raise NonPhysicalStateError(
                f"axis probabilities ({wx:.6g}, {wy:.6g}, {wz:.6g}) do not "
                "describe a physical state"
            )
    return QuasiProbTable._trusted(_w_table_values(wx, wy, wz))


def _outside_unit_ball(triple: AxisTriple, tol: float):
    # Elementwise for a triple of arrays.
    mx, my, mz = triple.mean_values()
    return mx * mx + my * my + mz * mz > 1.0 + tol


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
    wx, wy, wz = _w_axes_values(entries)
    triple = _frozen(AxisTriple, wx_plus=wx, wy_plus=wy, wz_plus=wz)
    gaps = zip(p_from_w(triple, tol)._entries, _table_values(*entries))
    delta = _nanmax(*np.abs(np.array([p - q for p, q in gaps])).tolist())
    return _frozen(ConsistencyReport, axis_triple=triple, max_abs_delta=delta, tol=tol)
