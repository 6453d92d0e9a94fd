"""The eight-vertex complex quasiprobability table for a spin-1/2 state.

A state is encoded by eight complex numbers p(c, b, a) indexed by sign
triples (c, b, a) in {+1, -1}^3, where c, b, a label eigenvalues of the
spin projections along x, y and z.  The entries sum to 1, their one-axis
marginals are the six real measurement probabilities, and two entries
already determine the density matrix; the remaining six are redundancy
that an admissibility check can exploit.  The table, that check and the
eigenket-overlap oracle are each written once, for one state's Python
scalars and for the numpy arrays of many that the CLI's ``sweep`` passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Tuple

import numpy as np

from .common import TOL, ValidationReport, _density_deviation, _frozen, _max, _positive
from .errors import AdmissibilityError
from .spin_core import (
    _check,
    _check_axis,
    _check_sign,
    _abs,
    _report,
    _require,
    eigenket,
    overlap,
)

Vertex = Tuple[int, int, int]

# Row order used everywhere a table is listed or serialized: z-sign slowest,
# then y, with the x-sign alternating fastest.
VERTEX_ORDER: Tuple[Vertex, ...] = (
    (1, 1, 1),
    (-1, 1, 1),
    (1, -1, 1),
    (-1, -1, 1),
    (1, 1, -1),
    (-1, 1, -1),
    (1, -1, -1),
    (-1, -1, -1),
)

_VERTEX_POSITION = {v: k for k, v in enumerate(VERTEX_ORDER)}
_AXIS_SLOT = {"x": 0, "y": 1, "z": 2}

# The positions in VERTEX_ORDER of the four vertices summed by each one-axis
# marginal, ascending.
_MARGINAL_VERTICES = {
    (axis, sign): tuple(k for k, v in enumerate(VERTEX_ORDER) if v[slot] == sign)
    for axis, slot in _AXIS_SLOT.items()
    for sign in (1, -1)
}


class QuasiProbTable:
    """Immutable container for the eight complex entries p(c, b, a), held
    as a tuple in ``VERTEX_ORDER``."""

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[Vertex, complex]):
        missing = [v for v in VERTEX_ORDER if v not in entries]
        extra = [k for k in entries if k not in VERTEX_ORDER]
        if missing or extra:
            raise ValueError(
                f"table must have exactly the 8 sign-triple keys; "
                f"missing {missing}, unexpected {extra}"
            )
        object.__setattr__(
            self, "_entries", tuple(complex(entries[v]) for v in VERTEX_ORDER)
        )

    @classmethod
    def _trusted(cls, values) -> "QuasiProbTable":
        """Table of eight Python complex ``values`` in ``VERTEX_ORDER``, unchecked;
        or of eight arrays, whose maps give arrays (as in ``sweep``)."""
        table = object.__new__(cls)
        object.__setattr__(table, "_entries", tuple(values))
        return table

    def __setattr__(self, name, value):
        raise AttributeError("QuasiProbTable is immutable")

    def __getitem__(self, vertex: Vertex) -> complex:
        return self._entries[_VERTEX_POSITION[vertex]]

    def __iter__(self) -> Iterator[Vertex]:
        return iter(VERTEX_ORDER)

    def items(self):
        return zip(VERTEX_ORDER, self._entries)

    def to_array(self) -> np.ndarray:
        """Entries as a complex vector in ``VERTEX_ORDER``."""
        return np.array(self._entries, dtype=complex)

    @classmethod
    def from_array(cls, values) -> "QuasiProbTable":
        arr = np.asarray(values, dtype=complex)
        if arr.shape != (8,):
            raise ValueError(f"expected 8 entries, got shape {arr.shape}")
        return cls(dict(zip(VERTEX_ORDER, arr)))

    def total(self) -> complex:
        """Sum of all eight entries; 1 for any table of a physical state."""
        return complex(sum(self._entries))

    def __repr__(self) -> str:
        rows = ", ".join(f"{v}: {value:.4g}" for v, value in self.items())
        return f"QuasiProbTable({rows})"


_PLUS = 0.25 * (1.0 + 1.0j)
_MINUS = 0.25 * (1.0 - 1.0j)


def _table_values(rho_pp, rho_pm, rho_mp, rho_mm):
    """The table of [[rho_pp, rho_pm], [rho_mp, rho_mm]] in ``VERTEX_ORDER``.
    Only + - *, so Python complex numbers, numpy scalars and arrays give the
    same bits (a 2x2 matrix product would not)."""
    s_top, d_top = rho_pp + rho_pm, rho_pp - rho_pm
    s_bottom, d_bottom = rho_mm + rho_mp, rho_mm - rho_mp
    return (
        _PLUS * s_top, _MINUS * d_top, _MINUS * s_top, _PLUS * d_top,
        _MINUS * s_bottom, _PLUS * d_bottom, _PLUS * s_bottom, _MINUS * d_bottom,
    )


def p_from_density(rho, tol: float = TOL) -> QuasiProbTable:
    """Quasiprobability table of a density matrix, via the closed-form entries.

    Each entry is a fixed complex multiple of a sum or difference of two
    density-matrix elements; see :func:`p_oracle` for the equivalent
    eigenket-overlap construction.
    """
    return QuasiProbTable._trusted(_table_values(*_require(rho, tol)[1]))


# The kets |1;x> and |-1;x>, and with each the bras <a;z| of the vertices
# (c, b, a) of its c, in VERTEX_ORDER, as columns: VERTEX_ORDER alternates c
# fastest.  The weights <c;x|b;y><b;y|a;z> are s (+-1 +- i), one s for the
# real and imaginary parts of all eight, kept as s and the signs.
_X_KETS = [eigenket("x", c) for c in (1, -1)]
_Z_BRAS = [
    np.array([eigenket("z", a).conj() for c_, b, a in VERTEX_ORDER if c_ == c]).T
    for c in (1, -1)
]
_WEIGHTS = np.array([overlap("x", c, "y", b) * overlap("y", b, "z", a)
                     for c, b, a in VERTEX_ORDER])
_WEIGHT_SCALE = abs(_WEIGHTS[0].real)
_WEIGHT_SIGNS = _WEIGHTS / _WEIGHT_SCALE


def _oracle_values(m) -> np.ndarray:
    """The table of ``p_oracle`` of a 2x2 matrix, or of each matrix of an
    ``(N, 2, 2)`` stack, as an ``(..., 8)`` array in ``VERTEX_ORDER``.

    The overlaps x = <a;z|m|c;x> are BLAS products.  Python forms a weight
    s (p + iq) times x as (s p Re x - s q Im x, s p Im x + s q Re x), with
    p, q = +-1: that is (s x)(p + iq), whose product by +-1 is exact, so
    numpy's complex product rounds it alike, fused or not.
    """
    x = np.empty(m.shape[:-2] + (8,), dtype=complex)
    for k, (ket, bras) in enumerate(zip(_X_KETS, _Z_BRAS)):
        x[..., k::2] = (m @ ket).dot(bras)
    return (x.view(float) * _WEIGHT_SCALE).view(complex) * _WEIGHT_SIGNS


def p_oracle(rho, tol: float = TOL) -> QuasiProbTable:
    """Quasiprobability table built directly from eigenket overlaps.

    p(c, b, a) = <c;x|b;y><b;y|a;z><a;z|rho|c;x>.  Numerically equivalent to
    :func:`p_from_density`; kept as an independent construction.
    """
    return QuasiProbTable._trusted(_oracle_values(_require(rho, tol)[0]).tolist())


def _matrix_entries(p_ppp, p_mpp):
    # The matrix entries from p(1, 1, 1) and p(-1, 1, 1) alone, as Python
    # complex numbers or as arrays: hermiticity and unit trace fix the rest.
    rho_pp = (1.0 - 1.0j) * p_ppp + (1.0 + 1.0j) * p_mpp
    rho_pm = (1.0 - 1.0j) * p_ppp - (1.0 + 1.0j) * p_mpp
    return rho_pp, rho_pm, rho_pm.conjugate(), 1.0 - rho_pp


def _check_table(name: str, table) -> None:
    if not isinstance(table, QuasiProbTable):
        raise TypeError(f"{name} takes a QuasiProbTable, got {type(table).__name__}")


def density_from_p(table: QuasiProbTable, tol: float = TOL) -> np.ndarray:
    """Recover the density matrix from a table, or raise if none exists.

    Inverts the two defining entries p(1, 1, 1) and p(-1, 1, 1); the result
    is validated and an :class:`AdmissibilityError` carrying the report is
    raised when the table does not come from a physical state.  Anything but
    a :class:`QuasiProbTable` raises ``TypeError`` naming its type.
    """
    _check_table("density_from_p", table)
    entries = _matrix_entries(table[1, 1, 1], table[-1, 1, 1])
    _check(entries, tol, AdmissibilityError, "table does not describe a physical state")
    return np.array(entries).reshape(2, 2)


def marginal(table: QuasiProbTable, axis: str, sign: int) -> complex:
    """Sum of the four entries whose ``axis`` label equals ``sign``.

    For a physical table this is the (real) probability of outcome ``sign``
    when measuring the spin projection along ``axis``.  Anything but a
    :class:`QuasiProbTable` raises ``TypeError`` naming its type.
    """
    _check_table("marginal", table)
    positions = _MARGINAL_VERTICES[_check_axis(axis), _check_sign(sign)]
    return complex(sum(map(table._entries.__getitem__, positions)))


@dataclass(frozen=True)
class MarginalCheck:
    """One-axis marginal with its deviations from a genuine probability."""

    axis: str
    sign: int
    value: complex
    imag_magnitude: float
    range_violation: float


@dataclass(frozen=True)
class AdmissibilityReport:
    """Full diagnosis of whether a table describes a physical state.

    Collects the total-sum deviation from 1, the six marginal checks
    (imaginary parts and real parts outside [0, 1]), the validation report
    of the reconstructed density matrix, and the redundancy deviation: the
    largest mismatch between the given entries and the table regenerated
    from the reconstructed matrix.  ``passed`` compares with ``tol`` each of
    the five largest deviations that ``verify`` prints as its ``table-*``
    checks (see ``_admissibility_maxima``), and fails on a NaN one.
    """

    total: complex
    total_deviation: float
    marginals: Tuple[MarginalCheck, ...]
    density_report: ValidationReport
    redundancy_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        return all(value <= self.tol for value in _admissibility_maxima(self).values())


def check_admissibility(table: QuasiProbTable, tol: float = TOL) -> AdmissibilityReport:
    """Report every physicality condition on a table without raising.

    Anything but a :class:`QuasiProbTable` raises ``TypeError`` naming its type.
    """
    _check_table("check_admissibility", table)
    e0, e1, e2, e3, e4, e5, e6, e7 = table._entries
    # The sums of ``total`` and ``marginal``: left to right from sum()'s
    # start, the int 0, which reads an all -0.0 sum as +0.0.  The z+ marginal
    # is the first half of the total, and y+ shares its first two terms.
    head = 0 + e0 + e1
    z_plus = head + e2 + e3
    total = z_plus + e4 + e5 + e6 + e7
    values = (
        0 + e0 + e2 + e4 + e6, 0 + e1 + e3 + e5 + e7,
        head + e4 + e5, 0 + e2 + e3 + e6 + e7,
        z_plus, 0 + e4 + e5 + e6 + e7,
    )
    checks = []
    for (axis, sign), value in zip(_MARGINAL_VERTICES, values):
        r = value.real
        # max(0.0, -r, r - 1.0): at most one of the two terms is positive.
        checks.append(_frozen(
            MarginalCheck, axis=axis, sign=sign, value=value, imag_magnitude=abs(value.imag),
            range_violation=_positive(-r) + _positive(r - 1.0),
        ))
    entries = _matrix_entries(e0, e1)
    q0, q1, q2, q3, q4, q5, q6, q7 = _table_values(*entries)
    redundancy = _max(
        _abs(e0 - q0), _abs(e1 - q1), _abs(e2 - q2), _abs(e3 - q3),
        _abs(e4 - q4), _abs(e5 - q5), _abs(e6 - q6), _abs(e7 - q7),
    )
    return _frozen(
        AdmissibilityReport, total=total, total_deviation=_abs(total - 1.0),
        marginals=tuple(checks), density_report=_report(entries, tol),
        redundancy_deviation=redundancy, tol=tol,
    )


def _admissibility_maxima(report: AdmissibilityReport) -> dict:
    """The largest deviation of each kind in an admissibility report, keyed
    by the suffix of its ``verify`` check name; arrays for a report of arrays."""
    return {
        "total": report.total_deviation,
        "marginal-imag": _max(*(m.imag_magnitude for m in report.marginals)),
        "marginal-range": _max(*(m.range_violation for m in report.marginals)),
        "density": _density_deviation(report.density_report),
        "redundancy": report.redundancy_deviation,
    }
