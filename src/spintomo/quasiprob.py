"""The eight-vertex complex quasiprobability table for a spin-1/2 state.

A state is encoded by eight complex numbers p(c, b, a) indexed by sign
triples (c, b, a) in {+1, -1}^3, where c, b, a label eigenvalues of the
spin projections along x, y and z.  The entries sum to 1, their one-axis
marginals are the six real measurement probabilities, and two entries
already determine the density matrix; the remaining six are redundancy
that an admissibility check can exploit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator, Mapping, Tuple

import numpy as np

from .errors import AdmissibilityError
from .spin_core import (
    TOL,
    ValidationReport,
    _check,
    _check_axis,
    _check_sign,
    _frozen,
    _hypot,
    _nanmax,
    _report,
    _reports,
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
        """Table of eight Python complex ``values`` in ``VERTEX_ORDER``, unchecked."""
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


# Per vertex (c, b, a) in VERTEX_ORDER: <c;x|b;y><b;y|a;z>, a and c.
_ORACLE_TERMS = tuple(
    (overlap("x", c, "y", b) * overlap("y", b, "z", a), a, c) for c, b, a in VERTEX_ORDER
)
_X_KETS = {c: eigenket("x", c) for c in (1, -1)}
_Z_KETS = {a: eigenket("z", a) for a in (1, -1)}


def p_oracle(rho, tol: float = TOL) -> QuasiProbTable:
    """Quasiprobability table built directly from eigenket overlaps.

    p(c, b, a) = <c;x|b;y><b;y|a;z><a;z|rho|c;x>.  Numerically equivalent to
    :func:`p_from_density`; kept as an independent construction.
    """
    m = _require(rho, tol)[0]
    images = {c: m.dot(ket_c) for c, ket_c in _X_KETS.items()}
    # <a;z|rho|c;x>, once for each of the four pairs (a, c).
    elements = {(a, c): complex(np.vdot(_Z_KETS[a], images[c])) for a in _Z_KETS for c in images}
    return QuasiProbTable._trusted([weight * elements[a, c] for weight, a, c in _ORACLE_TERMS])


def _p_oracles(states: np.ndarray) -> np.ndarray:
    """``p_oracle`` of an unchecked ``(N, 2, 2)`` stack, as an ``(N, 8)`` array.
    Each weight's product is written out as Python forms it, for its bits."""
    images = {c: states @ ket_c for c, ket_c in _X_KETS.items()}
    out = np.empty((len(states), len(_ORACLE_TERMS)), dtype=complex)
    for k, (weight, a, c) in enumerate(_ORACLE_TERMS):
        x = images[c] @ _Z_KETS[a].conj()
        out[:, k].real = weight.real * x.real - weight.imag * x.imag
        out[:, k].imag = weight.real * x.imag + weight.imag * x.real
    return out


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
    from the reconstructed matrix.
    """

    total: complex
    total_deviation: float
    marginals: Tuple[MarginalCheck, ...]
    density_report: ValidationReport
    redundancy_deviation: float
    tol: float

    @property
    def passed(self) -> bool:
        marginals_ok = all(
            m.imag_magnitude <= self.tol and m.range_violation <= self.tol
            for m in self.marginals
        )
        return (
            self.total_deviation <= self.tol
            and marginals_ok
            and self.density_report.passed
            and self.redundancy_deviation <= self.tol
        )


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
        # max(0.0, -r, r - 1.0) by comparisons; a NaN, which none of them
        # orders, takes _nanmax.
        violation = (
            -r if r < 0.0 else r - 1.0 if r > 1.0 else 0.0 if r == r
            else _nanmax(0.0, -r, r - 1.0)
        )
        checks.append(_frozen(
            MarginalCheck, axis=axis, sign=sign, value=value, imag_magnitude=abs(value.imag),
            range_violation=violation,
        ))
    entries = _matrix_entries(e0, e1)
    q0, q1, q2, q3, q4, q5, q6, q7 = _table_values(*entries)
    redundancy = _nanmax(
        abs(e0 - q0), abs(e1 - q1), abs(e2 - q2), abs(e3 - q3),
        abs(e4 - q4), abs(e5 - q5), abs(e6 - q6), abs(e7 - q7),
    )
    return _frozen(
        AdmissibilityReport, total=total, total_deviation=abs(total - 1.0),
        marginals=tuple(checks), density_report=_report(entries, tol),
        redundancy_deviation=redundancy, tol=tol,
    )


def _admissibility_maxima(report: AdmissibilityReport) -> dict:
    """The largest deviation of each kind in an admissibility report, keyed
    by the suffix of its ``verify`` check name."""
    density = report.density_report
    return {
        "total": report.total_deviation,
        "marginal-imag": max(m.imag_magnitude for m in report.marginals),
        "marginal-range": max(m.range_violation for m in report.marginals),
        "density": max(
            density.hermiticity_deviation,
            density.trace_deviation,
            max(0.0, -density.min_eigenvalue),
        ),
        "redundancy": report.redundancy_deviation,
    }


def _batch_admissibility_maxima(tables: np.ndarray) -> dict:
    """``_admissibility_maxima(check_admissibility(table))`` of each row of an
    ``(N, 8)`` array of finite tables, as arrays of shape ``(N,)``.

    Sums run left to right, ``_hypot`` is Python's ``abs``, and ``np.where``
    is ``max(0.0, x)``, which np.maximum may return as -0.0.  The other terms
    are +0.0 or positive, so np.maximum keeps the bits of Python's ``max``.
    """

    def column_sum(positions):
        return reduce(np.add, (tables[:, k] for k in positions))

    def positive_part(x):
        return np.where(x > 0.0, x, 0.0)

    entries = _matrix_entries(tables[:, 0], tables[:, 1])
    d = _reports(*entries)
    marginals = [column_sum(positions) for positions in _MARGINAL_VERTICES.values()]
    ranges = [positive_part(x) for v in marginals for x in (-v.real, v.real - 1.0)]
    return {
        "total": _hypot(column_sum(range(len(VERTEX_ORDER))) - 1.0),
        "marginal-imag": np.maximum.reduce([np.abs(v.imag) for v in marginals]),
        "marginal-range": np.maximum.reduce(ranges),
        "density": np.maximum.reduce(
            [d.hermiticity_deviation, d.trace_deviation, positive_part(-d.min_eigenvalue)]
        ),
        "redundancy": _hypot(tables - np.stack(_table_values(*entries), axis=1)).max(axis=1),
    }
