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
from typing import Iterator, Mapping, Tuple

import numpy as np

from .errors import AdmissibilityError
from .spin_core import (
    TOL,
    ValidationReport,
    _check_axis,
    _check_sign,
    _nanmax,
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

_AXIS_SLOT = {"x": 0, "y": 1, "z": 2}

# The four vertices summed by each one-axis marginal, in VERTEX_ORDER.
_MARGINAL_VERTICES = {
    (axis, sign): tuple(v for v in VERTEX_ORDER if v[slot] == sign)
    for axis, slot in _AXIS_SLOT.items()
    for sign in (1, -1)
}


class QuasiProbTable:
    """Immutable container for the eight complex entries p(c, b, a)."""

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
            self, "_entries", {v: complex(entries[v]) for v in VERTEX_ORDER}
        )

    @classmethod
    def _trusted(cls, values) -> "QuasiProbTable":
        """Table of eight Python complex ``values`` in ``VERTEX_ORDER``, unchecked."""
        table = object.__new__(cls)
        object.__setattr__(table, "_entries", dict(zip(VERTEX_ORDER, values)))
        return table

    def __setattr__(self, name, value):
        raise AttributeError("QuasiProbTable is immutable")

    def __getitem__(self, vertex: Vertex) -> complex:
        return self._entries[vertex]

    def __iter__(self) -> Iterator[Vertex]:
        return iter(VERTEX_ORDER)

    def items(self):
        return ((v, self._entries[v]) for v in VERTEX_ORDER)

    def to_array(self) -> np.ndarray:
        """Entries as a complex vector in ``VERTEX_ORDER``."""
        return np.array([self._entries[v] for v in VERTEX_ORDER], dtype=complex)

    @classmethod
    def from_array(cls, values) -> "QuasiProbTable":
        arr = np.asarray(values, dtype=complex)
        if arr.shape != (8,):
            raise ValueError(f"expected 8 entries, got shape {arr.shape}")
        return cls(dict(zip(VERTEX_ORDER, arr)))

    def total(self) -> complex:
        """Sum of all eight entries; 1 for any table of a physical state."""
        return complex(sum(self._entries[v] for v in VERTEX_ORDER))

    def __repr__(self) -> str:
        rows = ", ".join(f"{v}: {self._entries[v]:.4g}" for v in VERTEX_ORDER)
        return f"QuasiProbTable({rows})"


_PLUS = 0.25 * (1.0 + 1.0j)
_MINUS = 0.25 * (1.0 - 1.0j)


def _table_from_entries(rho_pp, rho_pm, rho_mp, rho_mm) -> QuasiProbTable:
    # Python complex arithmetic: a scalar product has the bits of numpy's
    # scalar product, which a 2x2 array product would not.
    return QuasiProbTable._trusted(
        (
            _PLUS * (rho_pp + rho_pm),
            _MINUS * (rho_pp - rho_pm),
            _MINUS * (rho_pp + rho_pm),
            _PLUS * (rho_pp - rho_pm),
            _MINUS * (rho_mm + rho_mp),
            _PLUS * (rho_mm - rho_mp),
            _PLUS * (rho_mm + rho_mp),
            _MINUS * (rho_mm - rho_mp),
        )
    )


def p_from_density(rho, tol: float = TOL) -> QuasiProbTable:
    """Quasiprobability table of a density matrix, via the closed-form entries.

    Each entry is a fixed complex multiple of a sum or difference of two
    density-matrix elements; see :func:`p_oracle` for the equivalent
    eigenket-overlap construction.
    """
    return _table_from_entries(*_require(rho, tol)[1])


# Per vertex (c, b, a) in VERTEX_ORDER: <c;x|b;y><b;y|a;z>, the ket |a;z>, and c.
_ORACLE_TERMS = tuple(
    (overlap("x", c, "y", b) * overlap("y", b, "z", a), eigenket("z", a), c)
    for c, b, a in VERTEX_ORDER
)
_X_KETS = {c: eigenket("x", c) for c in (1, -1)}


def p_oracle(rho, tol: float = TOL) -> QuasiProbTable:
    """Quasiprobability table built directly from eigenket overlaps.

    p(c, b, a) = <c;x|b;y><b;y|a;z><a;z|rho|c;x>.  Numerically equivalent to
    :func:`p_from_density`; kept as an independent construction.
    """
    m = _require(rho, tol)[0]
    images = {c: m @ ket_c for c, ket_c in _X_KETS.items()}
    return QuasiProbTable._trusted(
        [weight * complex(np.vdot(ket_a, images[c])) for weight, ket_a, c in _ORACLE_TERMS]
    )


def _matrix_entries(table: QuasiProbTable):
    # Only the two entries with (b, a) = (+1, +1) are needed; hermiticity and
    # unit trace fix the rest of the matrix.
    p_ppp = table[1, 1, 1]
    p_mpp = table[-1, 1, 1]
    rho_pp = (1.0 - 1.0j) * p_ppp + (1.0 + 1.0j) * p_mpp
    rho_pm = (1.0 - 1.0j) * p_ppp - (1.0 + 1.0j) * p_mpp
    return rho_pp, rho_pm, rho_pm.conjugate(), 1.0 - rho_pp


def density_from_p(table: QuasiProbTable, tol: float = TOL) -> np.ndarray:
    """Recover the density matrix from a table, or raise if none exists.

    Inverts the two defining entries p(1, 1, 1) and p(-1, 1, 1); the result
    is validated and an :class:`AdmissibilityError` carrying the report is
    raised when the table does not come from a physical state.
    """
    rho_pp, rho_pm, rho_mp, rho_mm = _matrix_entries(table)
    report = _report(rho_pp, rho_pm, rho_mp, rho_mm, tol)
    if not report.passed:
        raise AdmissibilityError(
            f"table does not describe a physical state ({report.summary()})",
            report=report,
        )
    return np.array([[rho_pp, rho_pm], [rho_mp, rho_mm]], dtype=complex)


def marginal(table: QuasiProbTable, axis: str, sign: int) -> complex:
    """Sum of the four entries whose ``axis`` label equals ``sign``.

    For a physical table this is the (real) probability of outcome ``sign``
    when measuring the spin projection along ``axis``.
    """
    vertices = _MARGINAL_VERTICES[_check_axis(axis), _check_sign(sign)]
    return complex(sum(map(table.__getitem__, vertices)))


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
    """Report every physicality condition on a table without raising."""
    total = table.total()
    checks = []
    for (axis, sign), vertices in _MARGINAL_VERTICES.items():
        value = complex(sum(map(table.__getitem__, vertices)))
        real = value.real
        violation = _nanmax((0.0, -real, real - 1.0))
        checks.append(MarginalCheck(axis, sign, value, abs(value.imag), violation))
    entries = _matrix_entries(table)
    density_report = _report(*entries, tol)
    regenerated = _table_from_entries(*entries)
    redundancy = _nanmax([abs(table[v] - regenerated[v]) for v in VERTEX_ORDER])
    return AdmissibilityReport(
        total=total,
        total_deviation=float(abs(total - 1.0)),
        marginals=tuple(checks),
        density_report=density_report,
        redundancy_deviation=redundancy,
        tol=tol,
    )
