"""Integral reconstruction of a spin-j density matrix from its tomograms.

For arbitrary spin j the state is recovered from the probabilities
w(m1, theta, phi) of outcome m1 along the rotated quantization axis by a
triple sum over an auxiliary index j3 = 0..2j, its projections m3, and the
outcomes m1, with Wigner 3j couplings and an angular integral of w against
rotation-matrix elements D^(j3)_{0, m3}.  This module provides a
quadrature rule that makes the angular integrals exact for band-limited
integrands, and the reconstruction itself.  Single 3j symbols and rotation
matrix elements are in ``wigner``, which a reconstruction does not load.

How the numbers are computed:

* The kernel's rows d^(j3)_{0, M}(theta) are, up to the sign (-1)^M, the
  normalized associated Legendre functions
  sqrt((j3 - M)! / (j3 + M)!) P_j3^M(cos theta).  They come from the
  three-term recurrence in j3 at fixed M, for every M and theta node at
  once, which Holmes & Featherstone (J. Geodesy 76, 279 (2002)) show
  stable to degrees in the thousands.  The tests hold them to 5e-14 of
  Wigner's explicit sum for 2j <= 50; they err most next to the poles of
  the finest grids, where the rounding of cos theta is amplified.
* Single elements d^j_{mp, m}(theta) come from one eigendecomposition of
  J_y per spin, cached: with J_y = V Lambda V^dagger and the exact
  eigenvalues Lambda = diag(-j, ..., j), d^j(theta) = Re[V exp(i theta
  Lambda) V^dagger] in this module's convention, below (Feng, Wang, Yang
  & Jin, Phys. Rev. E 92, 043307 (2015)).  The tests hold it unitary to
  1e-13 up to j = 50.
* The kernel needs one 3j table, (j j j3; m -m' M) for each entry
  rho_{i+M, i} on or below the diagonal, m = j - i - M and m' = j - i,
  over all j3 = 0..2j; its M = 0 slice is the (j j j3; m -m 0) family.
  It comes from the three-term recursion in j3 of Schulten & Gordon,
  J. Math. Phys. 16, 1961 (1975), run for every entry at once and
  normalized by orthogonality.  The tests hold it to 1e-14 of the exact
  symbols for 2j <= 24, and, up to j = 25, the reconstruction of random
  mixed states to 1e-13 and of pure states, |j, j> among them, to 1e-12.
* Sampling and inversion are one chain of linear factors per spin and
  grid.  Sampling runs it forwards: the 3j couplings fold each diagonal
  M >= 0 of rho into one sum per j3, a phi synthesis and the
  d^(j3)_{0, M}(theta) rows spread those sums over the grid, and the
  couplings of the main diagonal, M = 0, map j3 onto the outcomes m1.
  The tests hold it to 1e-14 of a node-by-node evaluation with d^j from
  J_y up to j = 25.  The inversion runs the transposed factors
  backwards, with the quadrature weights, for the entries on and below
  the diagonal only: for real samples the rest are their conjugates, as
  D^(j3)_{0, -m3} = (-1)^m3 conj(D^(j3)_{0, m3}).

Conventions, fixed once and verified by round trips at machine precision:

* Rotation matrix elements factor as D^j_{m', m}(phi, theta, psi)
  = exp(i m' psi) d^j_{m', m}(theta) exp(i m phi), with
  d^{1/2} = [[cos(theta/2), sin(theta/2)], [-sin(theta/2), cos(theta/2)]].
  This is the transpose of the more common d convention, i.e.
  d^j_{m', m}(theta) here equals the common d^j_{m, m'}(theta).

* Because D^(j3)_{0, m3} carries exp(i * 0 * psi) = 1, the integral over
  the third Euler angle of the normalized Haar measure
  d(phi) sin(theta) d(theta) d(psi) / (8 pi^2) is the constant 1.  Grids
  therefore carry theta and phi nodes only.

* The reconstruction kernel contains two sign factors raised to the
  projection quantum numbers.  They are combined into the single integer
  power (-1)^(m2' - m1), which is well defined for every spin because
  projections of one multiplet differ by integers.  Evaluating the two
  factors independently as exp(i pi m) is only consistent for integer
  spin; for half-integer spin it flips the overall sign and returns minus
  the density matrix.  The kernel uses the combined reading only; the
  tests evaluate the printed triple sum both ways as an independent check.
"""

from __future__ import annotations

import math
import numbers
import sys
import threading
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
# A warm small-spin reconstruction spends most of its time in numpy's
# Python-level wrappers, so validation calls the LAPACK gufunc that
# np.linalg.eigvalsh itself calls, without eigvalsh's input checks and
# error-state setup: where LAPACK does not converge it returns NaN
# eigenvalues and sets the invalid flag, where eigvalsh raises.
from numpy.linalg._umath_linalg import eigvalsh_lo as _eigvalsh_lo

from .common import _DEFAULT_OVERSAMPLE, _TWO_PI, TOL, ValidationReport, _check_tol, _finite_angle
from .errors import NonPhysicalStateError

_FLOAT_MAX = sys.float_info.max


def _twice(x) -> int:
    """Twice the value of a half-integer argument, as an exact int."""
    kind = type(x)
    # A float or an int passes on its type: the numbers.Real check costs
    # about 0.45 us a call.
    if kind is float or kind is int:
        doubled = 2 * x
    else:
        # Python counts a bool as an int; numpy's bool is no numbers.Real.
        if isinstance(x, bool) or not isinstance(x, numbers.Real):
            raise TypeError(f"expected a real multiple of 1/2, got {x!r}")
        # A numpy float doubles as a Python float, without numpy's overflow
        # warning.
        doubled = 2 * (float(x) if isinstance(x, np.floating) else x)
    # The result is compared, as math.isfinite overflows on a huge int.
    size = abs(doubled)
    if doubled != doubled or size == math.inf:
        raise ValueError(f"{x!r} doubled is not finite")
    if size > _FLOAT_MAX:
        # An exact int, say 10**400, that no float holds: named by its
        # magnitude, not by all of its digits.
        from decimal import Decimal

        raise ValueError(f"{Decimal(round(doubled)) / 2:.3e} doubled lies beyond the float range")
    nearest = round(doubled)
    if abs(doubled - nearest) > 1e-9:
        raise ValueError(f"{x!r} is not a multiple of 1/2")
    return int(nearest)


def _twice_spin(j) -> int:
    tj = _twice(j)
    if tj < 0:
        raise ValueError(f"spin must be non-negative, got {j!r}")
    return tj


def m_values(j):
    """Projection quantum numbers of spin ``j`` in descending order, as floats."""
    tj = _twice_spin(j)
    return tuple((tj - 2 * i) / 2.0 for i in range(tj + 1))


def _check_projection(tj, tm, name):
    if abs(tm) > tj or (tj + tm) % 2 != 0:
        raise ValueError(
            f"projection {name}={tm / 2.0} is not in the multiplet of spin {tj / 2.0}"
        )


# Callers may pass any number of distinct angles, so the per-angle cache is
# bounded.  It only has to hold one grid's theta nodes while a tomogram
# family is evaluated node by node; whole grids live in the grid caches.
_ANGLE_CACHE_SIZE = 256
# Distinct (spin, grid) pairs whose kernels, which both sample and invert,
# stay cached.
_GRID_CACHE_SIZE = 16
# Distinct spins whose J_y eigenvectors stay cached, for the single
# elements of ``_small_d_matrix``; the kernels read none.
_SPIN_CACHE_SIZE = 64


@lru_cache(maxsize=_SPIN_CACHE_SIZE)
def _jy_eigenvectors(tj: int) -> np.ndarray:
    """Unitary V with J_y = V diag(-j, ..., j) V^dagger in the basis of
    descending m; columns in ascending order of their eigenvalue."""
    tm = tj - 2 * np.arange(1, tj + 1)
    # <m + 1| J_+ |m> for the m of each column after the first
    raising = 0.5 * np.sqrt((tj - tm) * (tj + tm + 2.0))
    jy = np.diag(-0.5j * raising, 1) + np.diag(0.5j * raising, -1)
    vectors = np.linalg.eigh(jy)[1]
    vectors.flags.writeable = False
    return vectors


@lru_cache(maxsize=_ANGLE_CACHE_SIZE)
def _small_d_matrix(tj: int, theta: float) -> np.ndarray:
    """d^j(theta), rows and columns in descending projection order.

    The common d^j(theta) = exp(-i theta J_y) = V exp(-i theta Lambda)
    V^dagger is real and orthogonal, so this module's transpose of it is
    V exp(+i theta Lambda) V^dagger.  Lambda holds the exact eigenvalues
    -j..j, so only the eigenvectors carry rounding.
    """
    vectors = _jy_eigenvectors(tj)
    phases = np.exp(1j * (theta * (np.arange(tj + 1) - tj / 2.0)))
    out = ((vectors * phases) @ vectors.conj().T).real
    out.flags.writeable = False
    return out


def validate_density_j(matrix, tol: float = TOL) -> ValidationReport:
    """Validation report for a square density matrix of any dimension.

    A matrix with a non-finite entry, or entries whose sums overflow, gets
    a report with a non-finite deviation or a NaN minimum eigenvalue, which
    does not pass.  ``tol`` must be a finite, non-negative real (not a
    bool), or ``TypeError`` or ``ValueError`` names it.
    """
    _check_tol(tol)
    m = np.asarray(matrix, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    adjoint = m.conj().T
    # Such matrices raise no floating-point warnings.
    with np.errstate(all="ignore"):
        herm_dev = float(np.maximum.reduce(np.abs(m - adjoint), None))
        trace_dev = float(abs(m.trace() - 1.0))
        h = m + adjoint
        h *= 0.5
        # Ascending, from the lower triangle; all NaN where LAPACK does not
        # converge (as for a non-finite entry).
        min_eig = float(_eigvalsh_lo(h, signature="D->d")[0])
    # LAPACK reads only the real diagonal, and can return finite eigenvalues
    # for a non-finite one.  Any non-finite entry makes a deviation
    # non-finite, so a finite matrix skips the entry check.
    if not math.isfinite(herm_dev + trace_dev) and not np.isfinite(m).all():
        min_eig = math.nan
    return ValidationReport(herm_dev, trace_dev, min_eig, tol)


def require_density_j(matrix, tol: float = TOL) -> np.ndarray:
    _check_tol(tol)
    m = np.asarray(matrix, dtype=complex)
    report = validate_density_j(m, tol)
    if not report.passed:
        raise NonPhysicalStateError(
            f"not a physical density matrix ({report.summary()})", report=report
        )
    return m


def w_callable_from_density(rho, tol: float = TOL) -> DensityTomogram:
    """Wrap a density matrix as a tomogram family w(m1, theta, phi).

    The returned :class:`DensityTomogram` is callable and evaluates the
    probability of outcome ``m1`` along the direction (theta, phi);
    ``reconstruct_density_j`` samples it on the whole grid in one pass.
    ``rho`` is validated here, at ``tol``, once: the family carries that
    judgement, and ``reconstruct_density_j`` does not judge its samples.
    A ``tol`` that is not a finite, non-negative real is refused by name.
    """
    m = require_density_j(rho, tol)
    return DensityTomogram(m)


class DensityTomogram:
    """Tomogram family of a fixed density matrix.

    Calling it as ``w(m1, theta, phi)`` evaluates one node, and refuses a
    non-finite angle with ``ValueError``; ``samples(grid)`` returns every node
    of a quadrature grid as the sample array that ``reconstruct_density_j``
    accepts.

    It is built only from a matrix already judged a density matrix: by
    :func:`w_callable_from_density`, or by the CLI from the state that
    ``parse_state`` accepted.  ``reconstruct_density_j`` samples and inverts
    it without judging the samples again.
    """

    __slots__ = ("rho", "tj")

    def __init__(self, rho: np.ndarray):
        self.rho = rho
        self.tj = rho.shape[0] - 1

    def __call__(self, m1, theta, phi) -> float:
        tm1 = _twice(m1)
        _check_projection(self.tj, tm1, "m1")
        # The k-th diagonal entry of D rho D^dagger; the psi phase cancels.
        row = _small_d_matrix(self.tj, _finite_angle("theta", theta))[(self.tj - tm1) // 2]
        row = row * np.exp(1j * _m_array(self.tj) * _finite_angle("phi", phi))
        return float(np.real(row @ self.rho @ row.conj()))

    def samples(self, grid: QuadratureGrid) -> np.ndarray:
        """w on every grid node, shape (2j+1, n_theta, n_phi): descending m1,
        then the grid's theta nodes, then its phi nodes.

        The cached inversion kernel of the spin and grid computes them by
        running its own factors in reverse (see ``_Kernel.sample``).  Like
        a single-node call, this reads the Hermitian part of rho.  The
        result is a copy of the kernel's scratch array.  Any ``grid`` but a
        :class:`QuadratureGrid` raises ``TypeError`` naming its type.
        """
        if not isinstance(grid, QuadratureGrid):
            raise TypeError(f"DensityTomogram.samples takes a QuadratureGrid, got {type(grid).__name__}")
        return _kernel(self.tj, grid).sample(self.rho).copy()


@lru_cache(maxsize=_SPIN_CACHE_SIZE)
def _m_array(tj: int) -> np.ndarray:
    ms = np.array(m_values(tj / 2))
    ms.flags.writeable = False
    return ms


class _Scratch(threading.local):
    """Arrays of fixed shapes and dtypes, allocated once in each thread that
    uses them.  Cached kernels are shared between threads, so their scratch
    space must not be."""

    def __init__(self, *specs):
        self.arrays = tuple(np.empty(shape, dtype) for shape, dtype in specs)


@dataclass(frozen=True, eq=False)
class QuadratureGrid:
    """Nodes and weights for the normalized Euler-angle measure.

    ``theta`` uses Gauss-Legendre nodes in cos(theta) with weights summing
    to 1 (the sin(theta)/2 measure); ``phi`` uses uniform nodes on [0, 2pi)
    with equal weights.  Both rules integrate the band-limited
    reconstruction integrands exactly up to the spin the grid was built for.

    The grid keeps read-only float64 copies of the arrays it is given, so
    the grid object itself keys the cached kernels: reuse one grid object
    rather than building an equal one anew.  An array that is not 1-D, is
    empty or has a non-finite entry, weights of another length than their
    nodes, and weights whose sum lies more than 1e-12 from 1, raise
    ``ValueError`` naming the field.
    """

    theta_nodes: np.ndarray
    theta_weights: np.ndarray
    phi_nodes: np.ndarray
    phi_weights: np.ndarray

    def __post_init__(self):
        for field in fields(self):
            values = np.array(getattr(self, field.name), dtype=float)
            if values.ndim != 1 or not values.size:
                raise ValueError(f"{field.name} must be a non-empty 1-D array, got {values.shape}")
            if not np.isfinite(values).all():
                raise ValueError(f"{field.name} has a non-finite entry")
            values.flags.writeable = False
            object.__setattr__(self, field.name, values)
        for axis in ("theta", "phi"):
            n_nodes = len(getattr(self, axis + "_nodes"))
            n_weights = len(getattr(self, axis + "_weights"))
            if n_nodes != n_weights:
                raise ValueError(f"{axis}_weights has {n_weights} entries for {n_nodes} nodes")
            # A sum that overflows, to an infinity or, both ways, to NaN, is
            # refused by the comparison below, without numpy's warning.
            with np.errstate(over="ignore", invalid="ignore"):
                total = float(getattr(self, axis + "_weights").sum())
            if not abs(total - 1.0) <= 1e-12:
                raise ValueError(f"{axis}_weights sum to {total!r}, not 1")

    @property
    def n_theta(self) -> int:
        return len(self.theta_nodes)

    @property
    def n_phi(self) -> int:
        return len(self.phi_nodes)


def build_quadrature(j, oversample: int = _DEFAULT_OVERSAMPLE) -> QuadratureGrid:
    """Quadrature grid sized for reconstructing a spin-``j`` state.

    Azimuthal node counts grow like 4j + 2 so all phases exp(i m3 phi) with
    |m3| <= 2j are integrated exactly; ``oversample`` scales every count and
    is the knob used to confirm convergence by refinement.  Grids are
    memoised; their arrays are read-only.
    """
    tj = _twice_spin(j)
    # Checked before the cache, whose keys would take 2.0 or True for 2 or 1.
    if isinstance(oversample, bool) or not isinstance(oversample, (int, np.integer)):
        raise ValueError(f"oversample must be an integer, got {oversample!r}")
    if oversample < 1:
        raise ValueError(f"oversample must be at least 1, got {oversample}")
    return _quadrature(tj, int(oversample))


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _quadrature(tj: int, oversample: int) -> QuadratureGrid:
    return _product_grid(max(8, tj + 2) * oversample, max(8, 2 * tj + 2) * oversample)


def _product_grid(n_theta: int, n_phi: int) -> QuadratureGrid:
    """Gauss-Legendre nodes in cos(theta), ascending in theta, times
    ``n_phi`` uniform nodes on [0, 2pi).

    The nodes and weights are ``numpy.polynomial.legendre.leggauss``'s bit
    for bit, from :func:`_gauss_legendre`: importing ``numpy.polynomial``
    for this one call cost each fresh process 4-8 ms.
    """
    x, a = _gauss_legendre(n_theta)
    return QuadratureGrid(
        theta_nodes=np.arccos(x)[::-1],
        theta_weights=(0.5 * a)[::-1],
        phi_nodes=np.arange(n_phi) * (_TWO_PI / n_phi),
        phi_weights=np.full(n_phi, 1.0 / n_phi),
    )


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The ``n`` Gauss-Legendre nodes on [-1, 1] and their weights, by the
    steps of ``leggauss``: the eigenvalues of the symmetric companion matrix
    of e_n, one Newton step, weights 1 / (e_n' e_{n-1}) scaled to sum 2.
    Cached, as read-only arrays: at the default oversample every spin up
    to 3 takes the 16-node rule."""
    k = np.arange(n)
    scl = 1.0 / np.sqrt(2 * k + 1)
    off_diagonal = k[1:] * scl[:-1] * scl[1:]
    x = np.linalg.eigvalsh(np.diag(off_diagonal, 1) + np.diag(off_diagonal, -1))
    e_n = np.zeros(n + 1)
    e_n[n] = 1.0
    # e_n' = sum of (2k + 1) e_k over k = n - 1, n - 3, ...
    df = _legendre_series(x, np.where(k % 2 == (n - 1) % 2, 2.0 * k + 1, 0.0))
    x -= _legendre_series(x, e_n) / df
    fm = _legendre_series(x, e_n[1:])
    fm /= np.abs(fm).max()
    df /= np.abs(df).max()
    w = 1 / (fm * df)
    w = (w + w[::-1]) / 2
    x = (x - x[::-1]) / 2
    w *= 2.0 / w.sum()
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _legendre_series(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """sum_k c[k] P_k(x) by ``legval``'s Clenshaw recurrence, in its order
    of operations."""
    if len(c) == 1:
        return c[0] + 0 * x
    c0, c1 = c[-2], c[-1]
    for nd in range(len(c) - 1, 1, -1):
        c0, c1 = c[nd - 2] - c1 * ((nd - 1) / nd), c0 + c1 * x * ((2 * nd - 1) / nd)
    return c0 + c1 * x


def _grid_samples(w, tj: int, grid: QuadratureGrid, tol: float) -> np.ndarray:
    """The samples on ``grid`` of a callable ``w`` other than a
    :class:`DensityTomogram`, or of a sample array, refused with
    :class:`NonPhysicalStateError` unless they are a probability family on
    the grid, normalized, within ``tol``."""
    dim = tj + 1
    shape = (dim, grid.n_theta, grid.n_phi)
    if callable(w):
        values = np.empty(shape)
        for i in range(dim):
            m1 = (tj - 2 * i) / 2.0
            for it, theta in enumerate(grid.theta_nodes):
                for ip, phi in enumerate(grid.phi_nodes):
                    values[i, it, ip] = w(m1, theta, phi)
    else:
        values = np.asarray(w)
        if values.shape != shape or values.dtype.kind not in "iuf":
            raise ValueError(
                f"sample array must be real with shape {shape} (m1, theta, phi), "
                f"got a {values.dtype} array of shape {values.shape}"
            )
        values = values.astype(float, copy=False)
    # min and max are both finite exactly when every sample is: NaN
    # propagates through both, and an infinity is one of them.
    low = float(np.minimum.reduce(values, None))
    high = float(np.maximum.reduce(values, None))
    if not (math.isfinite(low) and math.isfinite(high)):
        bad = int(np.count_nonzero(~np.isfinite(values)))
        raise NonPhysicalStateError(
            f"tomogram samples contain {bad} non-finite value(s) out of {values.size}"
        )
    total = np.add.reduce(values, 0)
    # max |t - 1| over the sums t, bit for bit: the rounded t - 1 grows
    # with t, and the rounded 1 - t is its negative, so the largest
    # deviation is that of the largest or of the smallest sum.
    norm_dev = max(
        float(np.maximum.reduce(total, None)) - 1.0,
        1.0 - float(np.minimum.reduce(total, None)),
    )
    if not (low >= -tol and high <= 1.0 + tol and norm_dev <= tol):
        raise NonPhysicalStateError(
            "tomogram samples are not a normalized probability family on the "
            f"grid (min={low:.3e}, max={high:.3e}, normalization deviation="
            f"{norm_dev:.3e}, tol={tol:.1e})"
        )
    return values


@dataclass(frozen=True, eq=False)
class _Kernel:
    """The linear map between rho and its samples on one grid, as a chain
    of four factors.  With M = 0..2j the diagonal of the entry h_{i+M, i}
    of the Hermitian part h of rho, in descending indices,
        s[M, j3] = sum over i of entry_coupling[M, i, j3] h_{i+M, i},
        V[j3, t, p] = sum over M of f_M d^(j3)_{0, M}(theta_t)
                      Re(s[M, j3] exp(-i M phi_p)),
        w[k, t, p] = sum over j3 of (2 j3 + 1) m1_coupling[j3, k] V[j3, t, p],
    with f_0 = 1 and f_M = 2 for the conjugate diagonal -M.  ``sample`` runs
    the chain forwards.  ``apply`` inverts it: it runs the same couplings
    backwards, transposed, with analysis tables of the theta and phi factors
    that carry the quadrature weights and the norm (2 j3 + 1)^2.

    Every table is C-contiguous over the axes it is listed with, the order it
    is built in, and a product that sums in another order reads a transposed
    view at its matmul call.  matmul's sums can round differently on a
    same-valued table in another memory order, so this one rule keeps the
    bits of a copy of any table.
    """

    # (2j+1, 2j+1) over (j3, m1): entry_coupling[0], transposed
    m1_coupling: np.ndarray
    # (2j+1, 2j+1, 4) over (M, i, part): the position in the float view of
    # the flat rho of the real and imaginary parts of rho_{i+M, i} and of
    # rho_{i, i+M}; one past the matrix where i + M > 2j, whose coupling is
    # zero
    entry_index: np.ndarray
    # (2j+1, 2j+1, 2j+1) over (M, i, j3): (-1)^i (j j j3; m -m' M) of the
    # entry rho_{i+M, i}, m = j - i - M and m' = j - i; zero past the matrix
    entry_coupling: np.ndarray
    # (2j+1, 4, n_phi) over (M, part, p): (f_M / 2) times cos(M phi_p),
    # sin(M phi_p), cos(M phi_p) and -sin(M phi_p), with f_0 = 1 and f_M = 2
    # for the conjugate pair of diagonals
    phi_synthesis: np.ndarray
    # (2j+1, 2j+1, n_theta) over (j3, M, t): (2 j3 + 1) d^(j3)_{0, M}(theta_t)
    theta_synthesis: np.ndarray
    # (2j+1, n_phi, 4) over (M, p, part): the phi weight c_p times
    # cos(M phi_p), sin(M phi_p), cos(M phi_p) and -sin(M phi_p)
    phi_analysis: np.ndarray
    # (2j+1, 2j+1, n_theta) over (j3, M, t): (2 j3 + 1)^2 times the theta
    # weight b_t times d^(j3)_{0, M}(theta_t)
    theta_analysis: np.ndarray
    # per thread: the m1 sums, which sampling's theta synthesis also takes;
    # the entries; their j3 sums; the phi-resolved sums; and the samples
    scratch: _Scratch

    def apply(self, values: np.ndarray) -> np.ndarray:
        """The matrix that the samples ``values`` invert to, as a new array.
        Only the entries rho_{i+M, i}, M >= 0, are computed; rho_{i, i+M} is
        written as their conjugate, from the phi table's last two parts, so
        the result is exactly Hermitian."""
        dim, n_theta, n_phi = values.shape
        summed, entries, sums, phased = self.scratch.arrays[:4]
        # The m1 sum first, while the samples are still real.
        np.matmul(self.m1_coupling, values.reshape(dim, n_theta * n_phi), out=summed)
        np.matmul(self.theta_analysis, summed.reshape(dim, n_theta, n_phi), out=phased)
        # Read in (M, j3, p) order: real and imaginary parts of s, then
        # those of its conjugate.
        np.matmul(phased.transpose(1, 0, 2), self.phi_analysis, out=sums)
        np.matmul(self.entry_coupling, sums, out=entries)
        # The entries past the matrix land in the one spare slot at its end;
        # the diagonal is written twice, the second time with the same real
        # part and a zero imaginary part.
        flat = np.empty(2 * dim * dim + 1)
        flat[self.entry_index] = entries
        return flat[:-1].view(complex).reshape(dim, dim)

    def sample(self, rho: np.ndarray) -> np.ndarray:
        """The samples of the Hermitian part h of ``rho`` on the kernel's grid,
        in this thread's scratch array, which the next call overwrites.  h is
        never formed: rho_{i+M, i} and conj(rho_{i, i+M}) each take half."""
        dim = len(rho)
        volume, entries, sums, phased, samples = self.scratch.arrays
        # "wrap" reads rho_00 for the entries past the matrix, and, like
        # "clip", writes straight into the scratch array.
        np.take(rho.reshape(-1).view(float), self.entry_index, out=entries, mode="wrap")
        np.matmul(self.entry_coupling.transpose(0, 2, 1), entries, out=sums)
        # Written in (j3, M, p) order for the theta product.
        np.matmul(sums, self.phi_synthesis, out=phased.transpose(1, 0, 2))
        np.matmul(self.theta_synthesis.transpose(0, 2, 1), phased, out=volume.reshape(samples.shape))
        np.matmul(self.m1_coupling.T, volume, out=samples.reshape(dim, -1))
        return samples


def _coupling_families(tj: int) -> np.ndarray:
    """The kernel's 3j table over (M, i, j3), C-contiguous:
    (-1)^i (j j j3; m -m' M) for the entry rho_{i+M, i} inside the matrix,
    m = j - i - M and m' = j - i in descending index i, and 0 past it.  Its
    M = 0 slice holds the (j j j3; m -m 0) family.

    For a fixed entry the symbols f(J), J = j3, obey the three-term
    recursion of Schulten & Gordon, J. Math. Phys. 16, 1961 (1975), which
    for j1 = j2 = j reads
        J A(J+1) f(J+1) - (2J+1) J (J+1) (m + m') f(J) + (J+1) A(J) f(J-1) = 0,
        A(J) = sqrt(J^2 ((2j+1)^2 - J^2) (J^2 - M^2)).
    It runs downward from J = 2j, where A(2j+1) = 0, to J = M, for every
    entry at once.  Orthogonality, sum over J of (2J+1) f(J)^2 = 1, fixes the
    scale, and the sign of the stretched symbol at J = 2j, (-1)^M, fixes
    the sign.
    """
    dim = tj + 1
    # The (M, i) of each entry, diagonal by diagonal.
    diagonal, i = np.nonzero(np.add.outer(np.arange(dim), np.arange(dim)) <= tj)
    big_j = np.arange(tj + 2.0)[:, None]
    a = np.sqrt(
        np.maximum(big_j**2 * ((tj + 1.0) ** 2 - big_j**2) * (big_j**2 - diagonal**2), 0.0)
    )
    b = -(2.0 * big_j + 1.0) * big_j * (big_j + 1.0) * (tj - 2 * i - diagonal)
    f = np.zeros((tj + 2, len(i)))
    f[tj] = 1.0
    for k in range(tj, 0, -1):
        live = k > diagonal
        step = -(b[k] * f[k] + k * a[k + 1] * f[k + 1]) / np.where(live, (k + 1) * a[k], 1.0)
        f[k - 1] = np.where(live, step, 0.0)
    f = f[:dim]
    norm = np.sqrt(np.einsum("k,ke->e", 2.0 * np.arange(dim) + 1.0, f * f))
    # (-1)^M, the stretched symbol's sign, times the kernel's (-1)^i
    table = np.zeros((dim, dim, dim))
    table[diagonal, i] = (f * (np.where((diagonal + i) % 2, -1.0, 1.0) / norm)).T
    return table


def _theta_rows(tj: int, thetas: np.ndarray) -> np.ndarray:
    """rows[j3, M, t] = d^(j3)_{0, M}(thetas[t]) for j3, M = 0..2j, zero for
    M > j3, C-contiguous.

    At fixed M these are (-1)^M sqrt((j3 - M)! / (j3 + M)!) P_j3^M(cos theta),
    normalized associated Legendre functions, by their recurrence in j3
    (Holmes & Featherstone, J. Geodesy 76, 279 (2002)):
        rows[M, M] = prod over k = 1..M of -sqrt((2k - 1) / (2k)) sin theta,
        rows[M + 1, M] = sqrt(2M + 1) cos theta rows[M, M],
        rows[n, M] = ((2n - 1) cos theta rows[n - 1, M]
                      - sqrt((n - 1)^2 - M^2) rows[n - 2, M]) / sqrt(n^2 - M^2).
    """
    dim = tj + 1
    sin, cos = np.sin(thetas), np.cos(thetas)
    rows = np.zeros((dim, dim, len(thetas)))
    rows[0, 0] = 1.0
    for n in range(1, dim):
        corner = rows[n - 1, n - 1]
        rows[n, n] = -math.sqrt((2 * n - 1) / (2 * n)) * sin * corner
        rows[n, n - 1] = math.sqrt(2 * n - 1) * cos * corner
        m = np.arange(n - 1.0)[:, None]
        rows[n, : n - 1] = (
            (2 * n - 1) * cos * rows[n - 1, : n - 1] - np.sqrt((n - 1) ** 2 - m**2) * rows[n - 2, : n - 1]
        ) / np.sqrt(n**2 - m**2)
    return rows


@lru_cache(maxsize=_GRID_CACHE_SIZE)
def _kernel(tj: int, grid: QuadratureGrid) -> _Kernel:
    dim = tj + 1
    index = np.arange(dim)
    rows = _theta_rows(tj, grid.theta_nodes)
    entry_coupling = _coupling_families(tj)
    # (M, i) -> i + M, the row of the entry rho_{i+M, i} on diagonal M
    shifted = index[:, None] + index
    lower = 2 * (shifted * dim + index)
    upper = 2 * (index * dim + shifted)
    entry_index = np.where(
        (shifted <= tj)[..., None], np.stack([lower, lower + 1, upper, upper + 1], -1), 2 * dim * dim
    )
    phase = np.multiply.outer(index, grid.phi_nodes)
    cos, sin = np.cos(phase), np.sin(phase)
    parts = np.stack([cos, sin, cos, -sin], axis=1)
    return _Kernel(
        m1_coupling=entry_coupling[0].T.copy(),
        entry_index=entry_index,
        entry_coupling=entry_coupling,
        phi_synthesis=np.where(index == 0, 0.5, 1.0)[:, None, None] * parts,
        theta_synthesis=(2.0 * index[:, None, None] + 1.0) * rows,
        phi_analysis=(grid.phi_weights * parts).transpose(0, 2, 1).copy(),
        theta_analysis=(2.0 * index[:, None, None] + 1.0) ** 2 * rows * grid.theta_weights,
        scratch=_Scratch(
            ((dim, grid.n_theta * grid.n_phi), float),
            ((dim, dim, 4), float),
            ((dim, dim, 4), float),
            ((dim, dim, grid.n_phi), float),
            ((dim, grid.n_theta, grid.n_phi), float),
        ),
    )


def reconstruct_density_j(
    w,
    j,
    grid: QuadratureGrid | None = None,
    tol: float = TOL,
) -> np.ndarray:
    """Recover a spin-``j`` density matrix from a tomogram family.

    Args:
        w: the tomogram, in one of two forms.  A callable
            ``w(m1, theta, phi)`` returns the probability of outcome ``m1``
            (passed as a float) along direction ``(theta, phi)``; it is
            sampled node by node, except that families from
            :func:`w_callable_from_density` fill the whole grid in one pass.
            A real array of shape ``(2j+1, n_theta, n_phi)`` holds the
            samples directly: descending m1, then the grid's theta nodes,
            then its phi nodes.
        j: spin of the multiplet; the result is a (2j+1) x (2j+1) matrix
            with rows and columns in descending projection order.
        grid: quadrature grid; ``build_quadrature(j)`` when omitted.  A
            grid with fewer than 2j + 1 theta nodes or 4j + 1 phi nodes
            cannot integrate the spin's harmonics and is refused with
            ``ValueError``; these counts are necessary, not sufficient.
            Anything but a :class:`QuadratureGrid` or None raises
            ``TypeError`` naming its type.
        tol: bound on how far the samples of a callable or an array may
            violate positivity or normalization before reconstruction is
            refused; non-finite samples are always refused.  A family from
            :func:`w_callable_from_density` is not judged again: it carries
            the validation of its matrix at the ``tol`` it was made with.
            For every form ``tol`` must be a finite, non-negative real (not a
            bool), or ``TypeError`` or ``ValueError`` names it before any
            work is done.

    Returns:
        The reconstructed matrix, unvalidated: quadrature noise or
        inconsistent samples show up directly in the output, so callers
        decide which deviations to accept.

    The inversion is linear in the samples.  Its kernel is built once per
    spin and grid object, and cached.  The kernel's sign factors are read as
    the single integer power (-1)^(m2' - m1); see the module docstring.
    """
    tj = _twice_spin(j)
    _check_tol(tol)
    if grid is None:
        grid = _quadrature(tj, _DEFAULT_OVERSAMPLE)
    elif not isinstance(grid, QuadratureGrid):
        raise TypeError(f"reconstruct_density_j takes a QuadratureGrid, got {type(grid).__name__}")
    elif grid.n_theta <= tj or grid.n_phi <= 2 * tj:
        raise ValueError(
            f"a grid of {grid.n_theta} theta and {grid.n_phi} phi nodes is too coarse "
            f"for spin {tj / 2.0}, which needs at least {tj + 1} and {2 * tj + 1}"
        )
    # The kernel is looked up once, and only after every refusal that does
    # not need it, so that a refused request builds nothing.
    if isinstance(w, DensityTomogram):
        if w.tj != tj:
            raise ValueError(
                f"tomogram family of spin {w.tj / 2.0} cannot be reconstructed "
                f"as spin {tj / 2.0}"
            )
        kernel = _kernel(tj, grid)
        values = kernel.sample(w.rho)
    else:
        values = _grid_samples(w, tj, grid, tol)
        kernel = _kernel(tj, grid)
    return kernel.apply(values)
