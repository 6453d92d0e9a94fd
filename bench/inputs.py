"""Inputs and reference values owned by the benchmark.

Every input comes from a ``numpy.random.Generator`` seeded by the workload
seed, and every reference is computed here from the textbook definitions,
never from ``spintomo``.  A change to the package's samplers or maps can
therefore change neither what the package is fed nor what it is compared
against.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# Acceptance tolerance of the checks; the package documents the same value
# as its default, but the benchmark keeps its own copy.
TOL = 1e-10

NAMED_BLOCH = {
    "up_z": (0.0, 0.0, 0.5),
    "up_x": (0.5, 0.0, 0.0),
    "up_y": (0.0, 0.5, 0.0),
    "unpolarized": (0.0, 0.0, 0.0),
}

# Vertices (c, b, a): sign labels along x, y and z.
VERTICES = tuple((c, b, a) for c in (1, -1) for b in (1, -1) for a in (1, -1))

_S = 1.0 / math.sqrt(2.0)
_KETS = {
    ("x", 1): np.array([_S, _S], dtype=complex),
    ("x", -1): np.array([_S, -_S], dtype=complex),
    ("y", 1): np.array([_S, 1j * _S], dtype=complex),
    ("y", -1): np.array([_S, -1j * _S], dtype=complex),
    ("z", 1): np.array([1.0, 0.0], dtype=complex),
    ("z", -1): np.array([0.0, 1.0], dtype=complex),
}


def _vertex_operator(c, b, a):
    # p(c, b, a) = <c;x|b;y><b;y|a;z><a;z|rho|c;x> = Tr(rho M) with
    # M = |c;x><c;x|b;y><b;y|a;z><a;z|.  Each ket appears once as a bra and
    # once as a ket, so the result does not depend on the kets' phases.
    kc, kb, ka = _KETS["x", c], _KETS["y", b], _KETS["z", a]
    scalar = np.vdot(kc, kb) * np.vdot(kb, ka)
    return scalar * np.outer(kc, ka.conj())


_VERTEX_OPS = np.array([_vertex_operator(*v) for v in VERTICES])


def density_ref(bloch) -> np.ndarray:
    """(1/2) I + b . sigma for Bloch vectors of shape (..., 3)."""
    b = np.asarray(bloch, dtype=float)
    out = np.empty(b.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = 0.5 + b[..., 2]
    out[..., 1, 1] = 0.5 - b[..., 2]
    out[..., 0, 1] = b[..., 0] - 1j * b[..., 1]
    out[..., 1, 0] = b[..., 0] + 1j * b[..., 1]
    return out


def table_ref(rho) -> np.ndarray:
    """Quasiprobabilities in ``VERTICES`` order for states of shape (..., 2, 2)."""
    return np.einsum("...ij,vji->...v", np.asarray(rho, dtype=complex), _VERTEX_OPS)


def unit_vectors(theta, phi) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    phi = np.asarray(phi, dtype=float)
    return np.stack(
        [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)], axis=-1
    )


def bloch_pool(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` Bloch vectors: 10% named states, 20% pure, 70% uniform in the ball.

    The shares are fixed so every pool holds the edge cases whose minimum
    eigenvalue is 0 (every named state, and pure states at |b| = 1/2); the
    seed fixes the vectors and their order.
    """
    n_named = max(len(NAMED_BLOCH), n // 10)
    n_pure = n // 5
    n_mixed = n - n_named - n_pure
    named = np.array([list(NAMED_BLOCH.values())[i % len(NAMED_BLOCH)] for i in range(n_named)])
    g = rng.normal(size=(n_pure, 3))
    pure = 0.5 * g / np.linalg.norm(g, axis=1, keepdims=True)
    g = rng.normal(size=(n_mixed, 3))
    radius = 0.5 * rng.uniform(size=(n_mixed, 1)) ** (1.0 / 3.0)
    mixed = radius * g / np.linalg.norm(g, axis=1, keepdims=True)
    return np.concatenate([named, pure, mixed])[rng.permutation(n)]


def directions(rng: np.random.Generator, shape) -> tuple[np.ndarray, np.ndarray]:
    """Uniform directions on the sphere, theta in [0, pi] and phi in [0, 2pi)."""
    theta = np.arccos(rng.uniform(-1.0, 1.0, size=shape))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=shape)
    return theta, phi


def density_j(rng: np.random.Generator, dim: int) -> np.ndarray:
    """G G^dagger / Tr for a complex Gaussian ``dim`` x ``dim`` matrix G."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / np.trace(m).real


def _jy(dim: int) -> np.ndarray:
    # J_y in the basis ordered by descending projection m = j, j-1, ..., -j.
    j = (dim - 1) / 2.0
    jp = np.zeros((dim, dim))
    for k in range(1, dim):
        m = j - k
        jp[k - 1, k] = math.sqrt(j * (j + 1.0) - m * (m + 1.0))
    return (jp - jp.T) / 2j


def grid_nodes(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Default reconstruction grid: Gauss-Legendre in cos(theta), uniform phi.

    Mirrors the documented default (oversample 2) so that measured sample
    documents land on the nodes the reconstruction expects.
    """
    tj = dim - 1
    n_theta = max(8, tj + 2) * 2
    n_phi = max(8, 2 * tj + 2) * 2
    x, _ = np.polynomial.legendre.leggauss(n_theta)
    theta = np.arccos(x)[::-1].copy()
    phi = np.arange(n_phi) * (2.0 * math.pi / n_phi)
    return theta, phi


def tomogram_ref(rho, theta, phi) -> np.ndarray:
    """w(m, theta, phi) on the product grid, shape (dim, n_theta, n_phi).

    w is the diagonal of R rho R^dagger with R = exp(i theta J_y)
    exp(i phi J_z), which is the rotation convention of the package's
    documentation (d^{1/2} = [[cos, sin], [-sin, cos]] of theta/2).
    """
    rho = np.asarray(rho, dtype=complex)
    dim = rho.shape[0]
    ms = (dim - 1) / 2.0 - np.arange(dim)
    lam, vec = np.linalg.eigh(_jy(dim))
    out = np.empty((dim, len(theta), len(phi)))
    for ip, p in enumerate(phi):
        ez = np.exp(1j * ms * p)
        rz = ez[:, None] * rho * ez.conj()[None, :]
        for it, t in enumerate(theta):
            ry = (vec * np.exp(1j * t * lam)) @ vec.conj().T
            out[:, it, ip] = np.einsum("ij,jk,ik->i", ry, rz, ry.conj()).real
    return out


def complex_obj(z) -> dict:
    z = complex(z)
    return {"re": z.real, "im": z.imag}


def matrix_obj(m) -> list:
    return [[complex_obj(z) for z in row] for row in np.asarray(m)]


def table_obj(table) -> list:
    return [
        {"c": c, "b": b, "a": a, "re": float(z.real), "im": float(z.imag)}
        for (c, b, a), z in zip(VERTICES, table)
    ]


def matrix_from_obj(rows) -> np.ndarray:
    return np.array([[complex(x["re"], x["im"]) for x in row] for row in rows])


def samples_doc(rho) -> dict:
    """A ``samples`` document covering the default grid of ``rho``'s spin."""
    dim = rho.shape[0]
    theta, phi = grid_nodes(dim)
    w = tomogram_ref(rho, theta, phi)
    ms = (dim - 1) / 2.0 - np.arange(dim)
    samples = [
        {"m": float(ms[i]), "theta": float(theta[it]), "phi": float(phi[ip]), "w": float(w[i, it, ip])}
        for i in range(dim)
        for it in range(len(theta))
        for ip in range(len(phi))
    ]
    return {"j": (dim - 1) / 2.0, "samples": samples}


class Digest:
    """Running sha256 over every generated input, in generation order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def add(self, obj) -> None:
        if isinstance(obj, np.ndarray):
            self._h.update(str(obj.dtype).encode())
            self._h.update(repr(obj.shape).encode())
            self._h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, bytes):
            self._h.update(obj)
        else:
            self._h.update(json.dumps(obj, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()
