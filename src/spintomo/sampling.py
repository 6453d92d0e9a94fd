"""Seed-deterministic random state generators for sweeps and tests."""

from __future__ import annotations

import numpy as np

from .spin_core import _bloch_parts


def random_bloch_vectors(n: int, seed: int) -> np.ndarray:
    """``n`` vectors drawn uniformly from the ball of radius 1/2, where the
    Bloch vectors of spin-1/2 states lie.

    Rejection sampling from the enclosing cube with a fixed batch size, so
    the output depends only on ``n`` and ``seed``.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    out = np.empty((n, 3))
    filled = 0
    while filled < n:
        batch = rng.uniform(-0.5, 0.5, size=(max(64, n), 3))
        keep = batch[np.linalg.norm(batch, axis=1) <= 0.5]
        take = min(len(keep), n - filled)
        out[filled : filled + take] = keep[:take]
        filled += take
    return out


def random_density_matrices(n: int, seed: int) -> np.ndarray:
    """``n`` random 2x2 density matrices with Bloch vectors uniform in the ball."""
    out = np.empty((n, 4), dtype=complex)
    for k, (real, imag) in enumerate(zip(*_bloch_parts(*random_bloch_vectors(n, seed).T))):
        out[:, k].real, out[:, k].imag = real, imag
    return out.reshape(n, 2, 2)


def random_density_j(dim: int, n: int, seed: int) -> np.ndarray:
    """``n`` random ``dim`` x ``dim`` density matrices.

    Each draw is G G^dagger / Tr(G G^dagger) for a complex Gaussian G, which
    is full rank with probability 1 and gives well-conditioned test states.
    """
    if dim < 1:
        raise ValueError(f"dimension must be at least 1, got {dim}")
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    rng = np.random.default_rng(seed)
    out = np.empty((n, dim, dim), dtype=complex)
    for i in range(n):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        m = g @ g.conj().T
        out[i] = m / np.trace(m).real
    return out
