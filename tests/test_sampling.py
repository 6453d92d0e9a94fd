import numpy as np
import pytest

from spintomo import (
    random_bloch_vectors,
    random_density_j,
    random_density_matrices,
    validate_density,
    validate_density_j,
)


def test_bloch_vectors_inside_ball():
    vectors = random_bloch_vectors(500, seed=1)
    assert vectors.shape == (500, 3)
    assert np.linalg.norm(vectors, axis=1).max() <= 0.5


def test_bloch_vectors_deterministic():
    a = random_bloch_vectors(100, seed=42)
    b = random_bloch_vectors(100, seed=42)
    c = random_bloch_vectors(100, seed=43)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_bloch_vectors_fill_the_ball():
    vectors = random_bloch_vectors(2000, seed=5)
    radii = np.linalg.norm(vectors, axis=1)
    # uniform in the ball: median radius is 0.5 * (1/2)^(1/3)
    assert abs(np.median(radii) - 0.5 * 0.5 ** (1.0 / 3.0)) < 0.02
    assert radii.max() > 0.45


def test_bloch_vectors_keep_the_sphere(monkeypatch):
    # The ball is closed, as the Bloch ball of states is: a draw with
    # |b| = 1/2 exactly, a pure state, is kept.
    class Edge:
        def uniform(self, low, high, size):
            batch = np.full(size, 0.1)
            batch[0] = [0.5, 0.0, 0.0]
            return batch

    monkeypatch.setattr(np.random, "default_rng", lambda seed: Edge())
    assert random_bloch_vectors(1, seed=0).tolist() == [[0.5, 0.0, 0.0]]


def test_density_matrices_valid():
    for rho in random_density_matrices(200, seed=9):
        assert validate_density(rho).passed


def test_density_j_valid_and_deterministic():
    for dim in (2, 3, 5):
        batch = random_density_j(dim, 20, seed=12)
        again = random_density_j(dim, 20, seed=12)
        assert np.array_equal(batch, again)
        for rho in batch:
            assert validate_density_j(rho).passed
    assert random_density_j(3, 0, seed=12).shape == (0, 3, 3)


def test_bad_arguments():
    with pytest.raises(ValueError):
        random_bloch_vectors(-1, seed=0)
    with pytest.raises(ValueError):
        random_density_j(0, 1, seed=0)
    with pytest.raises(ValueError, match=r"^n must be non-negative, got -1$"):
        random_density_j(2, -1, seed=0)
