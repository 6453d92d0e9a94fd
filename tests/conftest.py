import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

import spintomo

# Tests that start `python -m spintomo` run the package the tests import.
_SRC = str(Path(spintomo.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(
    path for path in (_SRC, os.environ.get("PYTHONPATH")) if path
)

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


NAMED_STATES = {
    "up_z": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
    "up_x": np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex),
    "up_y": np.array([[0.5, -0.5j], [0.5j, 0.5]], dtype=complex),
    "unpolarized": np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex),
}


@pytest.fixture(scope="session")
def named_states():
    return {name: m.copy() for name, m in NAMED_STATES.items()}


@pytest.fixture(scope="session")
def random_states():
    from spintomo import random_density_matrices

    return random_density_matrices(200, seed=20240817)
