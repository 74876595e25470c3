"""Shared fixtures: a coarse working grid fast enough for module tests.

The acceptance suite (test_acceptance.py) builds its own reference-scale
fixtures; everything else runs on this cheap grid.
"""

import numpy as np
import pytest

from nlslab import discretization as dz
from nlslab import ground_state as gs
from nlslab import linearized_spectrum as ls


@pytest.fixture(scope="session")
def grid():
    return dz.build_grid(6, 40.0, 800)


@pytest.fixture(scope="session")
def background(grid):
    return gs.Background(grid)


@pytest.fixture(scope="session")
def lapl(background):
    return background.lapl


@pytest.fixture(scope="session")
def pair(background):
    return ls.ground_mode(background)


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
