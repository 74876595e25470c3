"""Shared fixtures: a coarse working grid fast enough for module tests.

The acceptance suite (test_acceptance.py) builds its own reference-scale
fixtures; everything else runs on this cheap grid.  Every test must leave
no child process behind (the evolver's forked workers included) and the
CPU affinity as it found it.
"""

import multiprocessing
import os

import numpy as np
import pytest

from nlslab import discretization as dz
from nlslab import evolver as ev
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


@pytest.fixture()
def two_cpus(monkeypatch):
    """Allow the process two CPUs, so that the evolver forks its fit worker
    and forked_map one worker beside the caller, whatever the CPU count;
    skipped where no worker can be forked."""
    monkeypatch.setattr(ev, "_cpus", lambda: 2)
    if ev._fork_context() is None:
        pytest.skip("no fork start method")


@pytest.fixture(autouse=True)
def no_child_processes():
    # evolver._move_to_cpu must leave the CPU affinity as it found it
    affinity = getattr(os, "sched_getaffinity", lambda pid: None)
    allowed = affinity(0)
    yield
    assert multiprocessing.active_children() == []
    assert affinity(0) == allowed
