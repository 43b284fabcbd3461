import random

import pytest
from hypothesis import settings

from ellgreen.lattice import TauPoint

# Every hypothesis property draws the same examples on every run, and none is
# timed: the mpmath oracles are slow and the suite must not flake on a busy
# machine.
settings.register_profile("ellgreen", deadline=None, derandomize=True)
settings.load_profile("ellgreen")

SEED = 7


@pytest.fixture
def rng():
    return random.Random(SEED)


@pytest.fixture(scope="session")
def sample_taus():
    """A handful of generic reduced lattice parameters."""
    return [
        TauPoint(0.0, 1.0),
        TauPoint(0.13, 1.32),
        TauPoint(-0.31, 1.07),
        TauPoint(0.2, 1.5),
        TauPoint(0.45, 2.8),
    ]
