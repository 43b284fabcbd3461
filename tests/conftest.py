import random
import sys
from collections import Counter

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


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(*functions) wraps each function in every loaded ellgreen
    module that binds its name and returns the call counts by name.  Every
    module, not just the defining one: `from .x import f` copies the binding,
    and ellgreen.green, as an attribute of the package, is the function green."""
    def install(*functions) -> Counter:
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        modules = [m for name, m in sys.modules.items() if name.startswith("ellgreen.")]
        for fn in functions:
            wrapper = counted(fn.__name__, fn)  # one per function, as a tracer finds it
            for module in modules:
                if getattr(module, fn.__name__, None) is fn:
                    monkeypatch.setattr(module, fn.__name__, wrapper)
        return counts
    return install


@pytest.fixture
def moved_classes():
    """moved_classes(torus, pairs, n) counts the nonzero pairs P mod n, each moved
    through the torus's reduction on its own, by +-P class min(P, -P): the class
    weights a sum of log G over the pairs should use, found without a walk."""
    def classes(torus, pairs, n):
        (ma, mb), (mc, md) = torus.mat
        counts = Counter()
        for i, j in pairs:
            a, b = (ma * i - mb * j) % n, (md * j - mc * i) % n
            if a or b:
                counts[min((a, b), (-a % n, -b % n))] += 1
        return dict(counts)
    return classes
