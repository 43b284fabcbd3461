import random

from ellgreen import _kernels
from ellgreen.lattice import TauPoint
from ellgreen.modular import (
    DEFAULT_TOL,
    SeriesTolerance,
    _phase_row,
    _series,
    _weight_row,
    log_abs_theta_shifted,
)


def _grid(tau, n, seed, tol=DEFAULT_TOL):
    # the reference mean's combine: one weight row per d, one phase row per c
    rng, series = random.Random(seed), _series(tau, tol)
    phases = [_phase_row(rng.random(), series) for _ in range(n)]
    rows = [_weight_row(rng.random(), series) for _ in range(n)]
    return rows, phases, _kernels.log_abs_theta_shifted_grid(rows, phases)


def test_grid_kernel_matches_scalar_path():
    # grid entry (d, c) is log|S(c, d)| per point, dominant log included
    tau = TauPoint(0.13, 1.32)
    rows, phases, grid = _grid(tau, 60, seed=0)
    assert len(grid) == len(rows) and all(len(logs) == len(phases) for logs in grid)
    for row, logs in zip(rows, grid):
        assert logs == [log_abs_theta_shifted(row, p) for p in phases]


def test_kernel_window_is_wide_enough():
    # a tighter tolerance widens the window; the result must not change
    # beyond rounding
    tau = TauPoint(0.2, 1.1)
    tight = SeriesTolerance(rel_tol=1e-40)  # K from 4 to 7
    _, phases, a = _grid(tau, 80, seed=5)
    _, wide, b = _grid(tau, 80, seed=5, tol=tight)
    assert len(wide[0]) > len(phases[0])
    assert max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)) < 1e-13
