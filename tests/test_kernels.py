import math
import random

from ellgreen import _kernels
from ellgreen.lattice import TauPoint
from ellgreen.modular import (
    DEFAULT_TOL,
    _phase,
    _row,
    _weight_row,
    log_abs_theta_shifted,
)


def _grid(tau, n, seed, widen=0):
    # the reference mean's combine: one weight row per d, one phase row per c
    rng = random.Random(seed)
    cs = [rng.random() for _ in range(n)]
    rows = [_weight_row(rng.random(), tau, DEFAULT_TOL) for _ in range(n)]
    half = rows[0][5] + widen
    weights = [_row(w_low, w_high, q, half) for _, _, w_low, w_high, q, _ in rows]
    phases = [_row(e.conjugate(), e, 1.0, half) for e in map(_phase, cs)]
    return cs, rows, _kernels.log_abs_theta_shifted_grid(weights, phases)


def test_grid_kernel_matches_scalar_path():
    # grid entry (d, c) plus the dominant log of d is log|S(c, d)| per point
    tau = TauPoint(0.13, 1.32)
    cs, rows, grid = _grid(tau, 60, seed=0)
    assert len(grid) == len(rows) and all(len(logs) == len(cs) for logs in grid)
    for row, logs in zip(rows, grid):
        lead = -math.pi * tau.im * row[1] ** 2
        for c, value in zip(cs, logs):
            scalar = log_abs_theta_shifted(row, _phase(c), tau)
            assert abs(value + lead - scalar) < 1e-12


def test_kernel_window_is_wide_enough():
    # widening the window must not change the result beyond rounding
    tau = TauPoint(0.2, 1.1)
    _, _, a = _grid(tau, 80, seed=5)
    _, _, b = _grid(tau, 80, seed=5, widen=4)
    assert max(abs(x - y) for row_a, row_b in zip(a, b) for x, y in zip(row_a, row_b)) < 1e-13
