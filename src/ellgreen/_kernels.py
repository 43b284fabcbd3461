"""Pure-Python grid of shifted theta sums for green's direct midpoint mean,
each entry as `modular.log_abs_theta_shifted` gives it.  It is a module of
its own because the benchmark traces it as a layer boundary.
"""

import math

from .modular import _WeightRow, _scaled_sum


def log_abs_theta_shifted_grid(rows: list[_WeightRow],
                               phases: list[list[complex]]) -> list[list[float]]:
    """log |S(c, d)| for each weight row (one per d) against each phase row
    (one per c), one list per weight row; the grid avoids theta's zeros."""
    return [[math.log(abs(_scaled_sum(weights, p))) + lead for p in phases]
            for _, lead, weights in rows]
