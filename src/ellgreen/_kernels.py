"""Pure-Python grid of shifted theta sums for green's direct midpoint mean:
the scaled sum at (d, c) is d's weight row dotted with c's phase row.  It is
a module of its own because the benchmark traces it as a layer boundary.
"""

import math
from operator import mul


def log_abs_theta_shifted_grid(weights: list[list[complex]],
                               phases: list[list[complex]]) -> list[list[float]]:
    """log |sum_k w_k p_k| for each weight row (one per d) against each phase
    row (one per c), one list per weight row; the grid avoids theta's zeros."""
    return [[math.log(abs(sum(map(mul, w, p)))) for p in phases] for w in weights]
