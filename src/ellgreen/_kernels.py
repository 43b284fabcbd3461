"""The quadrature's grid of shifted theta sums as one matrix product: with
one weight row per distinct d and one phase row per distinct c (built by
`modular`), the scaled sum at every (d, c) is an entry of weights @ phases.T.
"""

from __future__ import annotations

import numpy as np


def log_abs_theta_shifted_grid(weights: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """log |sum_k w_k(d) p_k(c)| for every row of `weights` (one per d)
    against every row of `phases` (one per c), both of shape (M, 2K + 1);
    the caller keeps the grid away from the zeros of theta."""
    return np.log(np.abs(weights @ phases.T))
