"""Batched evaluation of the shifted theta sum over coordinate grids.

Used by the Green-function mean quadrature: each point sums a short
Gaussian-weighted series, vectorised over the points with numpy.
"""

from __future__ import annotations

import math

import numpy as np

_PI = math.pi
_TWO_PI = 2.0 * math.pi


def log_abs_theta_shifted_grid(c: np.ndarray, d: np.ndarray, tau_re: float,
                               tau_im: float, half_width: int) -> np.ndarray:
    """log |sum_n exp(i*pi*tau*(n+d)^2 + 2*pi*i*n*c)| per point, vectorised.

    c, d: 1-D float64 arrays of lattice coordinates in [0, 1).  The window
    n in [round(-d) - K, round(-d) + K] covers the Gaussian mass.
    """
    n0 = np.rint(-d)
    sre = np.zeros_like(c)
    sim = np.zeros_like(c)
    for k in range(-half_width, half_width + 1):
        n = n0 + k
        m = n + d
        amp = np.exp(-_PI * tau_im * m * m)
        phi = _PI * tau_re * m * m + _TWO_PI * n * c
        sre += amp * np.cos(phi)
        sim += amp * np.sin(phi)
    h = sre * sre + sim * sim
    with np.errstate(divide="ignore"):
        return 0.5 * np.log(h)
