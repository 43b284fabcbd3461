import numpy as np

from ellgreen import _kernels
from ellgreen.lattice import TauPoint
from ellgreen.modular import DEFAULT_TOL, gaussian_half_width, log_abs_theta_shifted


def _grid(n, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 1.0, n), rng.uniform(0.0, 1.0, n)


def test_numpy_kernel_matches_scalar_path():
    tau = TauPoint(0.13, 1.32)
    c, d = _grid(200)
    half = gaussian_half_width(tau.im, DEFAULT_TOL.rel_tol)
    batch = _kernels.log_abs_theta_shifted_grid(c, d, tau.re, tau.im, half)
    for i in range(c.shape[0]):
        scalar = log_abs_theta_shifted(float(c[i]), float(d[i]), tau)
        assert abs(batch[i] - scalar) < 1e-10


def test_kernel_window_is_wide_enough():
    # widening the window must not change the result beyond the tolerance
    tau = TauPoint(0.2, 1.1)
    c, d = _grid(500, seed=5)
    half = gaussian_half_width(tau.im, DEFAULT_TOL.rel_tol)
    a = _kernels.log_abs_theta_shifted_grid(c, d, tau.re, tau.im, half)
    b = _kernels.log_abs_theta_shifted_grid(c, d, tau.re, tau.im, half + 4)
    assert np.max(np.abs(a - b)) < 1e-11
