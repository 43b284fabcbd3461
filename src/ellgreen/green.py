"""The canonical Green function of a genus-1 surface and its identities.

The computational definition is G(0, z) = ||theta||(z + (1+tau)/2; tau) / ||eta||;
two-point values follow from translation invariance, G(P, Q) = G(0, Q - P).
The defining normalisation (zero mean of log G against the flat unit-mass
form) is exposed as a quadrature check rather than assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .lattice import (
    Isogeny,
    TauPoint,
    TorusPoint,
    _kernel_pairs,
    _torsion_pairs,
    reduce_tau,
    transport_point,
)
from .modular import (
    DEFAULT_TOL,
    SeriesTolerance,
    gaussian_half_width,
    invariants,
    log_abs_theta_shifted,
    log_norm_eta,
    _log_abs_eta,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GreenValue:
    """A Green-function value together with its logarithm (nats).

    value == exp(log_value); the exact zero on the diagonal is reported as
    value = 0.0 with log_value = -inf.
    """

    value: float
    log_value: float

    def __post_init__(self):
        if self.value == 0.0:
            if self.log_value != -math.inf:
                raise ValueError("a zero value must carry log_value = -inf")
        elif abs(self.value - math.exp(self.log_value)) > 1e-12 * self.value:
            raise ValueError("value and log_value disagree")

    @classmethod
    def from_log(cls, log_value: float) -> "GreenValue":
        """Raises ArithmeticError when exp(log_value) overflows a double
        (log_value above ~709.78)."""
        return cls(_exp_log_green(log_value), log_value)


def _exp_log_green(log_value: float, tau: TauPoint | None = None) -> float:
    # log G(0, a + b*tau) reaches pi * Im tau / 12 at b = 1/2, so past a
    # reduced Im tau of ~2700 G no longer fits a double while its log does
    try:
        return math.exp(log_value)
    except OverflowError:
        where = "" if tau is None else f" at reduced Im tau = {reduce_tau(tau)[0].im!r}"
        raise ArithmeticError(
            f"G overflows a double: log G = {log_value!r}{where}"
        ) from None


def _log_green_unreduced(tau: TauPoint, a: float, b: float,
                         tol: SeriesTolerance) -> float:
    # log G(0, a + b*tau) evaluated at the given marking, no reduction.
    # The (Im tau)^(1/4) factors of ||theta|| and ||eta|| cancel.
    c = (a + 0.5) % 1.0
    d = (b + 0.5) % 1.0
    return log_abs_theta_shifted(c, d, tau, tol) - _log_abs_eta(tau, tol)


def _log_green_sum(tau: TauPoint, n: int, pairs: list[tuple[int, int]],
                   tol: SeriesTolerance) -> float:
    # Sum of log G(0, (i + j*tau)/n) over the nonzero pairs (i, j) mod n.
    # tau is reduced and log|eta| computed once for the whole sum; each pair
    # moves through the reduction matrix in integers, and i/n rounds as
    # float(Fraction(i, n)) does, so every term equals green(...).log_value.
    red, ((ma, mb), (mc, md)) = reduce_tau(tau)
    log_eta = _log_abs_eta(red, tol)
    logs = []
    for i, j in pairs:
        a, b = (ma * i - mb * j) % n, (md * j - mc * i) % n
        if a or b:
            c, d = (a / n + 0.5) % 1.0, (b / n + 0.5) % 1.0
            logs.append(log_abs_theta_shifted(c, d, red, tol) - log_eta)
    return _nonzero_log_green(math.fsum(logs), red)


def _nonzero_log_green(log_value: float, red: TauPoint) -> float:
    # G vanishes only at 0, so -inf at a nonzero point is a theta sum that
    # underflowed (reduced Im tau of a few hundred or more)
    if log_value == -math.inf:
        raise ArithmeticError(
            f"theta sum underflowed at a nonzero point (reduced Im tau = {red.im!r})"
        )
    return log_value


def green(tau: TauPoint, z: TorusPoint, tol: SeriesTolerance = DEFAULT_TOL) -> GreenValue:
    """G(0, z) on the torus marked by tau.

    tau is reduced to the fundamental domain and the point's lattice
    coordinates are transported through the same change of marking, so the
    result is an invariant of (torus, point class).  Exactly zero iff the
    reduced point is (0, 0).  Raises ArithmeticError, naming the reduced
    Im tau, where the theta sum at a nonzero point underflows (G would read
    a false 0; from a reduced Im tau of a few hundred, depending on the
    point) or where G itself overflows a double (log G above ~709.78,
    reduced Im tau of ~2700 or more).
    """
    red, mat = reduce_tau(tau)
    moved = transport_point(z, mat)
    if moved.is_zero:
        return GreenValue(0.0, -math.inf)
    log_value = _nonzero_log_green(
        _log_green_unreduced(red, float(moved.a), float(moved.b), tol), red)
    return GreenValue(_exp_log_green(log_value, red), log_value)


def green_pair(tau: TauPoint, p: TorusPoint, q: TorusPoint,
               tol: SeriesTolerance = DEFAULT_TOL) -> GreenValue:
    """Two-point value G(P, Q) = G(0, Q - P)."""
    return green(tau, q - p, tol)


def green_projection_check(iso: Isogeny, w: TorusPoint, z: TorusPoint,
                           tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Residual of the projection identity for a point divisor.

    Compares sum_{Q in f^{-1}(w)} log G_source(Q, z) against
    log G_target(w, f(z)) and returns the absolute difference.  Raises if z
    lies in the fiber of w (the left side would be log 0).
    """
    logs = []
    for q_point in iso.fiber(w):
        g = green(iso.source, z - q_point, tol)
        if g.value == 0.0:
            raise ValueError("z lies in the fiber of w; log G(Q, z) diverges")
        logs.append(g.log_value)
    lhs = math.fsum(logs)
    fz = iso.apply(z)
    g_target = green(iso.target, fz - w, tol)
    if g_target.value == 0.0:
        raise ValueError("f(z) coincides with w; log G diverges")
    return abs(lhs - g_target.log_value)


def torsion_product(tau: TauPoint, n: int, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """prod of G(0, P) over the nonzero n-torsion points (contract: equals n).

    Raises ArithmeticError where a theta sum underflows (reduced Im tau
    of a few hundred or more) or where the product overflows a double.
    """
    return _exp_log_green(_log_green_sum(tau, n, _torsion_pairs(n), tol), tau)


def energy(iso: Isogeny, tol: SeriesTolerance = DEFAULT_TOL) -> tuple[float, float]:
    """Kernel product of an isogeny and its predicted value.

    Returns (product, predicted) with product = prod_{P in ker, P != 0} G(0, P)
    on the source and predicted = sqrt(N) * ||eta||(target)^2 / ||eta||(source)^2.
    Raises ArithmeticError where a theta sum underflows or the product
    overflows a double, as torsion_product (a kernel point at b = 1/2 of a
    source with reduced Im tau of ~2700 or more overflows).
    """
    n = iso.degree
    pairs = _kernel_pairs(iso.coordinate_matrix(), n)
    product = _exp_log_green(_log_green_sum(iso.source, n, pairs, tol), iso.source)
    log_ratio = 2.0 * (log_norm_eta(iso.target, tol) - log_norm_eta(iso.source, tol))
    predicted = math.sqrt(iso.degree) * math.exp(log_ratio)
    return product, predicted


def energy_via_a(iso: Isogeny, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """The same prediction through the differential-norm invariant,
    sqrt(N) * A(source) / A(target)."""
    a_src = invariants(iso.source, tol).omega_norm
    a_tgt = invariants(iso.target, tol).omega_norm
    return math.sqrt(iso.degree) * a_src / a_tgt


def a_invariant_adjunction_check(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL,
                                 direction: complex = 0.3 + 0.4j) -> float:
    """Relative residual between the adjunction limit and the closed form.

    Estimates lim_{z->0} |z| / G(0, z) along z = t*direction by Richardson
    extrapolation in t^2 (t = 1e-2, 5e-3, 2.5e-3); the limit divided by
    sqrt(Im tau) must equal the omega_norm invariant.
    """
    red, _ = reduce_tau(tau)
    a_closed = 1.0 / (_TWO_PI * math.exp(2.0 * log_norm_eta(red, tol)))

    def ratio(t: float) -> float:
        zc = t * direction
        b = zc.imag / red.im
        a = zc.real - b * red.re
        return abs(zc) / math.exp(_log_green_unreduced(red, a % 1.0, b % 1.0, tol))

    r1 = ratio(1e-2)
    r2 = ratio(5e-3)
    r3 = ratio(2.5e-3)
    first_a = (4.0 * r2 - r1) / 3.0
    first_b = (4.0 * r3 - r2) / 3.0
    limit = (16.0 * first_b - first_a) / 15.0
    return abs(limit / math.sqrt(red.im) - a_closed) / a_closed


def green_mean_integral(tau: TauPoint, grid: int,
                        tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Midpoint quadrature of log G(0, .) against the unit-mass flat form.

    Samples the grid*grid midpoints of the unit square in reduced lattice
    coordinates (never hitting the singular lattice point) and returns the
    mean, which tends to 0 as the grid is refined.
    """
    if grid < 16:
        raise ValueError(f"grid must be >= 16, got {grid}")
    red, _ = reduce_tau(tau)
    mid = (np.arange(grid, dtype=np.float64) + 0.5) / grid
    shifted = (mid + 0.5) % 1.0
    c = np.repeat(shifted, grid)
    d = np.tile(shifted, grid)
    half = gaussian_half_width(red.im, tol.rel_tol)
    log_s = _kernels.log_abs_theta_shifted_grid(c, d, red.re, red.im, half)
    log_eta = _log_abs_eta(red, tol)  # the (Im tau)^(1/4) factors cancel
    total = math.fsum(log_s.tolist())
    return total / (grid * grid) - log_eta
