"""Series kernels: Riemann theta, Dedekind eta, the modular discriminant,
and their normalised (lattice-invariant) versions.

All q-series are truncated adaptively against a relative tolerance.  Every
theta value comes from one shifted sum with its dominant term taken out as a
log, so its terms are bounded by 1 and it neither overflows nor underflows
whatever the point or Im tau.  It has two forms that give the same bits: a
one-point loop (`_shifted_sum`) for theta, theta', ||theta||, single values
of log G and a lone group's sum, and a weight row times a phase row
(`log_abs_theta_shifted`) for the shared tables of log G and the midpoint
grid.  The record every value and sum of log G is evaluated on, one
reduced torus, is `green.Torus`.
"""

from __future__ import annotations

import cmath
import math
import sys
from operator import mul

from .errors import SeriesConvergenceError
from .lattice import TauPoint, TorusPoint, _Value, _set, reduce_tau

_PI = math.pi
_TWO_PI = 2.0 * math.pi


class SeriesTolerance(_Value):
    """Truncation control for all series evaluations."""

    __slots__ = __match_args__ = ("rel_tol", "max_terms")

    def __init__(self, rel_tol: float = 1e-12, max_terms: int = 256):
        if not (0.0 < rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol!r}")
        if not isinstance(max_terms, int) or max_terms < 8:
            raise ValueError(f"max_terms must be an int >= 8, got {max_terms!r}")
        _set(self, "rel_tol", rel_tol)
        _set(self, "max_terms", max_terms)


DEFAULT_TOL = SeriesTolerance()


# ---------------------------------------------------------------------------
# Eta and the discriminant
# ---------------------------------------------------------------------------

def _log_eta_product(tau: TauPoint, tol: SeriesTolerance) -> complex:
    # sum_k log(1 - q^k) on principal branches: the one product behind eta,
    # delta and their norms.  The tail of 24 * sum_j |q|^j bounds what the
    # remaining factors add to log delta, so delta meets rel_tol and eta is
    # 24 times tighter.
    q = cmath.exp(2j * _PI * tau.z)
    aq = abs(q)
    total = 0j
    qk = 1.0 + 0j
    for _ in range(tol.max_terms):
        qk *= q
        total += cmath.log(1.0 - qk)
        if 24.0 * abs(qk) * aq < tol.rel_tol * (1.0 - aq):
            return total
    raise SeriesConvergenceError(
        f"eta product did not converge within {tol.max_terms} factors "
        f"(|q| = {aq}; reduce tau first)"
    )


def _exp_normal(log_value: float, name: str, log_name: str) -> float:
    # exp(log_value), which must be a normal double: below that it reads as
    # a subnormal with few digits left or as a silent 0
    try:
        value = math.exp(log_value)
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        kind = "overflows a double" if value == math.inf else "underflows a normal double"
        raise ArithmeticError(f"{name} {kind}: {log_name} = {log_value!r}")
    return value


def eta(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Dedekind eta, q^(1/24) * prod (1 - q^k), principal branch of q^(1/24).

    tau is not reduced.  Raises ArithmeticError, naming log|eta|, where
    |eta| is not a normal double (Im tau above ~2705); log_norm_eta stays
    finite there.
    """
    log_eta = 2j * _PI * tau.z / 24.0 + _log_eta_product(tau, tol)
    _exp_normal(log_eta.real, "|eta|", "log|eta|")
    return cmath.exp(log_eta)


def delta(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """The weight-12 cusp form q * prod (1 - q^k)^24 = eta^24, from the same
    log-domain product as eta.

    tau is not reduced.  Raises ArithmeticError, naming log|delta|, where
    |delta| is not a normal double (Im tau above ~112.7); log_norm_delta
    stays finite there.
    """
    log_delta = 2j * _PI * tau.z + 24.0 * _log_eta_product(tau, tol)
    _exp_normal(log_delta.real, "|delta|", "log|delta|")
    return cmath.exp(log_delta)


def _log_abs_eta(tau: TauPoint, tol: SeriesTolerance) -> float:
    # log|eta(tau)| computed additively; immune to under/overflow of |q|^(1/24).
    return -_PI * tau.im / 12.0 + _log_eta_product(tau, tol).real


def log_norm_eta(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """log of the lattice-invariant eta norm (Im tau)^(1/4) |eta(tau)|.

    Reduces tau internally; the value depends only on the torus.
    """
    red, _ = reduce_tau(tau)
    return 0.25 * math.log(red.im) + _log_abs_eta(red, tol)


def log_norm_delta(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """log of (Im tau)^6 |delta(tau)| = 24 * log_norm_eta."""
    return 24.0 * log_norm_eta(tau, tol)


# ---------------------------------------------------------------------------
# The shifted theta sum: theta, theta', ||theta|| and G all come from it
# ---------------------------------------------------------------------------
#
# S(c, d) = sum_n exp(pi*i*tau*(n+d)^2 + 2*pi*i*n*c) = exp(pi*i*tau*d^2) *
# theta(c + d*tau).  With n = n0 + k, n0 = round(-d), m0 = n0 + d, S is its
# dominant term exp(pi*i*tau*m0^2 + 2*pi*i*n0*c) times the scaled sum: 1 plus
# the weight row of d (w_k = exp(pi*i*tau*k*(2*m0 + k))) dotted with the phase
# row of c (e^k, e = exp(2*pi*i*c)), both over k = 1..K, -1..-K.  |w_k| <= 1,
# so the scaled sum is of order 1 at any Im tau, and small only near a zero of
# theta.  w_(k+1) / w_k = w_1 * q^k with q = exp(2*pi*i*tau) (and alike from
# w_-1), so rows are running products, no exponential per term.  One point
# on its own forms the same products in one loop and builds no row.

_SUM_FLOOR = 4.0 * sys.float_info.epsilon  # a few rounding errors of order-1 terms
_WeightRow = tuple[int, float, list[complex]]  # (n0, -pi*Im(tau)*m0^2, weights)
_Series = tuple[int, complex, complex, float]  # (K, pi*i*tau, q, -pi*Im(tau)) from _series


def _series(tau: TauPoint, tol: SeriesTolerance) -> _Series:
    # (K checked against max_terms, t = pi*i*tau, q = e^(2t), -pi*Im tau): the
    # constants every weight row, phase row and one-point sum of tau shares;
    # the half-width K of the index window has exp(-pi * Im(tau) * K^2) < rel_tol
    half = math.ceil(math.sqrt(max(math.log(1.0 / tol.rel_tol), 1.0) / (_PI * tau.im))) + 1
    if 2 * half + 2 > tol.max_terms:
        raise SeriesConvergenceError(f"shifted theta sum needs {2 * half + 2} terms > max_terms="
                                     f"{tol.max_terms} (Im tau = {tau.im}; reduce tau first)")
    t = 1j * _PI * tau.z
    return half, t, cmath.exp(2.0 * t), -_PI * tau.im


def _weight_row(d: float, series: _Series) -> _WeightRow:
    # the weight row of d
    half, t, q, gauss = series
    n0 = round(-d)
    m0 = n0 + d
    high, low = cmath.exp(t * (1.0 + 2.0 * m0)), cmath.exp(t * (1.0 - 2.0 * m0))
    highs, lows = [high], [low]
    for _ in range(half - 1):  # factors of modulus <= 1 never overflow
        high *= q
        low *= q
        highs.append(highs[-1] * high)
        lows.append(lows[-1] * low)
    return n0, gauss * m0 ** 2, highs + lows


def _phase_row(c: float, series: _Series) -> list[complex]:
    # [e, ..., e^K, e^-1, ..., e^-K] for e = exp(2*pi*i*c), c real
    e = cmath.exp(2j * _PI * c)
    powers = [e]
    for _ in range(series[0] - 1):
        powers.append(powers[-1] * e)
    return powers + [p.conjugate() for p in powers]


def _scaled_sum(weights: list[complex], phases: list[complex]) -> complex:
    # the centre term 1 goes last, after the smaller ones, so the sum rounds
    # once at its own scale
    return 1.0 + sum(map(mul, weights, phases))


def _shifted_sum(c: float, d: float, series: _Series,
                 deriv: bool = False) -> tuple[int, float, complex]:
    # (n0, lead, scaled sum) of one point in one pass, bit for bit what
    # _weight_row(d) and _scaled_sum(weights, _phase_row(c)) give: the same
    # running products, added in the same order (k = 1..K, then -1..-K, as
    # CPython 3.11's sum adds complex numbers).  For theta' each term is
    # times n0 + k and the centre is n0.
    half, t, q, gauss = series
    n0 = round(-d)
    m0 = n0 + d
    e = cmath.exp(2j * _PI * c)
    total = 0j
    for w, phase, sign in ((cmath.exp(t * (1.0 + 2.0 * m0)), e, 1),
                           (cmath.exp(t * (1.0 - 2.0 * m0)), e.conjugate(), -1)):
        step, p = w, phase
        total += ((n0 + sign) * w) * p if deriv else w * p
        for k in range(2, half + 1):
            step *= q
            w *= step
            p *= phase
            total += ((n0 + sign * k) * w) * p if deriv else w * p
    return n0, gauss * m0 ** 2, (n0 if deriv else 1.0) + total


def _near_zero(size: float) -> ArithmeticError:
    return ArithmeticError(f"the point is within rounding of a zero of theta: the scaled "
                           f"theta sum is {size!r}, so its log has no correct digit")


def log_abs_theta_shifted(row: _WeightRow, phases: list[complex]) -> float:
    """log |S(c, d)| = log |exp(pi*i*tau*d^2) * theta(c + d*tau; tau)|, from
    the weight row of d (`_weight_row`) and the phase row of c (`_phase_row`).

    This row form fills `green.Torus.log_green_sums`'s shared tables; one point, or
    a lone group walked on a record with no table, goes through `_shifted_sum`,
    which gives the same bits.  The dominant term's modulus
    exp(-pi*Im(tau)*m0^2) enters as a log, so nothing under- or overflows at
    any Im tau.  Raises ArithmeticError where the scaled sum is within a few
    rounding errors of 0 (c + d*tau within about 1e-16 of a zero of theta):
    no digit of the log survives there.
    """
    _, lead, weights = row
    size = abs(_scaled_sum(weights, phases))
    if size < _SUM_FLOOR:
        raise _near_zero(size)
    return math.log(size) + lead


def _log_abs_shifted(c: float, d: float, series: _Series) -> float:
    # log_abs_theta_shifted of one point, from _shifted_sum
    _, lead, total = _shifted_sum(c, d, series)
    size = abs(total)
    if size < _SUM_FLOOR:
        raise _near_zero(size)
    return math.log(size) + lead


def _theta(z: complex, tau: TauPoint, tol: SeriesTolerance, deriv: bool) -> complex:
    # exp(lead) times the scaled sum (its terms times 2*pi*i*(n0 + k) for theta'),
    # where lead = pi*i*tau*(m0^2 - d^2) + 2*pi*i*n0*c and m0^2 - d^2 = n0*(n0 + 2d)
    z = complex(z)
    if not cmath.isfinite(z):
        raise ValueError(f"theta needs a finite z, got {z!r}")
    name = "theta'" if deriv else "theta"
    d = z.imag / tau.im
    if math.isinf(d):  # so is log|theta|, led by pi*Im(tau)*d^2
        raise ArithmeticError(f"|{name}| overflows a double: log|{name}| = inf")
    c = (z.real - d * tau.re) % 1.0
    n0, _, total = _shifted_sum(c, d, _series(tau, tol), deriv)
    if deriv:
        total = 2j * _PI * total
    shift = n0 * (n0 + 2.0 * d)  # -inf once d^2 leaves the doubles
    lead = 1j * _PI * (tau.z * shift + 2.0 * n0 * c)
    try:
        value = cmath.exp(lead) * total
    except OverflowError:
        value = complex(math.inf)
    if not cmath.isfinite(value):  # log|value| in real arithmetic: inf, where lead is nan
        raise ArithmeticError(f"|{name}| overflows a double: "
                              f"log|{name}| = {math.log(abs(total)) - _PI * (tau.im * shift)!r}")
    return value


def theta(z: complex, tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Riemann's theta function sum_n exp(pi*i*n^2*tau + 2*pi*i*n*z).

    Any finite complex z: with z = c + d*tau, theta = exp(-pi*i*tau*d^2) * S(c, d),
    the factor applied analytically.  tau is not reduced.  Raises ValueError
    for a non-finite z, and ArithmeticError, naming log|theta|, where |theta|
    overflows a double (pi*Im(tau)*d^2 above ~709: |Im z| large against Im tau).
    """
    return _theta(z, tau, tol, deriv=False)


def theta_dz(z: complex, tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """d(theta)/dz: the terms of theta weighted by 2*pi*i*n.  Raises
    ValueError for a non-finite z, and ArithmeticError, naming log|theta'|,
    where it overflows a double."""
    return _theta(z, tau, tol, deriv=True)


def log_norm_theta(point: TorusPoint, tau: TauPoint,
                   tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """log ||theta||(a + b*tau; tau).  Raises ArithmeticError within about
    1e-16 of a zero of theta, as log_abs_theta_shifted."""
    return 0.25 * math.log(tau.im) + _log_abs_shifted(float(point.a), float(point.b) % 1.0,
                                                      _series(tau, tol))


def norm_theta(point: TorusPoint, tau: TauPoint,
               tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """The normalised theta (Im tau)^(1/4) exp(-pi*y^2/Im tau) |theta(z; tau)|
    at z = a + b*tau, an invariant of the point class.  Formed without a log:
    accurate to about 1e-16 absolute near a zero of theta, where log_norm_theta
    raises.  Raises ArithmeticError where its dominant term is not a normal double."""
    _, lead, total = _shifted_sum(float(point.a), float(point.b) % 1.0, _series(tau, tol))
    scale = _exp_normal(0.25 * math.log(tau.im) + lead, "||theta||", "log of its dominant term")
    return scale * abs(total)


# ---------------------------------------------------------------------------
# Invariants of the torus
# ---------------------------------------------------------------------------

class SurfaceInvariants(_Value):
    """Lattice-invariant norms of a genus-1 surface.

    norm_eta   = (Im tau)^(1/4) |eta(tau)|
    norm_delta = (Im tau)^6 |delta(tau)|  (equals norm_eta^24)
    omega_norm = Arakelov norm of a unit holomorphic differential,
                 1 / (2*pi*norm_eta^2)
    """

    __slots__ = __match_args__ = ("norm_eta", "norm_delta", "omega_norm")

    def __init__(self, norm_eta: float, norm_delta: float, omega_norm: float):
        if not (norm_eta > 0.0 and norm_delta > 0.0):
            raise ValueError("invariant norms must be positive")
        if abs(norm_delta - norm_eta ** 24) > 1e-6 * norm_delta:
            raise ValueError("norm_delta must equal norm_eta^24 to working precision")
        _set(self, "norm_eta", norm_eta)
        _set(self, "norm_delta", norm_delta)
        _set(self, "omega_norm", omega_norm)


def invariants(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> SurfaceInvariants:
    """Compute the invariant norms from one log_norm_eta; tau is reduced
    internally.

    Raises ArithmeticError, naming log_norm_delta and its value, where
    norm_delta = exp(log_norm_delta) is not a normal double (reduced Im tau
    above ~117); log_norm_delta itself stays finite there.
    """
    log_eta = log_norm_eta(tau, tol)
    nd = _exp_normal(24.0 * log_eta, "norm_delta", "log_norm_delta")
    ne = math.exp(log_eta)  # a normal norm_delta keeps 2*pi*ne^2 a normal double too
    return SurfaceInvariants(norm_eta=ne, norm_delta=nd, omega_norm=1.0 / (_TWO_PI * ne * ne))
