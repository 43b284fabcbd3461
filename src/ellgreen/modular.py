"""Series kernels: Riemann theta, Dedekind eta, the modular discriminant,
and their normalised (lattice-invariant) versions.

All q-series are truncated adaptively against a relative tolerance.  The
normalised theta uses a shifted-Gaussian form of the series whose terms are
bounded by 1, so it never overflows regardless of the point or of Im tau.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

from .errors import SeriesConvergenceError
from .lattice import TauPoint, TorusPoint, reduce_tau

_PI = math.pi
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class SeriesTolerance:
    """Truncation control for all series evaluations."""

    rel_tol: float = 1e-12
    max_terms: int = 256

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must lie in (0, 1), got {self.rel_tol!r}")
        if self.max_terms < 8:
            raise ValueError(f"max_terms must be >= 8, got {self.max_terms}")


DEFAULT_TOL = SeriesTolerance()


# ---------------------------------------------------------------------------
# Riemann theta and its z-derivative
# ---------------------------------------------------------------------------

def _split_z(z: complex, tau: TauPoint) -> tuple[complex, int]:
    # z = z0 + p*tau + s with z0 = a + b*tau, a, b in [0, 1); only p matters
    # for the quasi-periodicity factor.
    b = z.imag / tau.im
    p = math.floor(b)
    z0 = z - p * tau.z
    a = z0.real - (b - p) * tau.re
    z0 -= math.floor(a)
    return z0, p


def _theta_sum(z: complex, tau: TauPoint, tol: SeriesTolerance, deriv: bool) -> complex:
    y = abs(z.imag)
    im = tau.im
    total = 0j if deriv else 1.0 + 0j
    peak = y / im  # the term bound grows until n passes this index
    k_cap = (tol.max_terms - 1) // 2
    for k in range(1, k_cap + 1):
        e_plus = cmath.exp(1j * _PI * k * k * tau.z + 2j * _PI * k * z)
        e_minus = cmath.exp(1j * _PI * k * k * tau.z - 2j * _PI * k * z)
        if deriv:
            total += 2j * _PI * k * (e_plus - e_minus)
        else:
            total += e_plus + e_minus
        nxt = k + 1
        bound = math.exp(-_PI * im * nxt * nxt + _TWO_PI * y * nxt)
        if deriv:
            bound *= _TWO_PI * nxt
        if nxt > peak and bound < tol.rel_tol * max(abs(total), 1e-300):
            return total
    raise SeriesConvergenceError(
        f"theta series did not reach rel_tol={tol.rel_tol} within "
        f"{tol.max_terms} terms (Im tau = {im}; reduce tau first)"
    )


def theta(z: complex, tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Riemann's theta function sum_n exp(pi*i*n^2*tau + 2*pi*i*n*z).

    The argument is shifted to the fundamental cell internally and the
    quasi-periodicity factor applied analytically, so large Im z cannot
    overflow the series itself.
    """
    z = complex(z)
    z0, p = _split_z(z, tau)
    value = _theta_sum(z0, tau, tol, deriv=False)
    if p != 0:
        value *= cmath.exp(-1j * _PI * p * p * tau.z - 2j * _PI * p * z0)
    return value


def theta_dz(z: complex, tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """d(theta)/dz, by termwise differentiation of the series."""
    z = complex(z)
    z0, p = _split_z(z, tau)
    dval = _theta_sum(z0, tau, tol, deriv=True)
    if p != 0:
        factor = cmath.exp(-1j * _PI * p * p * tau.z - 2j * _PI * p * z0)
        dval = factor * (dval - 2j * _PI * p * _theta_sum(z0, tau, tol, deriv=False))
    return dval


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


def eta(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """Dedekind eta, q^(1/24) * prod (1 - q^k), principal branch of q^(1/24)."""
    return cmath.exp(2j * _PI * tau.z / 24.0 + _log_eta_product(tau, tol))


def delta(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> complex:
    """The weight-12 cusp form q * prod (1 - q^k)^24 = eta^24, from the same
    log-domain product as eta."""
    return cmath.exp(2j * _PI * tau.z + 24.0 * _log_eta_product(tau, tol))


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
# Normalised theta
# ---------------------------------------------------------------------------

def gaussian_half_width(tau_im: float, rel_tol: float) -> int:
    """Half-width K of the index window needed by the shifted theta sum:
    exp(-pi * Im(tau) * K^2) < rel_tol."""
    return math.ceil(math.sqrt(max(math.log(1.0 / rel_tol), 1.0) / (_PI * tau_im))) + 1


def log_abs_theta_shifted(c: float, d: float, tau: TauPoint,
                          tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """log | exp(-pi*Im(tau)*d^2) * theta(c + d*tau; tau) |  for c, d in [0, 1).

    Every term of the rewritten series has modulus exp(-pi*Im(tau)*(n+d)^2),
    so the sum is overflow-free for any Im tau.  Returns -inf at an exact
    zero of theta.
    """
    im, re = tau.im, tau.re
    half = gaussian_half_width(im, tol.rel_tol)
    if 2 * half + 2 > tol.max_terms:
        raise SeriesConvergenceError(
            f"shifted theta sum needs {2 * half + 2} terms > max_terms="
            f"{tol.max_terms} (Im tau = {im}; reduce tau first)"
        )
    n0 = round(-d)
    sre = 0.0
    sim = 0.0
    for n in range(n0 - half, n0 + half + 1):
        m = n + d
        amp = math.exp(-_PI * im * m * m)
        phi = _PI * re * m * m + _TWO_PI * n * c
        sre += amp * math.cos(phi)
        sim += amp * math.sin(phi)
    h = sre * sre + sim * sim
    if h == 0.0:
        return -math.inf
    return 0.5 * math.log(h)


def log_norm_theta(point: TorusPoint, tau: TauPoint,
                   tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """log ||theta||(a + b*tau; tau); -inf at a zero of theta."""
    c = float(point.a)
    d = float(point.b)
    return 0.25 * math.log(tau.im) + log_abs_theta_shifted(c % 1.0, d % 1.0, tau, tol)


def norm_theta(point: TorusPoint, tau: TauPoint,
               tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """The normalised theta (Im tau)^(1/4) exp(-pi*y^2/Im tau) |theta(z; tau)|
    at z = a + b*tau.  Depends only on the class of z modulo the lattice."""
    return math.exp(log_norm_theta(point, tau, tol))


# ---------------------------------------------------------------------------
# Invariants of the torus
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SurfaceInvariants:
    """Lattice-invariant norms of a genus-1 surface.

    norm_eta   = (Im tau)^(1/4) |eta(tau)|
    norm_delta = (Im tau)^6 |delta(tau)|  (equals norm_eta^24)
    omega_norm = Arakelov norm of a unit holomorphic differential,
                 1 / (2*pi*norm_eta^2)
    """

    norm_eta: float
    norm_delta: float
    omega_norm: float

    def __post_init__(self):
        if not (self.norm_eta > 0.0 and self.norm_delta > 0.0):
            raise ValueError("invariant norms must be positive")
        if abs(self.norm_delta - self.norm_eta ** 24) > 1e-6 * self.norm_delta:
            raise ValueError("norm_delta must equal norm_eta^24 to working precision")


def invariants(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> SurfaceInvariants:
    """Compute the invariant norms from one log_norm_eta; tau is reduced
    internally.

    Raises ArithmeticError, naming log_norm_delta and its value, where
    norm_delta = exp(log_norm_delta) is not a normal double (reduced Im tau
    above ~117); log_norm_delta itself stays finite there.
    """
    log_eta = log_norm_eta(tau, tol)
    log_delta = 24.0 * log_eta
    nd = math.exp(log_delta)
    if nd < sys.float_info.min:
        raise ArithmeticError(
            f"norm_delta underflows a normal double: log_norm_delta = {log_delta!r}"
        )
    ne = math.exp(log_eta)
    return SurfaceInvariants(
        norm_eta=ne,
        norm_delta=nd,
        omega_norm=1.0 / (_TWO_PI * ne * ne),
    )
