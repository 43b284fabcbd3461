"""High-precision references for the benchmark's correctness checks.

Everything here is evaluated with mpmath at 40 significant digits, from the
definitions rather than from the library's rewritten series: tau is reduced
in multiprecision, theta is summed directly as sum_n exp(pi*i*n^2*tau +
2*pi*i*n*z), and eta comes from mpmath's own Dedekind eta.  mpmath numbers
have an unbounded exponent, so the references stay valid where doubles
underflow (reduced Im tau in the thousands, curves at scale 1e+-50).
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

mp = mpmath.mp
mp.dps = 40


def _mpf(x) -> mpmath.mpf:
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / x.denominator
    return mpmath.mpf(x)


def reduce_tau(tau: complex):
    """Reduce tau to the standard fundamental domain.

    Returns (tau', ((a, b), (c, d))) with tau' = (a*tau + b)/(c*tau + d).
    """
    z = mpmath.mpc(tau.real, tau.imag)
    ma, mb, mc, md = 1, 0, 0, 1
    for _ in range(10_000):
        n = int(mpmath.floor(z.real + 0.5))
        if n:
            z -= n
            ma, mb = ma - n * mc, mb - n * md
        if abs(z) < 1:
            z = -1 / z
            ma, mb, mc, md = -mc, -md, ma, mb
        else:
            return z, ((ma, mb), (mc, md))
    raise ArithmeticError(f"oracle could not reduce tau = {tau!r}")


def log_abs_eta(tau_red: mpmath.mpc) -> mpmath.mpf:
    return mpmath.log(abs(mpmath.eta(tau_red)))


def log_norm_eta(tau: complex) -> mpmath.mpf:
    """log (Im tau)^(1/4) |eta(tau)|, an invariant of the lattice."""
    red, _ = reduce_tau(tau)
    return mpmath.log(red.imag) / 4 + log_abs_eta(red)


def log_norm_delta(tau: complex) -> mpmath.mpf:
    """log (Im tau)^6 |Delta(tau)| = 24 * log_norm_eta."""
    return 24 * log_norm_eta(tau)


def quotient_tau(tau: complex, n: int, u: int, v: int) -> complex:
    """tau' = omega2 / omega1 of an oriented basis of the superlattice
    Z + tau*Z + Z*(u + v*tau)/n, for a generator (u, v) of exact order n.

    In coordinates (a, b) for (a + b*tau)/n the superlattice is spanned by
    (n, 0), (0, n) and (u, v); its Hermite basis is (a1, 0), (s*u, g) with
    g = gcd(v, n) = s*v + t*n and a1 = gcd(n, u*n/g).
    """
    g, s = n, 0
    r, x = v % n, 1          # extended Euclid on (n, v): r = x*v (mod n)
    while r:
        q = g // r
        g, r = r, g - q * r
        s, x = x, s - q * x
    a1 = math.gcd(n, u * n // g)
    return complex(s * u % a1, 0) / a1 + (g / a1) * tau


def energy_predicted(tau: complex, n: int, u: int, v: int) -> mpmath.mpf:
    """sqrt(N) ||eta||(target)^2 / ||eta||(source)^2 for the quotient of
    Z + tau*Z by the cyclic subgroup generated by (u + v*tau)/n."""
    target = quotient_tau(tau, n, u, v)
    return mpmath.sqrt(n) * mpmath.exp(2 * (log_norm_eta(target) - log_norm_eta(tau)))


def _log_abs_theta(z: mpmath.mpc, tau: mpmath.mpc) -> mpmath.mpf:
    # direct sum over a window around the dominant index -Im z / Im tau
    centre = int(mpmath.nint(-z.imag / tau.imag))
    half = int(math.ceil(math.sqrt(80.0 / (math.pi * float(tau.imag))))) + 2
    total = mpmath.mpc(0)
    for n in range(centre - half, centre + half + 1):
        total += mpmath.exp(1j * mpmath.pi * n * n * tau + 2j * mpmath.pi * n * z)
    return mpmath.log(abs(total))


def log_green(tau: complex, a, b) -> mpmath.mpf:
    """log G(0, a + b*tau); -inf when the point is the lattice origin.

    G(0, z) = ||theta||(z + (1 + tau)/2) / ||eta|| with
    ||theta||(w) = (Im tau)^(1/4) exp(-pi (Im w)^2 / Im tau) |theta(w)|.
    Fractions stay exact through the change of marking.
    """
    red, ((ma, mb), (mc, md)) = reduce_tau(tau)
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        a2 = (ma * a - mb * b) % 1
        b2 = (md * b - mc * a) % 1
        if a2 == 0 and b2 == 0:
            return -mpmath.inf
        a2, b2 = _mpf(a2), _mpf(b2)
    else:
        a2 = mpmath.frac(ma * _mpf(a) - mb * _mpf(b))
        b2 = mpmath.frac(md * _mpf(b) - mc * _mpf(a))
    w = a2 + b2 * red + (1 + red) / 2
    log_norm_theta = (mpmath.log(red.imag) / 4 - mpmath.pi * w.imag ** 2 / red.imag
                      + _log_abs_theta(w, red))
    return log_norm_theta - (mpmath.log(red.imag) / 4 + log_abs_eta(red))


def half_period_roots(tau: complex) -> tuple[mpmath.mpc, mpmath.mpc, mpmath.mpc]:
    """(alpha1, alpha2, alpha3) of Z + tau*Z in the library's theta ordering:
    alpha1 - alpha3 = pi^2 theta3^4, alpha1 - alpha2 = pi^2 theta4^4."""
    nome = mpmath.exp(1j * mpmath.pi * mpmath.mpc(tau.real, tau.imag))
    d13 = mpmath.pi ** 2 * mpmath.jtheta(3, 0, nome) ** 4
    d12 = mpmath.pi ** 2 * mpmath.jtheta(4, 0, nome) ** 4
    alpha1 = (d12 + d13) / 3
    return alpha1, alpha1 - d12, alpha1 - d13


def faltings_height(degree: int, log_norm_min_disc: float, embeddings) -> mpmath.mpf:
    """h = (1/deg) ((1/12) log|N(disc)| - (1/12) sum log((2 pi)^12 ||Delta||))."""
    terms = sum(12 * mpmath.log(2 * mpmath.pi) + log_norm_delta(t) for t in embeddings)
    return (mpmath.mpf(log_norm_min_disc) / 12 - terms / 12) / degree


def close(value: float, ref, rel: float) -> bool:
    """True when a double matches a multiprecision reference to `rel`.

    A reference outside the double range is matched by the double it rounds
    to (0.0 or inf), since no double can do better.
    """
    if value == float(ref):
        return True
    return math.isfinite(value) and abs(value - ref) <= rel * abs(ref)
