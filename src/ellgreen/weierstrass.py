"""Bridge between the algebraic model y^2 = 4x^3 - p*x - q and the torus.

Forward direction: Eisenstein q-series give (p, q) for the lattice
Z + tau*Z, and theta constants give the half-period roots.  Inverse
direction: periods of a curve are recovered by the optimal arithmetic-
geometric mean on square roots of root differences.
"""

from __future__ import annotations

import cmath
import math
from functools import lru_cache
from itertools import permutations

from .errors import SeriesConvergenceError
from .green import Torus
from .lattice import TauPoint, _Value, _set, reduce_tau
from .modular import DEFAULT_TOL, SeriesTolerance, _log_abs_shifted, _series, delta, theta

_PI = math.pi
_PI_SQ = math.pi * math.pi
_OMEGA = complex(-0.5, math.sqrt(3.0) / 2.0)  # a primitive cube root of 1


class WeierstrassCurve(_Value):
    """A curve y^2 = 4x^3 - p*x - q with nonzero discriminant p^3 - 27q^2.

    Near the cusp the two terms of the discriminant agree to many digits,
    so series producers (eisenstein) pass a cancellation-free value through
    `disc`; for hand-built curves it defaults to the direct difference.

    Raises ValueError for a non-finite p, q or `disc`, p = q = 0, a zero
    discriminant, or a `disc` off p^3 - 27q^2 by over 1e-10 (|p|^3 + 27|q|^2),
    far above that difference's rounding; ArithmeticError where p^3 - 27q^2 is
    needed but leaves the doubles.
    """

    __slots__ = __match_args__ = ("p", "q", "disc")

    def __init__(self, p: complex, q: complex, disc: complex | None = None):
        p, q = _finite_complex("p", p), _finite_complex("q", q)
        disc = None if disc is None else _finite_complex("disc", disc)
        if p == 0 and q == 0:
            raise ValueError("degenerate curve: p = q = 0")
        if disc is None:
            disc = p * p * p - 27.0 * (q * q)  # products, not **, which raises OverflowError
            if not cmath.isfinite(disc):
                raise ArithmeticError(f"p^3 - 27q^2 leaves the doubles at p = {p!r}, "
                                      f"q = {q!r}")
        else:  # compared on the curve rescaled by 2^-k (weights 4, 6, 12), exact up to
            # underflow, with the largest of |p|^(1/4), |q|^(1/6), |disc|^(1/12) near 1
            parts = ((p, 4), (q, 6), (disc, 12))
            k = max(math.frexp(max(abs(v.real), abs(v.imag)))[1] // w for v, w in parts if v)
            ps, qs, ds = (_ldexp(v, -w * k) for v, w in parts)
            p3, q2 = ps * ps * ps, qs * qs
            if abs(ds - (p3 - 27.0 * q2)) > 1e-10 * (abs(p3) + 27.0 * abs(q2)):
                raise ValueError(f"disc = {disc!r} disagrees with p^3 - 27q^2 at p = {p!r}, "
                                 f"q = {q!r}")
        if disc == 0:
            raise ValueError("degenerate curve: p^3 - 27 q^2 = 0")
        _set(self, "p", p)
        _set(self, "q", q)
        _set(self, "disc", disc)

    @property
    def discriminant(self) -> complex:
        return self.disc


def _ldexp(v: complex, e: int) -> complex:
    # v * 2^e, exact up to underflow; OverflowError past the doubles
    return complex(math.ldexp(v.real, e), math.ldexp(v.imag, e))


def _finite_complex(name: str, value) -> complex:
    value = complex(value)
    if not cmath.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value!r}")
    return value


class PeriodData(_Value):
    """An oriented period basis (omega1, omega2) with tau = omega2/omega1.
    ValueError for a non-finite omega1 or omega2, omega1 = 0, or a tau off
    omega2/omega1 by over 1e-9 (1 + |omega2/omega1|)."""

    __slots__ = __match_args__ = ("omega1", "omega2", "tau")

    def __init__(self, omega1: complex, omega2: complex, tau: TauPoint):
        omega1, omega2 = _finite_complex("omega1", omega1), _finite_complex("omega2", omega2)
        if omega1 == 0:
            raise ValueError("omega1 must be nonzero")
        ratio = omega2 / omega1
        if abs(ratio - tau.z) > 1e-9 * (1.0 + abs(ratio)):
            raise ValueError("tau does not match omega2/omega1")
        _set(self, "omega1", omega1)
        _set(self, "omega2", omega2)
        _set(self, "tau", tau)


class RootTriple(_Value):
    """Roots of 4x^3 - p*x - q, ordered by the theta-difference convention:
    alpha1 - alpha3 = pi^2 theta(0)^4, alpha1 - alpha2 = pi^2 theta(1/2)^4."""

    __slots__ = __match_args__ = ("alpha1", "alpha2", "alpha3")

    def __init__(self, alpha1: complex, alpha2: complex, alpha3: complex):
        total = alpha1 + alpha2 + alpha3
        scale = max(abs(alpha1), abs(alpha2), abs(alpha3), 1.0)
        if abs(total) > 1e-8 * scale:
            raise ValueError("roots of a depressed cubic must sum to zero")
        _set(self, "alpha1", alpha1)
        _set(self, "alpha2", alpha2)
        _set(self, "alpha3", alpha3)

    def as_tuple(self) -> tuple[complex, complex, complex]:
        return (self.alpha1, self.alpha2, self.alpha3)


@lru_cache(maxsize=2048)
def _sigma_power(n: int, k: int) -> int:
    return sum(d ** k for d in range(1, n + 1) if n % d == 0)


def eisenstein(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> WeierstrassCurve:
    """The invariants (g2, g3) of the lattice Z + tau*Z via Eisenstein q-series."""
    q = cmath.exp(2j * _PI * tau.z)
    aq = abs(q)
    a = 0j  # E4 - 1
    b = 0j  # E6 - 1
    qn = 1.0 + 0j
    # the discriminant depends on the cusp tails a, b alone, so the cut must
    # hold relative to their leading size 240|q|, not to the constant term 1
    threshold = tol.rel_tol * 240.0 * aq * (1.0 - aq)
    for n in range(1, tol.max_terms + 1):
        qn *= q
        a += 240.0 * _sigma_power(n, 3) * qn
        b -= 504.0 * _sigma_power(n, 5) * qn
        # sigma_5(n) < n^6 bounds both tails; <= so that an underflowed |q|
        # (threshold and bound both 0.0) stops immediately
        if 504.0 * (n + 1) ** 6 * aq ** (n + 1) <= threshold:
            break
    else:
        raise SeriesConvergenceError(
            f"Eisenstein series did not converge within {tol.max_terms} terms"
        )
    g2 = (4.0 * _PI ** 4 / 3.0) * (1.0 + a)
    g3 = (8.0 * _PI ** 6 / 27.0) * (1.0 + b)
    # g2^3 - 27 g3^2 = C ((1+a)^3 - (1+b)^2); the expanded form below has no
    # cancellation between the leading 1's, which the direct difference loses
    # entirely once |q| is small
    disc = (64.0 * _PI ** 12 / 27.0) * (
        3.0 * a - 2.0 * b + 3.0 * a * a + a ** 3 - b * b
    )
    return WeierstrassCurve(g2, g3, disc)


def _theta_roots(t3: complex, t4: complex) -> RootTriple:
    # alpha1 - alpha3 = pi^2 theta(0)^4, alpha1 - alpha2 = pi^2 theta(1/2)^4
    # and alpha1 + alpha2 + alpha3 = 0 pin the triple
    d13 = _PI_SQ * t3 ** 4
    d12 = _PI_SQ * t4 ** 4
    alpha1 = (d12 + d13) / 3.0
    return RootTriple(alpha1, alpha1 - d12, alpha1 - d13)


def half_period_roots(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL) -> RootTriple:
    """Half-period roots for the lattice Z + tau*Z, built from theta constants.

    The differences satisfy alpha1 - alpha3 = pi^2 theta(0)^4,
    alpha1 - alpha2 = pi^2 theta(1/2)^4 and (by the Jacobi quartic relation)
    alpha2 - alpha3 = pi^2 exp(pi*i*tau) theta(tau/2)^4; together with
    sum(alpha) = 0 this pins the triple.
    """
    return _theta_roots(theta(0.0, tau, tol), theta(0.5, tau, tol))


def _cubic_roots(curve: WeierstrassCurve) -> list[complex]:
    """Roots of 4x^3 - p*x - q by Cardano's formula and up to two Newton steps each.

    The curve is first rescaled by x = s*y with s = 2^round(log2 max(|p|^(1/2),
    |q|^(1/3))), which is exact and leaves y^3 + a*y + b = 0 with |a|, |b| of
    order one.  Of the cube-root arguments -b/2 +- sqrt(b^2/4 + a^3/27) the
    one of larger modulus is taken, so that no cancellation enters it.
    """
    p, q = curve.p, curve.q
    s = 2.0 ** round(math.log2(max(abs(p) ** 0.5, abs(q) ** (1.0 / 3.0))))
    a = -p / (4.0 * s * s)
    b = -q / (4.0 * s * s * s)
    root = cmath.sqrt(b * b / 4.0 + a ** 3 / 27.0)
    u = max(-b / 2.0 + root, -b / 2.0 - root, key=abs) ** (1.0 / 3.0)
    roots = []
    for uk in (u, u * _OMEGA, u * _OMEGA.conjugate()):
        y = uk - a / (3.0 * uk)
        for _ in range(2):
            slope = 3.0 * y * y + a
            if slope:  # 0 at a root double to working precision: keep Cardano's
                y -= (y ** 3 + a * y + b) / slope
        roots.append(s * y)
    return roots


def _match_roots(computed: list[complex],
                 predicted: tuple[complex, complex, complex]) -> tuple[complex, ...]:
    return min(permutations(computed),
               key=lambda perm: math.fsum(abs(c - t) for c, t in zip(perm, predicted)))


def _root_differences(a1: complex, a2: complex, a3: complex,
                      curve: WeierstrassCurve) -> tuple[complex, complex, complex]:
    """(a1-a2, a1-a3, a2-a3) for roots of the curve, each to full relative
    precision.

    A cubic solver resolves a nearly degenerate pair only to about sqrt(eps),
    so only the isolated root r, the one of largest |f'(r)| = |12 r^2 - p|
    among the values that solve the cubic, is used.  Since f'(r) =
    4 (r-x)(r-y) and disc = 16 ((r-x)(r-y)(x-y))^2, the other two roots
    differ by d = sqrt(disc) / f'(r), its sign matched to the solver's x - y;
    they are -r/2 +- d/2, so r - x = 3r/2 - d/2 and r - y = 3r/2 + d/2.
    """
    roots = (a1, a2, a3)
    p, q = curve.p, curve.q
    slopes = [12.0 * x * x - p for x in roots]
    # a root leaves a residual of a few ulps of its terms, but a Newton step
    # from a slope of rounding size can throw a value of a double root off
    # the cubic: such a value is never taken as r
    is_root = [abs(4.0 * x * x * x - p * x - q)
               <= 1e-8 * (4.0 * abs(x) * abs(x) * abs(x) + abs(p) * abs(x) + abs(q))
               for x in roots]
    i = max(range(3), key=lambda m: (is_root[m], abs(slopes[m])))
    j, k = (m for m in range(3) if m != i)
    r = roots[i]
    d = cmath.sqrt(curve.discriminant) / slopes[i]
    raw = roots[j] - roots[k]
    if abs(d - raw) > abs(d + raw):
        d = -d
    diffs = {(i, j): 1.5 * r - 0.5 * d, (i, k): 1.5 * r + 0.5 * d, (j, k): d}
    return tuple(diffs[m, n] if (m, n) in diffs else -diffs[n, m]
                 for m, n in ((0, 1), (0, 2), (1, 2)))


def thomae_residuals(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL
                     ) -> tuple[float, float, float]:
    """Relative residuals of the three half-period/theta-constant identities.

    The root side comes from the Eisenstein-series curve (an independent
    series), matched to the theta ordering; comparisons are in absolute
    value, which sidesteps the square-root branch choices.
    """
    curve = eisenstein(tau, tol)
    # theta(0), theta(1/2) and the phased exp(pi*i*tau/4) * theta(tau/2)
    t3, t4 = theta(0.0, tau, tol), theta(0.5, tau, tol)
    t2 = cmath.exp(1j * _PI * tau.z / 4.0) * theta(tau.z / 2.0, tau, tol)
    a1, a2, a3 = _match_roots(_cubic_roots(curve), _theta_roots(t3, t4).as_tuple())
    d12, d13, d23 = _root_differences(a1, a2, a3, curve)
    rhs13 = _PI_SQ * abs(t3) ** 4
    rhs12 = _PI_SQ * abs(t4) ** 4
    rhs23 = _PI_SQ * abs(t2) ** 4
    return (
        abs(abs(d13) - rhs13) / rhs13,
        abs(abs(d12) - rhs12) / rhs12,
        abs(abs(d23) - rhs23) / rhs23,
    )


def discriminant_relation_residual(periods: PeriodData, curve: WeierstrassCurve,
                                   tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Relative residual of p^3 - 27q^2 = (2*pi)^12 omega1^(-12) delta(tau).

    Formed as disc * omega1^12 against (2*pi)^12 delta(tau), with the two
    factors rescaled by powers of 2 (exact), so it reads the same at every
    scale of the curve.  Raises ArithmeticError where the residual is not a
    double (disc * omega1^12 leaves the doubles), and as delta does.
    """
    # delta transforms with weight 12, so the identity can be evaluated at the
    # reduced marking with omega1 rescaled by the same cocycle factor; then
    # disc * omega1^12 = (2^12k disc) (2^-k omega1)^12 with |2^-k omega1| near 1
    red, (_, (mc, md)) = reduce_tau(periods.tau)
    omega1 = periods.omega1 * (mc * periods.tau.z + md)
    k = math.frexp(max(abs(omega1.real), abs(omega1.imag)))[1]
    rhs = (2.0 * _PI) ** 12 * delta(red, tol)
    try:
        residual = abs(_ldexp(curve.disc, 12 * k) * _ldexp(omega1, -k) ** 12 - rhs) / abs(rhs)
    except OverflowError:
        residual = math.inf
    if not math.isfinite(residual):
        raise ArithmeticError(f"discriminant residual is not a double: disc * omega1^12 leaves "
                              f"the doubles at disc = {curve.disc!r}, omega1 = {periods.omega1!r}")
    return residual


def root_product_discriminant(roots: RootTriple) -> complex:
    """The discriminant via 16 * prod of squared root differences."""
    a1, a2, a3 = roots.as_tuple()
    return 16.0 * (a1 - a2) ** 2 * (a1 - a3) ** 2 * (a2 - a3) ** 2


_HALF_PERIOD_COORDS = (
    (1, 0),  # z1 = 1/2        <-> alpha1
    (1, 1),  # z2 = (1+tau)/2  <-> alpha2
    (0, 1),  # z3 = tau/2      <-> alpha3
)


def two_torsion_green_check(tau: TauPoint, tol: SeriesTolerance = DEFAULT_TOL
                            ) -> tuple[float, float, float]:
    """Residuals of the two-torsion Green values against the root formulas.

    For the half-period points P_i matched to the roots alpha_i,
    G(P_i, P_j)^12 = 16 |alpha_i - alpha_j|^2 / (|alpha_i - alpha_k| |alpha_j - alpha_k|).
    Both sides are compared as logs, so neither under- nor overflows at any
    Im tau.  Returns the relative residuals |expm1(lhs - rhs)| for (1,2),
    (1,3), (2,3).
    """
    # log |alpha_i - alpha_j| less log pi^2 (which cancels) is 4 log|theta
    # constant|, straight from the shifted sums S(1/2, 0), S(0, 0) and
    # S(0, 1/2) (subtracting stored roots would lose the small distance)
    series = _series(tau, tol)
    log_dist = {
        pair: 4.0 * _log_abs_shifted(c, d, series)
        for pair, (c, d) in (((0, 1), (0.5, 0.0)), ((0, 2), (0.0, 0.0)), ((1, 2), (0.0, 0.5)))
    }
    out, torus = [], Torus(tau, tol)
    for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
        (ai, bi), (aj, bj) = _HALF_PERIOD_COORDS[i], _HALF_PERIOD_COORDS[j]
        lhs = 12.0 * torus.log_green_sums(2, [torus.walk(2, aj - ai, bj - bi)])[0]
        rhs = (math.log(16.0) + 2.0 * log_dist[(i, j)]
               - log_dist[tuple(sorted((i, k)))] - log_dist[tuple(sorted((j, k)))])
        out.append(abs(math.expm1(lhs - rhs)))
    return tuple(out)


def optimal_agm(a: complex, b: complex, rel_tol: float = 1e-15,
                max_iter: int = 64) -> tuple[complex, int]:
    """Arithmetic-geometric mean with the optimal branch rule: at each step
    take the square root closer to the running arithmetic mean.

    Returns (limit, iterations); quadratic convergence makes the count small.
    """
    a = complex(a)
    b = complex(b)
    for it in range(max_iter):
        if abs(a - b) <= rel_tol * abs(a):
            return (a + b) / 2.0, it
        mean = (a + b) / 2.0
        geo = cmath.sqrt(a * b)
        if abs(geo - mean) > abs(-geo - mean):
            geo = -geo
        a, b = mean, geo
    raise ArithmeticError(
        f"AGM did not converge within {max_iter} iterations (pathological branch flips?)"
    )


def _period_agms(curve: WeierstrassCurve) -> tuple[tuple[complex, ...], ...]:
    # ((sa, sb, sc), AGM(sa, sb), AGM(sa, sc)) as (mean, iterations): the square roots of
    # a1-a3, a1-a2 and a2-a3 (`_root_differences`), sb and sc turned to Re(s/sa) >= 0
    d12, d13, d23 = _root_differences(*_cubic_roots(curve), curve)
    sa = cmath.sqrt(d13)
    sb, sc = (-s if (s / sa).real < 0 else s for s in (cmath.sqrt(d12), cmath.sqrt(d23)))
    return (sa, sb, sc), optimal_agm(sa, sb), optimal_agm(sa, sc)


def periods_from_curve(curve: WeierstrassCurve, tol: SeriesTolerance = DEFAULT_TOL
                       ) -> PeriodData:
    """Recover an oriented period basis of a curve by the optimal AGM.

    With the solver's roots (a1, a2, a3), omega1 = pi / AGM(sqrt(a1-a3),
    sqrt(a1-a2)) and omega2 = i*pi / AGM(sqrt(a1-a3), sqrt(a2-a3)), the root
    differences taken from the isolated root and the discriminant
    (`_root_differences`) and each square root aligned with sqrt(a1-a3).
    One labelling of the roots suffices (Cremona-Thongjunthug, J. Number
    Theory 133, 2013): every labelling gives a basis of the period lattice,
    up to the sign of omega2, which is flipped into the upper half-plane.
    The one acceptance gate is a round trip through the Eisenstein series of
    the reduced period ratio; ArithmeticError where that misses (p, q) by a
    relative 1e-6, where the ratio is real, or where the AGM fails.
    """
    roots, (mean_b, _), (mean_c, _) = _period_agms(curve)
    scale = max(map(abs, roots)) ** 2
    omega1, omega2 = _PI / mean_b, 1j * _PI / mean_c
    ratio = omega2 / omega1
    if ratio.imag == 0.0:
        raise ArithmeticError(f"period recovery failed: real period ratio {ratio!r}")
    if ratio.imag < 0.0:
        omega2 = -omega2
        ratio = -ratio
    tau = TauPoint.from_complex(ratio)
    red, (_, (mc, md)) = reduce_tau(tau)
    omega1_eff = omega1 * (mc * ratio + md)
    ref = eisenstein(red, tol)
    residual = (
        abs(ref.p / omega1_eff ** 4 - curve.p) / scale ** 2
        + abs(ref.q / omega1_eff ** 6 - curve.q) / scale ** 3
    )
    if residual < 1e-6:
        return PeriodData(omega1, omega2, tau)
    raise ArithmeticError(f"period recovery failed: Eisenstein round-trip residual "
                          f"{residual:.3e} >= 1e-6")
