"""Arithmetic constants and height formulas.

Counts of cyclic subgroups, the prime-power constants governing averaged
Green values over torsion, the averaged quotient-height identity, and the
explicit Faltings-height formula (the finite, minimal-discriminant part is
consumed as user input; only the archimedean part is computed here).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .green import green  # noqa: F401  perfbench/tests reads green
from .lattice import (
    CyclicSubgroup,
    TauPoint,
    _Value,
    _check_order,
    _quotient_target,
    _set,
    cyclic_subgroups,
)
from .modular import DEFAULT_TOL, SeriesTolerance, _Torus, log_norm_delta, log_norm_eta

_TWO_PI = 2.0 * math.pi


def _prime_factorization(n: int) -> list[tuple[int, int]]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            r = 0
            while n % d == 0:
                n //= d
                r += 1
            out.append((d, r))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def cyclic_subgroup_count(n: int) -> int:
    """Number of cyclic order-n subgroups of (Z/n)^2: n * prod_{p|n} (1 + 1/p)."""
    _check_order(n)
    count = n
    for p, _ in _prime_factorization(n):
        count = count // p * (p + 1)
    return count


def cyclic_log_green_constant(n: int) -> float:
    """The closed-form average of summed log-Green values over the cyclic
    order-n subgroups: sum over p^r || n of (p^r - 1)/(p^(r-1)(p^2 - 1)) log p.

    Coefficients stay exact rationals until the final multiply by log p.
    """
    _check_order(n)
    return math.fsum(float(Fraction(p ** r - 1, p ** (r - 1) * (p * p - 1))) * math.log(p)
                     for p, r in _prime_factorization(n))


def exact_order_log_green_expected(m: int) -> float:
    """Closed form of the log-Green sum over exact-order-m points:
    log p when m is a power of the prime p, else 0 (0 for m = 1)."""
    _check_order(m, "m")
    factors = _prime_factorization(m)
    return math.log(factors[0][0]) if len(factors) == 1 else 0.0


def exact_order_log_green(tau: TauPoint, m: int,
                          tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """Numeric sum of log G(Q, 0) over the points of exact order m (the zero
    point, the only point of exact order 1, is excluded by convention).
    Summed as logs, so it is finite at any reduced Im tau."""
    torus = _Torus(tau, tol)
    return torus.log_green_sums(m, [torus.torsion_classes(m, exact_order=True)])[0]


def average_height_increment(n: int) -> float:
    """Predicted average height change of the order-n cyclic quotients:
    (1/2) log n minus the cyclic log-Green constant."""
    _check_order(n)
    return 0.5 * math.log(n) - cyclic_log_green_constant(n)


class AverageHeightReport(_Value):
    """Both sides of the averaged quotient identities at one (tau, n).

    green_average should equal green_predicted (the closed-form constant);
    delta_average, built from quotient discriminant norms, should equal
    delta_predicted = (1/2) log n - green_predicted.
    """

    __slots__ = __match_args__ = ("n", "green_average", "green_predicted", "delta_average",
                                  "delta_predicted")

    def __init__(self, n: int, green_average: float, green_predicted: float,
                 delta_average: float, delta_predicted: float):
        _set(self, "n", n)
        _set(self, "green_average", green_average)
        _set(self, "green_predicted", green_predicted)
        _set(self, "delta_average", delta_average)
        _set(self, "delta_predicted", delta_predicted)

    @property
    def green_residual(self) -> float:
        return abs(self.green_average - self.green_predicted)

    @property
    def delta_residual(self) -> float:
        return abs(self.delta_average - self.delta_predicted)


def average_green_over_cyclic(tau: TauPoint, n: int,
                              tol: SeriesTolerance = DEFAULT_TOL) -> AverageHeightReport:
    """Average, over all cyclic order-n subgroups, of the summed log-Green
    values over nonzero subgroup points, together with the discriminant-norm
    route through the quotient tori.  Both are sums of logs, finite at any
    reduced Im tau."""
    subs = cyclic_subgroups(n)
    log_norm_targets = [log_norm_eta(_quotient_target(tau, sub)[0], tol) for sub in subs]
    return _average_green_over_cyclic(_Torus(tau, tol), n, subs, log_norm_targets)


def _average_green_over_cyclic(torus: _Torus, n: int, subs: list[CyclicSubgroup],
                               log_norm_targets: list[float]) -> AverageHeightReport:
    # average_green_over_cyclic() on the record of its tau, with subs =
    # cyclic_subgroups(n) and log_norm_eta (log_norm_delta / 24) of each target
    count = len(subs)
    log_delta_src = 24.0 * torus.log_norm_eta
    green_sums = torus.log_green_sums(n, [torus.walk(n, sub.u, sub.v) for sub in subs])
    delta_drops = [(log_delta_src - 24.0 * log_norm_target) / 12.0
                   for log_norm_target in log_norm_targets]
    return AverageHeightReport(
        n=n,
        green_average=math.fsum(green_sums) / count,
        green_predicted=cyclic_log_green_constant(n),
        delta_average=math.fsum(delta_drops) / count,
        delta_predicted=average_height_increment(n),
    )


class CurveHeightInput(_Value):
    """Inputs of the explicit height formula for a curve over a number field:
    the field degree, log of the minimal-discriminant norm (nats), and one
    tau per complex embedding.

    Raises ValueError for a degree that is not an integer >= 1, a log norm
    that is negative or not finite, or no embedding."""

    __slots__ = __match_args__ = ("degree", "log_norm_min_disc", "embeddings")

    def __init__(self, degree: int, log_norm_min_disc: float, embeddings: tuple[TauPoint, ...]):
        embeddings = tuple(embeddings)
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 1:
            raise ValueError(f"field degree must be an integer >= 1, got {degree!r}")
        if not 0.0 <= log_norm_min_disc < math.inf:
            raise ValueError("log of a discriminant norm must be finite and >= 0, "
                             f"got {log_norm_min_disc!r}")
        if not embeddings:
            raise ValueError("at least one complex embedding is required")
        _set(self, "degree", degree)
        _set(self, "log_norm_min_disc", log_norm_min_disc)
        _set(self, "embeddings", embeddings)


def faltings_height(inp: CurveHeightInput,
                    tol: SeriesTolerance = DEFAULT_TOL) -> float:
    """The (stable) Faltings height from the minimal-discriminant norm and
    the normalised discriminants of the complex embeddings:

        h = (1/deg) * ( (1/12) log|N(disc)| - (1/12) sum_s log((2 pi)^12 ||delta||_s) )

    One embedding with no finite part gives -log(2 pi) - 2 log||eta||(tau);
    at j = 0 (tau = rho) that is -1.3211174284280.  Deligne's normalisation
    adds (1/2) log(pi), giving -0.7487524855.  The embedding sum is
    compensated and taken in input order.
    """
    terms = [
        12.0 * math.log(_TWO_PI) + log_norm_delta(tau_s, tol)
        for tau_s in inp.embeddings
    ]
    return (inp.log_norm_min_disc / 12.0 - math.fsum(terms) / 12.0) / inp.degree
