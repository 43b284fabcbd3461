"""Numerical verification suite for every identity the library exposes.

Each check evaluates both sides of an identity along independent
computation paths and reports the worst residual against a fixed
tolerance.  All sampling is driven by an explicit seed, so a given
(level, seed) pair always produces identical output.
"""

from __future__ import annotations

import cmath
import math
import random
from collections import Counter
from fractions import Fraction

from .green import (
    Torus,
    _midpoint_log_green_mean,  # criterion 9's direct sum; green_mean_integral is the closed form
    a_invariant_adjunction_check,
    green,
    green_projection_check,
)
from .heights import (
    CurveHeightInput,
    cyclic_subgroup_count,
    exact_order_log_green_expected,
    faltings_height,
)
from .lattice import (
    TauPoint,
    TorusPoint,
    _Value,  # with _set, builds CheckResult
    _set,
    cyclic_subgroups,
    quotient,
    reduce_tau,
)
from .modular import DEFAULT_TOL, SeriesTolerance, delta, eta, theta, theta_dz
from .weierstrass import (
    PeriodData,
    _period_agms,  # the two AGMs periods_from_curve runs, whose iterations criterion 11 counts
    discriminant_relation_residual,
    eisenstein,
    half_period_roots,
    periods_from_curve,
    root_product_discriminant,
    thomae_residuals,
    two_torsion_green_check,
)

_TWO_PI = 2.0 * math.pi


class CheckResult(_Value):
    """One check's worst residual against its tolerance."""

    __slots__ = __match_args__ = ("criterion", "name", "residual", "tolerance")

    def __init__(self, criterion: int, name: str, residual: float, tolerance: float):
        _set(self, "criterion", criterion)
        _set(self, "name", name)
        _set(self, "residual", residual)
        _set(self, "tolerance", tolerance)

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} [{self.criterion:>2}] {self.name}: "
                f"residual={self.residual:.6e} tol={self.tolerance:.1e}")


def sample_reduced_taus(rng: random.Random, count: int) -> list[TauPoint]:
    """Deterministically sample points of the fundamental domain interior."""
    return [TauPoint(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.2)) for _ in range(count)]


def _tau_grid(side: int, im_max: float) -> list[TauPoint]:
    res = [-0.45 + 0.9 * i / (side - 1) for i in range(side)]
    ims = [0.9 + (im_max - 0.9) * i / (side - 1) for i in range(side)]
    return [TauPoint(re, im) for re in res for im in ims]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _worse(*residuals: float) -> float:
    # the largest residual, or NaN if any is NaN: max(0.0, nan) is 0.0, and a
    # NaN residual must fail its check
    return math.nan if any(map(math.isnan, residuals)) else max(residuals)


# ---------------------------------------------------------------------------
# individual criteria
# ---------------------------------------------------------------------------

def _check_cusp_identities(taus, tol) -> list[CheckResult]:
    worst_product = worst_deriv = 0.0
    for tau in taus:
        dval = delta(tau, tol)
        t3, t4 = theta(0.0, tau, tol), theta(0.5, tau, tol)
        t2 = cmath.exp(1j * math.pi * tau.z / 4.0) * theta(tau.z / 2.0, tau, tol)
        lhs1 = (t3 * t4 * t2) ** 8
        worst_product = _worse(worst_product, abs(lhs1 - 256.0 * dval) / abs(256.0 * dval))
        lhs2 = (cmath.exp(1j * math.pi * tau.z / 4.0)
                * theta_dz((1.0 + tau.z) / 2.0, tau, tol)) ** 8
        rhs2 = _TWO_PI ** 8 * dval
        worst_deriv = _worse(worst_deriv, abs(lhs2 - rhs2) / abs(rhs2))
    return [
        CheckResult(1, "theta-constant cusp identity on tau grid", worst_product, 1e-9),
        CheckResult(1, "theta-derivative cusp identity on tau grid", worst_deriv, 1e-9),
    ]


def _check_torsion_products(sampled, n_max) -> list[CheckResult]:
    out = []
    for i, torus in enumerate(sampled):
        worst = _worse(0.0, *(_rel(torus.torsion_product(n), float(n))
                               for n in range(1, n_max + 1)))
        out.append(CheckResult(2, f"torsion product = N, N<={n_max}, tau#{i}", worst, 1e-10))
    return out


def _check_energy(sampled, n_max) -> list[CheckResult]:
    out = []
    for i, torus in enumerate(sampled):
        worst = 0.0
        for n in range(1, n_max + 1):
            for product, predicted in torus.energies(n):
                worst = _worse(worst, abs(product - predicted) / predicted)
        out.append(CheckResult(3, f"isogeny kernel energy, N<={n_max}, tau#{i}", worst, 1e-10))
    return out


def _check_projection(rng, subgroups, instances, tol) -> list[CheckResult]:
    worst = 0.0
    done = 0
    while done < instances:
        tau = sample_reduced_taus(rng, 1)[0]
        n = rng.randint(1, 8)
        subs = subgroups[n]
        sub = subs[rng.randrange(len(subs))]
        iso = quotient(tau, sub)
        w = TorusPoint(Fraction(rng.randrange(16), 16), Fraction(rng.randrange(16), 16))
        z = TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        try:
            worst = _worse(worst, green_projection_check(iso, w, z, tol))
        except ValueError:
            continue  # z fell in the fiber of w; draw again
        done += 1
    return [CheckResult(4, f"Green projection identity, {instances} random isogenies",
                        worst, 1e-10)]


def _check_averages(sampled, n_max) -> list[CheckResult]:
    out = []
    for i, torus in enumerate(sampled):
        reports = [torus.average_green_over_cyclic(n) for n in range(1, n_max + 1)]
        out.append(CheckResult(
            5, f"average log-Green over cyclic subgroups, N<={n_max}, tau#{i}",
            _worse(0.0, *(r.green_residual for r in reports)), 1e-7))
        out.append(CheckResult(
            5, f"average quotient discriminant drop, N<={n_max}, tau#{i}",
            _worse(0.0, *(r.delta_residual for r in reports)), 1e-7))
    return out


def _check_exact_order_sums(sampled, m_max) -> list[CheckResult]:
    worst = _worse(0.0, *(
        abs(torus.exact_order_log_green(m) - exact_order_log_green_expected(m))
        for torus in sampled for m in range(1, m_max + 1)))
    # closed-form consistency: divisor sums of the expected values telescope
    worst_closed = _worse(0.0, *(
        abs(math.fsum(exact_order_log_green_expected(m) for m in range(2, n + 1) if n % m == 0)
            - math.log(n))
        for n in range(1, 61)))
    return [
        CheckResult(6, f"exact-order log-Green sums, M<={m_max}", worst, 1e-10),
        CheckResult(6, "divisor sums of closed form telescope to log N, N<=60",
                    worst_closed, 1e-12),
    ]


def _check_weierstrass_grid(taus, tol) -> list[CheckResult]:
    worst_thomae = worst_disc = worst_cross = 0.0
    for tau in taus:
        worst_thomae = _worse(worst_thomae, *thomae_residuals(tau, tol))
        curve = eisenstein(tau, tol)
        periods = PeriodData(1.0 + 0j, tau.z, tau)
        worst_disc = _worse(worst_disc, discriminant_relation_residual(periods, curve, tol))
        cross = root_product_discriminant(half_period_roots(tau, tol))
        worst_cross = _worse(worst_cross,
                             abs(cross - curve.discriminant) / abs(curve.discriminant))
    return [
        CheckResult(7, "Thomae half-period identities on tau grid", worst_thomae, 1e-9),
        CheckResult(7, "discriminant vs weight-12 form on tau grid", worst_disc, 1e-9),
        CheckResult(7, "discriminant vs root-difference product", worst_cross, 1e-9),
    ]


def _check_two_torsion(taus, tol) -> list[CheckResult]:
    worst = worst_triple = 0.0
    for tau in taus:
        worst = _worse(worst, *two_torsion_green_check(tau, tol))
        product = (green(tau, TorusPoint(Fraction(1, 2), 0), tol).value
                   * green(tau, TorusPoint(0, Fraction(1, 2)), tol).value
                   * green(tau, TorusPoint(Fraction(1, 2), Fraction(1, 2)), tol).value)
        worst_triple = _worse(worst_triple, _rel(product, 2.0))
    return [
        CheckResult(8, "two-torsion Green values vs root formulas", worst, 1e-10),
        CheckResult(8, "two-torsion Green product = 2", worst_triple, 1e-9),
    ]


def _check_mean_integral(tol) -> list[CheckResult]:
    # The midpoint error of the mean is c*h^2 with no higher term above the
    # series floor (Lyness's expansion for a point singularity), so one
    # Richardson step on the 16/32 pair leaves only the series error, and
    # the ratio of the two means is 1/4.  The means are direct sums, as
    # green_mean_integral's closed form would check itself.
    out = []
    for label, tau in (("i", TauPoint(0.0, 1.0)),
                       ("3i", TauPoint(0.0, 3.0)),
                       ("0.5+1.2i", TauPoint(0.5, 1.2))):
        coarse = _midpoint_log_green_mean(tau, 16, tol)
        fine = _midpoint_log_green_mean(tau, 32, tol)
        out.append(CheckResult(
            9, f"log-Green mean, Richardson 16/32, tau={label}",
            abs((4.0 * fine - coarse) / 3.0), 1e-12))
        out.append(CheckResult(
            9, f"midpoint error is c*h^2, tau={label}",
            abs(fine / coarse - 0.25), 1e-3))
    return out


def _check_adjunction(taus, tol) -> list[CheckResult]:
    worst = _worse(0.0, *(a_invariant_adjunction_check(tau, tol) for tau in taus))
    return [CheckResult(10, "adjunction limit matches closed-form norm", worst, 1e-10)]


def _check_period_roundtrip(rng, count, tol) -> list[CheckResult]:
    worst, worst_iters = 0.0, 0
    for _ in range(count):
        tau = TauPoint(rng.uniform(-0.499, 0.499), rng.uniform(1.01, 4.0))
        curve = eisenstein(tau, tol)
        periods = periods_from_curve(curve, tol)
        red, _ = reduce_tau(periods.tau)
        worst = _worse(worst, abs(red.z - tau.z))
        _, (_, iters_b), (_, iters_c) = _period_agms(curve)
        worst_iters = _worse(worst_iters, iters_b, iters_c)
    return [
        CheckResult(11, f"period round trip over {count} random curves", worst, 1e-8),
        CheckResult(11, "AGM iteration count", float(worst_iters), 30.0),
    ]


def _brute_force_subgroup_sets(n: int) -> dict[int, frozenset[int]]:
    """{a*n + b: the set k*(a, b) mod n, keyed alike} for each (a, b) of exact order n."""
    sets, units = {}, [k for k in range(n) if math.gcd(k, n) == 1]
    for u in range(n):
        for v in range(n):
            if u * n + v not in sets and math.gcd(u, v, n) == 1:
                keys = [(k * u) % n * n + (k * v) % n for k in range(n)]
                pts = frozenset(keys)
                for k in units:
                    sets[keys[k]] = pts
    return sets


def _check_combinatorics(subgroups, count_max, contain_max) -> list[CheckResult]:
    mismatches = contain_bad = 0
    for n in range(1, count_max + 1):
        enumerated = subgroups[n]
        brute = _brute_force_subgroup_sets(n)
        stray, matched = 0, set()
        holders = Counter()  # per order-n point key, the enumerated subgroups that hold it
        for sub in enumerated:  # a point of exact order n lies in one set, the one it generates
            pts = brute.get(sub.u * n + sub.v, frozenset()) if sub.order == n else frozenset()
            stray += not pts or pts in matched
            matched.add(pts)
            if n <= contain_max:
                holders.update(pts)
        if len(enumerated) != cyclic_subgroup_count(n) or stray or matched != set(brute.values()):
            mismatches += 1
        if n > contain_max:
            continue
        for m in (m for m in range(1, n + 1) if n % m == 0):
            expected = cyclic_subgroup_count(n) // cyclic_subgroup_count(m)
            # both are the multiples of one generator: an order-n subgroup holds
            # the order-m one iff it holds its generator, the point (u*n/m, v*n/m)
            contain_bad += sum(holders[small.u * (n // m) * n + small.v * (n // m)] != expected
                               for small in subgroups[m])
    return [
        CheckResult(12, f"cyclic subgroup enumeration vs brute force, N<={count_max}",
                    float(mismatches), 0.5),
        CheckResult(12, f"containment counts are e_N/e_M, N<={contain_max}",
                    float(contain_bad), 0.5),
    ]


# log||eta|| at the CM points i and rho from Gamma values (Chowla-Selberg), no series
_CM_LOG_NORM_ETA = (
    (TauPoint(0.0, 1.0), math.lgamma(0.25) - math.log(2.0) - 0.75 * math.log(math.pi)),
    (TauPoint(-0.5, math.sqrt(3.0) / 2.0), 0.25 * math.log(math.sqrt(3.0) / 2.0)
     + math.log(3.0) / 8.0 + 1.5 * math.lgamma(1.0 / 3.0) - math.log(_TWO_PI)),
)


def _check_faltings(tol) -> list[CheckResult]:
    # one embedding, no finite part: h = -log(2*pi) - 2*log||eta||(tau); and
    # log||eta|| from public eta itself
    worst = _worse(0.0, *(abs(faltings_height(CurveHeightInput(1, 0.0, (tau,)), tol)
                              - (-math.log(_TWO_PI) - 2.0 * log_eta))
                          for tau, log_eta in _CM_LOG_NORM_ETA))
    worst_eta = _worse(0.0, *(abs(math.log(abs(eta(tau, tol))) + 0.25 * math.log(tau.im) - log_eta)
                              for tau, log_eta in _CM_LOG_NORM_ETA))
    return [CheckResult(13, "height at tau = i and rho vs Chowla-Selberg closed form",
                        worst, 1e-12),
            CheckResult(13, "log||eta|| from eta at tau = i and rho vs Chowla-Selberg",
                        worst_eta, 1e-12)]


# ---------------------------------------------------------------------------
# suite driver
# ---------------------------------------------------------------------------

def run_checks(level: str = "full", seed: int = 7,
               tol: SeriesTolerance = DEFAULT_TOL) -> list[CheckResult]:
    """Run the verification suite and return one result per check.

    `quick` trims orders, tau grids and instance counts for a fast smoke
    run; `full` runs everything at the documented tolerances.
    """
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    full = level == "full"
    rng = random.Random(seed)

    taus3 = sample_reduced_taus(rng, 3 if full else 2)
    grid_taus = _tau_grid(5 if full else 3, 5.0 if full else 3.0)
    n_max = 12 if full else 6
    count_max, contain_max = (30, 24) if full else (15, 10)
    # each order's subgroups, enumerated once for criteria 4 (to 8) and 12
    # (to count_max)
    subgroups = {n: cyclic_subgroups(n) for n in range(1, count_max + 1)}
    # one record per sampled tau: criteria 2, 3, 5 and 6 share its reduction,
    # log|eta| and +-P tables, 3 and 5 its kernel sums and log_norm_eta per quotient
    sampled = [Torus(tau, tol) for tau in taus3]

    results: list[CheckResult] = []
    results += _check_cusp_identities(grid_taus, tol)
    results += _check_torsion_products(sampled, n_max)
    results += _check_energy(sampled, n_max)
    results += _check_projection(rng, subgroups, 100 if full else 20, tol)
    results += _check_averages(sampled, n_max)
    results += _check_exact_order_sums(sampled, n_max)
    del sampled  # the records and their quotients go before criterion 12 builds its point sets
    results += _check_weierstrass_grid(grid_taus, tol)
    results += _check_two_torsion(grid_taus, tol)
    results += _check_mean_integral(tol)
    results += _check_adjunction(taus3, tol)
    results += _check_period_roundtrip(rng, 50 if full else 10, tol)
    results += _check_combinatorics(subgroups, count_max, contain_max)
    results += _check_faltings(tol)
    return results
