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
from dataclasses import dataclass
from fractions import Fraction

from .green import (
    a_invariant_adjunction_check,
    energy,
    energy_via_a,
    green,
    green_mean_integral,
    green_projection_check,
    torsion_product,
)
from .heights import (
    CurveHeightInput,
    average_green_over_cyclic,
    cyclic_subgroup_count,
    exact_order_log_green,
    exact_order_log_green_expected,
    faltings_height,
)
from .lattice import (
    TauPoint,
    TorusPoint,
    _subgroup_pairs,
    cyclic_subgroups,
    quotient,
    reduce_tau,
)
from .modular import DEFAULT_TOL, SeriesTolerance, delta, theta, theta_dz
from .weierstrass import (
    PeriodData,
    _cubic_roots,
    discriminant_relation_residual,
    eisenstein,
    half_period_roots,
    optimal_agm,
    periods_from_curve,
    root_product_discriminant,
    thomae_residuals,
    two_torsion_green_check,
)

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual < self.tolerance

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{status} [{self.criterion:>2}] {self.name}: "
                f"residual={self.residual:.6e} tol={self.tolerance:.1e}")


def sample_reduced_taus(rng: random.Random, count: int,
                        im_max: float = 2.2) -> list[TauPoint]:
    """Deterministically sample points of the fundamental domain interior."""
    out = []
    for _ in range(count):
        re = rng.uniform(-0.45, 0.45)
        im = rng.uniform(1.05, im_max)
        out.append(TauPoint(re, im))
    return out


def _tau_grid(side: int, im_max: float) -> list[TauPoint]:
    res = [-0.45 + 0.9 * i / (side - 1) for i in range(side)]
    ims = [0.9 + (im_max - 0.9) * i / (side - 1) for i in range(side)]
    return [TauPoint(re, im) for re in res for im in ims]


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# individual criteria
# ---------------------------------------------------------------------------

def _check_cusp_identities(taus, tol) -> list[CheckResult]:
    worst_product = 0.0
    worst_deriv = 0.0
    for tau in taus:
        dval = delta(tau, tol)
        lhs1 = (cmath.exp(1j * math.pi * tau.z / 4.0)
                * theta(0.0, tau, tol)
                * theta(0.5, tau, tol)
                * theta(tau.z / 2.0, tau, tol)) ** 8
        worst_product = max(worst_product, abs(lhs1 - 256.0 * dval) / abs(256.0 * dval))
        lhs2 = (cmath.exp(1j * math.pi * tau.z / 4.0)
                * theta_dz((1.0 + tau.z) / 2.0, tau, tol)) ** 8
        rhs2 = _TWO_PI ** 8 * dval
        worst_deriv = max(worst_deriv, abs(lhs2 - rhs2) / abs(rhs2))
    return [
        CheckResult(1, "theta-constant cusp identity on tau grid", worst_product, 1e-9),
        CheckResult(1, "theta-derivative cusp identity on tau grid", worst_deriv, 1e-9),
    ]


def _check_torsion_products(taus, n_max, tol) -> list[CheckResult]:
    out = []
    for i, tau in enumerate(taus):
        worst = 0.0
        for n in range(1, n_max + 1):
            worst = max(worst, _rel(torsion_product(tau, n, tol), float(n)))
        out.append(CheckResult(2, f"torsion product = N, N<={n_max}, tau#{i}", worst, 1e-10))
    return out


def _check_energy(taus, n_max, tol) -> list[CheckResult]:
    out = []
    worst_a_form = 0.0
    for i, tau in enumerate(taus):
        worst = 0.0
        for n in range(1, n_max + 1):
            for sub in cyclic_subgroups(n):
                iso = quotient(tau, sub)
                product, predicted = energy(iso, tol)
                worst = max(worst, abs(product - predicted) / predicted)
                worst_a_form = max(
                    worst_a_form,
                    abs(energy_via_a(iso, tol) - predicted) / predicted,
                )
        out.append(CheckResult(3, f"isogeny kernel energy, N<={n_max}, tau#{i}", worst, 1e-10))
    out.append(CheckResult(3, "energy prediction matches differential-norm form",
                           worst_a_form, 1e-12))
    return out


def _check_projection(rng, instances, tol) -> list[CheckResult]:
    worst = 0.0
    done = 0
    while done < instances:
        tau = sample_reduced_taus(rng, 1)[0]
        n = rng.randint(1, 8)
        subs = cyclic_subgroups(n)
        sub = subs[rng.randrange(len(subs))]
        iso = quotient(tau, sub)
        w = TorusPoint(Fraction(rng.randrange(16), 16), Fraction(rng.randrange(16), 16))
        z = TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        try:
            worst = max(worst, green_projection_check(iso, w, z, tol))
        except ValueError:
            continue  # z fell in the fiber of w; draw again
        done += 1
    return [CheckResult(4, f"Green projection identity, {instances} random isogenies",
                        worst, 1e-10)]


def _check_averages(taus, n_max, tol) -> list[CheckResult]:
    out = []
    for i, tau in enumerate(taus):
        worst_green = 0.0
        worst_delta = 0.0
        for n in range(1, n_max + 1):
            report = average_green_over_cyclic(tau, n, tol)
            worst_green = max(worst_green, report.green_residual)
            worst_delta = max(worst_delta, report.delta_residual)
        out.append(CheckResult(
            5, f"average log-Green over cyclic subgroups, N<={n_max}, tau#{i}",
            worst_green, 1e-7))
        out.append(CheckResult(
            5, f"average quotient discriminant drop, N<={n_max}, tau#{i}",
            worst_delta, 1e-7))
    return out


def _check_exact_order_sums(taus, m_max, tol) -> list[CheckResult]:
    worst = 0.0
    for tau in taus:
        for m in range(1, m_max + 1):
            worst = max(worst, abs(exact_order_log_green(tau, m, tol)
                                   - exact_order_log_green_expected(m)))
    # closed-form consistency: divisor sums of the expected values telescope
    worst_closed = 0.0
    for n in range(1, 61):
        total = math.fsum(
            exact_order_log_green_expected(m)
            for m in range(2, n + 1) if n % m == 0
        )
        worst_closed = max(worst_closed, abs(total - math.log(n)))
    return [
        CheckResult(6, f"exact-order log-Green sums, M<={m_max}", worst, 1e-10),
        CheckResult(6, "divisor sums of closed form telescope to log N, N<=60",
                    worst_closed, 1e-12),
    ]


def _check_weierstrass_grid(taus, tol) -> list[CheckResult]:
    worst_thomae = 0.0
    worst_disc = 0.0
    worst_cross = 0.0
    for tau in taus:
        worst_thomae = max(worst_thomae, max(thomae_residuals(tau, tol)))
        curve = eisenstein(tau, tol)
        periods = PeriodData(1.0 + 0j, tau.z, tau)
        worst_disc = max(worst_disc, discriminant_relation_residual(periods, curve, tol))
        cross = root_product_discriminant(half_period_roots(tau, tol))
        worst_cross = max(worst_cross,
                          abs(cross - curve.discriminant) / abs(curve.discriminant))
    return [
        CheckResult(7, "Thomae half-period identities on tau grid", worst_thomae, 1e-9),
        CheckResult(7, "discriminant vs weight-12 form on tau grid", worst_disc, 1e-9),
        CheckResult(7, "discriminant vs root-difference product", worst_cross, 1e-9),
    ]


def _check_two_torsion(taus, tol) -> list[CheckResult]:
    worst = 0.0
    worst_triple = 0.0
    for tau in taus:
        worst = max(worst, max(two_torsion_green_check(tau, tol)))
        product = (green(tau, TorusPoint(Fraction(1, 2), 0), tol).value
                   * green(tau, TorusPoint(0, Fraction(1, 2)), tol).value
                   * green(tau, TorusPoint(Fraction(1, 2), Fraction(1, 2)), tol).value)
        worst_triple = max(worst_triple, _rel(product, 2.0))
    return [
        CheckResult(8, "two-torsion Green values vs root formulas", worst, 1e-10),
        CheckResult(8, "two-torsion Green product = 2", worst_triple, 1e-9),
    ]


def _check_mean_integral(tol) -> list[CheckResult]:
    # The midpoint error of the mean is c*h^2 with no higher term above the
    # series floor (Lyness's expansion for a point singularity), so one
    # Richardson step on the 16/32 pair leaves only the series error, and
    # the ratio of the two means is 1/4.
    out = []
    for label, tau in (("i", TauPoint(0.0, 1.0)),
                       ("3i", TauPoint(0.0, 3.0)),
                       ("0.5+1.2i", TauPoint(0.5, 1.2))):
        coarse = green_mean_integral(tau, 16, tol)
        fine = green_mean_integral(tau, 32, tol)
        out.append(CheckResult(
            9, f"log-Green mean, Richardson 16/32, tau={label}",
            abs((4.0 * fine - coarse) / 3.0), 1e-12))
        out.append(CheckResult(
            9, f"midpoint error is c*h^2, tau={label}",
            abs(fine / coarse - 0.25), 1e-3))
    return out


def _check_adjunction(taus, tol) -> list[CheckResult]:
    worst = 0.0
    for tau in taus:
        worst = max(worst, a_invariant_adjunction_check(tau, tol))
    return [CheckResult(10, "adjunction limit matches closed-form norm", worst, 1e-10)]


def _check_period_roundtrip(rng, count, tol) -> list[CheckResult]:
    worst = 0.0
    worst_iters = 0
    for _ in range(count):
        re = rng.uniform(-0.499, 0.499)
        im = rng.uniform(1.01, 4.0)
        tau = TauPoint(re, im)
        curve = eisenstein(tau, tol)
        periods = periods_from_curve(curve, tol)
        red, _ = reduce_tau(periods.tau)
        worst = max(worst, abs(red.z - tau.z))
        roots = _cubic_roots(curve)
        sa = cmath.sqrt(roots[0] - roots[2])
        sb = cmath.sqrt(roots[0] - roots[1])
        if (sb / sa).real < 0:
            sb = -sb
        _, iters = optimal_agm(sa, sb)
        worst_iters = max(worst_iters, iters)
    return [
        CheckResult(11, f"period round trip over {count} random curves", worst, 1e-8),
        CheckResult(11, "AGM iteration count", float(worst_iters), 30.0),
    ]


def _brute_force_subgroup_sets(n: int) -> set[frozenset]:
    seen = set()
    for u in range(n):
        for v in range(n):
            pts = frozenset(((k * u) % n, (k * v) % n) for k in range(n))
            if len(pts) == n:
                seen.add(pts)
    return seen


def _check_combinatorics(count_max, contain_max) -> list[CheckResult]:
    mismatches = 0
    for n in range(1, count_max + 1):
        enumerated = cyclic_subgroups(n)
        brute = _brute_force_subgroup_sets(n)
        sets = {frozenset(_subgroup_pairs(sub)) for sub in enumerated}
        if len(enumerated) != cyclic_subgroup_count(n) or sets != brute:
            mismatches += 1
    contain_bad = 0
    for n in range(1, contain_max + 1):
        big = [frozenset(_subgroup_pairs(sub)) for sub in cyclic_subgroups(n)]
        for m in range(1, n + 1):
            if n % m:
                continue
            expected = cyclic_subgroup_count(n) // cyclic_subgroup_count(m)
            for small in cyclic_subgroups(m):
                # the order-m pair (i, j) is the order-n pair (i*n/m, j*n/m)
                spts = {(i * (n // m), j * (n // m)) for i, j in _subgroup_pairs(small)}
                hits = sum(1 for pts in big if spts <= pts)
                if hits != expected:
                    contain_bad += 1
    return [
        CheckResult(12, f"cyclic subgroup enumeration vs brute force, N<={count_max}",
                    float(mismatches), 0.5),
        CheckResult(12, f"containment counts are e_N/e_M, N<={contain_max}",
                    float(contain_bad), 0.5),
    ]


def _check_faltings(tol) -> list[CheckResult]:
    tau = TauPoint(0.1, 1.3)
    base = faltings_height(CurveHeightInput(1, 3.7, (tau,)), tol)
    doubled = faltings_height(CurveHeightInput(2, 7.4, (tau, tau)), tol)
    homo = abs(base - doubled) / max(abs(base), 1.0)
    spot = faltings_height(CurveHeightInput(1, 0.0, (TauPoint(0.0, 1.0),)), tol)
    tight = faltings_height(
        CurveHeightInput(1, 0.0, (TauPoint(0.0, 1.0),)),
        SeriesTolerance(rel_tol=1e-15, max_terms=tol.max_terms),
    )
    return [
        CheckResult(13, "height formula degree homogeneity", homo, 1e-15),
        CheckResult(13, "height at the square lattice vs tightened tolerance",
                    abs(spot - tight), 1e-10),
    ]


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

    results: list[CheckResult] = []
    results += _check_cusp_identities(grid_taus, tol)
    results += _check_torsion_products(taus3, n_max, tol)
    results += _check_energy(taus3, n_max, tol)
    results += _check_projection(rng, 100 if full else 20, tol)
    results += _check_averages(taus3, n_max, tol)
    results += _check_exact_order_sums(taus3, n_max, tol)
    results += _check_weierstrass_grid(grid_taus, tol)
    results += _check_two_torsion(grid_taus, tol)
    results += _check_mean_integral(tol)
    results += _check_adjunction(taus3, tol)
    results += _check_period_roundtrip(rng, 50 if full else 10, tol)
    results += _check_combinatorics(30 if full else 15, 24 if full else 10)
    results += _check_faltings(tol)
    return results
