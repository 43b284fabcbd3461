import math

import pytest

from ellgreen.lattice import TauPoint, reduce_tau
from ellgreen.modular import SeriesTolerance, delta
from ellgreen.weierstrass import (
    PeriodData,
    RootTriple,
    WeierstrassCurve,
    discriminant_relation_residual,
    eisenstein,
    half_period_roots,
    optimal_agm,
    periods_from_curve,
    root_product_discriminant,
    thomae_residuals,
    two_torsion_green_check,
)

TAU = TauPoint(0.13, 1.32)
GRID = [TauPoint(re, im)
        for re in (-0.45, -0.225, 0.0, 0.225, 0.45)
        for im in (0.9, 1.925, 2.95, 3.975, 5.0)]


def test_curve_validation():
    with pytest.raises(ValueError):
        WeierstrassCurve(3.0, 1.0)  # p^3 = 27 = 27 q^2
    assert WeierstrassCurve(4.0, 0.0).discriminant == 64.0


def test_period_data_validation():
    with pytest.raises(ValueError):
        PeriodData(1.0, 2.0j, TauPoint(0.5, 2.0))


def test_root_triple_must_sum_to_zero():
    with pytest.raises(ValueError):
        RootTriple(1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# Eisenstein invariants
# ---------------------------------------------------------------------------

def test_square_lattice_has_zero_g3():
    curve = eisenstein(TauPoint(0.0, 1.0))
    assert abs(curve.q) < 1e-10 * abs(curve.p)


def test_hexagonal_lattice_has_zero_g2():
    curve = eisenstein(TauPoint(-0.5, math.sqrt(3.0) / 2.0))
    assert abs(curve.p) < 1e-10 * abs(curve.q)


def test_discriminant_vs_weight_twelve_form(sample_taus):
    for tau in sample_taus:
        curve = eisenstein(tau)
        rhs = (2 * math.pi) ** 12 * delta(tau)
        assert abs(curve.discriminant - rhs) / abs(rhs) < 1e-9
        # the direct difference agrees at moderate Im tau
        direct = curve.p ** 3 - 27.0 * curve.q ** 2
        assert abs(direct - rhs) / abs(rhs) < 1e-9


def test_discriminant_relative_accuracy_mid_cusp():
    # the truncation must track the cusp tails, not the O(1) constant term;
    # at Im tau ~ 3 an absolute-error cut leaves an O(|q|) relative error
    tau = TauPoint(0.376, 3.075)
    loose = eisenstein(tau)
    tight = eisenstein(tau, SeriesTolerance(rel_tol=1e-15))
    assert abs(loose.discriminant - tight.discriminant) \
        / abs(tight.discriminant) < 1e-12


def test_carried_discriminant_beats_cancellation():
    # near the cusp the direct difference loses ~11 digits; the curve's
    # carried value must not
    tau = TauPoint(0.2, 5.0)
    curve = eisenstein(tau)
    rhs = (2 * math.pi) ** 12 * delta(tau)
    assert abs(curve.discriminant - rhs) / abs(rhs) < 1e-12
    direct = curve.p ** 3 - 27.0 * curve.q ** 2
    assert abs(direct - rhs) / abs(rhs) > 1e-8  # the naive route really fails


# ---------------------------------------------------------------------------
# half-period roots and Thomae
# ---------------------------------------------------------------------------

def test_half_period_roots_sum_to_zero():
    r = half_period_roots(TAU)
    assert abs(r.alpha1 + r.alpha2 + r.alpha3) < 1e-10


def test_half_period_roots_reproduce_curve(sample_taus):
    for tau in sample_taus:
        r = half_period_roots(tau)
        curve = eisenstein(tau)
        p_from_roots = -4.0 * (r.alpha1 * r.alpha2 + r.alpha1 * r.alpha3
                               + r.alpha2 * r.alpha3)
        q_from_roots = 4.0 * r.alpha1 * r.alpha2 * r.alpha3
        assert abs(p_from_roots - curve.p) / abs(curve.p) < 1e-8
        assert abs(q_from_roots - curve.q) / max(abs(curve.q), abs(curve.p)) < 1e-8


def test_half_period_root_differences_telescope():
    r = half_period_roots(TAU)
    assert abs((r.alpha1 - r.alpha2) + (r.alpha2 - r.alpha3)
               - (r.alpha1 - r.alpha3)) < 1e-12


@pytest.mark.parametrize("tau", [TauPoint(0.0, 1.0), TauPoint(0.1, 2.0)])
def test_thomae_residuals_small(tau):
    assert max(thomae_residuals(tau)) < 1e-9


def test_thomae_residuals_on_grid():
    for tau in GRID:
        assert max(thomae_residuals(tau)) < 1e-9


def test_thomae_deterministic():
    a = thomae_residuals(TAU)
    b = thomae_residuals(TAU, SeriesTolerance(rel_tol=1e-14))
    assert max(abs(x - y) for x, y in zip(a, b)) < 1e-12


# ---------------------------------------------------------------------------
# discriminant relation
# ---------------------------------------------------------------------------

def test_discriminant_relation_unit_period(sample_taus):
    for tau in sample_taus:
        curve = eisenstein(tau)
        periods = PeriodData(1.0 + 0j, tau.z, tau)
        assert discriminant_relation_residual(periods, curve) < 1e-9


def test_discriminant_relation_rescaling_invariance():
    # weight-12 homogeneity: scaling the lattice by lam scales D by lam^-12
    lam = 1.7 - 0.4j
    curve = eisenstein(TAU)
    scaled = WeierstrassCurve(curve.p / lam ** 4, curve.q / lam ** 6,
                              curve.discriminant / lam ** 12)
    periods = PeriodData(lam, lam * TAU.z, TAU)
    assert discriminant_relation_residual(periods, scaled) < 1e-9


def test_root_product_matches_discriminant(sample_taus):
    for tau in sample_taus:
        cross = root_product_discriminant(half_period_roots(tau))
        curve = eisenstein(tau)
        assert abs(cross - curve.discriminant) / abs(curve.discriminant) < 1e-9


# ---------------------------------------------------------------------------
# two-torsion Green values
# ---------------------------------------------------------------------------

def test_two_torsion_green_values_on_grid():
    for tau in GRID:
        assert max(two_torsion_green_check(tau)) < 1e-8


@pytest.mark.parametrize("im", [500.0, 2000.0])
def test_two_torsion_green_values_far_in_the_cusp(im):
    # G^12 overflows and the theta constant of the root side underflows
    # here; both sides are compared as logs
    assert max(two_torsion_green_check(TauPoint(0.0, im))) < 1e-10
    assert max(two_torsion_green_check(TauPoint(0.3, im))) < 1e-10


def test_two_torsion_right_hand_sides_multiply_to_4096():
    # the product of the three root formulas collapses to 16^3, matching
    # (G G G)^12 = 2^12
    r = half_period_roots(TAU)
    d12 = abs(r.alpha1 - r.alpha2)
    d13 = abs(r.alpha1 - r.alpha3)
    d23 = abs(r.alpha2 - r.alpha3)
    product = (16 * d12 ** 2 / (d13 * d23)) * (16 * d13 ** 2 / (d12 * d23)) \
        * (16 * d23 ** 2 / (d12 * d13))
    assert abs(product - 4096.0) < 1e-9 * 4096.0


# ---------------------------------------------------------------------------
# periods by AGM
# ---------------------------------------------------------------------------

def test_optimal_agm_real_pair():
    value, iters = optimal_agm(1.0, 2.0)
    assert iters <= 10
    assert abs(value - 1.4567910310469068) < 1e-12  # classical AGM(1, 2)


def test_optimal_agm_iteration_cap():
    with pytest.raises(ArithmeticError):
        optimal_agm(1.0, 2.0, max_iter=2)


def test_periods_lemniscatic_curve():
    per = periods_from_curve(WeierstrassCurve(4.0, 0.0))
    red, _ = reduce_tau(per.tau)
    assert abs(red.z - 1j) < 1e-8


def test_periods_round_trip(rng):
    for _ in range(25):
        tau = TauPoint(rng.uniform(-0.499, 0.499), rng.uniform(1.01, 4.0))
        per = periods_from_curve(eisenstein(tau))
        red, _ = reduce_tau(per.tau)
        assert abs(red.z - tau.z) < 1e-8


def test_periods_recover_scaled_curve():
    # a lattice scaled away from omega1 = 1 round-trips through the
    # weight-(4,6) rescaling
    lam = 0.8 + 0.3j
    base = eisenstein(TAU)
    curve = WeierstrassCurve(base.p / lam ** 4, base.q / lam ** 6,
                             base.discriminant / lam ** 12)
    per = periods_from_curve(curve)
    red, _ = reduce_tau(per.tau)
    assert abs(red.z - TAU.z) < 1e-8


def test_periods_degenerate_curve_rejected():
    with pytest.raises(ValueError):
        periods_from_curve(WeierstrassCurve(0.0, 0.0))


def test_agm_iterations_bounded(rng):
    worst = 0
    for _ in range(20):
        a = complex(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0))
        b = complex(rng.uniform(0.1, 3.0), rng.uniform(-1.0, 1.0))
        _, iters = optimal_agm(a, b)
        worst = max(worst, iters)
    assert worst <= 30


def test_j_invariant_against_mpmath(rng):
    import mpmath as mp

    from ellgreen.modular import DEFAULT_TOL
    from ellgreen.weierstrass import _j_invariant_series

    mp.mp.dps = 30
    for _ in range(20):
        tau = TauPoint(rng.uniform(-0.49, 0.49), rng.uniform(0.87, 6.0))
        ours = _j_invariant_series(tau, DEFAULT_TOL) / 1728.0
        ref = complex(mp.kleinj(mp.mpc(tau.z)))
        assert abs(ours - ref) / max(abs(ref), 1.0) < 1e-11
