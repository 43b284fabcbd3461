import cmath
import math

import pytest

from ellgreen.lattice import TauPoint, reduce_tau
from ellgreen.modular import SeriesTolerance, delta, theta
from ellgreen.weierstrass import (
    PeriodData,
    _cubic_roots,
    _match_roots,
    _period_agms,
    _root_differences,
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


def test_curve_rejects_inconsistent_discriminant():
    # p = q = 0 is the cusp whatever disc says; disc = 100 is not 4^3 = 64
    with pytest.raises(ValueError, match="p = q = 0"):
        WeierstrassCurve(0.0, 0.0, disc=1.0)
    with pytest.raises(ValueError, match="disagrees"):
        WeierstrassCurve(4.0, 0.0, disc=100.0)
    # p^3 = 1e600 is past the doubles, but disc is still compared with it
    with pytest.raises(ValueError, match="disagrees"):
        WeierstrassCurve(1e200, 1e150, disc=5.0)


@pytest.mark.parametrize("p,q,disc", [(math.nan, 1.0, None), (math.inf, 1.0, None),
                                      (1.0, complex(0.0, -math.inf), None),
                                      (4.0, 0.0, complex(math.nan, 0.0))])
def test_curve_rejects_non_finite_values(p, q, disc):
    with pytest.raises(ValueError, match="must be finite"):
        WeierstrassCurve(p, q, disc)


def test_curve_names_a_discriminant_that_leaves_the_doubles():
    # p^3 = 6.4e601: a named error, not a raw OverflowError from p ** 3
    with pytest.raises(ArithmeticError, match="p\\^3 - 27q\\^2 leaves the doubles"):
        WeierstrassCurve(4e200, 1e300)


def test_curve_checks_a_passed_discriminant_where_p_cubed_leaves_the_doubles():
    # a disc no lattice has is a ValueError, not a raw OverflowError later in
    # periods_from_curve
    with pytest.raises(ValueError, match="disagrees"):
        WeierstrassCurve(1e206 + 3j, 1e10, 1e300)
    # a carried disc far in the cusp, rescaled by 2^85 (exact): p^3 ~ 2e313 leaves
    # the doubles, disc ~ 3e207 does not, and 1e306 is off by 2e-8 of |p|^3 + 27|q|^2
    curve = eisenstein(TauPoint(0.31, 40.0))
    p, q, disc = (complex(math.ldexp(v.real, w * 85), math.ldexp(v.imag, w * 85))
                  for v, w in ((curve.p, 4), (curve.q, 6), (curve.disc, 12)))
    assert not cmath.isfinite(p * p * p)
    assert WeierstrassCurve(p, q, disc).disc == disc
    with pytest.raises(ValueError, match="disagrees"):
        WeierstrassCurve(p, q, 1e306)


@pytest.mark.parametrize("im", [0.9, 5.0, 12.0, 25.0, 40.0])
def test_curve_accepts_eisenstein_discriminant_far_in_the_cusp(im):
    # there the carried disc and the direct difference disagree in every
    # digit of disc, but only by rounding of |p|^3 + 27|q|^2
    for re in (-0.5, -0.17, 0.0, 0.31):
        curve = eisenstein(TauPoint(re, im))
        assert WeierstrassCurve(curve.p, curve.q, curve.disc) == curve


def test_period_data_validation():
    with pytest.raises(ValueError):
        PeriodData(1.0, 2.0j, TauPoint(0.5, 2.0))


@pytest.mark.parametrize("omega1, omega2, message", [
    (math.inf, math.inf * TAU.z, "omega1 must be finite"),
    (complex(math.nan, 0.0), TAU.z, "omega1 must be finite"),
    (1.0, complex(math.inf, 1.0), "omega2 must be finite"),
    (1.0, complex(0.0, math.nan), "omega2 must be finite"),
    (0.0, 1.0, "omega1 must be nonzero"),
    (0j, 0j, "omega1 must be nonzero"),
])
def test_period_data_rejects_periods_it_cannot_hold(omega1, omega2, message):
    # a non-finite period makes a ratio that no comparison with tau rejects,
    # and omega1 = 0 one that raises ZeroDivisionError: both are checked first
    with pytest.raises(ValueError, match=message):
        PeriodData(omega1, omega2, TAU)


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


def test_theta_constants_are_evaluated_once(monkeypatch):
    # the root triple is built from theta(0) and theta(1/2) alone, and the
    # Thomae check reuses them for its right-hand sides
    import ellgreen.weierstrass as weierstrass

    calls = []
    monkeypatch.setattr(weierstrass, "theta",
                        lambda *args: calls.append(args) or theta(*args))
    half_period_roots(TAU)
    assert len(calls) == 2
    calls.clear()
    thomae_residuals(TAU)
    assert len(calls) == 3


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


@pytest.mark.parametrize("k", [0, 83, -83, 60])
def test_discriminant_relation_reads_the_same_at_every_scale(k):
    # the curve of 0.1+1.2i rescaled by 2^k (weights 4, 6, 12, exact): at k = 83
    # the carried disc is ~1e306 and omega1^-12 leaves the doubles, yet the
    # residual, on the period basis given or recovered, is the one at k = 0
    tau, curve = TauPoint(0.1, 1.2), eisenstein(TauPoint(0.1, 1.2))
    scaled = WeierstrassCurve(*(complex(math.ldexp(v.real, w * k), math.ldexp(v.imag, w * k))
                                for v, w in ((curve.p, 4), (curve.q, 6), (curve.disc, 12))))
    omega1 = math.ldexp(1.0, -k)
    unit = discriminant_relation_residual(PeriodData(1.0, tau.z, tau), curve)
    assert 0.0 < unit < 1e-14
    assert discriminant_relation_residual(PeriodData(omega1, omega1 * tau.z, tau), scaled) == unit
    assert discriminant_relation_residual(periods_from_curve(scaled), scaled) < 1e-14


def test_discriminant_relation_outside_the_doubles_is_an_arithmetic_error():
    # omega1 = 1e-30 on the unit curve: disc * omega1^12 underflows against
    # (2*pi)^12 delta, a residual of 1; omega1 = 1e30: it overflows, and the
    # residual (~1e360) is no double
    curve = eisenstein(TAU)
    assert discriminant_relation_residual(PeriodData(1e-30, 1e-30 * TAU.z, TAU), curve) == 1.0
    with pytest.raises(ArithmeticError, match="discriminant residual is not a double"):
        discriminant_relation_residual(PeriodData(1e30, 1e30 * TAU.z, TAU), curve)


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

    with mp.workdps(30):
        for _ in range(20):
            tau = TauPoint(rng.uniform(-0.49, 0.49), rng.uniform(0.87, 6.0))
            curve = eisenstein(tau)
            ours = 1728.0 * curve.p ** 3 / curve.discriminant / 1728.0
            ref = complex(mp.kleinj(mp.mpc(tau.z)))
            assert abs(ours - ref) / max(abs(ref), 1.0) < 1e-11


# ---------------------------------------------------------------------------
# cubic roots and root differences
# ---------------------------------------------------------------------------

def test_root_differences_match_theta_constants(rng):
    # alpha1 - alpha2, alpha1 - alpha3 and alpha2 - alpha3 are pi^2 times
    # theta_4(0)^4, theta_3(0)^4 and theta_2(0)^4, each to full relative
    # precision although the near-degenerate pair is resolved by the solver
    # only to about sqrt(eps)
    import mpmath as mp

    for _ in range(40):
        tau = TauPoint(rng.uniform(-0.49, 0.49), rng.uniform(0.87, 14.0))
        with mp.workdps(40):
            nome = mp.exp(1j * mp.pi * mp.mpc(tau.z))
            refs = [complex(mp.pi ** 2 * mp.jtheta(k, 0, nome) ** 4) for k in (4, 3, 2)]
        a1 = (refs[0] + refs[1]) / 3.0
        curve = eisenstein(tau)
        roots = _match_roots(_cubic_roots(curve), (a1, a1 - refs[0], a1 - refs[1]))
        d12, d13, d23 = _root_differences(*roots, curve)
        assert abs(d12 - refs[0]) < 1e-12 * abs(refs[0])
        assert abs(d13 - refs[1]) < 1e-12 * abs(refs[1])
        # below sqrt(eps) of the root scale the solver cannot order the
        # close pair, so the sign of their difference is checked only above it
        if abs(refs[2]) < 1e-6 * abs(refs[1]):
            d23 = math.copysign(1.0, (d23 / refs[2]).real) * d23
        assert abs(d23 - refs[2]) < 1e-12 * abs(refs[2])


def test_cubic_roots_rescale_exactly():
    # the solver works on the curve rescaled by a power of two, so the
    # weight-(4, 6) rescaling by lam = 2^k moves every root by exactly lam^2
    curve = eisenstein(TAU)
    base = _cubic_roots(curve)
    for lam in (2.0 ** 40, 2.0 ** -40):
        scaled = _cubic_roots(WeierstrassCurve(lam ** 4 * curve.p, lam ** 6 * curve.q))
        assert scaled == [lam ** 2 * r for r in base]


_RHO = complex(-0.5, math.sqrt(3.0) / 2.0)


@pytest.mark.parametrize("eps", [1e-4, 1e-5, 1e-6, 1e-7, 1e-8])
def test_periods_round_trip_near_elliptic_points(eps):
    # j is critical at i and rho; the AGM basis is returned as it is, so the
    # round trip holds to rounding there as well
    for z in (1j * (1.0 + eps), eps + 1j * (1.0 + eps),
              _RHO + eps * (1.0 + 1j), -_RHO.conjugate() + eps * (-1.0 + 1j)):
        tau = TauPoint.from_complex(z)
        red, _ = reduce_tau(periods_from_curve(eisenstein(tau)).tau)
        assert abs(red.z - z) < 1e-13


def test_periods_from_curve_makes_one_eisenstein_call(monkeypatch):
    import ellgreen.weierstrass as weierstrass

    curve = eisenstein(TAU)
    calls = []
    monkeypatch.setattr(weierstrass, "eisenstein",
                        lambda *args: calls.append(args) or eisenstein(*args))
    periods_from_curve(curve)
    assert len(calls) == 1


def _scaled_eisenstein(tau, lam):
    # the curve of the lattice lam^-1 (Z + tau*Z), its discriminant carried
    curve = eisenstein(tau)
    return WeierstrassCurve(lam ** 4 * curve.p, lam ** 6 * curve.q, lam ** 12 * curve.disc)


def test_periods_recover_seeded_scaled_eisenstein_curves(rng):
    # one root ordering serves every curve: the reduced period ratio is the
    # lattice's, to rounding, far into the cusp and at any complex scale
    flips = [0, 0]
    for _ in range(2000):
        tau = TauPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 12.0))
        lam = cmath.exp(cmath.rect(5.0 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi)))
        curve = _scaled_eisenstein(tau, lam)
        red, _ = reduce_tau(periods_from_curve(curve).tau)
        assert abs(red.z - reduce_tau(tau)[0].z) < 1e-12
        d12, d13, d23 = _root_differences(*_cubic_roots(curve), curve)
        sa = cmath.sqrt(d13)
        flips[0] += (cmath.sqrt(d12) / sa).real < 0
        flips[1] += (cmath.sqrt(d23) / sa).real < 0
    # the sample takes both sign alignments of the square roots
    assert min(flips) > 0


def _gauss_at_scale(rng, real):
    z = complex(rng.gauss(0.0, 1.0), 0.0 if real else rng.gauss(0.0, 1.0))
    return z * 10.0 ** rng.uniform(-8.0, 8.0)


def test_periods_of_seeded_curves_are_values_or_typed_errors(rng):
    # complex and real (p, q) over 1e+-8: a basis, or an ArithmeticError or
    # ValueError, never another exception
    for k in range(2000):
        p, q = _gauss_at_scale(rng, k % 2), _gauss_at_scale(rng, k % 2)
        try:
            assert isinstance(periods_from_curve(WeierstrassCurve(p, q)), PeriodData)
        except (ArithmeticError, ValueError):
            pass


def test_the_period_agms_turn_each_square_root_towards_sqrt_a1_minus_a3(rng):
    # sb = +-sqrt(a1-a2) and sc = +-sqrt(a2-a3) are turned so that Re(s/sa) >= 0,
    # sa = sqrt(a1-a3), on seeded Eisenstein curves at a complex scale and random
    # complex (p, q); the sample keeps each sign on some curves and turns it on others
    turned = {"sb": set(), "sc": set()}
    for k in range(400):
        if k % 2:
            curve = WeierstrassCurve(_gauss_at_scale(rng, False), _gauss_at_scale(rng, False))
        else:
            tau = TauPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 12.0))
            curve = _scaled_eisenstein(tau, cmath.exp(cmath.rect(
                5.0 * math.sqrt(rng.random()), rng.uniform(-math.pi, math.pi))))
        (sa, sb, sc), _, _ = _period_agms(curve)
        d12, d13, d23 = _root_differences(*_cubic_roots(curve), curve)
        assert sa == cmath.sqrt(d13)
        for name, s, d in (("sb", sb, d12), ("sc", sc, d23)):
            assert s in (cmath.sqrt(d), -cmath.sqrt(d)) and (s / sa).real >= 0
            turned[name].add(s != cmath.sqrt(d))
    assert turned == {"sb": {False, True}, "sc": {False, True}}


@pytest.mark.parametrize("tau,lam,p,q", [
    # a Cardano root double to working precision: a Newton slope of exactly 0
    # raised ZeroDivisionError ...
    (TauPoint(0.41184544979782567, 10.890091552486505),
     -0.03535439131416753 + 0.10137573927624288j, None, None),
    (None, None, 6.498082466388704e-05 - 1.6864398345286674e-05j,
     -9.827249926825638e-08 + 3.935274122249193e-08j),
    # ... and one of rounding size threw the root off the cubic, to be taken
    # as the isolated root: ArithmeticError
    (TauPoint(-0.4158594297747997, 7.934319868394492),
     -50.57015339852636 - 14.66749555942425j, None, None),
], ids=["zero-slope-scaled", "zero-slope", "rounding-slope-scaled"])
def test_periods_at_a_root_double_to_working_precision(tau, lam, p, q):
    curve = _scaled_eisenstein(tau, lam) if tau else WeierstrassCurve(p, q)
    red, _ = reduce_tau(periods_from_curve(curve).tau)
    ref = eisenstein(red)
    j = curve.p ** 3 / curve.disc
    assert abs(ref.p ** 3 / ref.disc - j) < 1e-11 * abs(j)
