import math
import pickle
import random
import sys
from fractions import Fraction

import mpmath as mp
import pytest
from hypothesis import example, given, settings, strategies as st

from ellgreen.errors import SeriesConvergenceError
from ellgreen.green import (
    GreenValue,
    Torus,
    _exp_log_green,
    _midpoint_log_green_mean,
    a_invariant_adjunction_check,
    energy,
    green,
    green_mean_integral,
    green_pair,
    green_projection_check,
    torsion_product,
)
from ellgreen.lattice import (
    CyclicSubgroup,
    TauPoint,
    TorusPoint,
    _kernel_pairs,
    cyclic_subgroups,
    multiplication_isogeny,
    quotient,
    transport_point,
)
from ellgreen.modular import (DEFAULT_TOL, SeriesTolerance, _log_abs_eta, _phase_row, _series,
                              _weight_row, log_abs_theta_shifted, log_norm_eta)

TAU = TauPoint(0.13, 1.32)


def test_a_torus_record_is_a_read_only_value_of_tau_and_tol():
    # equal and hashed by (tau, tol), printed and pickled as them, so an
    # unpickled record starts with no table; no public field can be assigned
    # or deleted
    torus = Torus(TauPoint(0.73, 0.11))
    torus.torsion_product(4)
    assert torus == Torus(TauPoint(0.73, 0.11), DEFAULT_TOL)
    assert hash(torus) == hash(Torus(TauPoint(0.73, 0.11)))
    assert repr(torus) == f"Torus(tau={TauPoint(0.73, 0.11)!r}, tol={DEFAULT_TOL!r})"
    copy = pickle.loads(pickle.dumps(torus))
    assert copy == torus and copy._tables == {} and copy.mat == torus.mat
    for name in ("tau", "tol", "red", "mat", "log_eta"):
        with pytest.raises(AttributeError):
            setattr(torus, name, None)
        with pytest.raises(AttributeError):
            delattr(torus, name)
    with pytest.raises(AttributeError):
        torus.extra = None


def test_a_torus_record_takes_only_isogenies_from_its_tau():
    # another marking of the same torus has other lattice coordinates
    iso = quotient(TauPoint(1.13, 1.32), CyclicSubgroup(2, 1, 0))
    with pytest.raises(ValueError, match="is not the torus's tau"):
        Torus(TAU).energy(iso)
    assert Torus(iso.source).energy(iso) == energy(iso)


def test_green_vanishes_exactly_at_zero():
    value = green(TAU, TorusPoint(0, 0))
    assert value.value == 0.0
    assert value.log_value == -math.inf


def test_green_near_zero_is_not_snapped():
    value = green(TAU, TorusPoint(1e-13, 0.0))
    assert 0.0 < value.value < 1e-10


def test_green_value_exp_consistency():
    g = green(TAU, TorusPoint(0.3, 0.4))
    assert abs(g.value - math.exp(g.log_value)) < 1e-15 * g.value
    assert GreenValue.from_log(0.0).value == 1.0


def test_two_torsion_product_is_two(sample_taus):
    for tau in sample_taus:
        p = (green(tau, TorusPoint(Fraction(1, 2), 0)).value
             * green(tau, TorusPoint(0, Fraction(1, 2))).value
             * green(tau, TorusPoint(Fraction(1, 2), Fraction(1, 2))).value)
        assert abs(p - 2.0) < 1e-9


@given(st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@settings(max_examples=200)
def test_green_symmetric_under_negation(a, b):
    p = TorusPoint(a, b)
    lhs = green(TAU, p).log_value
    rhs = green(TAU, -p).log_value
    assert abs(lhs - rhs) < 1e-10


def test_green_symmetry_thousand_random_pairs():
    rng = random.Random(20240809)
    for _ in range(1000):
        tau = TauPoint(rng.uniform(-0.45, 0.45), rng.uniform(0.95, 3.0))
        p = TorusPoint(rng.uniform(0.001, 0.999), rng.uniform(0.001, 0.999))
        assert abs(green(tau, p).log_value - green(tau, -p).log_value) < 1e-10


def test_green_pair_translation_invariance():
    p = TorusPoint(0.21, 0.55)
    q = TorusPoint(0.68, 0.13)
    t = TorusPoint(0.05, 0.3)
    a = green_pair(TAU, p, q).log_value
    b = green_pair(TAU, p + t, q + t).log_value
    assert abs(a - b) < 1e-10


def test_green_modular_invariance_inversion():
    # same torus, remarked by -1/tau: coordinates transport by (a,b) -> (b,-a)
    tau = TauPoint(0.3, 1.7)
    other = TauPoint.from_complex(-1.0 / tau.z)
    p = TorusPoint(0.37, 0.62)
    moved = transport_point(p, ((0, -1), (1, 0)))
    assert abs(green(tau, p).log_value - green(other, moved).log_value) < 1e-9


def test_green_reduction_matches_unreduced_evaluation():
    # the defining formula itself is invariant: evaluate it without reducing
    # at an unreduced marking and compare with the reduced path
    tau = TauPoint(0.3, 0.4)
    p = TorusPoint(0.25, 0.6)
    # log G(0, a + b*tau) = log|S(a + 1/2, b + 1/2)| - log|eta|: the (Im tau)^(1/4)
    # factors of ||theta|| and ||eta|| cancel
    series = _series(tau, DEFAULT_TOL)
    raw = (log_abs_theta_shifted(_weight_row((0.6 + 0.5) % 1.0, series),
                                 _phase_row((0.25 + 0.5) % 1.0, series))
           - _log_abs_eta(tau, DEFAULT_TOL))
    assert abs(raw - green(tau, p).log_value) < 1e-9


def _outcome(fn):
    # (value, log_value) of a GreenValue, or the type and message of the error
    try:
        result = fn()
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return result.value, result.log_value


def _green_by_transport(tau, z):
    # green() through transport_point, as for a float point
    torus = Torus(tau, DEFAULT_TOL)
    moved = transport_point(z, torus.mat)
    if moved.is_zero:
        return GreenValue(0.0, -math.inf)
    log_value = torus.log_green(float(moved.a), float(moved.b))
    return GreenValue(_exp_log_green(log_value, torus), log_value)


_EXACT = st.builds(Fraction, st.integers(-10 ** 20, 10 ** 20),
                   st.one_of(st.integers(1, 10 ** 6), st.just(3 ** 40)))


@given(st.floats(-3.0, 3.0), st.floats(0.03, 2000.0), _EXACT, _EXACT)
@example(0.73, 0.11, Fraction(-3), Fraction(12))  # (0, 0): G = 0
@example(0.21, 1.13, Fraction(1, 3 ** 40), Fraction(0))  # within rounding of the origin
@example(-2.9, 0.03, Fraction(-5, 3 ** 40), Fraction(7, 999_983))
@example(0.1, 1400.0, Fraction(1, 2), Fraction(0))  # G underflows
@example(0.1, 2800.0, Fraction(3, 10 ** 6), Fraction(-1, 2))  # G overflows
@settings(max_examples=300)
def test_green_on_exact_points_equals_the_transported_float_route(re, im, a, b):
    # the integer transport rounds each coordinate as float(Fraction) of the
    # reduced coordinate does: the same value, log and error
    tau, z = TauPoint(re, im), TorusPoint(a, b)
    assert _outcome(lambda: green(tau, z)) == _outcome(lambda: _green_by_transport(tau, z))


_FLOAT = st.floats(-5.0, 5.0)


@given(st.floats(-3.0, 3.0), st.floats(0.03, 2000.0),
       st.one_of(st.tuples(_FLOAT, _FLOAT), st.tuples(_EXACT, _FLOAT), st.tuples(_FLOAT, _EXACT)))
@example(0.73, 0.11, (-3.0, 12.0))  # (0, 0): G = 0
@example(0.73, 0.11, (Fraction(2), -0.0))
@example(0.21, 1.13, (1e-17, 0.0))  # within rounding of the origin
@example(-2.9, 0.03, (-1e-300, Fraction(7, 999_983)))
@example(0.1, 1400.0, (0.5, 0.0))  # G underflows
@example(0.1, 2800.0, (Fraction(3, 10 ** 6), -0.5))  # G overflows
@settings(max_examples=300)
def test_green_on_float_and_mixed_points_equals_the_transported_route(re, im, ab):
    # a float or mixed point moves in floats as transport_point moves it
    tau, z = TauPoint(re, im), TorusPoint(*ab)
    assert _outcome(lambda: green(tau, z)) == _outcome(lambda: _green_by_transport(tau, z))


def test_green_calls_transport_point_for_no_kind_of_point(count_calls):
    # every point moves through the reduction on the record (Torus.log_green_at)
    counts = count_calls(transport_point)
    tau = TauPoint(0.73, 0.11)
    for a, b in ((Fraction(3, 7), Fraction(5, 7)), (3 / 7, 5 / 7), (Fraction(3, 7), 5 / 7),
                 (3 / 7, Fraction(5, 7)), (Fraction(0), Fraction(0)), (0.0, 0.0)):
        green(tau, TorusPoint(a, b))
    assert counts["transport_point"] == 0


# (call, records that evaluate log G): the source and target of a degree-8
# projection check; not energy's target record, read for log|eta| alone
SERIES_FORMED = {
    "green_projection_check": (lambda: green_projection_check(
        quotient(TAU, CyclicSubgroup(8, 1, 2)), TorusPoint(Fraction(1, 3), 0),
        TorusPoint(0.3, 0.7)), 2),
    "a_invariant_adjunction_check": (lambda: a_invariant_adjunction_check(TAU), 1),
    "energy": (lambda: energy(quotient(TAU, CyclicSubgroup(5, 1, 0))), 1),
    "log_norm_eta": (lambda: log_norm_eta(TAU), 0),
}


@pytest.mark.parametrize("name", SERIES_FORMED)
def test_a_record_forms_its_series_constants_once_and_only_when_needed(name, count_calls):
    call, records = SERIES_FORMED[name]
    counts = count_calls(_series)
    call()
    assert counts["_series"] == records


def test_a_record_raises_its_window_error_at_each_value_that_needs_it():
    tight = SeriesTolerance(1e-12, 8)  # too few terms at reduced Im tau below ~2.2
    assert torsion_product(TAU, 1, tight) == 1.0  # reads the zero pair alone
    assert log_norm_eta(TAU, tight) == log_norm_eta(TAU)
    torus = Torus(TAU, tight)
    for _ in range(2):
        with pytest.raises(SeriesConvergenceError, match="needs 10 terms > max_terms=8"):
            torus.log_green(0.3, 0.2)
    with pytest.raises(SeriesConvergenceError, match="needs 10 terms > max_terms=8"):
        green(TAU, TorusPoint(Fraction(1, 2), 0), tight)


@pytest.mark.parametrize("n", range(1, 13))
def test_torsion_product_equals_order(n, sample_taus):
    for tau in sample_taus[:3]:
        assert abs(torsion_product(tau, n) - n) / n < 1e-8


def test_torsion_product_rejects_bad_order():
    with pytest.raises(ValueError):
        torsion_product(TAU, 0)


def mp_log_green(tau, a, b):
    """log G(0, a + b*tau) in 30-digit arithmetic, tau reduced: the theta sum
    taken directly over a window around its dominant index, log|eta| from
    the q-product."""
    with mp.workdps(30):
        t = mp.mpc(tau.re, tau.im)
        w = mp.mpf(a) + mp.mpf(b) * t + (1 + t) / 2
        centre = int(mp.nint(-w.imag / t.imag))
        half = math.ceil(math.sqrt(100.0 / (math.pi * tau.im))) + 2
        total = mp.fsum(mp.exp(1j * mp.pi * n * n * t + 2j * mp.pi * n * w)
                        for n in range(centre - half, centre + half + 1))
        log_eta = -mp.pi * t.imag / 12 + mp.log(abs(mp.qp(mp.exp(2j * mp.pi * t))))
        return float(-mp.pi * w.imag ** 2 / t.imag + mp.log(abs(total)) - log_eta)


@pytest.mark.parametrize("n", [2, 3, 7, 12])
def test_torsion_product_far_in_the_cusp(n):
    # the theta sums of these points underflow a double, their logs do not:
    # the product is summed in logs and still equals N
    assert abs(torsion_product(TauPoint(0.1, 1000.0), n) - n) / n < 1e-10
    assert abs(torsion_product(TauPoint(0.0, 1000.0), n) - n) / n < 1e-10
    assert abs(torsion_product(TauPoint(0.1, 466.0), n) - n) / n < 1e-10


@pytest.mark.parametrize("im", [474.0, 475.0, 1000.0, 1350.0])
def test_green_far_in_the_cusp_matches_mpmath(im):
    # G at (0.3, 0) is about exp(-pi * Im tau / 6): tiny, but a normal double
    tau = TauPoint(0.1, im)
    ours = green(tau, TorusPoint(0.3, 0)).log_value
    ref = mp_log_green(tau, 0.3, 0)
    assert abs(ours - ref) < 1e-10 * abs(ref)


def test_green_raises_a_named_error_where_g_underflows():
    # log G(0, 0.3) = -1046.7 at Im tau = 2000 is still exact, but G is not
    # a double
    named = r"G underflows a normal double: log G = -1046\.7\d* at reduced Im tau = 2000\.0"
    with pytest.raises(ArithmeticError, match=named):
        green(TauPoint(0.1, 2000.0), TorusPoint(0.3, 0))
    with pytest.raises(ArithmeticError, match=r"log G = -750\.0"):
        GreenValue.from_log(-750.0)


@pytest.mark.parametrize("eps", [1e-17, 1e-20])
def test_green_within_rounding_of_the_origin_raises(eps):
    # the scaled theta sum is below its own rounding error here: its log
    # reads about -37.09 where the true values are -37.83 and -44.74
    with pytest.raises(ArithmeticError, match="within rounding of a zero of theta"):
        green(TauPoint(0.0, 1.0), TorusPoint(eps, 0.0))


@pytest.mark.parametrize("tau", [TauPoint(0.0, 1.0), TauPoint(0.45, 0.9), TAU])
def test_green_near_the_origin_matches_mpmath(tau):
    # relative accuracy about 1e-16 / |z|
    ours = green(tau, TorusPoint(1e-4, 0.0)).log_value
    assert abs(ours - mp_log_green(tau, 1e-4, 0.0)) < 1e-12


LOG_NORMAL_MIN = math.log(sys.float_info.min)
LOG_MAX = math.log(sys.float_info.max)


@given(st.floats(-0.5, 0.5), st.floats(1.0, 2600.0),
       st.floats(0.001, 0.999), st.floats(0.001, 0.999))
@settings(max_examples=60)
def test_log_green_matches_mpmath_over_the_cusp(re, im, a, b):
    # log G is right over the whole reduced range; G itself is returned
    # wherever it is a normal double and is a named error elsewhere
    tau = TauPoint(re, im)
    ref = mp_log_green(tau, a, b)
    if LOG_NORMAL_MIN + 1e-6 < ref < LOG_MAX - 1e-6:
        ours = green(tau, TorusPoint(a, b)).log_value
        assert abs(ours - ref) < 1e-10 * max(1.0, abs(ref))
    elif not LOG_NORMAL_MIN - 1e-6 <= ref <= LOG_MAX + 1e-6:
        with pytest.raises(ArithmeticError, match="G (under|over)flows"):
            green(tau, TorusPoint(a, b))


@given(st.floats(-0.5, 0.5), st.floats(1.0, 2600.0), st.integers(2, 12))
@settings(max_examples=40)
def test_torsion_product_equals_order_over_the_cusp(re, im, n):
    assert abs(torsion_product(TauPoint(re, im), n) - n) / n < 1e-10


def test_overflowing_green_raises_a_named_error():
    # log G(0, tau/2) = pi * Im tau / 12 passes log(max double) ~ 709.78 near
    # Im tau = 2711; the error must name log G and the reduced Im tau rather
    # than be a bare "math range error"
    tau = TauPoint(0.0, 3000.0)
    named = r"log G = 785\.39.* at reduced Im tau = 3000\.0"
    with pytest.raises(ArithmeticError, match=named):
        green(tau, TorusPoint(0, Fraction(1, 2)))
    # the kernel {0, tau/2} makes the kernel product that one G; energy names
    # the product and its log
    product = r"kernel product overflows a double: log kernel product = 785\.39.* at reduced Im tau = 3000\.0"
    with pytest.raises(ArithmeticError, match=product):
        energy(quotient(tau, CyclicSubgroup(2, 0, 1)))
    with pytest.raises(ArithmeticError, match=r"log G = 710\.0"):
        GreenValue.from_log(710.0)


def test_energy_names_an_underflowing_kernel_product():
    # 1000 kernel points leave the doubles at reduced Im tau 1.5, where every
    # single G is a normal double
    named = (r"kernel product underflows a normal double: "
             r"log kernel product = -778\.48\d* at reduced Im tau = 1\.5")
    with pytest.raises(ArithmeticError, match=named):
        energy(quotient(TauPoint(0.2, 1.5), CyclicSubgroup(1001, 1, 0)))


# ---------------------------------------------------------------------------
# energies
# ---------------------------------------------------------------------------

def test_energy_trivial_isogeny():
    iso = quotient(TAU, CyclicSubgroup(1, 0, 0))
    product, predicted = energy(iso)
    assert product == 1.0
    assert abs(predicted - 1.0) < 1e-12


@pytest.mark.parametrize("n", range(2, 13))
def test_energy_identity_all_subgroups(n):
    for sub in cyclic_subgroups(n):
        iso = quotient(TAU, sub)
        product, predicted = energy(iso)
        assert abs(product - predicted) / predicted < 1e-8


def test_energy_multiplication_map_gives_order():
    # quotient by the full n-torsion is multiplication by n: product over the
    # kernel is n^2 / ... = n by the torsion-product identity
    iso = multiplication_isogeny(TAU, 3)
    product, predicted = energy(iso)
    assert abs(predicted - 3.0) < 1e-10  # sqrt(9) * same-torus eta ratio
    assert abs(product - 3.0) < 1e-8


@pytest.mark.parametrize("tau", [TAU, TauPoint(0.73, 0.11)], ids=["reduced", "unreduced"])
def test_energies_of_one_source_equal_one_call_each(tau, moved_classes):
    # one +-P table for all subgroups of an order gives each isogeny's energy
    # exactly, and both equal the formula from a reduction per isogeny
    for n in range(1, 13):
        isos = [quotient(tau, sub) for sub in cyclic_subgroups(n)]
        shared = Torus(tau, DEFAULT_TOL).energies(n)
        assert shared == [energy(iso) for iso in isos]
        for iso, got in zip(isos, shared):
            # each kernel pair moved on its own, not walked from a generator
            torus = Torus(tau, DEFAULT_TOL)
            classes = moved_classes(torus, _kernel_pairs(iso.coordinate_matrix(), n), n)
            log_product = torus.log_green_sums(n, [classes])[0]
            log_ratio = 2.0 * (log_norm_eta(iso.target) - log_norm_eta(tau))
            assert got == (math.exp(log_product), math.sqrt(n) * math.exp(log_ratio))


@pytest.mark.parametrize("im", [120.0, 200.0, 400.0, 600.0])
def test_energy_identity_far_in_the_cusp(im):
    # the kernel sum and the prediction both come from logs: the targets reach
    # Im tau 1200 and the prediction 1e-137, past where invariants' norm_delta
    # leaves the doubles (reduced Im tau ~117)
    for sub in cyclic_subgroups(2):
        product, predicted = energy(quotient(TauPoint(0.1, im), sub))
        assert abs(product - predicted) / predicted < 1e-12


# ---------------------------------------------------------------------------
# projection identity
# ---------------------------------------------------------------------------

def test_projection_identity_quotient():
    iso = quotient(TauPoint(0.0, 1.0), CyclicSubgroup(2, 1, 0))
    w = TorusPoint(Fraction(1, 5), Fraction(2, 5))
    z = TorusPoint(0.31, 0.77)
    assert green_projection_check(iso, w, z) < 1e-8


def test_projection_identity_multiplication_by_two():
    iso = multiplication_isogeny(TAU, 2)
    w = TorusPoint(0, 0)
    z = TorusPoint(0.29, 0.41)
    assert green_projection_check(iso, w, z) < 1e-8


def test_projection_identity_randomized(rng):
    for _ in range(25):
        tau = TauPoint(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.0))
        n = rng.randint(1, 8)
        subs = cyclic_subgroups(n)
        iso = quotient(tau, subs[rng.randrange(len(subs))])
        w = TorusPoint(Fraction(rng.randrange(16), 16), Fraction(rng.randrange(16), 16))
        z = TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        assert green_projection_check(iso, w, z) < 1e-8


def _projection_by_green(iso, w, z):
    # the projection residual from N + 1 green() values, one per fiber point
    # and one on the target; the fiber of a float w is that of the rational it stores
    exact = TorusPoint(Fraction(w.a), Fraction(w.b))
    lhs = math.fsum(green(iso.source, z - q).log_value for q in iso.fiber(exact))
    return abs(lhs - green(iso.target, iso.apply(z) - w).log_value)


def test_projection_check_equals_the_per_point_green_formula(rng):
    # 50 seeded instances, a third at an unreduced source, every fourth with a
    # float w and two in five with an exact z (denominators up to 2**40 + 15):
    # the one-reduction fiber sum rounds as green() does
    for k in range(50):
        tau = TauPoint(rng.uniform(-0.45, 0.45), rng.uniform(1.05, 2.0))
        if k % 3 == 0:
            tau = TauPoint.from_complex(-1 / (tau.z + rng.randint(-2, 2)))
        n = rng.randint(1, 12)
        subs = cyclic_subgroups(n)
        iso = quotient(tau, subs[rng.randrange(len(subs))])
        den = rng.choice([1, 2, 7, 12, 16])
        w = TorusPoint(Fraction(rng.randrange(den), den), Fraction(rng.randrange(den), den))
        if k % 4 == 0:
            w = TorusPoint(rng.random(), rng.random())
        if k % 5 < 2:
            den_z = rng.choice([5, 6, 10, 97, 2 ** 40 + 15])
            z = TorusPoint(*(Fraction(rng.randrange(1, den_z), den_z) for _ in "ab"))
        else:
            z = TorusPoint(rng.uniform(0.05, 0.95), rng.uniform(0.05, 0.95))
        assert green_projection_check(iso, w, z) == _projection_by_green(iso, w, z)


@pytest.mark.parametrize("w, z, kind", [
    (TorusPoint(Fraction(15, 16), Fraction(5, 16)), TorusPoint(0.73, 0.3),
     "underflows a normal double"),
    (TorusPoint(Fraction(5, 8), Fraction(13, 16)), TorusPoint(0.61, 0.33), "overflows a double"),
], ids=["underflow", "overflow"])
def test_projection_check_raises_what_green_raises_on_the_target(w, z, kind):
    # the target of tau -> 2 tau sits at reduced Im tau 2800, where G(0, f(z) - w)
    # leaves the normal doubles while the source's fiber terms are still logs;
    # (w, z) were found by a seeded search over w in X[16] and z on a 0.01 grid
    iso = quotient(TauPoint(0.1, 1400.0), CyclicSubgroup(2, 1, 0))
    with pytest.raises(ArithmeticError, match=f"G {kind}") as expected:
        green(iso.target, iso.apply(z) - w)
    with pytest.raises(ArithmeticError) as raised:
        green_projection_check(iso, w, z)
    assert type(raised.value) is type(expected.value)
    assert str(raised.value) == str(expected.value)


def test_projection_rejects_exact_points_of_any_fiber():
    iso = quotient(TauPoint(0.73, 0.11), CyclicSubgroup(6, 1, 2))
    w = TorusPoint(Fraction(1, 3), Fraction(2, 7))
    for z in iso.fiber(w):
        with pytest.raises(ValueError, match="fiber"):
            green_projection_check(iso, w, z)


def test_projection_rejects_fiber_point():
    iso = quotient(TAU, CyclicSubgroup(2, 1, 0))
    w = TorusPoint(0, 0)
    z = iso.kernel[1]  # exactly in the fiber of 0
    with pytest.raises(ValueError):
        green_projection_check(iso, w, z)


# ---------------------------------------------------------------------------
# adjunction limit and the mean normalisation
# ---------------------------------------------------------------------------

def test_adjunction_residual_small(sample_taus):
    for tau in sample_taus[:3]:
        assert a_invariant_adjunction_check(tau) < 1e-6


def test_adjunction_direction_independent():
    a = a_invariant_adjunction_check(TAU, direction=0.3 + 0.4j)
    b = a_invariant_adjunction_check(TAU, direction=-0.7 + 0.1j)
    assert a < 1e-6 and b < 1e-6


def test_adjunction_reduces_internally():
    assert a_invariant_adjunction_check(TauPoint(0.5, 0.9)) < 1e-6


@pytest.mark.parametrize("im,named", [(1350.0, r"^G underflows a normal double: log G = "),
                                      (1400.0, r"^\|\|eta\|\|\^2 underflows"),
                                      (3000.0, r"^\|\|eta\|\|\^2 underflows")])
def test_adjunction_raises_a_named_error_in_the_cusp(im, named):
    # ||eta||^2 and G near the origin leave the normal doubles: a NaN residual
    # or a ZeroDivisionError before
    with pytest.raises(ArithmeticError, match=named) as caught:
        a_invariant_adjunction_check(TauPoint(0.1, im))
    assert type(caught.value) is ArithmeticError


def test_mean_integral_rejects_small_grid():
    with pytest.raises(ValueError):
        green_mean_integral(TAU, 8)


def test_mean_integral_converges_to_zero():
    values = [abs(green_mean_integral(TAU, m)) for m in (64, 128, 256)]
    assert values[-1] < 1e-3
    assert values[2] < values[1] < values[0]


def test_mean_integral_matches_scalar_quadrature():
    # oracle: the direct midpoint sum assembled point by point from green(),
    # over the whole grid, against the half grid the reference sum evaluates
    # (an odd M has a self-paired middle row)
    tau = TauPoint(0.4, 1.9)
    for m in (16, 17):
        total = math.fsum(
            green(tau, TorusPoint((i + 0.5) / m, (j + 0.5) / m)).log_value
            for i in range(m)
            for j in range(m)
        )
        assert abs(_midpoint_log_green_mean(tau, m) - total / (m * m)) < 1e-11


@pytest.mark.parametrize("tau", [TauPoint(0.0, 1.0), TauPoint(0.0, 3.0),
                                 TauPoint(0.5, 1.2), TauPoint(0.4, 1.9),
                                 TauPoint(1.3, 1.2)])
def test_mean_integral_closed_form(tau):
    # the midpoint grid is the coset (1/(2M), 1/(2M)) + X[M], so the
    # projection formula for multiplication by M sums it to log G(0, (1+tau)/2);
    # 1.3+1.2i is unreduced, and reduction moves its (1/2, 1/2) to (0, 1/2)
    for m in (16, 17, 32, 128):
        assert abs(green_mean_integral(tau, m) - _midpoint_log_green_mean(tau, m)) < 1e-13


def test_green_value_validated():
    with pytest.raises(ValueError):
        GreenValue(0.0, 0.0)  # zero must carry the -inf sentinel
    with pytest.raises(ValueError):
        GreenValue(1.0, 5.0)  # log_value disagrees


@pytest.mark.parametrize("value,log_value,message", [
    (math.nan, 0.0, "must be finite"),
    (1.0, math.nan, "must be finite"),
    (math.inf, math.inf, "must be finite"),
    (1.0, 800.0, "disagree"),  # exp(800) is no double: no raw OverflowError
])
def test_green_value_rejects_non_finite_and_overflowing_fields(value, log_value, message):
    with pytest.raises(ValueError, match=message):
        GreenValue(value, log_value)


def test_green_value_keeps_the_range_edges():
    # the diagonal sentinel, and a value at the top of the doubles
    assert GreenValue(0.0, -math.inf).log_value == -math.inf
    top = math.log(sys.float_info.max)
    assert GreenValue(math.exp(top), top).log_value == top


def test_green_against_mpmath(rng):
    # assemble the defining formula in 30-digit arithmetic as an oracle
    import mpmath as mp

    with mp.workdps(30):
        for _ in range(10):
            tau = TauPoint(rng.uniform(-0.45, 0.45), rng.uniform(0.9, 3.0))
            a, b = rng.uniform(0.01, 0.99), rng.uniform(0.01, 0.99)
            t = mp.mpc(tau.z)
            z = a + b * t + (1 + t) / 2
            norm_theta = (mp.im(t) ** mp.mpf(0.25)
                          * mp.exp(-mp.pi * mp.im(z) ** 2 / mp.im(t))
                          * abs(mp.jtheta(3, mp.pi * z, mp.exp(1j * mp.pi * t))))
            q = mp.exp(2j * mp.pi * t)
            norm_eta = mp.im(t) ** mp.mpf(0.25) * abs(mp.exp(2j * mp.pi * t / 24) * mp.qp(q))
            ref = float(norm_theta / norm_eta)
            ours = green(tau, TorusPoint(a, b)).value
            assert abs(ours - ref) / ref < 1e-11
