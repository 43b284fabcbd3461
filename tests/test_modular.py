import cmath
import math
import random
import re
from fractions import Fraction
from operator import mul

import mpmath as mp
import pytest
from hypothesis import given, settings, strategies as st

from ellgreen.errors import SeriesConvergenceError
from ellgreen.green import a_invariant_adjunction_check, energy, green, green_mean_integral
from ellgreen.lattice import CyclicSubgroup, TauPoint, TorusPoint, quotient
from ellgreen.modular import (
    DEFAULT_TOL,
    SeriesTolerance,
    _phase_row,
    _scaled_sum,
    _series,
    _shifted_sum,
    _weight_row,
    log_abs_theta_shifted,
    delta,
    eta,
    invariants,
    log_norm_delta,
    log_norm_eta,
    log_norm_theta,
    norm_theta,
    theta,
    theta_dz,
)
from ellgreen.weierstrass import eisenstein, two_torsion_green_check

TAU = TauPoint(0.13, 1.32)
PI = math.pi


def test_series_tolerance_validation():
    with pytest.raises(ValueError):
        SeriesTolerance(rel_tol=0.0)
    with pytest.raises(ValueError):
        SeriesTolerance(rel_tol=2.0)
    with pytest.raises(ValueError):
        SeriesTolerance(max_terms=4)


@pytest.mark.parametrize("max_terms", [40.5, 64.0, "64"])
def test_series_tolerance_rejects_a_max_terms_that_is_no_int(max_terms):
    # range() would raise a raw TypeError in every series instead
    with pytest.raises(ValueError, match="max_terms must be an int"):
        SeriesTolerance(1e-12, max_terms)


# ---------------------------------------------------------------------------
# theta: symmetries and quasi-periodicity
# ---------------------------------------------------------------------------

def test_theta_is_even():
    z = 0.31 + 0.22j
    assert abs(theta(z, TAU) - theta(-z, TAU)) < 1e-13


def test_theta_periodic_in_one():
    z = 0.31 + 0.22j
    assert abs(theta(z + 1, TAU) - theta(z, TAU)) < 1e-13


def test_theta_quasi_periodic_in_tau():
    z = 0.27 - 0.12j
    lhs = theta(z + TAU.z, TAU)
    rhs = cmath.exp(-1j * PI * TAU.z - 2j * PI * z) * theta(z, TAU)
    assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_theta_against_mpmath():
    # jtheta(3, pi*z, exp(pi*i*tau)) is the same series
    with mp.workdps(30):
        for z in (0.0, 0.37 + 0.41j, -1.2 + 2.7j):
            ours = theta(z, TAU)
            ref = complex(mp.jtheta(3, mp.pi * mp.mpc(z), mp.exp(1j * mp.pi * mp.mpc(TAU.z))))
            assert abs(ours - ref) / max(abs(ref), 1.0) < 1e-12


@pytest.mark.parametrize("tau", [TAU, TauPoint(-0.4, 0.9), TauPoint(0.3, 2.7)])
def test_theta_and_derivative_against_mpmath_outside_the_cell(tau):
    # z = c + d*tau with |d| up to 5 and c off [0, 1): theta and theta' must
    # carry the quasi-periodicity factor exp(-pi*i*tau*d^2) exactly
    with mp.workdps(30):
        nome = mp.exp(1j * mp.pi * mp.mpc(tau.z))
        for c, d in ((-2.3, -5.0), (0.7, -3.7), (3.1, 2.4), (-0.45, 5.0), (1.5, 0.3)):
            z = c + d * tau.z
            w = mp.pi * mp.mpc(z)
            ref = complex(mp.jtheta(3, w, nome))
            ref_dz = complex(mp.pi * mp.jtheta(3, w, nome, 1))
            assert abs(theta(z, tau) - ref) / abs(ref) < 1e-12
            assert abs(theta_dz(z, tau) - ref_dz) / abs(ref_dz) < 1e-12


@pytest.mark.parametrize("fn,log_name", [(theta, "log|theta|"), (theta_dz, "log|theta'|")])
def test_theta_overflow_is_a_named_error(fn, log_name):
    # |theta(0.3 + 200i)| ~ exp(104719) and |theta'| ~ exp(104726) at
    # tau = 0.1 + 1.2i
    with pytest.raises(ArithmeticError, match=f"{re.escape(log_name)} = 1047[12]"):
        fn(0.3 + 200j, TauPoint(0.1, 1.2))


@pytest.mark.parametrize("fn,log_name", [(theta, "log|theta|"), (theta_dz, "log|theta'|")])
@pytest.mark.parametrize("z", [1e160j, 1e300j, 1e308 + 1e308j])
def test_theta_beyond_a_double_d_squared_is_a_named_error_not_nan(fn, log_name, z):
    # pi*Im(tau)*d^2 overflows to inf, where the complex lead would be nan
    with pytest.raises(ArithmeticError, match=f"{re.escape(log_name)} = inf$"):
        fn(z, TauPoint(0.21, 1.13))


@pytest.mark.parametrize("fn,log_name", [(theta, "log|theta|"), (theta_dz, "log|theta'|")])
@pytest.mark.parametrize("z", [1e308j, 1e308 + 1e308j])
def test_theta_at_a_d_beyond_a_double_is_a_named_error(fn, log_name, z):
    # d = Im z / Im tau = 2e308 itself overflows at Im tau = 0.5, and so does log|theta|
    with pytest.raises(ArithmeticError, match=f"{re.escape(log_name)} = inf$"):
        fn(z, TauPoint(0.0, 0.5))


@pytest.mark.parametrize("fn", [theta, theta_dz])
@pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.0, math.inf)])
def test_theta_rejects_a_non_finite_z(fn, z):
    with pytest.raises(ValueError, match="finite z"):
        fn(z, TAU)


def test_theta_rejects_tiny_imaginary_part():
    with pytest.raises(SeriesConvergenceError):
        theta(0.3, TauPoint(0.0, 1e-6), SeriesTolerance(max_terms=64))


@pytest.mark.parametrize("fn,tau", [(eta, TauPoint(0.0, 0.01)), (eisenstein, TauPoint(0.0, 0.05))],
                         ids=["eta", "eisenstein"])
def test_a_series_past_its_term_budget_is_a_named_error(fn, tau):
    with pytest.raises(SeriesConvergenceError, match="within 8"):
        fn(tau, SeriesTolerance(1e-12, 8))


def test_theta_dz_vanishes_at_origin():
    assert abs(theta_dz(0.0, TAU)) < 1e-13


def test_theta_dz_finite_difference_oracle():
    # generic points only: theta is symmetric about the two-torsion points,
    # so the derivative vanishes there and a relative check is meaningless
    h = 1e-5
    for z in (0.21 + 0.17j, 0.4 + 0.05j, 0.1 + 0.6 * TAU.z):
        fd = (theta(z + h, TAU) - theta(z - h, TAU)) / (2 * h)
        exact = theta_dz(z, TAU)
        assert abs(fd - exact) / abs(exact) < 1e-8


def test_theta_dz_quasi_periodicity_transport():
    z = 0.11 + 0.09j
    h = 1e-5
    fd = (theta(z + TAU.z + h, TAU) - theta(z + TAU.z - h, TAU)) / (2 * h)
    assert abs(fd - theta_dz(z + TAU.z, TAU)) / abs(fd) < 1e-8


# ---------------------------------------------------------------------------
# the two weight-12 cusp-form identities
# ---------------------------------------------------------------------------

def cusp_product(tau):
    return (cmath.exp(1j * PI * tau.z / 4)
            * theta(0.0, tau) * theta(0.5, tau) * theta(tau.z / 2, tau)) ** 8


def cusp_derivative(tau):
    return (cmath.exp(1j * PI * tau.z / 4)
            * theta_dz((1 + tau.z) / 2, tau)) ** 8


def test_theta_constant_cusp_identity(sample_taus):
    for tau in sample_taus:
        rhs = 256.0 * delta(tau)
        assert abs(cusp_product(tau) - rhs) / abs(rhs) < 1e-9


def test_theta_derivative_cusp_identity(sample_taus):
    for tau in sample_taus:
        rhs = (2 * PI) ** 8 * delta(tau)
        assert abs(cusp_derivative(tau) - rhs) / abs(rhs) < 1e-9


# ---------------------------------------------------------------------------
# eta and delta
# ---------------------------------------------------------------------------

def test_eta_abs_invariant_under_translation():
    assert abs(abs(eta(TauPoint(TAU.re + 1, TAU.im))) - abs(eta(TAU))) < 1e-14


def test_eta_24th_power_is_delta(sample_taus):
    for tau in sample_taus:
        d = delta(tau)
        assert abs(eta(tau) ** 24 - d) / abs(d) < 1e-10


def test_eta_against_mpmath():
    with mp.workdps(30):
        ref = complex(mp.sqrt(mp.gamma(0.25) / (2 * mp.pi ** 0.75)) ** 2)
        assert abs(eta(TauPoint(0.0, 1.0)) - ref) < 1e-12


def test_norm_eta_inversion_invariance_direct_series():
    # both sides by the raw series, no internal reduction
    for tau in (TauPoint(0.3, 1.7), TauPoint(-0.2, 0.8), TauPoint(0.0, 0.5)):
        inv = -1.0 / tau.z
        lhs = tau.im ** 0.25 * abs(eta(tau))
        rhs = inv.imag ** 0.25 * abs(eta(TauPoint.from_complex(inv)))
        assert abs(lhs - rhs) / rhs < 1e-9


def test_delta_translation_invariance():
    lhs = delta(TauPoint(TAU.re + 1, TAU.im))
    rhs = delta(TAU)
    assert abs(lhs - rhs) / abs(rhs) < 1e-13


def test_eta_chain_against_mpmath_product():
    # eta, delta and both log norms share one product; mpmath's q-Pochhammer
    # (q; q)_inf at 30 digits is the independent reference for all four
    with mp.workdps(30):
        rng = random.Random(11)
        for _ in range(60):
            tau = TauPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.87, 2.5))
            if abs(tau.z) < 1.0:
                continue
            t = mp.mpc(tau.re, tau.im)
            q = mp.exp(2j * mp.pi * t)
            ref_eta = mp.exp(2j * mp.pi * t / 24) * mp.qp(q)
            ref_delta = q * mp.qp(q) ** 24
            ref_log = mp.log(tau.im) / 4 + mp.log(abs(ref_eta))
            assert abs(eta(tau) - ref_eta) / abs(ref_eta) < 1e-13
            assert abs(delta(tau) - ref_delta) / abs(ref_delta) < 2e-12
            assert abs(log_norm_eta(tau) - ref_log) < 1e-13
            assert abs(log_norm_delta(tau) - 24 * ref_log) < 3e-12


def test_truncation_is_tight():
    # doubling the term budget must not move the value beyond rel_tol
    loose = SeriesTolerance(rel_tol=1e-12, max_terms=64)
    tight = SeriesTolerance(rel_tol=1e-15, max_terms=256)
    for z in (0.3 + 0.2j, 0.5):
        a = theta(z, TAU, loose)
        b = theta(z, TAU, tight)
        assert abs(a - b) / abs(b) < 1e-12
    assert abs(eta(TAU, loose) - eta(TAU, tight)) / abs(eta(TAU, tight)) < 1e-12


# ---------------------------------------------------------------------------
# normalised theta
# ---------------------------------------------------------------------------

def raw_norm_theta(z, tau):
    y = z.imag
    return tau.im ** 0.25 * math.exp(-PI * y * y / tau.im) * abs(theta(z, tau))


def test_norm_theta_matches_raw_formula():
    point = TorusPoint(0.37, 0.81)
    z = point.to_complex(TAU)
    assert abs(norm_theta(point, TAU) - raw_norm_theta(z, TAU)) < 1e-13


def test_norm_theta_coset_invariance():
    point = TorusPoint(0.37, 0.81)
    z = point.to_complex(TAU)
    v = norm_theta(point, TAU)
    assert abs(raw_norm_theta(z + 1, TAU) - v) < 1e-12
    assert abs(raw_norm_theta(z + TAU.z, TAU) - v) < 1e-12
    assert abs(raw_norm_theta(z - 3 + 2 * TAU.z, TAU) - v) < 1e-11


def test_norm_theta_vanishes_at_half_period():
    half = TorusPoint(Fraction(1, 2), Fraction(1, 2))
    assert norm_theta(half, TAU) < 1e-10


def test_norm_theta_raises_instead_of_a_silent_zero():
    # 1000^(1/4) exp(-pi * 1000 / 4) is not a normal double; the log stays finite
    point = TorusPoint(0.3, 0.5)
    with pytest.raises(ArithmeticError, match=r"log of its dominant term = -783\.67"):
        norm_theta(point, TauPoint(0.0, 1000.0))
    assert abs(log_norm_theta(point, TauPoint(0.0, 1000.0)) + 783.509471012124) < 1e-9


@given(st.floats(0.0, 0.999), st.floats(0.0, 0.999))
@settings(max_examples=40)
def test_norm_theta_even(a, b):
    p = TorusPoint(a, b)
    assert abs(norm_theta(p, TAU) - norm_theta(-p, TAU)) < 1e-10


# ---------------------------------------------------------------------------
# invariants
# ---------------------------------------------------------------------------

def test_invariants_norm_delta_is_eta_power(sample_taus):
    for tau in sample_taus:
        inv = invariants(tau)
        assert abs(inv.norm_delta - inv.norm_eta ** 24) / inv.norm_delta < 1e-10


def test_invariants_defining_relation():
    inv = invariants(TAU)
    assert abs(inv.omega_norm * 2 * PI * inv.norm_eta ** 2 - 1.0) < 1e-14


def test_invariants_modular_invariance():
    tau = TauPoint(0.3, 1.7)
    other = TauPoint.from_complex(-1.0 / tau.z)
    a = invariants(tau)
    b = invariants(other)
    assert abs(a.norm_eta - b.norm_eta) / a.norm_eta < 1e-10
    assert abs(a.norm_delta - b.norm_delta) / a.norm_delta < 1e-10


def test_log_norm_helpers_match_linear_values():
    inv = invariants(TAU)
    assert abs(math.exp(log_norm_eta(TAU)) - inv.norm_eta) / inv.norm_eta < 1e-12
    assert abs(math.exp(log_norm_delta(TAU)) - inv.norm_delta) / inv.norm_delta < 1e-12


def test_log_norm_delta_far_in_the_cusp():
    # products underflow around Im tau ~ 60; the log route must not
    tau = TauPoint(0.0, 200.0)
    val = log_norm_delta(tau)
    assert math.isfinite(val)
    assert abs(val - (6 * math.log(200.0) - 2 * PI * 200.0)) < 1e-6


@pytest.mark.parametrize("im", [130.0, 3000.0])
def test_invariants_far_in_the_cusp_raise_a_named_error(im):
    # norm_delta = exp(log_norm_delta) is no longer a normal double here
    with pytest.raises(ArithmeticError, match="log_norm_delta = -"):
        invariants(TauPoint(0.0, im))


@pytest.mark.parametrize("fn,im,log_name", [(delta, 113.0, "log|delta|"),
                                             (delta, 120.0, "log|delta|"),
                                             (eta, 2800.0, "log|eta|")])
def test_eta_and_delta_raise_instead_of_a_silent_zero(fn, im, log_name):
    # |delta| and |eta| are subnormal or 0 here; tau is not reduced
    with pytest.raises(ArithmeticError, match=f"{re.escape(log_name)} = -"):
        fn(TauPoint(0.0, im))


def test_surface_invariants_validated():
    from ellgreen.modular import SurfaceInvariants

    with pytest.raises(ValueError):
        SurfaceInvariants(norm_eta=1.0, norm_delta=2.0, omega_norm=0.1)
    with pytest.raises(ValueError):
        SurfaceInvariants(norm_eta=-1.0, norm_delta=1.0, omega_norm=0.1)


# ---------------------------------------------------------------------------
# one point, one loop: the same bits as the row form
# ---------------------------------------------------------------------------

def one_point(c, d, tau, tol, deriv):
    return _shifted_sum(c, d, _series(tau, tol), deriv)


def row_form(c, d, tau, tol, deriv):
    # (n0, lead, scaled sum) from a weight row and a phase row; for theta'
    # each term is weighted by n0 + k and the centre is n0
    series = _series(tau, tol)
    n0, lead, weights = _weight_row(d, series)
    phases = _phase_row(c, series)
    if not deriv:
        return n0, lead, _scaled_sum(weights, phases)
    half = len(weights) // 2
    ns = [*range(n0 + 1, n0 + half + 1), *range(n0 - 1, n0 - half - 1, -1)]
    return n0, lead, n0 + sum(map(mul, [n * w for n, w in zip(ns, weights)], phases))


def outcome(form, *args):
    try:
        return form(*args)
    except SeriesConvergenceError as exc:
        return str(exc)


@given(st.floats(-3.0, 3.0), st.floats(math.log(3e-3), math.log(3000.0)).map(math.exp),
       st.floats(-3.0, 3.0), st.floats(-3.0, 3.0),
       st.sampled_from([DEFAULT_TOL, SeriesTolerance(1e-15, 512), SeriesTolerance(1e-6, 64)]),
       st.booleans())
@settings(max_examples=400)
def test_one_point_sum_is_the_row_form_bit_for_bit(re_tau, im_tau, c, d, tol, deriv):
    # == on n0, the lead and the scaled sum, or the same window error
    tau = TauPoint(re_tau, im_tau)
    assert outcome(one_point, c, d, tau, tol, deriv) == outcome(row_form, c, d, tau, tol, deriv)


def test_one_point_sum_raises_the_row_form_errors():
    # theta's window at Im tau = 1e-4 needs 598 terms
    tau = TauPoint(0.1, 1e-4)
    with pytest.raises(SeriesConvergenceError) as rows:
        _series(tau, DEFAULT_TOL)
    assert "needs 598 terms" in str(rows.value)
    with pytest.raises(SeriesConvergenceError, match=f"^{re.escape(str(rows.value))}$"):
        theta(0.1, tau)
    # (1/2, 1/2) is the zero of theta
    tau = TauPoint(0.1, 1.3)
    series = _series(tau, DEFAULT_TOL)
    with pytest.raises(ArithmeticError) as rows:
        log_abs_theta_shifted(_weight_row(0.5, series), _phase_row(0.5, series))
    with pytest.raises(ArithmeticError, match=f"^{re.escape(str(rows.value))}$"):
        log_norm_theta(TorusPoint(0.5, 0.5), tau)


ONE_POINT_CALLS = {
    "green": lambda: green(TAU, TorusPoint(0.3, 0.2)),
    "green_mean_integral": lambda: green_mean_integral(TAU, 16),
    "a_invariant_adjunction_check": lambda: a_invariant_adjunction_check(TAU),
    "theta": lambda: theta(0.3 + 0.1j, TAU),
    "theta_dz": lambda: theta_dz(0.3 + 0.1j, TAU),
    "norm_theta": lambda: norm_theta(TorusPoint(0.3, 0.2), TAU),
    "log_norm_theta": lambda: log_norm_theta(TorusPoint(0.3, 0.2), TAU),
    # one cyclic group: an isogeny's kernel, and the n = 2 table's single pairs
    "energy": lambda: energy(quotient(TAU, CyclicSubgroup(12, 1, 0))),
    "two_torsion_green_check": lambda: two_torsion_green_check(TAU),
}


@pytest.mark.parametrize("name", ONE_POINT_CALLS)
def test_one_point_calls_build_no_rows(name, count_calls):
    counts = count_calls(_weight_row, _phase_row)
    ONE_POINT_CALLS[name]()
    assert (counts["_weight_row"], counts["_phase_row"]) == (0, 0)
