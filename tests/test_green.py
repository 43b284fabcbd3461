import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellgreen.green import (
    GreenValue,
    _log_green_unreduced,
    a_invariant_adjunction_check,
    energy,
    energy_via_a,
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
    cyclic_subgroups,
    multiplication_isogeny,
    quotient,
    transport_point,
)
from ellgreen.modular import DEFAULT_TOL

TAU = TauPoint(0.13, 1.32)


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
@settings(max_examples=200, deadline=None)
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
    raw = _log_green_unreduced(tau, 0.25, 0.6, DEFAULT_TOL)
    assert abs(raw - green(tau, p).log_value) < 1e-9


@pytest.mark.parametrize("n", range(1, 13))
def test_torsion_product_equals_order(n, sample_taus):
    for tau in sample_taus[:3]:
        assert abs(torsion_product(tau, n) - n) / n < 1e-8


def test_torsion_product_rejects_bad_order():
    with pytest.raises(ValueError):
        torsion_product(TAU, 0)


def test_torsion_product_raises_when_theta_underflows():
    # at Im tau = 1000 the theta sum at (1/2, 0) underflows to 0; a nonzero
    # point is never a zero of G, so the product must not read 0
    with pytest.raises(ArithmeticError, match="underflowed"):
        torsion_product(TauPoint(0.0, 1000.0), 2)


def test_overflowing_green_raises_a_named_error():
    # log G(0, tau/2) = pi * Im tau / 12 passes log(max double) ~ 709.78 near
    # Im tau = 2711; the error must name log G and the reduced Im tau rather
    # than be a bare "math range error"
    tau = TauPoint(0.0, 3000.0)
    named = r"log G = 785\.39.* at reduced Im tau = 3000\.0"
    with pytest.raises(ArithmeticError, match=named):
        green(tau, TorusPoint(0, Fraction(1, 2)))
    with pytest.raises(ArithmeticError, match=named):
        energy(quotient(tau, CyclicSubgroup(2, 0, 1)))
    with pytest.raises(ArithmeticError, match=r"log G = 710\.0"):
        GreenValue.from_log(710.0)


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


def test_energy_via_a_matches_predicted():
    for sub in cyclic_subgroups(3):
        iso = quotient(TauPoint(0.0, 2.0), sub)
        _, predicted = energy(iso)
        assert abs(energy_via_a(iso) - predicted) / predicted < 1e-12


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


def test_mean_integral_rejects_small_grid():
    with pytest.raises(ValueError):
        green_mean_integral(TAU, 8)


def test_mean_integral_converges_to_zero():
    values = [abs(green_mean_integral(TAU, m)) for m in (64, 128, 256)]
    assert values[-1] < 1e-3
    assert values[2] < values[1] < values[0]


def test_mean_integral_matches_scalar_quadrature():
    # oracle: the same midpoint sum assembled point by point from green(),
    # which goes through the adaptive scalar series instead of the batched
    # fixed-window kernel
    m = 16
    tau = TauPoint(0.4, 1.9)
    total = math.fsum(
        green(tau, TorusPoint((i + 0.5) / m, (j + 0.5) / m)).log_value
        for i in range(m)
        for j in range(m)
    )
    assert abs(green_mean_integral(tau, m) - total / (m * m)) < 1e-11


def test_green_value_validated():
    with pytest.raises(ValueError):
        GreenValue(0.0, 0.0)  # zero must carry the -inf sentinel
    with pytest.raises(ValueError):
        GreenValue(1.0, 5.0)  # log_value disagrees


def test_green_against_mpmath(rng):
    # assemble the defining formula in 30-digit arithmetic as an oracle
    import mpmath as mp

    mp.mp.dps = 30
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
