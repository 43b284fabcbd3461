import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ellgreen.lattice import (
    CyclicSubgroup,
    TauPoint,
    TorusPoint,
    cyclic_subgroups,
    exact_order_points,
    mobius,
    mult_by_n_kernel,
    multiplication_isogeny,
    quotient,
    reduce_tau,
    subgroup_points,
    transport_point,
)
from ellgreen.modular import delta


# ---------------------------------------------------------------------------
# brute-force oracle: cyclic subgroups as explicit point sets of (Z/n)^2
# ---------------------------------------------------------------------------

def brute_force_subgroup_sets(n):
    seen = set()
    for u in range(n):
        for v in range(n):
            pts = frozenset(((k * u) % n, (k * v) % n) for k in range(n))
            if len(pts) == n:  # generator has exact order n
                seen.add(pts)
    return seen


def as_point_set(sub):
    n = sub.order
    return frozenset((int(p.a * n), int(p.b * n)) for p in subgroup_points(sub))


# ---------------------------------------------------------------------------
# TauPoint / TorusPoint basics
# ---------------------------------------------------------------------------

def test_tau_point_rejects_lower_half_plane():
    with pytest.raises(ValueError):
        TauPoint(0.0, -1.0)
    with pytest.raises(ValueError):
        TauPoint(0.0, 0.0)
    with pytest.raises(ValueError):
        TauPoint(math.nan, 1.0)


def test_torus_point_reduces_mod_one():
    p = TorusPoint(Fraction(5, 4), Fraction(-1, 4))
    assert p.a == Fraction(1, 4)
    assert p.b == Fraction(3, 4)
    assert TorusPoint(1.25, -0.25).a == 0.25


def test_torus_point_float_coordinates_stay_below_one():
    # float % 1 rounds tiny negative coordinates up to 1.0
    assert TorusPoint(-1e-20, 0.0).a == 0.0
    p = TorusPoint(-1e-17, -1e-300)
    assert (p.a, p.b) == (0.0, 0.0)
    assert p.is_zero


def test_torus_point_zero_and_arithmetic():
    zero = TorusPoint(0, 0)
    assert zero.is_zero
    p = TorusPoint(Fraction(1, 3), Fraction(2, 3))
    assert (p + (-p)).is_zero
    assert (p - p).is_zero
    assert p.scaled(3).is_zero


@given(st.floats(0, 0.999), st.floats(0, 0.999))
@settings(max_examples=50, deadline=None)
def test_torus_point_translation_invariance(a, b):
    assert TorusPoint(a + 1.0, b) == TorusPoint(a, b) or \
        abs(TorusPoint(a + 1.0, b).a - a) < 1e-12


# ---------------------------------------------------------------------------
# reduce_tau
# ---------------------------------------------------------------------------

def test_reduce_tau_identity_on_i():
    red, mat = reduce_tau(TauPoint(0.0, 1.0))
    assert red == TauPoint(0.0, 1.0)
    assert mat == ((1, 0), (0, 1))


def test_reduce_tau_integer_translation():
    red, mat = reduce_tau(TauPoint(5.0, 1.0))
    assert red == TauPoint(0.0, 1.0)
    assert mat == ((1, -5), (0, 1))


def test_reduce_tau_generic_point_norm_delta_oracle():
    # oracle: (Im tau)^6 |delta(tau)| is invariant under the modular group,
    # with both sides evaluated by the direct q-product
    tau = TauPoint(0.3, 0.4)
    red, mat = reduce_tau(tau)
    assert abs(red.re) <= 0.5 + 1e-15
    assert red.re ** 2 + red.im ** 2 >= 1.0 - 1e-15
    lhs = tau.im ** 6 * abs(delta(tau))
    rhs = red.im ** 6 * abs(delta(red))
    assert abs(lhs - rhs) / rhs < 1e-11


def test_reduce_tau_matrix_is_mobius_map():
    tau = TauPoint(0.7, 0.2)
    red, mat = reduce_tau(tau)
    assert abs(mobius(mat, tau.z) - red.z) < 1e-12
    (ma, mb), (mc, md) = mat
    assert ma * md - mb * mc == 1


def test_reduce_tau_boundary_ties():
    # the edge Re = -1/2 maps to Re = +1/2
    red, _ = reduce_tau(TauPoint(-0.5, 2.0))
    assert red.re == 0.5 and red.im == 2.0
    # a point reaching the unit circle with Re < 0 flips to Re > 0:
    # -0.6 + 0.8i lands on -0.5 + i after one translation and inversion
    red, mat = reduce_tau(TauPoint(-0.6, 0.8))
    assert abs(red.z - (0.5 + 1.0j)) < 1e-15
    assert abs(mobius(mat, complex(-0.6, 0.8)) - red.z) < 1e-12


@given(st.floats(-4.0, 4.0), st.floats(0.05, 10.0))
@settings(max_examples=100, deadline=None)
def test_reduce_tau_idempotent(re, im):
    red, _ = reduce_tau(TauPoint(re, im))
    again, mat = reduce_tau(red)
    assert again == red
    assert mat == ((1, 0), (0, 1))


def test_transport_point_round_trips_under_translation():
    # tau -> tau + 1 sends (a, b) to (a - b, b)
    moved = transport_point(TorusPoint(Fraction(1, 4), Fraction(1, 2)), ((1, 1), (0, 1)))
    assert moved == TorusPoint(Fraction(3, 4), Fraction(1, 2))


# ---------------------------------------------------------------------------
# cyclic subgroups
# ---------------------------------------------------------------------------

def test_cyclic_subgroups_trivial():
    subs = cyclic_subgroups(1)
    assert len(subs) == 1
    assert subs[0].points() == [TorusPoint(0, 0)]


@pytest.mark.parametrize("n,count", [(2, 3), (3, 4), (4, 6), (6, 12), (12, 24)])
def test_cyclic_subgroup_counts_frozen(n, count):
    # counts computed by the brute-force oracle above
    assert len(cyclic_subgroups(n)) == count


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_cyclic_subgroups_match_brute_force(n):
    subs = cyclic_subgroups(n)
    sets = {as_point_set(s) for s in subs}
    brute = brute_force_subgroup_sets(n)
    assert len(subs) == len(sets) == len(brute)
    assert sets == brute


def test_cyclic_subgroup_canonical_generator_is_stable():
    # any generator of the same subgroup canonicalises identically
    a = CyclicSubgroup(12, 5, 3)
    b = CyclicSubgroup(12, (5 * 5) % 12, (5 * 3) % 12)  # 5 is a unit mod 12
    assert a == b
    assert a.v % a.order == a.v and (a.v == 0 or a.order % a.v == 0)


def test_cyclic_subgroup_rejects_non_generator():
    with pytest.raises(ValueError):
        CyclicSubgroup(4, 2, 0)  # (2, 0) has order 2, not 4
    with pytest.raises(ValueError):
        CyclicSubgroup(0, 0, 0)


@pytest.mark.parametrize("n", list(range(1, 25)))
def test_containment_counts(n):
    # every order-m subgroup lies in exactly e_n/e_m order-n subgroups
    from ellgreen.heights import cyclic_subgroup_count

    big = [set(subgroup_points(sub)) for sub in cyclic_subgroups(n)]
    for m in range(1, n + 1):
        if n % m:
            continue
        expected = cyclic_subgroup_count(n) // cyclic_subgroup_count(m)
        for small in cyclic_subgroups(m):
            pts = set(subgroup_points(small))
            assert sum(1 for b in big if pts <= b) == expected


# ---------------------------------------------------------------------------
# torsion point enumerations
# ---------------------------------------------------------------------------

def test_subgroup_points_examples():
    assert subgroup_points(CyclicSubgroup(2, 1, 0)) == [
        TorusPoint(0, 0), TorusPoint(Fraction(1, 2), 0)
    ]
    assert subgroup_points(CyclicSubgroup(3, 0, 1)) == [
        TorusPoint(0, 0), TorusPoint(0, Fraction(1, 3)), TorusPoint(0, Fraction(2, 3))
    ]


@pytest.mark.parametrize("n", [1, 2, 5, 8, 12])
def test_subgroup_points_are_distinct(n):
    for sub in cyclic_subgroups(n):
        pts = subgroup_points(sub)
        assert len(set(pts)) == n


@pytest.mark.parametrize("m,count", [(1, 1), (2, 3), (6, 24)])
def test_exact_order_point_counts(m, count):
    # brute-force counts over (Z/m)^2
    assert len(exact_order_points(m)) == count


def test_mult_by_n_kernel_counts():
    for n in (1, 2, 5):
        assert len(mult_by_n_kernel(n)) == n * n


@pytest.mark.parametrize("n", [1, 2, 6, 12])
def test_exact_order_partition(n):
    # kernel of multiplication by n is the disjoint union of the exact-order
    # points over divisors of n
    union = []
    for m in range(1, n + 1):
        if n % m == 0:
            union.extend(exact_order_points(m))
    assert len(union) == n * n
    assert set(union) == set(mult_by_n_kernel(n))


# ---------------------------------------------------------------------------
# quotients and isogenies
# ---------------------------------------------------------------------------

def test_quotient_trivial_subgroup():
    tau = TauPoint(0.3, 0.4)
    iso = quotient(tau, CyclicSubgroup(1, 0, 0))
    red, mat = reduce_tau(tau)
    assert iso.target == red
    assert iso.degree == 1
    assert iso.kernel == (TorusPoint(0, 0),)


def test_quotient_hand_computed_example():
    # kernel <(1/2, 0)> on the square torus gives the superlattice
    # Z*(1/2) + Z*i, i.e. target 2i and scale 2
    iso = quotient(TauPoint(0.0, 1.0), CyclicSubgroup(2, 1, 0))
    assert iso.target == TauPoint(0.0, 2.0)
    assert abs(iso.scale - 2.0) < 1e-14


def test_quotient_volume_ratio_is_degree():
    # vol(source lattice)/vol(target superlattice) = degree; in terms of the
    # normalised target, vol = Im(tau')/|scale|^2
    for n in (2, 3, 6, 8):
        for sub in cyclic_subgroups(n):
            tau = TauPoint(0.21, 1.73)
            iso = quotient(tau, sub)
            vol_ratio = tau.im * abs(iso.scale) ** 2 / iso.target.im
            assert abs(vol_ratio - n) < 1e-9 * n


def test_quotient_kernel_maps_to_lattice_points():
    tau = TauPoint(-0.4, 1.9)
    for sub in cyclic_subgroups(6):
        iso = quotient(tau, sub)
        for p in iso.kernel:
            image = iso.scale * p.to_complex(tau)
            b = image.imag / iso.target.im
            a = image.real - b * iso.target.re
            assert abs(a - round(a)) < 1e-9
            assert abs(b - round(b)) < 1e-9


def test_coordinate_matrix_and_fiber():
    tau = TauPoint(0.1, 1.4)
    iso = quotient(tau, CyclicSubgroup(4, 1, 2))
    (t11, t12), (t21, t22) = iso.coordinate_matrix()
    assert t11 * t22 - t12 * t21 == 4
    w = TorusPoint(Fraction(1, 3), Fraction(2, 7))
    fiber = iso.fiber(w)
    assert len(fiber) == 4
    for q in fiber:
        assert iso.apply(q) == w


def test_multiplication_isogeny_is_group_hom():
    tau = TauPoint(0.2, 1.1)
    iso = multiplication_isogeny(tau, 3)
    assert iso.degree == 9
    assert iso.apply(TorusPoint(Fraction(1, 3), Fraction(2, 3))).is_zero
    assert iso.apply(TorusPoint(Fraction(1, 6), 0)) == TorusPoint(Fraction(1, 2), 0)


def test_isogeny_rejects_inconsistent_scale():
    from ellgreen.lattice import Isogeny

    tau = TauPoint(0.0, 1.0)
    with pytest.raises(ValueError, match="integer matrix entry"):
        Isogeny(source=tau, target=tau, degree=1, scale=1.3 + 0.2j)
    with pytest.raises(ValueError, match="determinant 1 != degree 2"):
        Isogeny(source=tau, target=tau, degree=2, scale=1.0)


@pytest.mark.parametrize("tau", [TauPoint(0.21, 1.73), TauPoint(0.73, 0.11)],
                         ids=["reduced", "unreduced"])
def test_isogeny_kernel_is_derived_from_its_matrix(tau):
    for n in range(1, 31):
        for sub in cyclic_subgroups(n):
            kernel = quotient(tau, sub).kernel
            assert len(set(kernel)) == n
            assert set(kernel) == set(subgroup_points(sub))
            assert kernel[0].is_zero
    for n in range(1, 7):
        assert set(multiplication_isogeny(tau, n).kernel) == set(mult_by_n_kernel(n))


def test_quotient_targets_satisfy_modular_polynomial(rng):
    # classical degree-2 modular polynomial: the j-invariants of a torus and
    # of its quotient by any order-2 subgroup are a root pair; j evaluated
    # with mpmath, so the whole check is external to this package
    import mpmath as mp

    mp.mp.dps = 30

    def phi2(x, y):
        return (x ** 3 + y ** 3 - x ** 2 * y ** 2
                + 1488 * (x ** 2 * y + x * y ** 2)
                - 162000 * (x ** 2 + y ** 2)
                + 40773375 * x * y
                + 8748000000 * (x + y)
                - 157464000000000)

    for _ in range(4):
        tau = TauPoint(rng.uniform(-0.45, 0.45), rng.uniform(0.95, 2.2))
        for sub in cyclic_subgroups(2):
            iso = quotient(tau, sub)
            j1 = mp.mpc(1728) * mp.kleinj(mp.mpc(tau.z))
            j2 = mp.mpc(1728) * mp.kleinj(mp.mpc(iso.target.z))
            scale = max(abs(j1), abs(j2), mp.mpf(1)) ** 3
            assert abs(phi2(j1, j2)) / scale < 1e-10
