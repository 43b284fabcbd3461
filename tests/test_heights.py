import math
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from ellgreen.heights import (
    CurveHeightInput,
    average_green_over_cyclic,
    average_height_increment,
    cyclic_log_green_constant,
    cyclic_subgroup_count,
    exact_order_log_green,
    exact_order_log_green_expected,
    faltings_height,
)
from ellgreen.green import (
    Torus,
    a_invariant_adjunction_check,
    energy,
    green,
    green_mean_integral,
    green_projection_check,
    torsion_product,
)
from ellgreen.lattice import (
    CyclicSubgroup,
    Isogeny,
    TauPoint,
    TorusPoint,
    _kernel_pairs,
    _quotient_target,
    cyclic_subgroups,
    exact_order_points,
    mult_by_n_kernel,
    multiplication_isogeny,
    quotient,
    reduce_tau,
    subgroup_points,
)
from ellgreen.modular import (DEFAULT_TOL, SeriesTolerance, _log_abs_eta, _series, _shifted_sum,
                              invariants, log_abs_theta_shifted, log_norm_delta, log_norm_eta)
from ellgreen.weierstrass import two_torsion_green_check

TAU = TauPoint(0.13, 1.32)


# ---------------------------------------------------------------------------
# arithmetic constants
# ---------------------------------------------------------------------------

def brute_force_count(n):
    seen = set()
    for u in range(n):
        for v in range(n):
            pts = frozenset(((k * u) % n, (k * v) % n) for k in range(n))
            if len(pts) == n:
                seen.add(pts)
    return len(seen)


@pytest.mark.parametrize("n", list(range(1, 31)))
def test_subgroup_count_formula_vs_brute_force(n):
    assert cyclic_subgroup_count(n) == brute_force_count(n)


def test_subgroup_count_examples():
    assert cyclic_subgroup_count(1) == 1
    assert cyclic_subgroup_count(2) == 3
    assert cyclic_subgroup_count(12) == 24


def test_log_green_constant_values():
    assert cyclic_log_green_constant(1) == 0.0
    assert abs(cyclic_log_green_constant(2) - math.log(2) / 3) < 1e-15
    assert abs(cyclic_log_green_constant(4) - math.log(2) / 2) < 1e-15


@given(st.integers(1, 40), st.integers(1, 40))
@settings(max_examples=80)
def test_log_green_constant_additive_over_coprime(m, n):
    if gcd(m, n) != 1:
        return
    lhs = cyclic_log_green_constant(m * n)
    rhs = cyclic_log_green_constant(m) + cyclic_log_green_constant(n)
    assert abs(lhs - rhs) < 1e-14


def test_exact_order_log_green_expected_values():
    assert abs(exact_order_log_green_expected(8) - math.log(2)) < 1e-15
    assert exact_order_log_green_expected(6) == 0.0
    assert exact_order_log_green_expected(1) == 0.0
    assert abs(exact_order_log_green_expected(27) - math.log(3)) < 1e-15


@pytest.mark.parametrize("n", list(range(1, 61)))
def test_expected_sums_telescope_to_log(n):
    total = math.fsum(
        exact_order_log_green_expected(m) for m in range(2, n + 1) if n % m == 0
    )
    assert abs(total - math.log(n)) < 1e-12


def test_average_height_increment_values():
    assert average_height_increment(1) == 0.0
    assert abs(average_height_increment(2) - math.log(2) / 6) < 1e-15
    for p in (3, 5, 7, 11):
        expected = (0.5 - 1.0 / (p + 1)) * math.log(p)
        assert abs(average_height_increment(p) - expected) < 1e-14
    for n in (0, -3):  # checked before log n: no "math domain error"
        with pytest.raises(ValueError, match=f"^n must be an int >= 1, got {n}$"):
            average_height_increment(n)


# ---------------------------------------------------------------------------
# numeric torsion sums
# ---------------------------------------------------------------------------

def test_exact_order_log_green_trivial():
    assert exact_order_log_green(TAU, 1) == 0.0


@pytest.mark.parametrize("m", list(range(2, 13)))
def test_exact_order_log_green_matches_closed_form(m):
    value = exact_order_log_green(TAU, m)
    assert abs(value - exact_order_log_green_expected(m)) < 1e-8


def test_exact_order_log_green_other_tau():
    tau = TauPoint(0.3, 1.1)
    assert abs(exact_order_log_green(tau, 6)) < 1e-8
    assert abs(exact_order_log_green(tau, 4) - math.log(2)) < 1e-8


# ---------------------------------------------------------------------------
# averaged identities
# ---------------------------------------------------------------------------

def test_average_trivial_order():
    report = average_green_over_cyclic(TAU, 1)
    assert report.green_average == 0.0
    assert report.green_predicted == 0.0
    assert abs(report.delta_average) < 1e-12
    assert report.delta_predicted == 0.0


def test_average_order_two():
    report = average_green_over_cyclic(TauPoint(0.0, 1.0), 2)
    assert abs(report.green_average - math.log(2) / 3) < 1e-8
    assert report.green_residual < 1e-8
    assert report.delta_residual < 1e-8


@pytest.mark.parametrize("n", range(1, 13))
def test_average_identities_up_to_twelve(n):
    report = average_green_over_cyclic(TAU, n)
    assert report.green_residual < 1e-7
    assert report.delta_residual < 1e-7


def test_per_subgroup_telescoping():
    # for each subgroup: (1/12)(log||delta|| - log||delta||_quotient)
    #                  = (1/2) log N - sum of log G over the nonzero kernel
    n = 6
    log_delta_src = log_norm_delta(TAU)
    for sub in cyclic_subgroups(n):
        iso = quotient(TAU, sub)
        lhs = (log_delta_src - log_norm_delta(iso.target)) / 12.0
        kernel_sum = math.fsum(
            green(TAU, p).log_value for p in subgroup_points(sub) if not p.is_zero
        )
        rhs = 0.5 * math.log(n) - kernel_sum
        assert abs(lhs - rhs) < 1e-8


# ---------------------------------------------------------------------------
# Faltings height
# ---------------------------------------------------------------------------

# an order or grid that is not an int, or is a bool: each was a raw TypeError,
# a float-degree isogeny, a float count, a number, or (True) a product of 1.0
NON_INT_ORDERS = {
    "torsion_product": lambda: torsion_product(TAU, 2.0),
    "torsion_product-bool": lambda: torsion_product(TAU, True),
    "exact_order_log_green": lambda: exact_order_log_green(TAU, 3.0),
    "average_green_over_cyclic": lambda: average_green_over_cyclic(TAU, 2.0),
    "cyclic_subgroups": lambda: cyclic_subgroups(2.0),
    "CyclicSubgroup": lambda: CyclicSubgroup(2.0, 1, 0),
    "multiplication_isogeny": lambda: multiplication_isogeny(TAU, 2.0),
    "cyclic_subgroup_count": lambda: cyclic_subgroup_count(2.0),
    "green_mean_integral": lambda: green_mean_integral(TAU, 16.5),
}


@pytest.mark.parametrize("name", NON_INT_ORDERS)
def test_orders_that_are_no_int_raise_value_error(name):
    with pytest.raises(ValueError, match=r"must be an int >= (1|16), got (2\.0|True|3\.0|16\.5)$"):
        NON_INT_ORDERS[name]()


def test_height_input_validation():
    with pytest.raises(ValueError):
        CurveHeightInput(0, 0.0, (TAU,))
    with pytest.raises(ValueError):
        CurveHeightInput(1, -1.0, (TAU,))
    with pytest.raises(ValueError):
        CurveHeightInput(1, 0.0, ())


@pytest.mark.parametrize("degree,log_norm", [(1.5, 0.0), (2.0, 0.0), (True, 0.0), ("1", 0.0),
                                             (1, math.nan), (1, math.inf)])
def test_height_input_rejects_non_integer_degree_and_non_finite_log_norm(degree, log_norm):
    with pytest.raises(ValueError, match="integer >= 1|finite and >= 0"):
        CurveHeightInput(degree, log_norm, (TAU,))


def test_height_single_embedding_formula():
    inp = CurveHeightInput(1, 0.0, (TAU,))
    expected = -(12 * math.log(2 * math.pi) + log_norm_delta(TAU)) / 12.0
    assert abs(faltings_height(inp) - expected) < 1e-14


def test_height_degree_homogeneity():
    single = faltings_height(CurveHeightInput(1, 2.5, (TAU,)))
    double = faltings_height(CurveHeightInput(2, 5.0, (TAU, TAU)))
    assert abs(single - double) < 1e-15


def test_height_at_square_lattice_against_gamma_quarter():
    # closed form: |eta(i)| = Gamma(1/4) / (2 pi^(3/4)), so the height is
    # -log(2 pi) - 2 log|eta(i)|; an oracle independent of the q-series
    eta_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    expected = -math.log(2.0 * math.pi) - 2.0 * math.log(eta_i)
    value = faltings_height(CurveHeightInput(1, 0.0, (TauPoint(0.0, 1.0),)))
    assert abs(value - expected) < 1e-10


def test_height_tightened_tolerance_stable():
    inp = CurveHeightInput(1, 0.0, (TauPoint(0.0, 1.0),))
    a = faltings_height(inp)
    b = faltings_height(inp, SeriesTolerance(rel_tol=1e-15))
    assert abs(a - b) < 1e-10


def test_height_multi_embedding_average():
    taus = (TauPoint(0.0, 1.0), TauPoint(0.2, 1.4), TauPoint(-0.3, 2.2))
    inp = CurveHeightInput(3, 4.2, taus)
    parts = [
        faltings_height(CurveHeightInput(1, 1.4, (t,))) for t in taus
    ]
    assert abs(faltings_height(inp) - math.fsum(parts) / 3.0) < 1e-14


# ---------------------------------------------------------------------------
# kernel sums against the per-point loop they replaced
# ---------------------------------------------------------------------------

# TAU moved by the word z -> -1/(z + 2), z -> -1/(z - 1): about 0.73 + 0.11i
UNREDUCED_TAU = TauPoint.from_complex(-1 / (-1 / (TAU.z + 2) - 1))


def plus_minus_representative(p, n):
    # min(P, -P) in integer pairs: the point at which the kernel sums evaluate
    # the class of P
    i, j = int(p.a * n), int(p.b * n)
    i, j = min((i, j), (-i % n, -j % n))
    return TorusPoint(Fraction(i, n), Fraction(j, n))


def per_point_logs(tau, points, n=None):
    # log G at each nonzero point, or at its +-P representative when n is given
    if n is not None:
        points = [plus_minus_representative(p, n) for p in points]
    return [green(tau, p).log_value for p in points if not p.is_zero]


@pytest.mark.parametrize("n", [*range(1, 13), 24])
@pytest.mark.parametrize("tau", [TAU, UNREDUCED_TAU], ids=["reduced", "unreduced"])
def test_kernel_sums_equal_per_point_loop(tau, n):
    # one log G per +-P class moves the sums off the per-point loop in the
    # last bits only: 1e-13 relative to the size of the summands (a log sum
    # may cancel to ~0) and 1e-13 relative on the products
    def sum_close(total, logs):
        return abs(total - math.fsum(logs)) <= 1e-13 * max(1.0, math.fsum(map(abs, logs)))

    def product_close(product, logs):
        expected = math.exp(math.fsum(logs))
        return abs(product - expected) <= 1e-13 * expected

    assert product_close(torsion_product(tau, n), per_point_logs(tau, mult_by_n_kernel(n)))
    assert sum_close(exact_order_log_green(tau, n), per_point_logs(tau, exact_order_points(n)))
    sums, drops = [], []
    for sub in cyclic_subgroups(n):
        iso = quotient(tau, sub)
        assert product_close(energy(iso)[0], per_point_logs(tau, iso.kernel))
        sums.append(math.fsum(per_point_logs(tau, subgroup_points(sub))))
        drops.append((log_norm_delta(tau) - log_norm_delta(iso.target)) / 12.0)
    report = average_green_over_cyclic(tau, n)
    assert abs(report.green_average - math.fsum(sums) / len(sums)) <= 1e-13 * max(
        1.0, math.fsum(map(abs, sums)) / len(sums))
    assert report.delta_average == math.fsum(drops) / len(drops)


@pytest.mark.parametrize("n", [*range(1, 13), 24])
def test_kernel_sums_equal_green_at_plus_minus_representatives(n):
    # at the reduced TAU no pair moves, so each class's log G is green() at
    # min(P, -P) bit for bit
    def reps(points):
        return math.fsum(per_point_logs(TAU, points, n))

    assert torsion_product(TAU, n) == math.exp(reps(mult_by_n_kernel(n)))
    assert exact_order_log_green(TAU, n) == reps(exact_order_points(n))
    subs = cyclic_subgroups(n)
    for sub in subs:
        assert energy(quotient(TAU, sub))[0] == math.exp(reps(quotient(TAU, sub).kernel))
    sums = [reps(subgroup_points(sub)) for sub in subs]
    assert average_green_over_cyclic(TAU, n).green_average == math.fsum(sums) / len(sums)


@pytest.mark.parametrize("n", [2, 6, 12, 24])
@pytest.mark.parametrize("tau", [TAU, UNREDUCED_TAU], ids=["reduced", "unreduced"])
def test_shared_table_sums_equal_one_list_calls(tau, n):
    # a sum depends on its own group only, not on the groups sharing the table
    subs = cyclic_subgroups(n)
    def sums(subs):
        torus = Torus(tau, DEFAULT_TOL)
        return torus.log_green_sums(n, [torus.walk(n, sub.u, sub.v) for sub in subs])

    alone = [sums([sub])[0] for sub in subs]
    assert sums(subs) == alone
    assert sums(subs[::-1])[::-1] == alone


@pytest.mark.parametrize("tau", [TAU, UNREDUCED_TAU], ids=["reduced", "unreduced"])
def test_one_record_serves_criteria_2_3_5_and_6_in_any_order(tau):
    # run_checks hands one Torus record per tau to the torsion (2), kernel
    # (3), subgroup (5) and exact-order (6) sums at N <= 12: in any call order,
    # each call's sums equal (==) those from a fresh record
    calls, torus = [], Torus(tau, DEFAULT_TOL)  # the class lists depend on tau alone
    for n in range(1, 13):
        subs = cyclic_subgroups(n)
        kernels = [quotient(tau, sub).coordinate_matrix() for sub in subs]
        calls += [
            (n, [torus.torsion_classes(n)]),
            (n, [torus.kernel_classes(t, n) for t in kernels]),
            (n, [torus.walk(n, sub.u, sub.v) for sub in subs]),
            (n, [torus.torsion_classes(n, exact_order=True)]),
        ]
    fresh = [Torus(tau, DEFAULT_TOL).log_green_sums(n, lists) for n, lists in calls]
    in_order = list(range(len(calls)))
    for order in (in_order, in_order[::-1], random.Random(5).sample(in_order, len(calls))):
        shared = Torus(tau, DEFAULT_TOL)
        for k in order:
            n, lists = calls[k]
            assert shared.log_green_sums(n, lists) == fresh[k]
    # the methods on one record equal the public functions, each on its own
    shared = Torus(tau, DEFAULT_TOL)
    for n in range(12, 0, -1):
        isos = [quotient(tau, sub) for sub in cyclic_subgroups(n)]
        assert shared.exact_order_log_green(n) == exact_order_log_green(tau, n)
        assert shared.average_green_over_cyclic(n) == average_green_over_cyclic(tau, n)
        assert shared.energies(n) == [energy(iso) for iso in isos]
        assert shared.torsion_product(n) == torsion_product(tau, n)


def test_a_record_keeps_only_finished_log_green_values():
    # weight and phase rows live for one request: after each, every n-table maps
    # the int a*n + b to the float log G(0, (a + b*red)/n), and the private state
    # holds nothing else: the tables, the series constants and, per cyclic quotient,
    # its kernel's log G sum and its target's log||eta|| (no subgroup, no matrix)
    torus = Torus(UNREDUCED_TAU, DEFAULT_TOL)
    assert Torus.__slots__[5:] == ("_tables", "_series", "_cyclic")  # the filled state
    for n in (6, 4, 6, 12):
        subs = cyclic_subgroups(n)
        torus.log_green_sums(n, [torus.torsion_classes(n, exact_order=True)])
        torus.log_green_sums(n, [torus.walk(n, sub.u, sub.v) for sub in subs])
        for m, table in torus._tables.items():
            assert all(key.__class__ is int and value.__class__ is float
                       and value == torus.log_green(key // m / m, key % m / m)
                       for key, value in table.items())
    assert torus._series == _series(torus.red, DEFAULT_TOL)
    assert torus._cyclic == {}  # built by energies and average_green_over_cyclic alone
    torus.energies(4)
    isos = [quotient(UNREDUCED_TAU, sub) for sub in cyclic_subgroups(4)]
    fresh = Torus(UNREDUCED_TAU, DEFAULT_TOL)
    assert torus._cyclic == {4: [(fresh.log_green_sums(4, [fresh.kernel_classes(
        iso.coordinate_matrix(), 4)])[0], log_norm_eta(iso.target)) for iso in isos]}
    assert all(value.__class__ is float for pair in torus._cyclic[4] for value in pair)


@pytest.mark.parametrize("first, second", [("energies", "average_green_over_cyclic"),
                                           ("average_green_over_cyclic", "energies")])
def test_energies_and_averages_sum_each_cyclic_kernel_once(first, second, count_calls,
                                                           monkeypatch):
    # both read one list per order, built on the first call: each quotient's
    # target once, and its kernel's +-P classes once, from its matrix (a walk
    # runs only inside kernel_classes); the second call evaluates no theta sum
    counts = count_calls(_quotient_target, log_abs_theta_shifted, _shifted_sum)
    depth, walks = [0], []
    kernel_classes, walk = Torus.kernel_classes, Torus.walk

    def counted_kernel_classes(torus, t, n):
        counts["kernel_classes"] += 1
        depth[0] += 1
        try:
            return kernel_classes(torus, t, n)
        finally:
            depth[0] -= 1

    def counted_walk(torus, n, i, j):
        walks.append(depth[0])
        return walk(torus, n, i, j)

    monkeypatch.setattr(Torus, "kernel_classes", counted_kernel_classes)
    monkeypatch.setattr(Torus, "walk", counted_walk)
    for n in (1, 4, 12):
        torus = Torus(UNREDUCED_TAU, DEFAULT_TOL)
        counts.clear()
        walks.clear()
        getattr(torus, first)(n)
        theta_sums = counts["log_abs_theta_shifted"], counts["_shifted_sum"]
        getattr(torus, second)(n)
        psi = cyclic_subgroup_count(n)
        assert counts["kernel_classes"] == counts["_quotient_target"] == psi
        assert walks == [1] * psi
        assert (counts["log_abs_theta_shifted"], counts["_shifted_sum"]) == theta_sums


def test_kernel_sums_evaluate_one_theta_sum_per_plus_minus_class(count_calls):
    # G(-P) = G(P): a kernel sum evaluates (points + 2-torsion points) / 2
    # shifted theta sums, and average_green_over_cyclic shares them across
    # its subgroups.  Counts are (row form, one-point loop): one kernel (an
    # energy's, cyclic or not) builds no rows
    counts = count_calls(log_abs_theta_shifted, _shifted_sum)

    def count(run):
        counts.clear()
        run()
        return counts["log_abs_theta_shifted"], counts["_shifted_sum"]

    # (575 nonzero points of order dividing 24 + the 3 of order 2) / 2
    assert count(lambda: average_green_over_cyclic(TAU, 24)) == (289, 0)
    assert count(lambda: torsion_product(TAU, 30)) == (451, 0)  # (899 + 3) / 2
    assert count(lambda: energy(quotient(TAU, CyclicSubgroup(12, 1, 0)))) == (0, 6)  # (11 + 1) / 2
    # multiplication by 3 and by 2: kernels with no generator, (8 + 0) / 2 and (3 + 3) / 2
    assert count(lambda: energy(multiplication_isogeny(TAU, 3))) == (0, 4)
    assert count(lambda: energy(multiplication_isogeny(TAU, 2))) == (0, 3)


@pytest.mark.parametrize("tau", [TAU, UNREDUCED_TAU], ids=["reduced", "unreduced"])
def test_one_group_sums_equal_the_sums_from_rows(tau):
    # a kernel sum on a fresh record goes point by point; after a torsion
    # request has filled the n-table from rows it is read from the table
    for n in range(1, 13):
        for sub in cyclic_subgroups(n):
            fresh, filled = Torus(tau, DEFAULT_TOL), Torus(tau, DEFAULT_TOL)
            t = quotient(tau, sub).coordinate_matrix()
            filled.log_green_sums(n, [filled.torsion_classes(n)])
            assert (fresh.log_green_sums(n, [fresh.kernel_classes(t, n)])
                    == filled.log_green_sums(n, [filled.kernel_classes(t, n)]))


@pytest.fixture
def walked(monkeypatch):
    """The generators `Torus.walk` is called with, in order."""
    walk, generators = Torus.walk, []

    def spy(self, n, i, j):
        generators.append((i, j))
        return walk(self, n, i, j)
    monkeypatch.setattr(Torus, "walk", spy)
    return generators


@pytest.mark.parametrize("tau", [TAU, UNREDUCED_TAU], ids=["reduced", "unreduced"])
def test_a_cyclic_kernel_is_walked_from_the_generator_of_its_matrix(tau, walked, moved_classes):
    # the generator read off T generates T's kernel, and its walk files the
    # classes that moving every pair of the group through the reduction files
    torus = Torus(tau, DEFAULT_TOL)
    for n in range(1, 31):
        for sub in cyclic_subgroups(n):
            t = quotient(tau, sub).coordinate_matrix()
            classes = torus.kernel_classes(t, n)
            (i, j), = walked
            walked.clear()
            assert {(k * i % n, k * j % n) for k in range(n)} == set(_kernel_pairs(t, n))
            assert classes == moved_classes(torus, _kernel_pairs(t, n), n)
            pairs = [(int(p.a * n), int(p.b * n)) for p in subgroup_points(sub)]
            assert torus.walk(n, sub.u, sub.v) == moved_classes(torus, pairs, n)
            walked.clear()


def test_a_kernel_with_no_generator_takes_the_pairs_path(walked, moved_classes):
    # multiplication by k, and T = 2*diag(1, 3) (kernel Z/2 x Z/6): no pair
    # has exact order N, and the energy sums each moved kernel pair
    scaled = Isogeny(TAU, TauPoint.from_complex(TAU.z / 3), 12, 2.0)
    assert scaled.coordinate_matrix() == ((2, 0), (0, 6))
    for iso in [multiplication_isogeny(tau, k) for tau in (TAU, UNREDUCED_TAU)
                for k in (2, 3, 4)] + [scaled]:
        n, t = iso.degree, iso.coordinate_matrix()
        torus = Torus(iso.source, DEFAULT_TOL)
        classes = torus.kernel_classes(t, n)
        assert walked == []
        assert classes == moved_classes(torus, _kernel_pairs(t, n), n)
        log_product = torus.log_green_sums(n, [classes])[0]
        assert energy(iso)[0] == math.exp(log_product)
        if iso.source == TAU:  # no pair moves: each class is green() at min(P, -P)
            assert log_product == math.fsum(per_point_logs(TAU, iso.kernel, n))


def test_torsion_and_exact_order_classes_need_no_move(moved_classes):
    # the reduction maps the n-torsion and its points of exact order n onto
    # themselves, so their classes are read off the pairs as they are
    torus = Torus(UNREDUCED_TAU, DEFAULT_TOL)
    assert torus.mat != ((1, 0), (0, 1))
    for n in range(1, 61):
        pairs = [(a, b) for a in range(n) for b in range(n)]
        assert torus.torsion_classes(n) == moved_classes(torus, pairs, n)
        assert (torus.torsion_classes(n, exact_order=True)
                == moved_classes(torus, [p for p in pairs if math.gcd(*p, n) == 1], n))


# ---------------------------------------------------------------------------
# one reduction per public call
# ---------------------------------------------------------------------------

FAR_TAU = TauPoint(0.73, 0.11)  # unreduced: every call below moves it
FAR_ISO = quotient(FAR_TAU, CyclicSubgroup(2, 1, 0))  # built outside any count
PUBLIC_CALLS = {  # name: (call, reduce_tau calls, _log_abs_eta calls)
    "green": (lambda: green(FAR_TAU, TorusPoint(0.3, 0.2)), 1, 1),
    "torsion_product": (lambda: torsion_product(FAR_TAU, 4), 1, 1),
    "exact_order_log_green": (lambda: exact_order_log_green(FAR_TAU, 4), 1, 1),
    "log_norm_eta": (lambda: log_norm_eta(FAR_TAU), 1, 1),
    "log_norm_delta": (lambda: log_norm_delta(FAR_TAU), 1, 1),
    "invariants": (lambda: invariants(FAR_TAU), 1, 1),
    "green_mean_integral": (lambda: green_mean_integral(FAR_TAU, 16), 1, 1),
    "a_invariant_adjunction_check": (lambda: a_invariant_adjunction_check(FAR_TAU), 1, 1),
    "two_torsion_green_check": (lambda: two_torsion_green_check(FAR_TAU), 1, 1),
    "faltings_height": (lambda: faltings_height(CurveHeightInput(1, 0.0, (FAR_TAU,))), 1, 1),
    # the source's record, and the target's
    "energy": (lambda: energy(FAR_ISO), 2, 2),
    "green_projection_check": (lambda: green_projection_check(
        FAR_ISO, TorusPoint(Fraction(1, 5), Fraction(2, 5)), TorusPoint(0.3, 0.2)), 2, 2),
    # the source's record, and per quotient the target's marking and log_norm_eta
    "average_green_over_cyclic": (lambda: average_green_over_cyclic(FAR_TAU, 4), 13, 7),
}


@pytest.mark.parametrize("name", PUBLIC_CALLS)
def test_public_calls_reduce_each_torus_once(name, count_calls):
    call, reductions, eta_products = PUBLIC_CALLS[name]
    counts = count_calls(reduce_tau, _log_abs_eta)
    call()
    assert (counts["reduce_tau"], counts["_log_abs_eta"]) == (reductions, eta_products)
