import ast
import cmath
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import ellgreen.verify as verify
from ellgreen.cli import main
from ellgreen.lattice import (CyclicSubgroup, Isogeny, TauPoint, _quotient_target,
                              cyclic_subgroups, reduce_tau)
from ellgreen.green import Torus
from ellgreen.modular import DEFAULT_TOL, _log_abs_eta, log_abs_theta_shifted

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI = "import sys; from ellgreen.cli import main; sys.exit(main(sys.argv[1:]))"
TAUS = [TauPoint(0.1, 1.2), TauPoint(-0.3, 1.4), TauPoint(0.2, 1.9)]


PRIVATE_NAMES_VERIFY_READS = {
    "_Value", "_set",  # CheckResult's base and its setter
    "_midpoint_log_green_mean",  # criterion 9's direct grid sum; the public mean is closed form
    "_period_agms",  # the two AGMs periods_from_curve runs, whose iterations criterion 11 counts
}


def test_verify_reads_no_other_private_name_of_the_library():
    # the suite judges the public API: of another ellgreen module it imports
    # no underscore name but these four, and reaches none through a module
    tree = ast.parse((SRC / "ellgreen" / "verify.py").read_text())
    imported, modules = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("ellgreen")):
            for alias in node.names:
                (modules if node.module is None else imported).add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            modules.update(alias.asname or alias.name for alias in node.names
                           if alias.name.startswith("ellgreen"))
    private = {name for name in imported if name.startswith("_")}
    assert private <= PRIVATE_NAMES_VERIFY_READS, sorted(private - PRIVATE_NAMES_VERIFY_READS)
    reached = [node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)
               and isinstance(node.value, ast.Name) and node.value.id in modules
               and node.attr.startswith("_")]
    assert reached == []


def test_an_unknown_level_is_a_value_error():
    with pytest.raises(ValueError, match="level must be 'quick' or 'full', got 'medium'"):
        verify.run_checks("medium")


def test_worse_keeps_the_largest_residual_and_any_nan():
    assert verify._worse(0.0, 2.0, 1.0) == 2.0
    assert verify._worse(0.0) == 0.0
    assert math.isnan(verify._worse(0.0, math.nan, 1.0))
    assert math.isnan(verify._worse(math.nan, 1.0))


def test_a_nan_torsion_product_fails_criterion_2(monkeypatch):
    # NaN at N = 2 only: the fold must keep it past the finite N = 3
    monkeypatch.setattr(Torus, "torsion_product",
                        lambda torus, n: math.nan if n == 2 else float(n))
    sampled = [Torus(tau, DEFAULT_TOL) for tau in TAUS]
    results = verify._check_torsion_products(sampled, 3)
    assert [r.criterion for r in results] == [2, 2, 2]
    assert not any(r.passed for r in results)
    assert all("FAIL" in r.line() for r in results)


def test_a_nan_adjunction_residual_fails_criterion_10(monkeypatch):
    residuals = iter([1e-13, math.nan, 1e-13])
    monkeypatch.setattr(verify, "a_invariant_adjunction_check",
                        lambda tau, tol: next(residuals))
    (result,) = verify._check_adjunction(TAUS, DEFAULT_TOL)
    assert result.criterion == 10
    assert math.isnan(result.residual) and not result.passed


def test_a_planted_eta_error_fails_the_height_check(monkeypatch):
    # +1e-11 in the eta product moves log||eta|| by 1e-11 and the height by
    # 2e-11 away from the Chowla-Selberg values, which need no series: both
    # the height line and the public eta line fail
    modular = sys.modules["ellgreen.modular"]
    exact = modular._log_eta_product
    monkeypatch.setattr(modular, "_log_eta_product", lambda tau, tol: exact(tau, tol) + 1e-11)
    height, from_eta = verify._check_faltings(DEFAULT_TOL)
    assert height.criterion == from_eta.criterion == 13
    assert not height.passed and not from_eta.passed
    assert 1.9e-11 < height.residual < 2.1e-11
    assert 0.9e-11 < from_eta.residual < 1.1e-11


def test_a_slow_library_agm_fails_the_iteration_count(monkeypatch):
    # criterion 11 counts the iterations of both AGMs that periods_from_curve
    # runs, through the library's binding: 30 more there fail the count, and
    # the round trip, which the count does not enter, still passes
    weierstrass = sys.modules["ellgreen.weierstrass"]
    agm = weierstrass.optimal_agm

    def slow(a, b):
        mean, iterations = agm(a, b)
        return mean, iterations + 30
    monkeypatch.setattr(weierstrass, "optimal_agm", slow)
    roundtrip, count = verify._check_period_roundtrip(random.Random(7), 5, DEFAULT_TOL)
    assert roundtrip.passed and count.criterion == 11 and not count.passed
    assert 32.0 <= count.residual < 40.0


def test_a_wrong_eta_exponent_fails_the_public_eta_check(monkeypatch):
    # eta's q^(1/24) written as q^24 leaves log_norm_eta, and with it the
    # height line, as they are; the public eta line reads it, by ~150 at tau = i
    modular = sys.modules["ellgreen.modular"]
    product = modular._log_eta_product
    monkeypatch.setattr(verify, "eta", lambda tau, tol: cmath.exp(
        2j * math.pi * tau.z * 24.0 + product(tau, tol)))
    height, from_eta = verify._check_faltings(DEFAULT_TOL)
    assert height.passed and not from_eta.passed
    assert 150.0 < from_eta.residual < 151.0


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_prints_the_same_in_a_fresh_interpreter(level, capsys):
    # the subgroup lists live for one run_checks call: two runs in this
    # process and one in a new interpreter print the same bytes
    argv = ["verify", "--level", level, "--seed", "7"]
    outs = []
    for _ in range(2):
        assert main(argv) == 0
        outs.append(capsys.readouterr().out)
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    fresh = subprocess.run([sys.executable, "-c", CLI, *argv],
                           capture_output=True, text=True, env=env, timeout=120)
    assert fresh.returncode == 0, fresh.stderr
    assert outs[0] == outs[1] == fresh.stdout


@pytest.mark.parametrize("level, seed", [("quick", 7), ("full", 7), ("full", 1), ("full", 123)],
                         ids=["quick", "full", "full-seed1", "full-seed123"])
def test_verify_prints_the_committed_output(level, seed, capsys):
    # the default output of a fixed (level, seed) does not change: the golden
    # files hold what `ellgreen verify --level <level> --seed <seed>` printed;
    # criterion 4 draws fresh instances per seed, so three full seeds are pinned
    assert main(["verify", "--level", level, "--seed", str(seed)]) == 0
    golden = (GOLDEN / f"verify-{level}-seed{seed}.txt").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_verify_json_prints_the_committed_output(capsys):
    # the golden file holds what `ellgreen --json verify --level full --seed 7`
    # printed; it is strict JSON (no NaN or Infinity)
    assert main(["--json", "verify", "--level", "full", "--seed", "7"]) == 0
    out = capsys.readouterr().out
    assert out.encode() == (GOLDEN / "verify-full-seed7.json").read_bytes()

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")
    assert len(json.loads(out, parse_constant=reject)) == 35


def test_full_run_shares_one_table_per_tau_and_order(count_calls):
    # criteria 2, 3, 5 and 6 share one +-P table per (tau, N) and one subgroup
    # list per order: at seed 3 a full run evaluates 1760 shifted theta sums,
    # enumerates the subgroups of each order up to 30 once for criteria 4 and
    # 12, and each of the three sampled records those of each order up to 12
    # once, for criteria 3 and 5 both
    counts = count_calls(log_abs_theta_shifted, cyclic_subgroups)
    verify.run_checks("full", 3)
    assert counts["log_abs_theta_shifted"] <= 1760
    assert counts["cyclic_subgroups"] == 30 + 3 * 12


def test_full_run_builds_each_quotient_torus_once(count_calls, monkeypatch):
    # criteria 3 and 5 share the 354 quotients of the three sampled tau, each
    # built and its eta product summed once: the other 100 quotients are
    # criterion 4's, and the eta products and reductions left are the other
    # criteria's
    counts = count_calls(_log_abs_eta, _quotient_target, reduce_tau, log_abs_theta_shifted)
    checks = []  # every quotient takes T from its reduction: none is derived from a scale
    monkeypatch.setattr(Isogeny, "__post_init__", lambda iso: checks.append(iso))
    verify.run_checks("full", 3)
    assert checks == []
    assert counts["_log_abs_eta"] <= 671
    assert counts["_quotient_target"] <= 454
    assert counts["reduce_tau"] <= 1250
    assert counts["log_abs_theta_shifted"] <= 1760


@pytest.mark.parametrize("tamper", ["drop", "duplicate", "foreign", "wrong_order"])
def test_subgroup_enumeration_check_counts_a_bad_list(tamper):
    # criterion 12 matches the enumeration against the brute force one point
    # set at a time: a missing, repeated, foreign or wrong-order subgroup is a
    # mismatch; CyclicSubgroup(3, 1, 0) has the generator of CyclicSubgroup(6, 1, 0)
    subgroups = {n: cyclic_subgroups(n) for n in range(1, 9)}
    six = subgroups[6] = list(subgroups[6])
    if tamper == "drop":
        six.pop()
    elif tamper == "wrong_order":
        six[six.index(CyclicSubgroup(6, 1, 0))] = CyclicSubgroup(3, 1, 0)
    else:
        six[-1] = six[0] if tamper == "duplicate" else CyclicSubgroup(3, 1, 0)
    enumeration, containment = verify._check_combinatorics(subgroups, 8, 0)
    assert enumeration.residual == 1.0 and not enumeration.passed
    assert containment.passed


@pytest.mark.parametrize("order, bad", [(6, 3.0), (4, 2.0)])
def test_containment_check_counts_each_wrong_count(order, bad):
    # dropping the last order-6 subgroup leaves its subgroups of order 1, 2 and
    # 3 one holder short; putting the first order-4 subgroup in place of the
    # last (both hold the same order-2 subgroup) gives it two holders, seen
    # once per copy
    subgroups = {n: cyclic_subgroups(n) for n in range(1, 9)}
    subs = subgroups[order] = list(subgroups[order])
    if order == 6:
        subs.pop()
    else:
        subs[-1] = subs[0]
    enumeration, containment = verify._check_combinatorics(subgroups, 8, 8)
    assert enumeration.residual == 1.0
    assert containment.residual == bad and not containment.passed
    intact = {n: cyclic_subgroups(n) for n in range(1, 9)}
    assert [r.residual for r in verify._check_combinatorics(intact, 8, 8)] == [0.0, 0.0]
