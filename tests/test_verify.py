import math
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import ellgreen.verify as verify
from ellgreen.cli import main
from ellgreen.green import _reduced
from ellgreen.lattice import CyclicSubgroup, TauPoint, cyclic_subgroups
from ellgreen.modular import DEFAULT_TOL, log_abs_theta_shifted

SRC = Path(__file__).resolve().parent.parent / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"
CLI = "import sys; from ellgreen.cli import main; sys.exit(main(sys.argv[1:]))"
TAUS = [TauPoint(0.1, 1.2), TauPoint(-0.3, 1.4), TauPoint(0.2, 1.9)]


def test_worse_keeps_the_largest_residual_and_any_nan():
    assert verify._worse(0.0, 2.0, 1.0) == 2.0
    assert verify._worse(0.0) == 0.0
    assert math.isnan(verify._worse(0.0, math.nan, 1.0))
    assert math.isnan(verify._worse(math.nan, 1.0))


def test_a_nan_torsion_product_fails_criterion_2(monkeypatch):
    # NaN at N = 2 only: the fold must keep it past the finite N = 3
    monkeypatch.setattr(verify, "_torsion_product",
                        lambda tau, reduced, n, tol: math.nan if n == 2 else float(n))
    sampled = [(tau, _reduced(tau, DEFAULT_TOL)) for tau in TAUS]
    results = verify._check_torsion_products(sampled, 3, DEFAULT_TOL)
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


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verify_prints_the_committed_output(level, capsys):
    # the default output of a fixed (level, seed) does not change: the golden
    # files hold what `ellgreen verify --level <level> --seed 7` printed
    assert main(["verify", "--level", level, "--seed", "7"]) == 0
    golden = (GOLDEN / f"verify-{level}-seed7.txt").read_bytes()
    assert capsys.readouterr().out.encode() == golden


def test_full_run_shares_one_table_per_tau_and_order(monkeypatch):
    # criteria 2, 3, 5 and 6 share one +-P table per (tau, N) and one subgroup
    # list per order: at seed 3 a full run evaluates 1760 shifted theta sums
    # and enumerates the subgroups of each order up to 30 once
    counts = Counter()

    def counted(name, fn):
        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    originals = {"log_abs_theta_shifted": log_abs_theta_shifted,
                 "cyclic_subgroups": cyclic_subgroups}
    # every module that binds the name (ellgreen.green, as an attribute of the
    # package, is the function green)
    modules = [m for name, m in sys.modules.items() if name.startswith("ellgreen.")]
    for module in modules:
        for name, fn in originals.items():
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    verify.run_checks("full", 3)
    assert counts["log_abs_theta_shifted"] <= 1760
    assert counts["cyclic_subgroups"] == 30


@pytest.mark.parametrize("tamper", ["drop", "duplicate", "foreign"])
def test_subgroup_enumeration_check_counts_a_bad_list(tamper):
    # criterion 12 matches the enumeration against the brute force one point
    # set at a time: a missing, repeated or foreign subgroup is a mismatch
    subgroups = {n: cyclic_subgroups(n) for n in range(1, 9)}
    six = subgroups[6] = list(subgroups[6])
    if tamper == "drop":
        six.pop()
    else:
        six[-1] = six[0] if tamper == "duplicate" else CyclicSubgroup(3, 1, 0)
    enumeration, containment = verify._check_combinatorics(subgroups, 8, 0)
    assert enumeration.residual == 1.0 and not enumeration.passed
    assert containment.passed
