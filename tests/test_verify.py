import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ellgreen.verify as verify
from ellgreen.cli import main
from ellgreen.lattice import CyclicSubgroup, TauPoint, cyclic_subgroups
from ellgreen.modular import DEFAULT_TOL

SRC = Path(__file__).resolve().parent.parent / "src"
CLI = "import sys; from ellgreen.cli import main; sys.exit(main(sys.argv[1:]))"
TAUS = [TauPoint(0.1, 1.2), TauPoint(-0.3, 1.4), TauPoint(0.2, 1.9)]


def test_worse_keeps_the_largest_residual_and_any_nan():
    assert verify._worse(0.0, 2.0, 1.0) == 2.0
    assert verify._worse(0.0) == 0.0
    assert math.isnan(verify._worse(0.0, math.nan, 1.0))
    assert math.isnan(verify._worse(math.nan, 1.0))


def test_a_nan_torsion_product_fails_criterion_2(monkeypatch):
    # NaN at N = 2 only: the fold must keep it past the finite N = 3
    monkeypatch.setattr(verify, "torsion_product",
                        lambda tau, n, tol: math.nan if n == 2 else float(n))
    results = verify._check_torsion_products(TAUS, 3, DEFAULT_TOL)
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
