"""Acceptance gate: every verification criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion; the same checks back the `ellgreen verify --level full` command.
"""

import pytest

from ellgreen.verify import run_checks

CRITERIA = {
    1: "theta cusp-form identities, residual < 1e-9 on the tau grid",
    2: "torsion product equals N for N <= 12, relative error < 1e-10",
    3: "isogeny kernel energy for all cyclic subgroups N <= 12, < 1e-10",
    4: "Green projection identity on 100 random isogenies, < 1e-10",
    5: "averaged log-Green and discriminant-drop identities, < 1e-7",
    6: "exact-order log-Green sums and their closed form, < 1e-10 / 1e-12",
    7: "Thomae and discriminant relations on the tau grid, < 1e-9",
    8: "two-torsion Green values vs root formulas, < 1e-10 / 1e-9",
    9: "log-Green mean by Richardson 16/32, < 1e-12; midpoint error ratio 1/4, < 1e-3",
    10: "adjunction limit matches the closed-form norm, < 1e-10",
    11: "period round trip over 50 random curves, < 1e-8; AGM iters <= 30",
    12: "subgroup enumeration vs brute force (N <= 30) and containment (N <= 24)",
    13: "height at tau = i and rho vs the Chowla-Selberg closed form, < 1e-12",
}


@pytest.fixture(scope="module")
def results():
    return run_checks(level="full", seed=7)


@pytest.mark.parametrize("criterion", sorted(CRITERIA))
def test_acceptance_criterion(criterion, results):
    checks = [r for r in results if r.criterion == criterion]
    assert checks, f"no checks ran for criterion {criterion}"
    for check in checks:
        print(check.line())
    failed = [c for c in checks if not c.passed]
    status = "PASS" if not failed else "FAIL"
    print(f"criterion {criterion:>2} [{status}]: {CRITERIA[criterion]}")
    assert not failed, "\n".join(c.line() for c in failed)
