"""The bits of every torsion and kernel sum, pinned.

Each sum of log G over torsion points is compared, as the repr of its
result, with `sum_bits.json`, written from the same seeded inputs.  A change
to how the sums are walked, tabled or shared must leave these unchanged.
Regenerate the file only for an intended change of value:

    PYTHONPATH=src python tests/test_sum_bits.py
"""

import json
import random
from pathlib import Path

from ellgreen.green import _energies, _torsion_product, energy, torsion_product
from ellgreen.heights import (
    _average_green_over_cyclic,
    average_green_over_cyclic,
    exact_order_log_green,
)
from ellgreen.lattice import TauPoint, cyclic_subgroups, multiplication_isogeny, quotient
from ellgreen.modular import DEFAULT_TOL, _Torus, log_norm_eta
from ellgreen.weierstrass import two_torsion_green_check

REFERENCE = Path(__file__).with_name("sum_bits.json")


def cases():
    # (tau, n): 10 draws, n <= 30 (the first three at 30, 2 and 1), 4 of
    # them an unreduced tau
    rng = random.Random(24)
    out = []
    for k in range(10):
        if k % 5 in (1, 3):
            tau = TauPoint(rng.uniform(-3.0, 3.0), rng.uniform(0.15, 0.7))
        else:
            tau = TauPoint(rng.uniform(-0.5, 0.5), rng.uniform(0.9, 2.5))
        out.append((tau, (30, 2, 1)[k] if k < 3 else rng.randint(3, 29)))
    return out


def results(tau, n):
    out = [energy(quotient(tau, sub)) for sub in cyclic_subgroups(n)]
    out += [energy(multiplication_isogeny(tau, k)) for k in range(1, 5)]
    out += [average_green_over_cyclic(tau, n), torsion_product(tau, n),
            exact_order_log_green(tau, n), two_torsion_green_check(tau)]
    return [repr(x) for x in out]


def test_every_sum_keeps_its_pinned_bits():
    expected = json.loads(REFERENCE.read_text())
    assert [[repr(tau), n] for tau, n in cases()] == [case for case, _ in expected]
    for (tau, n), (_, reprs) in zip(cases(), expected):
        assert results(tau, n) == reprs


def test_the_cores_on_one_record_equal_the_public_calls_in_any_order():
    for tau, n in cases():
        subs = cyclic_subgroups(n)
        isos = [quotient(tau, sub) for sub in subs]
        log_targets = [log_norm_eta(iso.target) for iso in isos]
        public = {
            "energies": [energy(iso) for iso in isos],
            "average": average_green_over_cyclic(tau, n),
            "torsion": torsion_product(tau, n),
        }
        for order in (("energies", "average", "torsion"), ("torsion", "average", "energies"),
                      ("average", "energies", "torsion")):
            shared = _Torus(tau, DEFAULT_TOL)
            cores = {
                "energies": lambda: _energies(shared, list(zip(isos, log_targets))),
                "average": lambda: _average_green_over_cyclic(shared, n, subs, log_targets),
                "torsion": lambda: _torsion_product(shared, n),
            }
            for name in order:
                assert cores[name]() == public[name]


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(
        [[[repr(tau), n], results(tau, n)] for tau, n in cases()], indent=0) + "\n")
