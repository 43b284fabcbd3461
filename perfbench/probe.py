"""Set-up time of one workload, measured in a fresh interpreter.

    python3 perfbench/probe.py <workload>

Prints the seconds from just before `import ellgreen` until one tiny call
into each layer the workload uses has returned, so lazy set-up (import-time
tables, a JIT compile, argparse construction) shows up.  run.py starts this
several times per run and reports the median as `setup_s`.
"""

from __future__ import annotations

import random
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# layers each workload calls into
LAYERS = {
    "verify-full": ("lattice", "modular", "kernels", "green", "weierstrass", "heights", "verify"),
    "torsion-sums": ("lattice", "modular", "green", "heights"),
    "quadrature": ("lattice", "modular", "kernels", "green"),
    "point-queries": ("lattice", "modular", "green", "weierstrass", "heights", "cli"),
}


def warm_up(workload: str) -> None:
    """One tiny call into each layer `workload` uses."""
    import ellgreen as eg

    tau = eg.TauPoint(0.1, 1.2)
    for layer in LAYERS[workload]:
        if layer == "lattice":
            eg.quotient(tau, eg.cyclic_subgroups(2)[0])
        elif layer == "modular":
            eg.log_norm_delta(tau)
            eg.invariants(tau)
        elif layer == "kernels":
            eg.green_mean_integral(tau, 16)
        elif layer == "green":
            eg.green(tau, eg.TorusPoint(0.3, 0.2))
        elif layer == "weierstrass":
            eg.periods_from_curve(eg.eisenstein(tau))
        elif layer == "heights":
            eg.average_green_over_cyclic(tau, 2)
        elif layer == "verify":
            import ellgreen.verify
            ellgreen.verify.sample_reduced_taus(random.Random(0), 1)
        elif layer == "cli":
            import ellgreen.cli
            ellgreen.cli.build_parser()


def main() -> int:
    workload = sys.argv[1]
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    warm_up(workload)
    print(repr(time.perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main())
