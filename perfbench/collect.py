"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/collect.py --workloads torsion-sums quadrature \
        --seeds 1-10 --seconds 20 --trace 0 [--json perfbench/out/runs.json]

For each workload and metric it prints the median over the seeds, the
quartiles (statistics.quantiles, n=4) and the spread (Q3 - Q1) / median,
the figure the bounds in BENCHMARK.json are checked against.  Runs are
sequential, one process at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": runs[0]["metrics"][name]["unit"]}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", help="write every run and the summary here")
    args = parser.parse_args()

    report = {}
    for workload in args.workloads:
        runs = []
        for seed in seed_range(args.seeds):
            result = run_once(workload, seed, args.seconds, args.trace)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} ops failed", file=sys.stderr)
            runs.append(result)
        summary = summarise(runs)
        report[workload] = {"runs": runs, "summary": summary}
        print(workload)
        for name, s in summary.items():
            print(f"  {name:<40} median {s['median']:<12.6g} {s['unit']:<6} "
                  f"spread {100 * s['spread']:.2f}%")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
