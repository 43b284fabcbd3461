"""Layered benchmark of the ellgreen library.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  The library is imported from ./src (the
working tree, never an installed copy).  One process, one thread, one
client in a closed loop: each op starts when the previous one returns.

A run builds the workload's op list from the seed, computes every op's
reference (mpmath oracle or the closed form of the identity; not timed),
then repeats passes over the op list for about --seconds seconds, checking
every op's result each pass.  Set-up time is measured in fresh interpreters
started at even intervals over the same seconds.  The op times in the
end-to-end metrics are scaled to the reference machine speed (clock.py).
With --trace 0 the last stdout line carries the end-to-end metrics; with
--trace 1 untraced and traced passes alternate and it carries the per-layer
metrics.  A summary with the environment is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import probe
import workloads
from tracer import Tracer, metric_names

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 15
MIN_PASSES = 3          # untraced passes (trace 0) or untraced/traced pairs (trace 1)
PROBE_TIMEOUT_S = 120
END_TO_END = ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "ok_frac", "peak_rss_mb")


def import_library():
    """Import ellgreen from the working tree's src/, or raise ImportError."""
    sys.path.insert(0, str(SRC))
    import ellgreen
    import ellgreen.cli
    import ellgreen.verify

    path = Path(ellgreen.__file__).resolve()
    if SRC.resolve() not in path.parents:
        raise ImportError(f"ellgreen was imported from {path}, not from {SRC}")
    return ellgreen


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cache_sizes() -> dict:
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                sizes[f"L{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def environment(eg) -> dict:
    import numpy

    kernels = sys.modules.get("ellgreen._kernels")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "kernels_active_impl": getattr(kernels, "ACTIVE_IMPL", "absent"),
        "ELLGREEN_DISABLE_NUMBA": os.environ.get("ELLGREEN_DISABLE_NUMBA"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "caches": _cache_sizes(),
        "ellgreen_file": str(Path(eg.__file__).resolve()),
    }


def measure_setup(workload: str) -> float:
    """Set-up seconds of one fresh interpreter (see probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), workload],
        capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


def _run_plain(fn):
    start = time.perf_counter()
    try:
        result, raised = fn(), False
    except Exception as exc:  # an op failure is data; the pass goes on
        result, raised = exc, True
    return result, raised, time.perf_counter() - start


def _comparable(result, raised):
    return (type(result).__name__, str(result)) if raised else result


class Runner:
    """Runs passes over one op list and keeps what the metrics need."""

    def __init__(self, eg, ops, refs):
        self.eg = eg
        self.ops = ops
        self.refs = refs
        self.first = None       # results of the first pass, for determinism
        self.executions = 0     # in-domain op executions
        self.failed = 0         # in-domain executions that missed their reference
        self.probe_runs = 0
        self.probe_failed = 0
        self.failed_kinds = {}

    def run_pass(self, run=_run_plain) -> list[float]:
        """One pass, each op timed by `run` (see _run_plain); returns each
        op's latency in seconds."""
        results, latencies = [], []
        for op, ref in zip(self.ops, self.refs):
            result, raised, duration = run(lambda: workloads.call(self.eg, op))
            latencies.append(duration)
            results.append(_comparable(result, raised))
            ok = not raised and self._check(op, result, ref)
            if self.first is not None and results[-1] != self.first[len(results) - 1]:
                ok = False      # traced, untraced and repeated passes must agree
            self._count(op, ok)
        if self.first is None:
            self.first = results
        return latencies

    @staticmethod
    def _check(op, result, ref) -> bool:
        try:
            return bool(workloads.check(op, result, ref))
        except (AttributeError, TypeError, ValueError, KeyError, IndexError):
            return False  # a result of the wrong shape is a wrong result

    def _count(self, op, ok: bool) -> None:
        if op.probe:
            self.probe_runs += 1
            self.probe_failed += not ok
        else:
            self.executions += 1
            self.failed += not ok
        if not ok:
            key = op.kind + (" (probe)" if op.probe else "")
            self.failed_kinds[key] = self.failed_kinds.get(key, 0) + 1

    @property
    def ok_frac(self) -> float:
        total = self.executions + self.probe_runs
        return (total - self.failed - self.probe_failed) / total


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; the maximum when there are ten samples or fewer."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def measure(runner: Runner, seconds: float, traced: bool, workload: str):
    """Repeat passes for about `seconds`, with SETUP_PROBES set-up probes
    spread evenly over the same time.  Untraced passes are timed at the
    reference speed when `traced` is false, and in plain wall time when it is
    true, like the traced passes they are compared with.  Returns (untraced
    latencies per pass, traced pass times, set-up times, tracer, machine
    speed per untraced pass)."""
    tracer = Tracer() if traced else None
    untraced, traced_times, setup_times, speeds = [], [], [], []
    start = time.perf_counter()
    while True:
        if tracer:
            untraced.append(runner.run_pass())
            with tracer:
                traced_times.append(sum(runner.run_pass(tracer.run_op)))
        else:
            with clock.SpeedClock() as speed_clock:
                untraced.append(runner.run_pass(speed_clock.run_op))
            speeds.append(speed_clock.speed)
        rounds = len(untraced)
        elapsed = time.perf_counter() - start
        done = rounds >= MIN_PASSES and elapsed * (rounds + 1) / rounds > seconds
        due = SETUP_PROBES if done else math.ceil(SETUP_PROBES * min(1.0, elapsed / seconds))
        while len(setup_times) < due:
            setup_times.append(measure_setup(workload))
        if done:
            return untraced, traced_times, setup_times, tracer, speeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    try:
        eg = import_library()
    except ImportError as exc:
        print(f"perfbench: cannot import the library from {SRC}: {exc}", file=sys.stderr)
        return 2

    env = environment(eg)
    workloads.write_faltings_input()
    ops = workloads.make_ops(args.workload, args.seed)
    refs = [workloads.reference(op) for op in ops]

    probe.warm_up(args.workload)
    runner = Runner(eg, ops, refs)
    untraced, traced_times, setup_times, tracer, speeds = measure(
        runner, args.seconds, bool(args.trace), args.workload)

    pass_times = [sum(p) for p in untraced]
    tails = [tail(p) for p in untraced]
    tail_pct = tails[0][1]
    if tracer:
        overhead = statistics.median(traced_times) / statistics.median(pass_times) - 1.0
        layer = tracer.metrics(len(traced_times), statistics.fmean(traced_times), overhead)
        metrics = {name: layer[name] for name in metric_names()}
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(pass_times), "s"),
            "op_p50_ms": (statistics.median(statistics.median(p) for p in untraced) * 1e3, "ms"),
            "op_tail_ms": (statistics.median(t for t, _ in tails) * 1e3, "ms"),
            "ok_frac": (runner.ok_frac, "1"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    probes = sum(op.probe for op in ops)
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "env": env,
        "ops_per_pass": len(ops),
        "domain_probes_per_pass": probes,
        "passes": len(untraced),
        "traced_passes": len(traced_times),
        "op_tail_percentile": tail_pct,
        "setup_times_s": setup_times,
        "machine_speed_per_pass": speeds,
        "failed_kinds": runner.failed_kinds,
        "probe_runs": runner.probe_runs,
        "probe_failed": runner.probe_failed,
        "absent_boundaries": tracer.absent if tracer else [],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if tracer:
        summary["spans_recorded"] = tracer.spans_seen
        summary["spans_kept"] = [list(s) for s in tracer.spans]
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(summary, indent=1))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(ops)} ops/pass ({probes} domain probes), {len(untraced)} passes"
          + (f" + {len(traced_times)} traced" if tracer else ""))
    print("env " + json.dumps(env))
    print(f"op_tail is p{tail_pct:.2f} of {len(ops)} ops per pass, median over "
          f"{len(untraced)} passes")
    if speeds:
        print(f"times are at the reference speed; the machine ran at "
              f"{statistics.median(speeds):.3f} of it (median over passes)")
    print(f"in-domain: {runner.failed} of {runner.executions} failed; domain probes: "
          f"{runner.probe_failed} of {runner.probe_runs} failed {runner.failed_kinds}")
    if tracer and tracer.absent:
        print("absent boundaries: " + ", ".join(tracer.absent))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:.6g} {unit}")
    print(f"details in {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.executions,
        "failed": runner.failed,
        "metrics": summary["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
