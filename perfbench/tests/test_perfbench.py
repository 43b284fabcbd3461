"""Tests of the benchmark itself: op generation, checks, tracing.

    python3 -m pytest perfbench/tests -q
"""

import json
import signal
import sys
import time
import types
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import clock  # noqa: E402
import run  # noqa: E402
import tracer as tracer_mod  # noqa: E402
import workloads  # noqa: E402
from workloads import Op  # noqa: E402

eg = run.import_library()
workloads.write_faltings_input()
SIZED = ("average", "energy", "torsion_product", "exact_order")


def mix(ops):
    return Counter((op.kind, op.probe, op.args[2] if op.kind in SIZED else None)
                   for op in ops)


def results(ops, tracer=None):
    runner = tracer.run_op if tracer else run._run_plain
    return [run._comparable(*runner(lambda: workloads.call(eg, op))[:2]) for op in ops]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_op_list(workload):
    first = workloads.make_ops(workload, 11)
    assert workloads.make_ops(workload, 11) == first
    other = workloads.make_ops(workload, 12)
    assert other != first
    assert len(other) == len(first)
    assert mix(other) == mix(first)


def test_point_queries_mix_is_uniform():
    ops = workloads.make_ops("point-queries", 3)
    per_kind = Counter(op.kind for op in ops)
    assert set(per_kind) == set(workloads.POINT_KINDS)
    assert set(per_kind.values()) == {workloads.OPS_PER_KIND}
    assert not any(op.probe for op in ops if op.kind == "cli")
    assert len({op.args for op in ops if op.kind == "cli"}) == len(workloads.CLI_COMMANDS)

    taus = [op for op in ops if op.kind not in ("cli", "round_trip")]
    far = [op for op in taus if op.probe]
    assert len(far) / len(taus) == pytest.approx(0.20)
    assert all(op.args[1] >= workloads.FAR_IM[0] for op in far)
    curves = [op for op in ops if op.kind == "round_trip"]
    extreme = [op for op in curves if op.probe]
    assert len(extreme) / len(curves) == pytest.approx(0.20)
    assert all(abs(op.args[2]) >= workloads.EXTREME_LOG10_SCALE[0] for op in extreme)


def _sample(workload):
    ops = workloads.make_ops(workload, 5)
    if workload == "torsion-sums":
        return [op for op in ops if op.args[2] <= 6]
    if workload == "quadrature":
        return [op for op in ops if op.args == (0.0, 3.0)]
    return ops


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_and_untraced_results_match(workload):
    ops = _sample(workload)
    plain = results(ops)
    tracer = tracer_mod.Tracer()
    with tracer:
        traced = results(ops, tracer)
    assert traced == plain
    assert sum(tracer.calls.values()) > 0
    assert not tracer.absent


def test_self_times_account_for_traced_wall():
    ops = _sample("point-queries") + _sample("torsion-sums")
    runner = run.Runner(eg, ops, [workloads.reference(op) for op in ops])
    tracer = tracer_mod.Tracer()
    with tracer:
        wall = sum(runner.run_pass(tracer.run_op))
    metrics = tracer.metrics(1, wall, 0.0)
    self_total = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert all(v >= -1e-9 for k, (v, _) in metrics.items() if k.endswith(".self_s"))
    assert self_total + metrics["trace.unattributed_s"][0] == pytest.approx(wall, rel=1e-9)
    assert self_total > 0.9 * wall


def test_silent_wrong_value_is_counted_as_failed():
    # green at tau = 0.1 + 600i, z = 0.3 returns 0.0 (log -inf), claiming the
    # point is on the diagonal; the oracle gives log G ~ -313.7
    wrong = eg.GreenValue(0.0, float("-inf"))
    lib = types.SimpleNamespace(TauPoint=eg.TauPoint, TorusPoint=eg.TorusPoint,
                                green=lambda tau, z: wrong)
    op = Op("green", (0.1, 600.0, 0.3, 0.0))
    ref = workloads.reference(op)
    assert float(ref) == pytest.approx(-313.678, abs=1e-3)

    runner = run.Runner(lib, [op, op], [ref, ref])
    runner.run_pass()
    assert (runner.failed, runner.executions, runner.ok_frac) == (2, 2, 0.0)

    probe = Op("green", op.args, probe=True)
    runner = run.Runner(lib, [probe], [ref])
    runner.run_pass()
    assert (runner.failed, runner.probe_failed, runner.ok_frac) == (0, 1, 0.0)

    good = Op("green", (0.1, 1.2, 0.3, 0.0))
    runner = run.Runner(eg, [good], [workloads.reference(good)])
    runner.run_pass()
    assert (runner.failed, runner.ok_frac) == (0, 1.0)


def test_energy_is_checked_against_the_oracle():
    op = Op("energy", (0.1, 1.2, 3, 1, 0))
    ref = workloads.reference(op)
    right = workloads.call(eg, op)
    assert workloads.check(op, right, ref)
    # a product that agrees with a prediction made by the same wrong code
    wrong = (1.01 * right[0], 1.01 * right[0])
    assert not workloads.check(op, wrong, ref)


def test_raising_op_is_counted_as_failed():
    def invariants(tau):
        raise ValueError("invariant norms must be positive")

    lib = types.SimpleNamespace(TauPoint=eg.TauPoint, invariants=invariants)
    op = Op("invariants", (0.1, 1.2))
    runner = run.Runner(lib, [op], [workloads.reference(op)])
    runner.run_pass()
    assert (runner.failed, runner.executions) == (1, 1)
    assert runner.failed_kinds == {"invariants": 1}


def _bindings():
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "ellgreen" or name.startswith("ellgreen.")
            for attr, value in vars(module).items()}


def test_wrappers_are_removed_after_the_traced_run():
    before = _bindings()
    hooks = (eg.TorusPoint.__post_init__, eg.Isogeny.__post_init__)
    with tracer_mod.Tracer():
        assert eg.green is not before["ellgreen", "green"]
        assert sys.modules["ellgreen.heights"].green is eg.green
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert (eg.TorusPoint.__post_init__, eg.Isogeny.__post_init__) == hooks


def test_absent_boundary_is_reported_not_fatal(monkeypatch):
    gone = ("modular.gone", "ellgreen.modular", "_no_such_function")
    monkeypatch.setattr(tracer_mod, "BOUNDARIES", tracer_mod.BOUNDARIES + (gone,))
    monkeypatch.setattr(tracer_mod, "TORUS_POINT",
                        ("lattice.torus_point", "ellgreen.lattice", "NoSuchClass"))
    tracer = tracer_mod.Tracer()
    with tracer:
        tracer.run_op(lambda: eg.green(eg.TauPoint(0.1, 1.2), eg.TorusPoint(0.3, 0.2)))
    assert tracer.absent == ["modular.gone", "lattice.torus_point"]
    assert tracer.calls["green.green"] == 1
    assert tracer.metrics(1, 1.0, 0.0)["trace.absent"][0] == 2


def test_span_storage_is_bounded(monkeypatch):
    monkeypatch.setattr(tracer_mod, "KEEP_SPANS", 50)
    tracer = tracer_mod.Tracer()
    tau, z = eg.TauPoint(0.1, 1.2), eg.TorusPoint(0.3, 0.2)
    with tracer:
        for _ in range(1000):
            tracer.run_op(lambda: eg.green(tau, z))
    assert tracer.calls["green.green"] == 1000
    assert len(tracer.spans) == 50
    assert tracer.spans_seen > 1000


def test_speed_clock_scales_wall_time_and_restores_the_alarm(monkeypatch):
    # a machine at half the reference speed: the kernel takes twice REF_S
    monkeypatch.setattr(clock, "kernel_seconds", lambda: 2 * clock.REF_S)
    handler = signal.getsignal(signal.SIGALRM)
    with clock.SpeedClock() as speed_clock:
        result, raised, seconds = speed_clock.run_op(lambda: time.sleep(0.2) or 7)
    assert (result, raised) == (7, False)
    assert len(speed_clock.kernels) >= 5
    assert seconds == pytest.approx(0.1, rel=0.1)
    assert signal.getsignal(signal.SIGALRM) is handler
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_tail_percentile():
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail([float(i) for i in range(1, 21)]) == (10.0, 50.0)


def test_benchmark_json_names_every_metric():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == tracer_mod.metric_names()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
