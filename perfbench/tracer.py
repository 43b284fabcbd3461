"""Spans around the library's layer boundaries, recorded from outside.

`Tracer.install()` wraps each boundary function and rebinds every name that
refers to it in every loaded `ellgreen` module: `from .x import f` copies
the binding, so patching the defining module alone would miss most calls.
Two dataclass hooks are patched on the class instead: `TorusPoint` is only
counted, and `Isogeny.__post_init__` (the kernel closure check) gets a span.
`remove()` puts every original binding back.

A span has a name, a start, an end and a parent.  Aggregates (calls, self
time, raised, parent->child call counts) are kept per name, so memory stays
bounded however many calls a run makes; only the first KEEP_SPANS raw
spans are kept, for the run's output file.  A span's self time is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

# (metric prefix, module, attribute)
BOUNDARIES = (
    ("lattice.reduce_tau", "ellgreen.lattice", "reduce_tau"),
    ("lattice.transport_point", "ellgreen.lattice", "transport_point"),
    ("lattice.cyclic_subgroups", "ellgreen.lattice", "cyclic_subgroups"),
    ("lattice.subgroup_points", "ellgreen.lattice", "subgroup_points"),
    ("lattice.quotient", "ellgreen.lattice", "quotient"),
    ("modular.log_abs_theta_shifted", "ellgreen.modular", "log_abs_theta_shifted"),
    ("modular.log_abs_eta", "ellgreen.modular", "_log_abs_eta"),
    ("modular.log_norm_delta", "ellgreen.modular", "log_norm_delta"),
    ("modular.theta", "ellgreen.modular", "theta"),
    ("modular.theta_dz", "ellgreen.modular", "theta_dz"),
    ("modular.invariants", "ellgreen.modular", "invariants"),
    ("kernels.log_abs_theta_shifted_grid", "ellgreen._kernels", "log_abs_theta_shifted_grid"),
    ("green.green", "ellgreen.green", "green"),
    ("green.energy", "ellgreen.green", "energy"),
    ("green.torsion_product", "ellgreen.green", "torsion_product"),
    ("green.green_mean_integral", "ellgreen.green", "green_mean_integral"),
    ("weierstrass.eisenstein", "ellgreen.weierstrass", "eisenstein"),
    ("weierstrass.half_period_roots", "ellgreen.weierstrass", "half_period_roots"),
    ("weierstrass.thomae_residuals", "ellgreen.weierstrass", "thomae_residuals"),
    ("weierstrass.optimal_agm", "ellgreen.weierstrass", "optimal_agm"),
    ("weierstrass.periods_from_curve", "ellgreen.weierstrass", "periods_from_curve"),
    ("heights.average_green_over_cyclic", "ellgreen.heights", "average_green_over_cyclic"),
    ("heights.exact_order_log_green", "ellgreen.heights", "exact_order_log_green"),
    ("heights.faltings_height", "ellgreen.heights", "faltings_height"),
    ("verify.run_checks", "ellgreen.verify", "run_checks"),
    ("cli.main", "ellgreen.cli", "main"),
)
ISOGENY_CHECK = ("lattice.isogeny_check", "ellgreen.lattice", "Isogeny")
TORUS_POINT = ("lattice.torus_point", "ellgreen.lattice", "TorusPoint")

GREEN = "green.green"
GRID = "kernels.log_abs_theta_shifted_grid"
MEAN = "green.green_mean_integral"
AGM = "weierstrass.optimal_agm"
PERIODS = "weierstrass.periods_from_curve"
ROOT = "op"

# bytes the numpy grid kernel touches per point and series term, as computed
# from array sizes: it reads c and d and reads and writes the two float64
# accumulators
GRID_BYTES_PER_TERM = 6 * 8

KEEP_SPANS = 2000  # raw spans kept for the run's output file


def span_names() -> list[str]:
    return [name for name, _, _ in BOUNDARIES] + [ISOGENY_CHECK[0]]


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in output order."""
    names = []
    for span in span_names():
        names += [f"{span}.calls", f"{span}.self_s", f"{span}.raised"]
    return names + [
        "lattice.torus_point.constructed",
        "green.reduce_tau_per_green",
        "green.log_abs_eta_per_green",
        "kernels.grid.points",
        "kernels.grid.series_terms",
        "kernels.grid.ns_per_term",
        "kernels.grid.bytes_computed",
        "green.mean_integral.abs_mean",
        "weierstrass.agm.iterations",
        "weierstrass.eisenstein_per_period",
        "trace.pass_s",
        "trace.unattributed_s",
        "trace.overhead_frac",
        "trace.absent",
    ]


def _ellgreen_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ellgreen" or name.startswith("ellgreen."))]


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.raised = Counter()
        self.edges = Counter()        # (parent name, child name) -> calls
        self.spans = []               # (id, parent id, name, start, end)
        self.spans_seen = 0
        self.torus_points = 0
        self.grid_points = 0
        self.grid_terms = 0
        self.agm_iterations = 0
        self.mean_abs_max = 0.0
        self.unattributed_s = 0.0
        self.absent = []
        self._patches = []            # (owner, attribute, original)
        self._stack = [[ROOT, 0, 0.0]]  # frames: [name, span id, child time]

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, observe=None):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            self.spans_seen += 1
            frame = [name, self.spans_seen, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.self_s[name] += duration - frame[2]
                parent[2] += duration
                self.edges[parent[0], name] += 1
                if len(self.spans) < KEEP_SPANS:
                    self.spans.append((frame[1], parent[1], name, start, end))
            if observe is not None:
                try:
                    observe(args, result)
                except (IndexError, TypeError):
                    pass  # the boundary changed shape; its derived metric reads 0
            return result

        return wrapper

    def run_op(self, fn):
        """Run one op under a root frame; returns (result or exception,
        raised flag, duration).  Time inside the op but outside every span
        goes to `unattributed_s`."""
        root = [ROOT, 0, 0.0]
        self._stack[:] = [root]
        start = time.perf_counter()
        try:
            result, raised = fn(), False
        except Exception as exc:  # an op failure is data; the pass goes on
            result, raised = exc, True
        duration = time.perf_counter() - start
        self._stack[:] = [[ROOT, 0, 0.0]]
        self.unattributed_s += duration - root[2]
        return result, raised, duration

    # -- observers for derived metrics -----------------------------------------

    def _observe_grid(self, args, result):
        c, half_width = args[0], args[4]
        self.grid_points += len(c)
        self.grid_terms += len(c) * (2 * half_width + 1)

    def _observe_mean(self, args, result):
        self.mean_abs_max = max(self.mean_abs_max, abs(result))

    def _observe_agm(self, args, result):
        self.agm_iterations += result[1]

    # -- install / remove ------------------------------------------------------

    def _rebind(self, original, replacement):
        for module in _ellgreen_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)
                    self._patches.append((module, attr, original))

    def install(self) -> "Tracer":
        for mod in ("ellgreen", "ellgreen.verify", "ellgreen.cli"):
            importlib.import_module(mod)
        self.absent = []
        observers = {GRID: self._observe_grid, MEAN: self._observe_mean,
                     AGM: self._observe_agm}
        for name, module, attr in BOUNDARIES:
            original = getattr(sys.modules.get(module), attr, None)
            if not callable(original):
                self.absent.append(name)
                continue
            self._rebind(original, self._wrap(name, original, observers.get(name)))

        name, module, attr = ISOGENY_CHECK
        cls = getattr(sys.modules.get(module), attr, None)
        hook = getattr(cls, "__post_init__", None)
        if hook is None:
            self.absent.append(name)
        else:
            self._patches.append((cls, "__post_init__", hook))
            cls.__post_init__ = self._wrap(name, hook)

        name, module, attr = TORUS_POINT
        cls = getattr(sys.modules.get(module), attr, None)
        hook = getattr(cls, "__post_init__", None)
        if hook is None:
            self.absent.append(name)
        else:
            def counted(point, _hook=hook):
                self.torus_points += 1
                return _hook(point)
            self._patches.append((cls, "__post_init__", hook))
            cls.__post_init__ = counted
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- results ---------------------------------------------------------------

    def metrics(self, passes: int, pass_s: float, overhead_frac: float) -> dict:
        """Per-layer metrics per traced pass.  `pass_s` is the mean traced
        pass time, which the self times plus `trace.unattributed_s` add up to."""
        per = 1.0 / passes
        out = {}
        for span in span_names():
            out[f"{span}.calls"] = (self.calls[span] * per, "count")
            out[f"{span}.self_s"] = (self.self_s[span] * per, "s")
            out[f"{span}.raised"] = (self.raised[span] * per, "count")

        def ratio(num, den):
            return num / den if den else 0.0

        greens = self.calls[GREEN]
        out.update({
            "lattice.torus_point.constructed": (self.torus_points * per, "count"),
            "green.reduce_tau_per_green": (
                ratio(self.edges[GREEN, "lattice.reduce_tau"], greens), "ratio"),
            "green.log_abs_eta_per_green": (
                ratio(self.edges[GREEN, "modular.log_abs_eta"], greens), "ratio"),
            "kernels.grid.points": (self.grid_points * per, "count"),
            "kernels.grid.series_terms": (self.grid_terms * per, "count"),
            "kernels.grid.ns_per_term": (ratio(self.self_s[GRID] * 1e9, self.grid_terms), "ns"),
            "kernels.grid.bytes_computed": (
                self.grid_terms * GRID_BYTES_PER_TERM * per, "B"),
            "green.mean_integral.abs_mean": (self.mean_abs_max, "1"),
            "weierstrass.agm.iterations": (
                ratio(self.agm_iterations, self.calls[AGM]), "count"),
            "weierstrass.eisenstein_per_period": (
                ratio(self.edges[PERIODS, "weierstrass.eisenstein"], self.calls[PERIODS]),
                "ratio"),
            "trace.pass_s": (pass_s, "s"),
            "trace.unattributed_s": (self.unattributed_s * per, "s"),
            "trace.overhead_frac": (overhead_frac, "1"),
            "trace.absent": (float(len(self.absent)), "count"),
        })
        return out
