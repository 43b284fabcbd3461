import importlib
import importlib.util
import math
import subprocess
import sys
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import ellgreen, ellgreen.cli, ellgreen.verify
ellgreen.verify.run_checks("quick", 1)
foreign = {name.partition(".")[0] for name in sys.modules} - set(sys.stdlib_module_names)
assert foreign == {"__main__", "ellgreen"}, sorted(foreign)
heavy = {"dataclasses", "inspect", "typing"} & set(sys.modules)
assert not heavy, sorted(heavy)
"""


def test_library_runs_on_the_standard_library_alone():
    # a fresh interpreter without site-packages (-S), so neither an installed
    # package nor a module the test process already imported (mpmath,
    # hypothesis) can hide an import outside the standard library; nor one of
    # the slow-to-import standard modules, which every CLI run would pay for
    done = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def load_tracer():
    # the benchmark's tracer, which needs only the standard library
    path = SRC.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_benchmark_layer_boundaries_exist():
    # the benchmark's tracer wraps these names; a missing one reads as absent
    # in its per-layer metrics instead of failing
    tracer = load_tracer()
    named = [*tracer.BOUNDARIES, tracer.ISOGENY_CHECK, tracer.TORUS_POINT]
    missing = [f"{module}.{attr}" for _, module, attr in named
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert named and not missing, missing


def test_tracer_sees_every_call_to_the_per_torus_layers(count_calls):
    # the tracer and count_calls rebind a name wherever a module binds it; a
    # copy neither can find (a default argument, a class attribute) hides
    # calls from both, so the profiler counts the calls by code object too
    from ellgreen.lattice import reduce_tau
    from ellgreen.modular import _log_abs_eta, log_abs_theta_shifted
    from ellgreen.verify import run_checks

    functions = {"modular.log_abs_theta_shifted": log_abs_theta_shifted,
                 "modular.log_abs_eta": _log_abs_eta, "lattice.reduce_tau": reduce_tau}
    counts = count_calls(*functions.values())
    codes = {fn.__code__: fn.__name__ for fn in functions.values()}
    executed = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            executed[codes[frame.f_code]] += 1

    with load_tracer().Tracer() as tracer:
        sys.setprofile(profile)
        try:
            run_checks("quick", 1)
        finally:
            sys.setprofile(None)
    assert tracer.absent == []
    for span, fn in functions.items():
        assert executed[fn.__name__] > 0
        assert tracer.calls[span] == counts[fn.__name__] == executed[fn.__name__], span


def test_readme_library_example_runs(capsys):
    # the README's one python block, as a user pastes it
    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 2 and all(math.isfinite(float(x)) for x in printed)
    product, predicted = namespace["product"], namespace["predicted"]
    assert abs(product - predicted) < 1e-10 * predicted


def test_readme_torus_example_runs(capsys):
    # the README's second python block: one record, several sums, each the
    # free function's value
    from ellgreen import TauPoint, energy, exact_order_log_green, quotient, torsion_product
    from ellgreen.lattice import cyclic_subgroups

    readme = (SRC.parent / "README.md").read_text()
    block = readme.split("```python\n")[2].split("```", 1)[0]
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    assert capsys.readouterr().out.strip()
    tau = TauPoint(0.2, 1.5)
    torus = namespace["torus"]
    assert torus.torsion_product(12) == torsion_product(tau, 12)
    assert torus.exact_order_log_green(4) == exact_order_log_green(tau, 4)
    assert torus.energies(3)[0] == energy(quotient(tau, cyclic_subgroups(3)[0]))
