import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = """
import sys
sys.path.insert(0, sys.argv[1])
import ellgreen, ellgreen.cli, ellgreen.verify
ellgreen.verify.run_checks("quick", 1)
foreign = {name.partition(".")[0] for name in sys.modules} - set(sys.stdlib_module_names)
assert foreign == {"__main__", "ellgreen"}, sorted(foreign)
"""


def test_library_runs_on_the_standard_library_alone():
    # a fresh interpreter without site-packages (-S), so neither an installed
    # package nor a module the test process already imported (mpmath,
    # hypothesis) can hide an import outside the standard library
    done = subprocess.run([sys.executable, "-S", "-c", SCRIPT, str(SRC)],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_benchmark_layer_boundaries_exist():
    # the benchmark's tracer wraps these names; a missing one reads as absent
    # in its per-layer metrics instead of failing (tracer.py needs only the
    # standard library)
    path = SRC.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    named = [*tracer.BOUNDARIES, tracer.ISOGENY_CHECK, tracer.TORUS_POINT]
    missing = [f"{module}.{attr}" for _, module, attr in named
               if not callable(getattr(importlib.import_module(module), attr, None))]
    assert named and not missing, missing
