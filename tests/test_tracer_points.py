"""Every package attribute the benchmark tracer wraps must still resolve.

benchmark/tracer.py wraps package functions and methods by name, listed in
its SPAN_POINTS and LEAF_POINTS.  A rename or a merged class in the package
would otherwise only show as an AttributeError in a traced benchmark run.
The tracer also counts each scalar lane under its own group: numeric ops
under scalars.laurent, symbolic ones under scalars.scalar.  Reductions
must stay in the wrapped scalars._reduce, which feeds the
scalars.reductions metric.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "benchmark" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_point_resolves():
    tracer = _load_tracer()
    for mod_name, path, _group, _layer in tracer.SPAN_POINTS + tracer.LEAF_POINTS:
        owner = importlib.import_module(f"stripvertex.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
            assert owner is not None, f"stripvertex.{mod_name}.{path}"
        assert callable(owner), f"stripvertex.{mod_name}.{path}"


# a few scalar operations in one lane, counted by the installed tracer; the
# tracer patches the package, so it runs in a process of its own
LANE_PROBE = """
import json, sys
from fractions import Fraction
from tracer import Tracer

tracer = Tracer()
tracer.install()
from stripvertex.scalars import SYMBOLIC, NumericQ

ring = SYMBOLIC if sys.argv[1] == "symbolic" else NumericQ(Fraction(3, 2))
x = ring.t_power(1) + ring.a_power(1)
y = x * x - ring.one
(y / ring.quantum_int(2)) ** 2
print(json.dumps(dict(tracer.counts)))
"""


def _lane_counts(lane: str) -> dict:
    root = TRACER.parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(root / "src"), str(TRACER.parent)]))
    proc = subprocess.run([sys.executable, "-c", LANE_PROBE, lane], env=env,
                          capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout)


def test_each_lane_counts_under_its_own_group():
    symbolic, numeric = _lane_counts("symbolic"), _lane_counts("numeric")
    # add; mul, sub (its neg and add); div, pow (its two muls)
    assert symbolic.get("scalars.scalar") == numeric.get("scalars.laurent") == 9
    assert symbolic.get("scalars.laurent", 0) == 0
    assert numeric.get("scalars.scalar", 0) == 0
    assert symbolic.get("scalars.reduce", 0) >= 1
    assert set(numeric) <= {"scalars.laurent", "scalars.reduce"}
