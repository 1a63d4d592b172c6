"""Every package attribute the benchmark tracer wraps must still resolve.

benchmark/tracer.py wraps package functions and methods by name, listed in
its SPAN_POINTS and LEAF_POINTS.  A rename or a merged class in the package
would otherwise only show as an AttributeError in a traced benchmark run.
"""
import importlib
import importlib.util
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
