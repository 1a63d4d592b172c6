"""The gluing calibration sweep finds exactly the oracle's shipped rule table.

scripts/calibrate_gluing.py searches every table of gluing conventions with
the rule-parameterised chain sum oracles.glue_strip_by_tuples, and exactly
SHIPPED_RULES must survive.  test_vertex checks that vertex.glue_strip, whose
conventions are plain code, equals that oracle at its default table, so the
two together re-derive the walk's conventions on every run.
"""
import importlib.util
from pathlib import Path

from oracles import SHIPPED_RULES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_gluing.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate_gluing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_search_finds_the_shipped_rules():
    assert _load_script().search() == [SHIPPED_RULES]
