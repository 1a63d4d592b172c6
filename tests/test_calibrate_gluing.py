"""The gluing calibration sweep finds exactly the shipped rule table.

scripts/calibrate_gluing.py is the one caller of glue_strip(rules=...)
outside the tests; running its search here keeps the script working and
re-derives vertex.GLUE_RULES on every run.
"""
import importlib.util
from pathlib import Path

from stripvertex.vertex import GLUE_RULES

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "calibrate_gluing.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("calibrate_gluing", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_calibration_search_finds_the_shipped_rules():
    assert _load_script().search() == [GLUE_RULES]
