"""The paired-run summary of scripts/bench_pairs.py: wins, spread and the claim rule."""
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _load_script():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_summary_counts_wins_and_applies_the_claim_rule():
    summarize = _load_script().summarize
    parent = [1.0, 1.1, 1.2, 1.3, 1.0, 1.1, 1.2, 1.3, 1.0, 1.1]
    change = [0.5] * 9 + [1.1]
    s = summarize(parent, change, "lower")
    assert s["win_fraction"] == 0.9
    assert s["claim_holds"] is True
    assert s["parent"]["median"] == 1.1 and s["change"]["median"] == 0.5
    # the tie in the last pair counts for neither side
    assert summarize(change, parent, "lower")["win_fraction"] == 0.0
    # a metric where higher is better reverses who wins
    assert summarize(parent, change, "higher")["win_fraction"] == 0.0


def test_summary_needs_a_gap_beyond_the_parent_spread():
    summarize = _load_script().summarize
    parent = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
    change = [x - 0.1 for x in parent]
    s = summarize(parent, change, "lower")
    assert s["win_fraction"] == 1.0
    assert s["claim_holds"] is False


def test_criterion_8_reports_both_lanes(monkeypatch):
    module = _load_script()
    compile(module.CRITERION_8_CODE, "criterion-8", "exec")
    printed = {"cpu_s": 2.0, "wall_s": 2.1, "numeric_cpu_s": 1.5, "pass": True}

    def fake_run(argv, **kwargs):
        assert kwargs["env"]["PYTHONPATH"].endswith("src")
        return SimpleNamespace(stdout="noise\n" + json.dumps(printed) + "\n")

    monkeypatch.setattr(module.subprocess, "run", fake_run)
    run = module.run_criterion_8(Path("tree"))
    assert run == {"values": {"cpu_s": 2.0, "wall_s": 2.1, "numeric_cpu_s": 1.5},
                   "failed": 0, "attempted": 1}
    assert set(module.CRITERION_8_METRICS) == set(run["values"])
    # a failing check in either lane fails the run
    printed["pass"] = False
    assert module.run_criterion_8(Path("tree"))["failed"] == 1
