"""The paired-run summary of scripts/bench_pairs.py: wins, spread and the claim rule."""
import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

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


def _stub_run(monkeypatch, module, printed):
    # each subprocess prints noise, then its metrics as one line of JSON
    def fake_run(argv, **kwargs):
        assert kwargs["env"]["PYTHONPATH"].endswith("src")
        return SimpleNamespace(stdout="noise\n" + json.dumps(printed) + "\n")

    monkeypatch.setattr(module.subprocess, "run", fake_run)


@pytest.mark.parametrize("workload,check,symbolic_cap,numeric_cap,lengths", [
    ("criterion-5", "verify_strip_identity", 3, 5, {1, 2, 3, 4}),
    ("criterion-6", "verify_annihilation", 8, 16, {1, 2, 3, 4}),
    ("criterion-8", "verify_one_brane_match", 6, 8, {1, 2, 3, 4}),
    ("length-5", "verify_annihilation", 8, 16, {5}),
])
def test_criterion_reports_both_lanes(monkeypatch, workload, check, symbolic_cap, numeric_cap,
                                      lengths):
    module = _load_script()
    code, metrics = module.IN_TREE[workload]
    compile(code, workload, "exec")
    assert check in code and f"check(w, {symbolic_cap})" in code
    assert f"check(w, {numeric_cap}, ring)" in code
    # every word of each length, once, starting with A
    namespace = {}
    exec(code[code.index("words = "):code.index("SYMBOLIC.memo")], namespace)
    words = namespace["words"]
    assert len(words) == len(set(words)) == sum(1 << (n - 1) for n in lengths)
    assert {len(w) for w in words} == lengths and all(w[0] == "A" for w in words)
    printed = {"cpu_s": 2.0, "wall_s": 2.1, "numeric_cpu_s": 1.5, "pass": True}
    _stub_run(monkeypatch, module, printed)
    run = module.run_in_tree(Path("tree"), workload)
    assert run == {"values": {"cpu_s": 2.0, "wall_s": 2.1, "numeric_cpu_s": 1.5},
                   "failed": 0, "attempted": 1}
    assert set(metrics) == set(run["values"])
    # a failing check in either lane fails the run
    printed["pass"] = False
    assert module.run_in_tree(Path("tree"), workload)["failed"] == 1


def test_import_reports_import_and_process_time(monkeypatch):
    module = _load_script()
    code, metrics = module.IN_TREE["import"]
    compile(code, "import", "exec")
    _stub_run(monkeypatch, module, {"import_s": 0.01, "pass": True})
    run = module.run_in_tree(Path("tree"), "import")
    assert set(run["values"]) == set(metrics) == {"import_s", "process_s"}
    assert run["values"]["import_s"] == 0.01 and run["values"]["process_s"] >= 0
    assert run["failed"] == 0
