"""Self-tests of the benchmark, at the tiny size.

    python3 -m pytest benchmark/tests -q
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import jobs as joblib  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SEED = 3


def run_main(capsys, workload, trace):
    status = run.main(["--workload", workload, "--seed", str(SEED),
                       "--seconds", "1", "--trace", str(trace)], size="tiny")
    out = capsys.readouterr().out.splitlines()
    return status, out[:-1], json.loads(out[-1])


@pytest.mark.parametrize("workload", joblib.WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_named_metric_is_printed_with_its_unit(capsys, workload, trace):
    status, lines, result = run_main(capsys, workload, trace)
    assert status == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{m['name']} = ") and f" {m['unit']}" in line
                   for line in lines), m["name"]
    if not trace:
        # the wall-time figures have no bound but are printed by name
        for name in run.WALL:
            assert any(line.startswith(f"{name} = ") for line in lines), name
    assert any(line.startswith("fail_ratio = 0 ratio") for line in lines)
    assert any(line.startswith("provenance: ") for line in lines)


def test_corrupted_output_counts_in_fail_ratio(monkeypatch):
    real = run.run_process

    def corrupt_first_job(argv, out_path, timeout):
        result = real(argv, out_path, timeout)
        if out_path.name.startswith("job00-"):
            data = bytearray(out_path.read_bytes())
            data[len(data) // 2] ^= 1
            out_path.write_bytes(bytes(data))
        return result

    monkeypatch.setattr(run, "run_process", corrupt_first_job)
    record = run.run_workload("cli-numeric", SEED, 1, False, "tiny")
    assert record["failed"] >= 1
    assert record["failed"] / record["attempted"] > 0
    assert {f["reason"] for f in record["failures"]} <= {
        "output differs from its frozen digest",
        "verify report is not JSON with a pass field"}


def test_check_rejects_failed_verifications():
    job = {"command": "verify-dilog", "truncation": 2}
    key = joblib.job_key("cli-symbolic", job)
    good = json.dumps({"pass": True}).encode()
    digests = {key: joblib.digest(good)}
    assert joblib.check(key, job, 0, good, digests) is None
    assert joblib.check(key, job, None, good, digests) == "timed out"
    assert joblib.check(key, job, 1, good, digests) == "exit status 1"
    bad = json.dumps({"pass": False}).encode()
    assert joblib.check(key, job, 0, bad, {key: joblib.digest(bad)}) == \
        "verify report says pass: false"


@pytest.mark.parametrize("workload", ["cli-symbolic", "sweep-warm"])
def test_traced_and_untraced_passes_run_the_same_jobs(workload):
    record = run.run_workload(workload, SEED, 1, True, "tiny")
    want = [joblib.job_key(workload, job)
            for job in joblib.build(workload, SEED, "tiny")]
    assert record["executed"]["plain"] == want
    assert record["executed"]["traced"] == want
    assert all(record["spans"])


def test_seed_fixes_the_inputs():
    for workload in joblib.WORKLOADS:
        assert joblib.build(workload, 11) == joblib.build(workload, 11)
    assert joblib.build("cli-numeric", 1) != joblib.build("cli-numeric", 2)


def test_every_reachable_job_has_a_digest():
    from freeze_digests import reachable_cli_jobs

    digests = joblib.load_digests()
    assert set(reachable_cli_jobs()) <= set(digests)
    for size in joblib.SIZES:
        for step in joblib.sweep_steps(0, size):
            assert joblib.job_key("sweep-warm", step) in digests


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload",
                           "cli-symbolic", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
