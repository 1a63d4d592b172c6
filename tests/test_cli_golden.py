"""CLI output is byte-identical to the frozen digests of the benchmark.

benchmark/digests.json holds the SHA-256 of the stdout of every job the
benchmark can generate.  This runs every CLI job of that file, in both q
lanes and at both sizes, through cli.main in-process, which takes a few
seconds, and compares each output with its digest.  The benchmark files
are only read.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from stripvertex import cli

JOBS = Path(__file__).resolve().parent.parent / "benchmark" / "jobs.py"
SEED = 1


def _load_jobs():
    spec = importlib.util.spec_from_file_location("benchmark_jobs", JOBS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


joblib = _load_jobs()
DIGESTS = joblib.load_digests()
KEYS = sorted(k for k in DIGESTS if k.startswith("cli "))


def test_job_set_covers_every_benchmarked_command():
    jobs = [json.loads(k[len("cli "):]) for k in KEYS]
    assert {job["command"] for job in jobs} == set(cli.COMMANDS) - {"vertex"}
    assert {job.get("q_mode", "symbolic") for job in jobs} == {"symbolic", "numeric"}
    # and the job sets the benchmark draws are among them
    for workload in ("cli-symbolic", "cli-numeric"):
        for size in joblib.SIZES:
            for job in joblib.build(workload, SEED, size):
                assert joblib.job_key(workload, job) in DIGESTS, (workload, size, job)


@pytest.mark.parametrize("key", KEYS, ids=[k[4:] for k in KEYS])
def test_cli_output_matches_frozen_digest(key, tmp_path, capsys):
    job = json.loads(key[len("cli "):])
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(job), encoding="utf-8")
    status = cli.main(["--spec", str(spec)])
    out = capsys.readouterr().out.encode("utf-8")
    assert joblib.check(key, job, status, out, DIGESTS) is None, key
