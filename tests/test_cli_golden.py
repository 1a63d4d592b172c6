"""CLI output is byte-identical to the frozen digests of the benchmark.

benchmark/digests.json holds the SHA-256 of the stdout of every job the
benchmark can generate.  This runs the tiny-size CLI job set of one seed
(every command the job set uses, both q lanes), and the full-size job set
of the symbolic lane, which takes about a second, through cli.main
in-process and compares each output with its digest.  The benchmark files
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
CASES = [(workload, job)
         for workload, size in (("cli-symbolic", "tiny"), ("cli-numeric", "tiny"),
                                ("cli-symbolic", "full"))
         for job in joblib.build(workload, SEED, size)]


def test_job_set_covers_every_benchmarked_command():
    commands = {job["command"] for _, job in CASES}
    assert commands == set(cli.COMMANDS) - {"vertex"}
    assert {job.get("q_mode", "symbolic") for _, job in CASES} == {"symbolic", "numeric"}


@pytest.mark.parametrize("workload,job", CASES,
                         ids=[joblib.job_key(w, j)[4:] for w, j in CASES])
def test_cli_output_matches_frozen_digest(workload, job, tmp_path, capsys):
    spec = tmp_path / "job.json"
    spec.write_text(json.dumps(job), encoding="utf-8")
    status = cli.main(["--spec", str(spec)])
    out = capsys.readouterr().out.encode("utf-8")
    key = joblib.job_key(workload, job)
    assert joblib.check(key, job, status, out, DIGESTS) is None, key
