"""Sweep outputs are byte-identical to the frozen digests of the benchmark.

benchmark/digests.json also holds the SHA-256 of every step the sweep-warm
workload can run: the JSON reports of verify_strip_identity,
verify_annihilation and verify_one_brane_match on every strip word, and the
partition strings.  This runs each of those steps through run_step of
benchmark/sweep.py in-process, starting from an empty memo, and compares
its output with its digest.  The benchmark files are only read.
"""
import importlib.util
import json
from pathlib import Path

import pytest

from stripvertex.scalars import SYMBOLIC

BENCH = Path(__file__).resolve().parent.parent / "benchmark"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


joblib = _load("benchmark_jobs", BENCH / "jobs.py")
sweep = _load("benchmark_sweep", BENCH / "sweep.py")
DIGESTS = joblib.load_digests()
KEYS = sorted(k for k in DIGESTS if k.startswith("sweep "))


@pytest.fixture(scope="module", autouse=True)
def cold_memo():
    SYMBOLIC.memo.clear()


def test_every_sweep_step_has_a_digest():
    steps = [joblib.job_key("sweep-warm", step)
             for size in joblib.SIZES for step in joblib.sweep_steps(0, size)]
    assert sorted(steps) == KEYS


@pytest.mark.parametrize("key", KEYS, ids=[k[6:] for k in KEYS])
def test_sweep_output_matches_frozen_digest(key):
    step = json.loads(key[len("sweep "):])
    out = sweep.run_step(step).encode("utf-8")
    assert joblib.check(key, step, 0, out, DIGESTS) is None, key
