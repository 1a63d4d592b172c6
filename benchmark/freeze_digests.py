"""Recompute benchmark/digests.json: the output digest of every reachable job.

    python3 benchmark/freeze_digests.py

The seed space is finite (two length-4 words, one length-5 word and one q
per seed), so every job spec any seed can produce is run once here, at
both sizes, through the same entry points the benchmark uses.  Refuses to
write the file if any job fails or any verify-* report does not pass.
Run it only when an output is meant to change, and say so in CHANGES.md.
"""
import itertools
import json
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import jobs as joblib
from run import ROOT, child_env


def reachable_cli_jobs() -> dict:
    out = {}
    for size, lane in itertools.product(joblib.SIZES, ("symbolic", "numeric")):
        qs = joblib.NUMERIC_Q if lane == "numeric" else (None,)
        for pair in itertools.permutations(joblib.strip_words(4), 2):
            for len5, q in itertools.product(joblib.strip_words(5), qs):
                picks = {"len4": list(pair), "len5": len5, "q": q}
                for job in joblib.cli_job_list(lane, picks, size):
                    out[joblib.job_key("cli-" + lane, job)] = job
    return out


def run_cli(job: dict, workdir: Path, i: int) -> tuple[int, bytes]:
    spec = workdir / f"job{i}.json"
    spec.write_text(json.dumps(job), encoding="utf-8")
    proc = subprocess.run([sys.executable, "-m", "stripvertex.cli", "--spec",
                           str(spec)], cwd=ROOT, env=child_env(),
                          capture_output=True, timeout=600)
    return proc.returncode, proc.stdout


def sweep_outputs(size: str, workdir: Path) -> dict:
    steps = joblib.sweep_steps(0, size)
    steps_path, results_path = workdir / f"steps-{size}.json", workdir / "r.json"
    steps_path.write_text(json.dumps(steps), encoding="utf-8")
    subprocess.run([sys.executable, str(Path(__file__).parent / "sweep.py"),
                    str(steps_path), str(results_path)], cwd=ROOT,
                   env=child_env(), check=True, timeout=1800)
    results = json.loads(results_path.read_text(encoding="utf-8"))
    return {joblib.job_key("sweep-warm", step): (0, r["output"].encode("utf-8"))
            for step, r in zip(steps, results)}


def main() -> int:
    cli = reachable_cli_jobs()
    print(f"{len(cli)} CLI jobs to run", flush=True)
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench_work-") as tmp:
        workdir = Path(tmp)
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = {key: pool.submit(run_cli, job, workdir, i)
                       for i, (key, job) in enumerate(cli.items())}
            outputs = {key: f.result() for key, f in futures.items()}
        jobs = dict(cli)
        for size in joblib.SIZES:
            outputs.update(sweep_outputs(size, workdir))
            jobs.update({joblib.job_key("sweep-warm", s): s
                         for s in joblib.sweep_steps(0, size)})
    digests = {}
    bad = []
    for key, (status, output) in sorted(outputs.items()):
        digests[key] = joblib.digest(output)
        # against its own digest, only the status and pass checks can fail
        reason = joblib.check(key, jobs[key], status, output, digests)
        if reason:
            bad.append(f"{key}: {reason}")
    if bad:
        print("refusing to freeze:\n" + "\n".join(bad), file=sys.stderr)
        return 1
    joblib.DIGEST_FILE.write_text(json.dumps(digests, indent=1, sort_keys=True)
                                  + "\n", encoding="utf-8")
    print(f"wrote {len(digests)} digests to {joblib.DIGEST_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
