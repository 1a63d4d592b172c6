"""The stripvertex benchmark: one run of one workload (or of all three).

    python3 benchmark/run.py --workload cli-symbolic --seed 1 --seconds 40 --trace 0
    python3 benchmark/run.py --workload all --seed 1

Run from the root of a source tree; the package is imported from src/ and
never installed.  A run first times a bare `import stripvertex` (setup_s),
then repeats the workload's whole job set while the next repetition still
fits in --seconds (at least once), and reports the median over repetitions.
With --trace 1 it runs the job set once untraced and once traced and
reports the per-layer metrics instead.  Every output is checked against
benchmark/digests.json; the last stdout line is the JSON result.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
from pathlib import Path
from time import perf_counter

import jobs as joblib
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# the metrics of the result line.  Their times are CPU times: a 2-vCPU VM
# loses whole seconds of wall time to the hypervisor in some runs and not
# in others, which moves wall_s, table_s and verify_s by up to 25% while
# the CPU time of the same jobs holds.  Those three are printed beside them.
END_TO_END = {"cpu_s": "s", "table_cpu_s": "s", "verify_cpu_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}
WALL = {"wall_s": "s", "table_s": "s", "verify_s": "s"}
SETUP_REPEATS = 15
JOB_TIMEOUT_S = 120
# the whole run must end within 180 s, whatever the jobs do
RUN_DEADLINE_S = 170


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        return self.end - perf_counter()


def run_process(argv: list[str], out_path: Path, timeout: float) -> dict:
    """Run one child to completion; its status (None on timeout), wall, CPU and RSS."""
    killed = []
    with open(out_path, "wb") as out, open(out_path.with_suffix(".err"), "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                env=child_env())

        def kill():
            killed.append(True)
            proc.kill()

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return {"status": None if killed else proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024}


def measure_setup(workdir: Path) -> list[float]:
    """Wall times of fresh processes that import stripvertex and exit."""
    argv = [sys.executable, "-c", "import stripvertex"]
    out = workdir / "setup.out"
    run_process(argv, out, JOB_TIMEOUT_S)  # compiles the bytecode cache
    times = []
    for _ in range(SETUP_REPEATS):
        r = run_process(argv, out, JOB_TIMEOUT_S)
        if r["status"] != 0:
            raise RuntimeError("importing stripvertex failed: "
                               + out.with_suffix(".err").read_text(errors="replace"))
        times.append(r["wall_s"])
    return times


class JobSet:
    """One workload's generated inputs, and one pass over them."""

    def __init__(self, workload: str, seed: int, size: str, workdir: Path,
                 digests: dict):
        self.workload = workload
        self.jobs = joblib.build(workload, seed, size)
        self.keys = [joblib.job_key(workload, job) for job in self.jobs]
        self.workdir = workdir
        self.digests = digests
        self.sweep = workload == "sweep-warm"
        if self.sweep:
            self.steps_path = workdir / "steps.json"
            self.steps_path.write_text(json.dumps(self.jobs), encoding="utf-8")
        else:
            self.spec_paths = []
            for i, job in enumerate(self.jobs):
                path = workdir / f"job{i:02d}.json"
                path.write_text(json.dumps(job), encoding="utf-8")
                self.spec_paths.append(path)

    def run(self, traced: bool, deadline: Deadline) -> dict:
        """Run every job once; the pass's end-to-end numbers and outcomes."""
        tag = "traced" if traced else "plain"
        trace_paths = []
        if self.sweep:
            argv = [sys.executable, str(BENCH / "sweep.py"), str(self.steps_path),
                    str(self.workdir / f"results-{tag}.json")]
            if traced:
                trace_paths.append(self.workdir / "trace-sweep.json")
                argv.append(str(trace_paths[0]))
            proc = run_process(argv, self.workdir / f"sweep-{tag}.out",
                               min(JOB_TIMEOUT_S, deadline.left()))
            records = self._sweep_records(proc, tag)
            procs = [proc]
            wall = proc["wall_s"]
        else:
            records, procs = [], []
            start = perf_counter()
            for i, spec in enumerate(self.spec_paths):
                cli_args = ["--spec", str(spec)]
                if traced:
                    trace_paths.append(self.workdir / f"trace-{i:02d}.json")
                    argv = [sys.executable, str(BENCH / "traced_cli.py"),
                            str(trace_paths[-1]), str(i), "--", *cli_args]
                else:
                    argv = [sys.executable, "-m", "stripvertex.cli", *cli_args]
                out_path = self.workdir / f"job{i:02d}-{tag}.out"
                left = deadline.left()
                if left <= 0:
                    records.append({"status": None, "seconds": 0.0, "cpu_s": 0.0,
                                    "output": b""})
                    continue
                proc = run_process(argv, out_path, min(JOB_TIMEOUT_S, left))
                procs.append(proc)
                records.append({"status": proc["status"], "seconds": proc["wall_s"],
                                "cpu_s": proc["cpu_s"],
                                "output": out_path.read_bytes()})
            wall = perf_counter() - start

        failures = []
        for key, job, rec in zip(self.keys, self.jobs, records):
            reason = joblib.check(key, job, rec["status"], rec["output"],
                                  self.digests)
            if reason:
                failures.append({"job": key, "reason": reason})
        table = [r for job, r in zip(self.jobs, records) if joblib.is_table(job)]
        verify = [r for job, r in zip(self.jobs, records)
                  if not joblib.is_table(job)]
        return {
            "wall_s": wall,
            "cpu_s": sum(p["cpu_s"] for p in procs),
            "table_s": sum(r["seconds"] for r in table),
            "verify_s": sum(r["seconds"] for r in verify),
            "table_cpu_s": sum(r["cpu_s"] for r in table),
            "verify_cpu_s": sum(r["cpu_s"] for r in verify),
            "peak_rss_mb": max((p["rss_mb"] for p in procs), default=0.0),
            "out_bytes": 0 if self.sweep else sum(len(r["output"]) for r in records),
            "attempted": len(self.jobs),
            "failed": len(failures),
            "failures": failures,
            "executed": [key for key, rec in zip(self.keys, records)
                         if rec["status"] is not None],
            "trace_paths": trace_paths,
        }

    def _sweep_records(self, proc: dict, tag: str) -> list[dict]:
        results_path = self.workdir / f"results-{tag}.json"
        if proc["status"] != 0 or not results_path.is_file():
            return [{"status": proc["status"], "seconds": 0.0, "cpu_s": 0.0,
                     "output": b""} for _ in self.jobs]
        results = json.loads(results_path.read_text(encoding="utf-8"))
        return [{"status": 0, "seconds": r["seconds"], "cpu_s": r["cpu_s"],
                 "output": r["output"].encode("utf-8")} for r in results]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def provenance(workload: str, seed: int, size: str, jobs: list[dict]) -> dict:
    version = None
    pyproject = ROOT / "pyproject.toml"
    if pyproject.is_file():
        m = re.search(r'^version\s*=\s*"([^"]+)"', pyproject.read_text(), re.M)
        version = m.group(1) if m else None
    commit = clean = None
    # the ceiling keeps git from picking up a repository that encloses ROOT
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                             cwd=ROOT, env=env, capture_output=True, text=True,
                             timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
            clean = status.returncode == 0 and not status.stdout.strip()
    except (OSError, subprocess.TimeoutExpired, IndexError):
        pass
    qs = sorted({job["q_value"] for job in jobs if "q_value" in job})
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "package_version": version, "git_commit": commit, "git_clean": clean,
            "workload": workload, "seed": seed, "size": size,
            "numeric_q": qs[0] if qs else None}


def run_workload(workload: str, seed: int, seconds: int, trace: bool,
                 size: str = "full") -> dict:
    """One run of one workload; the result record (see main for its printout)."""
    deadline = Deadline(RUN_DEADLINE_S)
    digests = joblib.load_digests()
    workdir = Path(tempfile.mkdtemp(prefix=".bench_work-", dir=ROOT))
    try:
        jobset = JobSet(workload, seed, size, workdir, digests)
        record = {"provenance": provenance(workload, seed, size, jobset.jobs)}
        passes = []
        if trace:
            plain = jobset.run(False, deadline)
            traced = jobset.run(True, deadline)
            passes = [plain, traced]
            dumps = [json.loads(p.read_text(encoding="utf-8"))
                     for p in traced["trace_paths"] if p.is_file()]
            record["metrics"] = tracer.layer_metrics(
                dumps, traced["out_bytes"], traced["wall_s"] - plain["wall_s"])
            # which jobs the traced pass ran, as its spans record them
            job_ids = sorted({int(span[4]) for d in dumps for span in d["spans"]})
            record["executed"] = {"plain": plain["executed"],
                                  "traced": [jobset.keys[i] for i in job_ids]}
            record["spans"] = [d["spans"] for d in dumps]
        else:
            setup = measure_setup(workdir)
            start = perf_counter()
            while True:
                passes.append(jobset.run(False, deadline))
                last = passes[-1]["wall_s"]
                # repeat only while one more pass fits the budget and the deadline
                if (perf_counter() - start + last > seconds
                        or deadline.left() < 2 * last):
                    break
            units = {**END_TO_END, **WALL}
            record["samples"] = {name: [p[name] for p in passes]
                                 if name != "setup_s" else setup for name in units}
            medians = {name: {"value": statistics.median(values), "unit": units[name]}
                       for name, values in record["samples"].items()}
            record["metrics"] = {name: medians[name] for name in END_TO_END}
            record["wall"] = {name: medians[name] for name in WALL}
        record["attempted"] = sum(p["attempted"] for p in passes)
        record["failed"] = sum(p["failed"] for p in passes)
        record["failures"] = [f for p in passes for f in p["failures"]]
        return record
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_summary(workload: str, record: dict) -> None:
    print(f"== {workload}")
    print("provenance: " + json.dumps(record["provenance"], sort_keys=True))
    for name, metric in {**record.get("wall", {}), **record["metrics"]}.items():
        line = f"{name} = {metric['value']:.6g} {metric['unit']}"
        if "samples" in record:
            q1, med, q3 = quartiles(record["samples"][name])
            n = len(record["samples"][name])
            line += f"  (median; q1 {q1:.6g}, q3 {q3:.6g}; n={n})"
        print(line)
    ratio = record["failed"] / record["attempted"]
    print(f"fail_ratio = {ratio:.6g} ratio  ({record['failed']} of "
          f"{record['attempted']} jobs failed)")
    for failure in record["failures"]:
        print(f"FAILED {failure['job']}: {failure['reason']}")


def save(workload: str, seed: int, trace: bool, record: dict) -> None:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None, size: str = "full") -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=joblib.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stripvertex" / "__init__.py").is_file():
        print(f"error: no stripvertex sources under {SRC}", file=sys.stderr)
        return 2
    names = joblib.WORKLOADS if args.workload == "all" else (args.workload,)
    records = {}
    for name in names:
        record = run_workload(name, args.seed, args.seconds, bool(args.trace), size)
        print_summary(name, record)
        save(name, args.seed, bool(args.trace), record)
        records[name] = record

    if len(names) == 1:
        metrics = records[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{key}": value for name, r in records.items()
                   for key, value in r["metrics"].items()}
    failed = sum(r["failed"] for r in records.values())
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in records.values()),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
