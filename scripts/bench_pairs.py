"""Paired benchmark runs of two source trees: a parent commit and a change.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        --seed S --out FILE
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload criterion-8 \
        --pairs N --out FILE

Runs `benchmark/run.py --workload W --seed S` alternately in the two trees,
the parent first in even-numbered pairs and the change first in odd ones,
and reads each run's record from that tree's `.bench_out/`.  FILE gets,
under the workload's name, each end-to-end metric of BENCHMARK.json with
both sides' runs, medians and quartiles, and the fraction of pairs the
change won (ties count for neither), plus the failed-job counts and the
provenance: Python version, core count and both trees' commits.  Entries
for other workloads already in FILE are kept, so one file collects several
invocations.  The benchmark itself is only run, never edited.

The workload `criterion-8` is not one of the benchmark's: each of its runs
starts a fresh process, clears the symbolic ring's memo and times
`verify_one_brane_match` on the 15 strip words of length at most 4 in both
lanes of acceptance criterion 8: at cap 6, symbolic q, reported as `cpu_s`
(CPU time) and `wall_s` (wall time), then at cap 8, q = 9/4, in a fresh
NumericQ ring, reported as `numeric_cpu_s`.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

CRITERION_8 = "criterion-8"
CRITERION_8_CODE = """
import json
from time import perf_counter, process_time
from stripvertex.scalars import SYMBOLIC, NumericQ
from stripvertex.vertex import verify_one_brane_match
words = ["A" + "".join("AB"[(bits >> i) & 1] for i in range(n - 1))
         for n in range(1, 5) for bits in range(1 << (n - 1))]
SYMBOLIC.memo.clear()
wall, cpu = perf_counter(), process_time()
ok = all(verify_one_brane_match(w, 6)["pass"] for w in words)
cpu_s, wall_s = process_time() - cpu, perf_counter() - wall
ring = NumericQ.from_q("9/4")
cpu = process_time()
ok = all(verify_one_brane_match(w, 8, ring)["pass"] for w in words) and ok
print(json.dumps({"cpu_s": cpu_s, "wall_s": wall_s,
                  "numeric_cpu_s": process_time() - cpu, "pass": ok}))
"""
CRITERION_8_METRICS = {"cpu_s": "lower", "wall_s": "lower", "numeric_cpu_s": "lower"}
RUN_TIMEOUT_S = 600


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
    return {"q1": q1, "median": med, "q3": q3}


def summarize(parent: list[float], change: list[float], better: str) -> dict:
    """Both sides' runs and spread, and how often and how clearly the change won.

    claim_holds applies the rule for claiming a gain: the change wins at
    least nine tenths of the pairs, and the medians differ, in its favour,
    by more than the distance between the parent's quartiles.
    """
    sign = 1 if better == "lower" else -1
    wins = sum(1 for p, c in zip(parent, change) if sign * (p - c) > 0)
    ps, cs = quartiles(parent), quartiles(change)
    gap = sign * (ps["median"] - cs["median"])
    return {"better": better, "parent": {"runs": parent, **ps},
            "change": {"runs": change, **cs}, "win_fraction": wins / len(parent),
            "claim_holds": wins >= 0.9 * len(parent) and gap > ps["q3"] - ps["q1"]}


def run_benchmark(tree: Path, workload: str, seed: int) -> dict:
    """One run of the benchmark's workload in tree: {metric: value} and failures."""
    subprocess.run([sys.executable, "benchmark/run.py", "--workload", workload,
                    "--seed", str(seed)], cwd=tree, check=True, capture_output=True,
                   timeout=RUN_TIMEOUT_S)
    path = tree / ".bench_out" / f"{workload}-seed{seed}-trace0.json"
    record = json.loads(path.read_text(encoding="utf-8"))
    values = {name: m["value"] for name, m in record["metrics"].items()}
    return {"values": values, "failed": record["failed"], "attempted": record["attempted"]}


def run_criterion_8(tree: Path) -> dict:
    """One timed run of criterion 8 in a fresh process, from tree's sources.

    The symbolic lane gives cpu_s and wall_s, the numeric lane numeric_cpu_s;
    the run fails when either lane's check does.
    """
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    out = subprocess.run([sys.executable, "-c", CRITERION_8_CODE], cwd=tree, env=env,
                         check=True, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    values = {name: result[name] for name in CRITERION_8_METRICS}
    return {"values": values, "failed": 0 if result["pass"] else 1, "attempted": 1}


def git_commit(tree: Path) -> str | None:
    out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=tree, capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, help="the benchmark's workload seed")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.seed is None and args.workload != CRITERION_8:
        parser.error(f"--seed is required for the benchmark's workload {args.workload!r}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    if args.workload == CRITERION_8:
        metrics = CRITERION_8_METRICS
        run = run_criterion_8
    else:
        spec = json.loads((trees["change"] / "BENCHMARK.json").read_text(encoding="utf-8"))
        metrics = {m["name"]: m["better"] for m in spec["end_to_end"]}

        def run(tree):
            return run_benchmark(tree, args.workload, args.seed)

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(run(trees[side]))
            print(f"pair {i + 1}/{args.pairs} {side}: {runs[side][-1]['values']}",
                  flush=True)

    entry = {
        "pairs": args.pairs,
        "seed": args.seed,
        "first": ["parent" if i % 2 == 0 else "change" for i in range(args.pairs)],
        "metrics": {name: summarize([r["values"][name] for r in runs["parent"]],
                                    [r["values"][name] for r in runs["change"]], better)
                    for name, better in metrics.items()},
        "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs.items()},
        "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in runs.items()},
        "provenance": {"python": platform.python_version(), "nproc": os.cpu_count(),
                       "commits": {side: git_commit(tree) for side, tree in trees.items()}},
    }
    data = json.loads(args.out.read_text(encoding="utf-8")) if args.out.is_file() else {}
    data[args.workload] = entry
    args.out.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    for name, m in entry["metrics"].items():
        print(f"{args.workload} {name}: parent {m['parent']['median']:.4g}, "
              f"change {m['change']['median']:.4g}, change won {m['win_fraction']:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
