"""Paired benchmark runs of two source trees: a parent commit and a change.

    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload W --pairs N \
        --seed S --out FILE
    python3 scripts/bench_pairs.py PARENT_DIR CHANGE_DIR --workload criterion-6 \
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

The workloads of IN_TREE are not the benchmark's and take no seed.  Each
run is one fresh process from the tree's sources that prints its metrics:
  * `criterion-5`, `criterion-6` and `criterion-8` time the check of
    acceptance criterion 5 (`verify_strip_identity`, cap 3 symbolic, cap 5
    at q = 9/4), 6 (`verify_annihilation`, x^8 symbolic, x^16 at q = 9/4)
    or 8 (`verify_one_brane_match`, cap 6 symbolic, cap 8 at q = 9/4) on
    the 15 strip words of length at most 4, with the symbolic ring's memo
    cleared and a fresh NumericQ ring: `cpu_s` (CPU time) and `wall_s`
    (wall time) of the symbolic lane, `numeric_cpu_s` of the numeric one;
    a run fails when either lane's check does;
  * `length-5` times criterion 6's check in the same way on the 16 words
    of length 5, one past the acceptance words;
  * `import` imports stripvertex and exits: `import_s` is the import
    itself, `process_s` the wall time of the whole process, as the
    benchmark's `setup_s` takes it.
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
from time import perf_counter

_LANES_CODE = """
import json
from time import perf_counter, process_time
from stripvertex.scalars import SYMBOLIC, NumericQ
from stripvertex.{module} import {check} as check
words = ["A" + "".join("AB"[(bits >> i) & 1] for i in range(n - 1))
         for n in {lengths} for bits in range(1 << (n - 1))]
SYMBOLIC.memo.clear()
wall, cpu = perf_counter(), process_time()
ok = all(check(w, {symbolic_cap})["pass"] for w in words)
cpu_s, wall_s = process_time() - cpu, perf_counter() - wall
ring = NumericQ.from_q("9/4")
cpu = process_time()
ok = all(check(w, {numeric_cap}, ring)["pass"] for w in words) and ok
print(json.dumps({{"cpu_s": cpu_s, "wall_s": wall_s,
                  "numeric_cpu_s": process_time() - cpu, "pass": ok}}))
"""
_LANES_METRICS = {"cpu_s": "lower", "wall_s": "lower", "numeric_cpu_s": "lower"}
_IMPORT_CODE = """
import json
from time import perf_counter
start = perf_counter()
import stripvertex
print(json.dumps({"import_s": perf_counter() - start, "pass": True}))
"""
# the word lengths of the acceptance criteria
_ACCEPTANCE = range(1, 5)
# workload: (the code its fresh process runs, {metric: better})
IN_TREE = {
    "criterion-5": (_LANES_CODE.format(module="vertex", check="verify_strip_identity",
                                       symbolic_cap=3, numeric_cap=5,
                                       lengths=_ACCEPTANCE), _LANES_METRICS),
    "criterion-6": (_LANES_CODE.format(module="qdiff", check="verify_annihilation",
                                       symbolic_cap=8, numeric_cap=16,
                                       lengths=_ACCEPTANCE), _LANES_METRICS),
    "criterion-8": (_LANES_CODE.format(module="vertex", check="verify_one_brane_match",
                                       symbolic_cap=6, numeric_cap=8,
                                       lengths=_ACCEPTANCE), _LANES_METRICS),
    "length-5": (_LANES_CODE.format(module="qdiff", check="verify_annihilation",
                                    symbolic_cap=8, numeric_cap=16, lengths=(5,)),
                 _LANES_METRICS),
    "import": (_IMPORT_CODE, {"import_s": "lower", "process_s": "lower"}),
}
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


def run_in_tree(tree: Path, workload: str) -> dict:
    """One run of an IN_TREE workload in a fresh process, from tree's sources.

    The process prints its metrics as the last line of JSON; the wall time
    of the whole process is process_s.
    """
    code, metrics = IN_TREE[workload]
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = perf_counter()
    out = subprocess.run([sys.executable, "-c", code], cwd=tree, env=env,
                         check=True, capture_output=True, text=True,
                         timeout=RUN_TIMEOUT_S)
    result = dict(json.loads(out.stdout.strip().splitlines()[-1]),
                  process_s=perf_counter() - start)
    values = {name: result[name] for name in metrics}
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
    if args.seed is None and args.workload not in IN_TREE:
        parser.error(f"--seed is required for the benchmark's workload {args.workload!r}")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    if args.workload in IN_TREE:
        metrics = IN_TREE[args.workload][1]

        def run(tree):
            return run_in_tree(tree, args.workload)
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
