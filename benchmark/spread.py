"""Median, quartiles and spread of each metric over runs at several seeds.

    python3 benchmark/spread.py WORKLOAD SEEDS [SECONDS]
    python3 benchmark/spread.py cli-numeric 1,2,3,4,5,6,7,8,9,10 40

Runs benchmark/run.py once per seed, one after another, and prints per
end-to-end metric the median, first and third quartile, the sample count
and the quartile distance as a share of the median, which is the figure
each metric's bound in BENCHMARK.json is set against.
"""
import json
import subprocess
import sys
from pathlib import Path

from run import quartiles

RUN = Path(__file__).resolve().parent / "run.py"


def main(argv: list[str]) -> int:
    workload, seeds = argv[0], [int(s) for s in argv[1].split(",")]
    seconds = argv[2] if len(argv) > 2 else "40"
    values: dict = {}
    units: dict = {}
    for seed in seeds:
        proc = subprocess.run([sys.executable, str(RUN), "--workload", workload,
                               "--seed", str(seed), "--seconds", seconds,
                               "--trace", "0"], capture_output=True, text=True,
                              cwd=RUN.parent.parent, check=True)
        result = json.loads(proc.stdout.splitlines()[-1])
        if not result["correct"]:
            print(proc.stdout, file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
        print(f"seed {seed}: " + ", ".join(
            f"{n} {m['value']:.4g}" for n, m in result["metrics"].items()),
            flush=True)
    for name, vals in values.items():
        q1, med, q3 = quartiles(vals)
        print(f"{name} {units[name]}: median {med:.6g}, q1 {q1:.6g}, "
              f"q3 {q3:.6g}, n={len(vals)}, spread {(q3 - q1) / med:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
