"""The sweep-warm workload: one long-lived process, one shared ring memo.

    python3 benchmark/sweep.py STEPS_JSON RESULTS_JSON [TRACE_OUT]

Runs every step of STEPS_JSON through the library API in order and writes,
per step, its wall and CPU time and its output text to RESULTS_JSON.  With
TRACE_OUT the tracer is installed first and its trace written at the end.
"""
import json
import sys
from time import perf_counter, process_time


def run_step(step: dict) -> str:
    # look the entry points up at call time, after any tracer wrapped them
    from stripvertex import qdiff, vertex

    command, word, cap = step["command"], step["types"], step["truncation"]
    if command == "verify-strip":
        report = vertex.verify_strip_identity(word, cap)
    elif command == "verify-curve":
        report = qdiff.verify_annihilation(word, cap)
    elif command == "verify-one-brane":
        report = vertex.verify_one_brane_match(word, cap)
    elif command == "partition":
        z = vertex.z_open(vertex.glue_strip(vertex.StripGeometry(word), cap))
        return str(z) + "\n"
    else:
        raise ValueError(f"unknown sweep command {command!r}")
    return json.dumps(report, sort_keys=True) + "\n"


def main(argv: list[str]) -> int:
    steps_path, results_path, *trace = argv
    tracer = None
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    with open(steps_path, encoding="utf-8") as fh:
        steps = json.load(fh)
    results = []
    for i, step in enumerate(steps):
        if tracer:
            tracer.job = i
        start, cpu = perf_counter(), process_time()
        output = run_step(step)
        results.append({"seconds": perf_counter() - start,
                        "cpu_s": process_time() - cpu, "output": output})
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    if tracer:
        tracer.dump(trace[0])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
