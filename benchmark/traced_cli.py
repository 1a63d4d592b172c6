"""Run one stripvertex CLI job with the benchmark's tracer installed.

    python3 benchmark/traced_cli.py TRACE_OUT JOB_ID -- <stripvertex arguments>

Stdout and the exit status are those of the CLI; the trace is written to
TRACE_OUT when the job ends.
"""
import sys

from tracer import Tracer


def main(argv: list[str]) -> int:
    trace_out, job_id, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: traced_cli.py TRACE_OUT JOB_ID -- ARGS...")
    tracer = Tracer()
    tracer.install()
    tracer.job = job_id
    from stripvertex import cli

    try:
        return cli.main(cli_args)
    finally:
        sys.stdout.flush()
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
