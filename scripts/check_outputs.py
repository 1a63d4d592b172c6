"""Run every frozen benchmark job in-process and compare it with its digest.

    python3 scripts/check_outputs.py

benchmark/digests.json holds the SHA-256 of the output of every job the
benchmark can generate.  This runs each of them from an empty memo: the CLI
jobs through cli.main, the sweep steps through run_step of
benchmark/sweep.py.  It prints one line per job whose output, exit status
or verdict is wrong and exits 1 if there is any; the digests are only read.
"""
import io
import json
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmark")]

import jobs as joblib  # noqa: E402
from sweep import run_step  # noqa: E402

from stripvertex import cli  # noqa: E402
from stripvertex.scalars import SYMBOLIC  # noqa: E402


def run_cli(job: dict, spec: Path) -> tuple[int, bytes]:
    spec.write_text(json.dumps(job), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli.main(["--spec", str(spec)])
    return status, out.getvalue().encode("utf-8")


def main() -> int:
    digests = joblib.load_digests()
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "job.json"
        for key in sorted(digests):
            kind, text = key.split(" ", 1)
            job = json.loads(text)
            SYMBOLIC.memo.clear()
            if kind == "cli":
                status, output = run_cli(job, spec)
            else:
                status, output = 0, run_step(job).encode("utf-8")
            reason = joblib.check(key, job, status, output, digests)
            if reason:
                bad.append(f"{key}: {reason}")
    for line in bad:
        print(line)
    print(f"{len(digests) - len(bad)} of {len(digests)} frozen outputs match")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
