"""Command line front end: coefficient tables and verification reports.

One job per invocation.  A job is described by a JSON file (--spec) and
tweaked by flags; the result is a JSON document on stdout or at --out.
Exit status: 0 on success or a passing verification, 1 when a verification
fails, 2 on malformed input (including a truncation above MAX_CAP, a strip
word above MAX_WORD and a spec key outside SPEC_KEYS) and when the result
cannot be written to --out.
"""

import argparse
import json
import sys
from fractions import Fraction

from .qdiff import verify_annihilation
from .scalars import SYMBOLIC, NumericQ, key_string
from .skein import verify_dilog_recurrence
from .vertex import (
    StripGeometry,
    closed_form,
    glue_strip,
    mirror_and_quantum,
    verify_strip_identity,
    verify_two_leg_product,
    z_open,
)

DEFAULT_CAP = 4

# The command table: every command with the largest truncation it accepts; a
# larger one exits with status 2.  Work grows faster than exponentially in
# the cap, so a mistyped cap such as 1000 would otherwise run without bound.
# Each ceiling is twice the largest cap the benchmark runs (at numeric q:
# strip tables 6, closed-form 8, verify-curve 10, verify-dilog 9,
# verify-two-leg 6).  mirror-curve ignores the cap but checks it like every
# other command.
MAX_CAP = {
    "vertex": 12,
    "partition": 12,
    "closed-form": 16,
    "verify-dilog": 18,
    "verify-two-leg": 12,
    "verify-strip": 12,
    "verify-curve": 20,
    "mirror-curve": 20,
}
COMMANDS = tuple(MAX_CAP)

# The longest strip word accepted, with status 2 past it for the same reason:
# twice the longest word the benchmark runs (5 letters, mirror-curve).
MAX_WORD = 10
SPEC_KEYS = ("command", "types", "truncation", "q_mode", "q_value", "branes", "out")


class JobError(Exception):
    """Malformed job description; maps to exit status 2."""


def _load_spec(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            spec = json.load(fh)
    except OSError as exc:
        raise JobError(f"cannot read spec file: {exc}") from exc
    except ValueError as exc:
        raise JobError(f"spec file is not valid JSON: {exc}") from exc
    if not isinstance(spec, dict):
        raise JobError("spec file must hold a JSON object")
    return spec


def _resolve_ring(q_mode, q_value):
    if q_mode == "symbolic":
        return SYMBOLIC, "symbolic"
    if q_mode != "numeric":
        raise JobError(f"q_mode must be 'symbolic' or 'numeric', not {q_mode!r}")
    if q_value is None:
        raise JobError("numeric q_mode needs a q_value")
    try:
        q = Fraction(str(q_value))
    except (ValueError, ZeroDivisionError) as exc:
        raise JobError(f"cannot parse q_value {q_value!r}") from exc
    if q in (0, 1, -1):
        raise JobError("numeric q must avoid 0 and +-1")
    try:
        ring = NumericQ.from_q(q)
    except ValueError as exc:
        raise JobError(str(exc)) from exc
    return ring, str(q)


def _resolve_job(args) -> dict:
    spec = _load_spec(args.spec) if args.spec else {}
    unknown = sorted(set(spec) - set(SPEC_KEYS))
    if unknown:
        raise JobError(f"unknown spec key {', '.join(map(repr, unknown))}; "
                       f"the keys are {', '.join(SPEC_KEYS)}")
    command = args.command or spec.get("command")
    if not command:
        raise JobError("no command given (use --command or the spec file)")
    if command not in COMMANDS:
        raise JobError(f"unknown command {command!r}; "
                       f"choose one of {', '.join(COMMANDS)}")

    cap = args.cap if args.cap is not None else spec.get("truncation", DEFAULT_CAP)
    if not isinstance(cap, int) or isinstance(cap, bool) or cap < 0:
        raise JobError("truncation must be a non-negative integer")
    if cap > MAX_CAP[command]:
        raise JobError(f"truncation {cap} is above the ceiling of {command!r}, "
                       f"{MAX_CAP[command]}")

    q_mode = spec.get("q_mode", "symbolic")
    q_value = spec.get("q_value")
    if args.numeric_q is not None:
        q_mode, q_value = "numeric", args.numeric_q
    elif q_mode == "symbolic" and q_value is not None:
        raise JobError("a q_value needs q_mode 'numeric' or --numeric-q")
    ring, q_label = _resolve_ring(q_mode, q_value)

    strip = None
    if command not in ("verify-dilog", "verify-two-leg"):
        types = spec.get("types")
        if not isinstance(types, str):
            raise JobError(f"command {command!r} needs a 'types' word "
                           "in the spec file")
        if len(types) > MAX_WORD:
            raise JobError(f"strip word of {len(types)} letters is above the "
                           f"ceiling of {MAX_WORD}")
        try:
            strip = StripGeometry(types)
        except ValueError as exc:
            raise JobError(str(exc)) from exc

    branes = spec.get("branes", "two")
    if branes not in ("one", "two"):
        raise JobError("branes must be 'one' or 'two'")

    out = args.out or spec.get("out")
    if out is not None and not isinstance(out, str):
        raise JobError("out must be a file path")

    return {
        "command": command,
        "cap": cap,
        "ring": ring,
        "q": q_label,
        "strip": strip,
        "branes": branes,
        "out": out,
    }


def _table(z, branes: str) -> list:
    # rows [*slot partitions, Q-monomial, scalar]; every build is a SymFunc2
    # (or its slice), so each coefficient is already at combined degree
    rows = []
    for key, series in z.terms.items():
        slots = key if branes == "two" else (key,)
        for mono, scalar in series.sorted_terms():
            rows.append([*map(list, slots), key_string(mono), str(scalar)])
    rows.sort(key=lambda r: ([(sum(lam), lam) for lam in r[:-2]], r[-2]))
    return rows


def _run_table(job) -> dict:
    command, strip, cap = job["command"], job["strip"], job["cap"]
    ring, branes = job["ring"], job["branes"]
    build = closed_form if command == "closed-form" else glue_strip
    z = build(strip, cap, ring, branes=branes)
    if command == "partition":
        z = z_open(z)
    if branes == "one":
        z = z.slice_first()
    return {"command": command, "types": strip.types, "cap": cap, "q": job["q"],
            "branes": branes, "coefficients": _table(z, branes)}


def _run_verify(job) -> dict:
    command, cap, ring = job["command"], job["cap"], job["ring"]
    if command == "verify-dilog":
        reports = [verify_dilog_recurrence(cap, which, ring)
                   for which in ("forward", "inverse")]
        report = {"check": "dilog-recurrence", "cap": cap,
                  "reports": reports, "pass": all(r["pass"] for r in reports)}
    elif command == "verify-two-leg":
        report = verify_two_leg_product(cap, ring)
    else:
        check = (verify_strip_identity if command == "verify-strip"
                 else verify_annihilation)
        report = check(job["strip"].types, cap, ring)
    return dict(report, command=command, q=job["q"])


def _strings(value):
    # the curve data with every series printed, nesting kept
    if isinstance(value, dict):
        return {k: _strings(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_strings(v) for v in value]
    return str(value)


def _run_mirror_curve(job) -> dict:
    strip = job["strip"]
    curve = _strings(mirror_and_quantum(strip, job["ring"]))
    return dict(curve, command="mirror-curve", types=strip.types, q=job["q"])


def _emit(payload: dict, out_path) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise JobError(f"cannot write output file: {exc}") from exc
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stripvertex",
        description="Coefficient tables and verification reports for "
                    "open strings on toric strips.")
    parser.add_argument("--spec", metavar="FILE",
                        help="job description (JSON object)")
    parser.add_argument("--command", choices=COMMANDS,
                        help="what to compute; overrides the spec file")
    parser.add_argument("--out", metavar="FILE",
                        help="write the JSON result here instead of stdout")
    parser.add_argument("--cap", type=int, metavar="N",
                        help=f"truncation degree (default {DEFAULT_CAP})")
    parser.add_argument("--numeric-q", metavar="P/Q", dest="numeric_q",
                        help="evaluate at a rational q (must be a square)")
    args = parser.parse_args(argv)

    try:
        job = _resolve_job(args)
        if job["command"].startswith("verify-"):
            payload = _run_verify(job)
        elif job["command"] == "mirror-curve":
            payload = _run_mirror_curve(job)
        else:
            payload = _run_table(job)
        _emit(payload, job["out"])
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if payload.get("pass") is False else 0


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
