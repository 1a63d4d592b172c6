"""Command line front end: coefficient tables and verification reports.

One job per invocation.  A job is described by a JSON file (--spec) and
tweaked by flags; the result is a JSON document on stdout or at --out.
Exit status: 0 on success or a passing verification, 1 when a verification
fails, 2 on malformed input (including a truncation above MAX_CAP) and
when the result cannot be written to --out.
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
    one_brane_closed_form,
    verify_strip_identity,
    verify_two_leg_product,
    z_open,
)

DEFAULT_CAP = 4

TABLE_COMMANDS = ("vertex", "partition", "closed-form")
VERIFY_COMMANDS = ("verify-dilog", "verify-two-leg", "verify-strip",
                   "verify-curve")
COMMANDS = TABLE_COMMANDS + VERIFY_COMMANDS + ("mirror-curve",)
NEEDS_TYPES = TABLE_COMMANDS + ("verify-strip", "verify-curve", "mirror-curve")

# Largest truncation each command accepts; a larger one exits with status 2.
# Work grows faster than exponentially in the cap, so a mistyped cap such as
# 1000 would otherwise run without bound.  Each ceiling is twice the largest
# cap the benchmark runs (at numeric q: strip tables 6, closed-form 8,
# verify-curve 10, verify-dilog 9, verify-two-leg 6).  mirror-curve ignores
# the cap but checks it like every other command.
MAX_CAP = {
    "vertex": 12,
    "partition": 12,
    "closed-form": 16,
    "verify-strip": 12,
    "verify-curve": 20,
    "verify-dilog": 18,
    "verify-two-leg": 12,
    "mirror-curve": 20,
}


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
    ring, q_label = _resolve_ring(q_mode, q_value)

    strip = None
    if command in NEEDS_TYPES:
        types = spec.get("types")
        if not isinstance(types, str):
            raise JobError(f"command {command!r} needs a 'types' word "
                           "in the spec file")
        try:
            strip = StripGeometry(types)
        except ValueError as exc:
            raise JobError(str(exc)) from exc

    branes = spec.get("branes", "two")
    if branes not in ("one", "two"):
        raise JobError("branes must be 'one' or 'two'")

    return {
        "command": command,
        "cap": cap,
        "ring": ring,
        "q": q_label,
        "strip": strip,
        "branes": branes,
        "out": args.out or spec.get("out"),
    }


def _partition_list(lam) -> list:
    return [int(p) for p in lam]


def _two_brane_table(z) -> list:
    rows = []
    for (l1, l2), series in z.terms.items():
        for key, scalar in series.sorted_terms():
            rows.append([_partition_list(l1), _partition_list(l2),
                         key_string(key), str(scalar)])
    rows.sort(key=lambda r: (sum(r[0]), r[0], sum(r[1]), r[1], r[2]))
    return rows


def _one_brane_table(f, cap: int) -> list:
    # emit at combined degree <= cap so one- and two-brane tables line up
    rows = []
    for lam, series in f.terms.items():
        for key, scalar in series.truncate(cap - sum(lam)).sorted_terms():
            rows.append([_partition_list(lam), key_string(key), str(scalar)])
    rows.sort(key=lambda r: (sum(r[0]), r[0], r[1]))
    return rows


def _series_strings(entries) -> list:
    return [str(e) for e in entries]


def _run_table(job) -> dict:
    command, strip, cap = job["command"], job["strip"], job["cap"]
    ring, branes = job["ring"], job["branes"]
    if command == "closed-form":
        if branes == "one":
            table = _one_brane_table(one_brane_closed_form(strip, cap, ring), cap)
        else:
            table = _two_brane_table(closed_form(strip, cap, ring))
    else:
        z = glue_strip(strip, cap, ring, branes=branes)
        if command == "partition":
            z = z_open(z)
        table = _two_brane_table(z) if branes == "two" else _one_brane_table(
            z.slice_first(), cap)
    return {
        "command": command,
        "types": strip.types,
        "cap": cap,
        "q": job["q"],
        "branes": branes,
        "coefficients": table,
    }


def _run_verify(job) -> dict:
    command, cap, ring = job["command"], job["cap"], job["ring"]
    if command == "verify-dilog":
        reports = [verify_dilog_recurrence(cap, which, ring)
                   for which in ("forward", "inverse")]
        report = {"check": "dilog-recurrence", "cap": cap,
                  "reports": reports, "pass": all(r["pass"] for r in reports)}
    elif command == "verify-two-leg":
        report = verify_two_leg_product(cap, ring)
    elif command == "verify-strip":
        report = verify_strip_identity(job["strip"].types, cap, ring)
    else:
        report = verify_annihilation(job["strip"].types, cap, ring)
    report["command"] = command
    report["q"] = job["q"]
    return report


def _run_mirror_curve(job) -> dict:
    strip, ring = job["strip"], job["ring"]
    curve = mirror_and_quantum(strip, ring)
    return {
        "command": "mirror-curve",
        "types": strip.types,
        "q": job["q"],
        "alphas": _series_strings(curve["alphas"]),
        "betas": _series_strings(curve["betas"]),
        "classical": {
            "y": _series_strings(curve["classical"]["y"]),
            "one": _series_strings(curve["classical"]["one"]),
        },
        "quantum": {
            "A": _series_strings(curve["quantum"]["A"]),
            "B": _series_strings(curve["quantum"]["B"]),
            "shift": curve["quantum"]["shift"],
        },
    }


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
        command = job["command"]
        if command in TABLE_COMMANDS:
            payload = _run_table(job)
            status = 0
        elif command in VERIFY_COMMANDS:
            payload = _run_verify(job)
            status = 0 if payload["pass"] else 1
        else:
            payload = _run_mirror_curve(job)
            status = 0
        _emit(payload, job["out"])
    except JobError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return status


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
