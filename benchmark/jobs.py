"""Job sets of the three workloads, and the correctness check of one output.

Everything here is a pure function of (workload, seed, size): the seed picks
two length-4 strip words, one length-5 word, the numeric q and the job
order, and nothing else.  The program only ever sees the job specs built here.
"""
from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

WORKLOADS = ("cli-symbolic", "cli-numeric", "sweep-warm")

# q values of the numeric lane: rational squares, so t = q^(1/2) is exact
NUMERIC_Q = ("9/4", "25/16", "16/9")

TABLE_COMMANDS = ("vertex", "partition", "closed-form", "mirror-curve")

# verify-curve's cost differs between length-4 words (3.4-4.9 s at x^8); one
# fixed word keeps that spread out of the seed-to-seed variation
CURVE_WORD = "ABAB"

# Base truncation per strip: AB and ABA are fixed, the two length-4 words
# are picked by the seed.  Each lane adds its own offsets on top.
SIZES = {
    # a job set takes 5-7 s, so one run repeats it several times and its
    # median does not hang on one slow stretch of a shared host
    "full": {
        "caps": {"AB": 4, "ABA": 3, "len4": 3},
        "lanes": {
            "symbolic": {"strip": 0, "closed": 1, "curve": 5, "dilog": 7,
                         "two_leg": 4},
            "numeric": {"strip": 2, "closed": 4, "curve": 10, "dilog": 9,
                        "two_leg": 6},
        },
        "sweep": {"max_len": 4, "strip": 2, "curve": 3, "one_brane": 4,
                  "partition": 2},
    },
    # a few seconds per workload; used by the benchmark's own tests
    "tiny": {
        "caps": {"AB": 1, "ABA": 1, "len4": 1},
        "lanes": {
            "symbolic": {"strip": 0, "closed": 1, "curve": 2, "dilog": 2,
                         "two_leg": 2},
            "numeric": {"strip": 1, "closed": 2, "curve": 3, "dilog": 2,
                        "two_leg": 2},
        },
        "sweep": {"max_len": 2, "strip": 1, "curve": 2, "one_brane": 2,
                  "partition": 1},
    },
}

DIGEST_FILE = Path(__file__).resolve().parent / "digests.json"


def strip_words(length: int) -> list[str]:
    """All strip words of one length; the first letter is always A."""
    return ["A" + "".join("AB"[(bits >> i) & 1] for i in range(length - 1))
            for bits in range(1 << (length - 1))]


def cli_jobs(lane: str, seed: int, size: str = "full") -> list[dict]:
    """The CLI job specs of one lane, in the seed's order.

    Both lanes draw the same words for a seed; the numeric lane also draws q.
    """
    rng = random.Random(seed)
    # one AA... and one AB... word: the AB... words cost about a third more,
    # and taking one of each keeps that out of the seed-to-seed spread
    len4 = strip_words(4)
    picks = {"len4": [rng.choice([w for w in len4 if w[1] == letter])
                      for letter in "AB"],
             "len5": rng.choice(strip_words(5)),
             "q": rng.choice(NUMERIC_Q)}
    jobs = cli_job_list(lane, picks, size)
    rng.shuffle(jobs)
    return jobs


def cli_job_list(lane: str, picks: dict, size: str) -> list[dict]:
    """The CLI job specs for given picks (len4: two words, len5: one, q)."""
    cfg = SIZES[size]
    off = cfg["lanes"][lane]
    q = {"q_mode": "numeric", "q_value": picks["q"]} if lane == "numeric" else {}
    words = [("AB", cfg["caps"]["AB"]), ("ABA", cfg["caps"]["ABA"])]
    words += [(w, cfg["caps"]["len4"]) for w in picks["len4"]]
    jobs = []
    for word, cap in words:
        jobs.append({"command": "verify-strip", "types": word,
                     "truncation": cap + off["strip"]})
        jobs.append({"command": "partition", "types": word,
                     "truncation": cap + off["strip"]})
        jobs.append({"command": "closed-form", "types": word, "branes": "one",
                     "truncation": cap + off["closed"]})
    jobs.append({"command": "verify-curve", "types": CURVE_WORD,
                 "truncation": off["curve"]})
    jobs.append({"command": "verify-dilog", "truncation": off["dilog"]})
    jobs.append({"command": "verify-two-leg", "truncation": off["two_leg"]})
    jobs.append({"command": "mirror-curve", "types": picks["len5"]})
    return [dict(job, **q) for job in jobs]


def sweep_steps(seed: int, size: str = "full") -> list[dict]:
    """Acceptance-style steps over every strip word, in a seed-picked word order.

    Per word: the three checks of acceptance criteria 5, 6 and 8 at reduced
    caps, then the partition table, which a warm memo mostly serves.
    """
    cfg = SIZES[size]["sweep"]
    words = [w for n in range(1, cfg["max_len"] + 1) for w in strip_words(n)]
    random.Random(seed).shuffle(words)
    steps = []
    for word in words:
        steps.append({"command": "verify-strip", "types": word,
                      "truncation": cfg["strip"]})
        steps.append({"command": "verify-curve", "types": word,
                      "truncation": cfg["curve"]})
        steps.append({"command": "verify-one-brane", "types": word,
                      "truncation": cfg["one_brane"]})
        steps.append({"command": "partition", "types": word,
                      "truncation": cfg["partition"]})
    return steps


def build(workload: str, seed: int, size: str = "full") -> list[dict]:
    if workload == "cli-symbolic":
        return cli_jobs("symbolic", seed, size)
    if workload == "cli-numeric":
        return cli_jobs("numeric", seed, size)
    if workload == "sweep-warm":
        return sweep_steps(seed, size)
    raise ValueError(f"unknown workload {workload!r}")


def is_table(job: dict) -> bool:
    return job["command"] in TABLE_COMMANDS


def job_key(workload: str, job: dict) -> str:
    """Digest key: the sweep's in-process steps are kept apart from CLI jobs."""
    kind = "sweep" if workload == "sweep-warm" else "cli"
    return kind + " " + json.dumps(job, sort_keys=True, separators=(",", ":"))


def digest(output: bytes) -> str:
    return hashlib.sha256(output).hexdigest()


def load_digests() -> dict:
    with open(DIGEST_FILE, encoding="utf-8") as fh:
        return json.load(fh)


def check(key: str, job: dict, status: int | None, output: bytes,
          digests: dict) -> str | None:
    """Why one job's result is wrong, or None when it is right.

    status None means the job timed out.  A verify-* result must exit 0 and
    report pass: true; every output must match its frozen digest.
    """
    if status is None:
        return "timed out"
    if status != 0:
        return f"exit status {status}"
    if job["command"].startswith("verify-"):
        try:
            passed = json.loads(output)["pass"]
        except (ValueError, KeyError, TypeError):
            return "verify report is not JSON with a pass field"
        if passed is not True:
            return "verify report says pass: false"
    want = digests.get(key)
    if want is None:
        return "no frozen digest for this job"
    if digest(output) != want:
        return "output differs from its frozen digest"
    return None
