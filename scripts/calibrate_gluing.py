"""One-time search fixing the gluing conventions that vertex.glue_strip hard-codes.

The chain sum leaves a few discrete choices open: which of a type-B vertex's
two edge slots carries the framing, the sign attached to each unit of an
internal edge partition for the four ordered type pairs, an optional
q^(kappa/2) power per edge, and an optional sign on odd boundary partitions
when the last vertex has type B.  Exactly one assignment makes the
normalized chain sum reproduce the plethystic product form; this script
sweeps the whole space with the rule-parameterised chain sum of
tests/oracles.py and prints the survivors, which should be its SHIPPED_RULES.

Run from the repository root:  PYTHONPATH=src python3 scripts/calibrate_gluing.py
"""
import itertools
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from oracles import glue_strip_by_tuples  # noqa: E402

from stripvertex.scalars import NumericQ  # noqa: E402
from stripvertex.vertex import StripGeometry, closed_form, z_open  # noqa: E402

# The words in the final round carry size-2 edge partitions next to nonempty
# boundaries, which is what separates the kappa-power choices; smaller caps
# leave a residual degeneracy there.
WORDS_FAST = [("AA", 2), ("AB", 2), ("ABA", 2), ("ABB", 2)]
WORDS_SLOW = [("AAB", 3), ("ABAB", 3), ("ABA", 4), ("ABB", 4)]


def matches(word, cap, ring, rules):
    strip = StripGeometry(word)
    lhs = z_open(glue_strip_by_tuples(strip, cap, ring, rules=rules))
    return lhs == closed_form(strip, cap, ring)


def search():
    """Every rule table that passes both rounds of words; one is expected."""
    ring = NumericQ.from_q(Fraction(9, 4))
    combos = itertools.product(
        ("left_first", "right_first"),
        (1, -1), (1, -1), (1, -1),          # edge sign per unit for AB, BA, BB
        (-1, 0, 1), (-1, 0, 1), (-1, 0, 1),  # kappa power for AB, BA, BB
        (1, -1),                             # odd-size sign at a type-B end
    )
    survivors = []
    for b_slots, sab, sba, sbb, gab, gba, gbb, endb in combos:
        rules = {
            "edge_sign": {"AA": 1, "AB": sab, "BA": sba, "BB": sbb},
            "edge_kappa": {"AA": 0, "AB": gab, "BA": gba, "BB": gbb},
            "b_slots": b_slots,
            "end_sign_b": endb,
        }
        if all(matches(w, cap, ring, rules) for w, cap in WORDS_FAST):
            survivors.append(rules)
    return [rules for rules in survivors
            if all(matches(w, cap, ring, rules) for w, cap in WORDS_SLOW)]


def main():
    t0 = time.time()
    final = search()
    for rules in final:
        print("survivor:", rules)
    print(f"total {time.time() - t0:.1f}s")
    return 0 if len(final) == 1 else 1


if __name__ == "__main__":
    sys.exit(main())
