"""The symbolic lane evaluated at t = 3/2 agrees with the numeric lane.

For every strip word of length at most 4 (the first letter is always A,
so 15 words) and every table command, in both brane settings, the
symbolic table mapped coefficient-wise through eval_q equals the same
table computed with t pinned to 3/2.  The numeric lane never builds a
symbolic Scalar, so this is an oracle for the symbolic scalar code that
shares none of it.
"""
from fractions import Fraction
from itertools import product

import pytest

from stripvertex.scalars import SYMBOLIC, NumericQ
from stripvertex.vertex import (
    StripGeometry,
    closed_form,
    glue_strip,
    one_brane_closed_form,
    z_open,
)

CAP = 2
TV = Fraction(3, 2)
NUMERIC = NumericQ(TV)
WORDS = ["A" + "".join(rest) for n in range(4) for rest in product("AB", repeat=n)]


def table(command, branes, word, ring):
    strip = StripGeometry(word)
    if command == "closed-form":
        if branes == "one":
            return one_brane_closed_form(strip, CAP, ring)
        return closed_form(strip, CAP, ring)
    z = glue_strip(strip, CAP, ring, branes=branes)
    if command == "partition":
        z = z_open(z)
    return z.slice_first() if branes == "one" else z


def nonzero_terms(f, evaluate):
    out = {}
    for key, series in f.terms.items():
        for mono, c in series.terms.items():
            value = c.eval_q(TV) if evaluate else c
            if not value.is_zero():
                out[(key, mono)] = value
    return out


def test_every_word_of_length_at_most_four():
    assert len(WORDS) == 15 and len(set(WORDS)) == 15


@pytest.mark.parametrize("branes", ["two", "one"])
@pytest.mark.parametrize("command", ["vertex", "partition", "closed-form"])
def test_symbolic_at_three_halves_is_numeric(command, branes):
    for word in WORDS:
        symbolic = table(command, branes, word, SYMBOLIC)
        numeric = table(command, branes, word, NUMERIC)
        got = nonzero_terms(symbolic, evaluate=True)
        assert got, (command, branes, word)
        assert got == nonzero_terms(numeric, evaluate=False), (command, branes, word)
