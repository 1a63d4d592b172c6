"""Ring axioms of scalar arithmetic in both lanes, as hypothesis properties.

Scalars are drawn as a few rational Laurent monomials in t and a over a
product of small t-polynomials (cyclotomic factors and the content
polynomial of solve_recurrence) and a rational constant.  The same draw
builds a symbolic Scalar and a numeric LaurentScalar at t = 3/2.  A den of
two FACTORS draws sums over dens that share a factor as well as coprime
ones.  Every result of +, * and / must also be in the canonical form, read
off its num and den without sympy: int coefficients, min(den) == 0, a den
with a positive leading coefficient and joint integer content 1.
"""
from fractions import Fraction
from math import gcd

import pytest

from stripvertex.scalars import SYMBOLIC, NumericQ

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
given, settings = hypothesis.given, hypothesis.settings

RINGS = [SYMBOLIC, NumericQ(Fraction(3, 2))]
# dense t-coefficients, lowest degree first: Phi_1, Phi_2, Phi_3, Phi_6 and
# t^2 (2 + q + q^2 + q^-1) at q = t^2
FACTORS = ([-1, 1], [1, 1], [1, 1, 1], [1, -1, 1], [1, 0, 2, 0, 1, 0, 1])

SMALL = settings(max_examples=60, deadline=None, database=None)

rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))
terms = st.lists(st.tuples(rationals, st.integers(-3, 3), st.integers(-2, 2)),
                 min_size=1, max_size=4)
dens = st.tuples(st.lists(st.sampled_from(FACTORS), max_size=2),
                 st.builds(Fraction, st.integers(1, 4), st.integers(1, 4)))


def canonical(x):
    """x, once its num and den are checked to be in the canonical form."""
    num, den = x.num, x.den
    assert all(type(c) is int for c in (*num.values(), *den.values())), (num, den)
    if not num:
        assert den == {0: 1}
        return x
    assert min(den) == 0 and den[max(den)] > 0, den
    assert gcd(*num.values(), *den.values()) == 1, (num, den)
    return x


def build(ring, draw_terms, draw_den, a_exp=None):
    num = ring.zero
    for c, te, ae in draw_terms:
        num = num + ring.monomial(c, te, ae if a_exp is None else a_exp)
    factors, const = draw_den
    den = ring.from_fraction(const)
    for poly in factors:
        f = ring.zero
        for e, c in enumerate(poly):
            if c:
                f = f + ring.monomial(c, e)
        den = den * f
    return num / den


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.mode)
@SMALL
@given(terms, dens, terms, dens)
def test_commutative(ring, nx, dx, ny, dy):
    x, y = build(ring, nx, dx), build(ring, ny, dy)
    assert canonical(x + y) == canonical(y + x)
    assert canonical(x * y) == canonical(y * x)


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.mode)
@SMALL
@given(terms, dens, terms, dens, terms, dens)
def test_associative_and_distributive(ring, nx, dx, ny, dy, nz, dz):
    x, y, z = build(ring, nx, dx), build(ring, ny, dy), build(ring, nz, dz)
    assert canonical(canonical(x + y) + z) == canonical(x + canonical(y + z))
    assert canonical(canonical(x * y) * z) == canonical(x * canonical(y * z))
    assert canonical(x * (y + z)) == canonical(canonical(x * y) + canonical(x * z))


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.mode)
@SMALL
@given(terms, dens)
def test_difference_with_itself_is_zero(ring, nx, dx):
    x = build(ring, nx, dx)
    assert canonical(x - x).is_zero()
    assert x - x == ring.zero


@pytest.mark.parametrize("ring", RINGS, ids=lambda r: r.mode)
@SMALL
@given(terms, dens, terms, dens, st.integers(-2, 2))
def test_division_undoes_multiplication(ring, nx, dx, ny, dy, a_exp):
    x = build(ring, nx, dx)
    y = build(ring, ny, dy, a_exp=a_exp)
    hypothesis.assume(not y.is_zero())
    assert canonical(canonical(x / y) * y) == x
