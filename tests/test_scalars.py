"""Tests for exact scalar arithmetic and truncated parameter series."""
import operator
import random
from fractions import Fraction

import pytest

from stripvertex.scalars import (
    SYMBOLIC,
    NovikovSeries,
    NumericQ,
    quantum_integer,
)

R = SYMBOLIC


def t(k=1):
    return R.t_power(k)


def a(k=1):
    return R.a_power(k)


def frac(n, d=1):
    return R.from_fraction(Fraction(n, d))


# --- oracle: check division results by multiplying back exactly -------------

def _div_checked(x, y):
    q = x / y
    assert (q * y - x).is_zero()
    return q


def random_scalar(rng, with_a=True):
    num = {}
    for _ in range(rng.randint(1, 4)):
        te = rng.randint(-4, 4)
        ae = rng.randint(-2, 2) if with_a else 0
        num[(te, ae)] = num.get((te, ae), Fraction(0)) + Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    den = {0: Fraction(rng.randint(1, 5))}
    for _ in range(rng.randint(0, 2)):
        e = rng.randint(1, 4)
        den[e] = den.get(e, Fraction(0)) + Fraction(rng.randint(-4, 4))
    from stripvertex.scalars import Scalar
    return Scalar(num, den, R)


def test_quantum_integer_basic():
    q1 = quantum_integer(1)
    assert str(q1) == "-t^-1 + t"
    assert quantum_integer(0).is_zero()
    assert quantum_integer(-2) == -quantum_integer(2)


def test_printing_divides_content_and_fixes_sign():
    # the rational content of den is printed in the numerator, over a
    # primitive denominator whose leading coefficient is positive
    assert str(frac(1, 2)) == "1/2"
    assert str(frac(1, 2) / (R.one - t(2))) == "(-1/2)/(-1 + t^2)"
    assert str(frac(-2, 3) * a(1) / (frac(3) - frac(3) * t(1))) == "(2/9*a)/(-1 + t)"
    assert str(frac(3, 4) * t(-1) + frac(1, 6) * a(2)) == "3/4*t^-1 + 1/6*a^2"


def test_quantum_ratio_is_laurent():
    # {2}/{1} = t + 1/t by polynomial long division
    got = _div_checked(quantum_integer(2), quantum_integer(1))
    assert got == t(1) + t(-1)


def test_division_reduces_canonically():
    x = (t(2) - t(-2)) * (t(3) - t(-3))
    y = (t(1) - t(-1)) * (t(3) - t(-3))
    got = _div_checked(x, y)
    assert got == t(1) + t(-1)


def test_add_mul_ring_axioms_randomized():
    rng = random.Random(20260819)
    for _ in range(60):
        x, y, z = (random_scalar(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert (x - x).is_zero()
        assert (x * R.one) == x
        assert (x + R.zero) == x


def test_division_by_general_a_polynomial_rejected():
    with pytest.raises(ValueError):
        _ = R.one / (a(1) - a(-1))
    with pytest.raises(ZeroDivisionError):
        _ = R.one / R.zero


def test_division_by_a_monomial_allowed():
    x = a(2) * t(3) + a(1)
    got = _div_checked(x, a(1) * frac(2))
    assert got == (a(1) * t(3) + R.one) * frac(1, 2)


def test_pow_and_inverse():
    x = quantum_integer(2)
    assert x ** 0 == R.one
    assert x ** 3 == x * x * x
    assert (x ** -2) * x ** 2 == R.one


def test_subs_q_inverse_involution():
    rng = random.Random(7)
    for _ in range(30):
        x = random_scalar(rng)
        assert x.subs_q_inverse().subs_q_inverse() == x
    assert quantum_integer(3).subs_q_inverse() == -quantum_integer(3)


def test_subs_a_one():
    x = a(1) - a(-1)
    assert x.subs_a_one().is_zero()
    y = (a(1) - a(-1)) / quantum_integer(1)
    assert y.subs_a_one().is_zero()


def test_adams_is_exponent_scaling():
    x = (t(2) + a(1) * t(-1)) / (R.one + t(2))
    got = x.adams(3)
    expect = (t(6) + a(3) * t(-3)) / (R.one + t(6))
    assert got == expect
    rng = random.Random(11)
    for _ in range(20):
        u, v = random_scalar(rng), random_scalar(rng)
        assert (u * v).adams(2) == u.adams(2) * v.adams(2)
        assert (u + v).adams(2) == u.adams(2) + v.adams(2)


def test_eval_q_is_ring_homomorphism():
    rng = random.Random(13)
    tv = Fraction(3, 2)
    for _ in range(25):
        u, v = random_scalar(rng), random_scalar(rng)
        try:
            uv = u.eval_q(tv)
            vv = v.eval_q(tv)
        except ZeroDivisionError:
            continue
        assert (u + v).eval_q(tv) == uv + vv
        assert (u * v).eval_q(tv) == uv * vv


def test_eval_q_example():
    # {2} at t = 2 is 2^2 - 2^-2 = 15/4
    got = quantum_integer(2).eval_q(Fraction(2))
    assert got.num == {(0, 0): 15} and got.den == {0: 4}


def test_numeric_ring_from_q():
    ring = NumericQ.from_q(Fraction(9, 4))
    assert ring.t == Fraction(3, 2)
    with pytest.raises(ValueError):
        NumericQ.from_q(Fraction(1, 2))
    x = ring.quantum_int(2)
    # 9/4 - 4/9 = 65/36
    assert x.num == {(0, 0): 65} and x.den == {0: 36}


def test_numeric_matches_symbolic_eval():
    ring = NumericQ(Fraction(3, 2))
    sym = quantum_integer(3) * a(2) + frac(1, 2) * t(-1)
    assert sym.eval_q(Fraction(3, 2)) == (
        ring.quantum_int(3) * ring.a_power(2) + ring.from_fraction(Fraction(1, 2)) * ring.t_power(-1)
    )


def test_mixing_lanes_raises_type_error():
    ring = NumericQ(Fraction(3, 2))
    sym, num = t(1) + R.one, ring.from_fraction(2)
    # a second numeric ring is a different ring, not the same lane
    other = NumericQ(Fraction(5, 1)).from_fraction(2)
    for x, y in ((sym, num), (num, sym), (num, other), (other, num)):
        for op in (operator.add, operator.sub, operator.mul, operator.truediv,
                   operator.eq):
            with pytest.raises(TypeError):
                op(x, y)
    # an equal ring built twice is the same ring
    assert NumericQ(Fraction(3, 2)).one + ring.one == ring.from_fraction(2)
    for x in (sym, num):
        for y in (1, NovikovSeries.constant(x.ring.one)):
            for op in (operator.add, operator.sub, operator.mul, operator.truediv):
                with pytest.raises(TypeError):
                    op(x, y)


@pytest.mark.parametrize("ring", [R, NumericQ(Fraction(3, 2))], ids=lambda r: r.mode)
def test_zero_scalar_is_falsy(ring):
    assert not ring.zero and not ring.one - ring.one
    assert ring.one and ring.quantum_int(1)


# --- NovikovSeries -----------------------------------------------------------

def Q(name, cap=None):
    return NovikovSeries.monomial({name: 1}, R.one, cap)


def test_truncation_example():
    u = NovikovSeries.constant(R.one, 1) + Q("Q1", 1)
    v = NovikovSeries.constant(R.one, 1) + Q("Q2", 1)
    got = u * v
    expect = NovikovSeries.constant(R.one, 1) + Q("Q1", 1) + Q("Q2", 1)
    assert got == expect


def test_truncation_consistency():
    rng = random.Random(99)

    def rand_series(cap):
        s = NovikovSeries({}, R, cap)
        for _ in range(6):
            e1, e2 = rng.randint(0, 3), rng.randint(0, 3)
            s = s + NovikovSeries.monomial({"Q1": e1, "Q2": e2}, random_scalar(rng, with_a=False), cap)
        return s

    for _ in range(15):
        u = rand_series(None)
        v = rand_series(None)
        full = (u * v).truncate(3)
        trunc = u.truncate(3) * v.truncate(3)
        assert full == trunc


def test_series_inverse():
    s = NovikovSeries.constant(R.one, 4) + Q("Q1", 4).scale(-quantum_integer(1))
    inv = s.inverse()
    assert (s * inv) == NovikovSeries.constant(R.one, 4)
    with pytest.raises(ValueError):
        Q("Q1", 3).inverse()
    # the constant term is read in the series' own ring
    num = NovikovSeries.monomial({"Q1": 1}, NumericQ(Fraction(3, 2)).one)
    assert s.constant_term() == R.one and num.constant_term() == num.ring.zero


def test_series_adams():
    s = NovikovSeries.constant(quantum_integer(1), None) + Q("Q1").scale(t(1))
    got = s.adams(2)
    expect = NovikovSeries.constant(quantum_integer(1).adams(2), None) + NovikovSeries.monomial(
        {"Q1": 2}, t(2), None)
    assert got == expect
