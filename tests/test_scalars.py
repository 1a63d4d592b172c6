"""Tests for exact scalar arithmetic and truncated parameter series."""
import inspect
import operator
import random
from fractions import Fraction

import pytest

from stripvertex.qdiff import QSeries
from stripvertex.scalars import (
    SYMBOLIC,
    NonNilpotentArgument,
    NovikovSeries,
    NumericQ,
    Scalar,
)
from stripvertex.symfunc import SymFunc, SymFunc2

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
    return Scalar(num, den, R)


def test_constructor_always_reduces():
    # 2/2 built by hand is the one of the ring, in value, print and hash
    x = Scalar({(0, 0): 2}, {0: 2}, R)
    assert x == R.one and str(x) == "1" and hash(x) == hash(R.one)


@pytest.mark.parametrize("cls", [Scalar, NovikovSeries, SymFunc, SymFunc2, QSeries],
                         ids=lambda c: c.__name__)
def test_no_public_constructor_can_skip_normalising(cls):
    assert not {"reduced", "clean"} & set(inspect.signature(cls).parameters)


def test_quantum_integer_basic():
    q1 = R.quantum_int(1)
    assert str(q1) == "-t^-1 + t"
    assert R.quantum_int(0).is_zero()
    assert R.quantum_int(-2) == -R.quantum_int(2)


def test_printing_divides_content_and_fixes_sign():
    # the rational content of den is printed in the numerator, over a
    # primitive denominator whose leading coefficient is positive
    assert str(frac(1, 2)) == "1/2"
    assert str(frac(1, 2) / (R.one - t(2))) == "(-1/2)/(-1 + t^2)"
    assert str(frac(-2, 3) * a(1) / (frac(3) - frac(3) * t(1))) == "(2/9*a)/(-1 + t)"
    assert str(frac(3, 4) * t(-1) + frac(1, 6) * a(2)) == "3/4*t^-1 + 1/6*a^2"


def test_quantum_ratio_is_laurent():
    # {2}/{1} = t + 1/t by polynomial long division
    got = _div_checked(R.quantum_int(2), R.quantum_int(1))
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
    x = R.quantum_int(2)
    assert x ** 0 == R.one
    assert x ** 3 == x * x * x
    assert (x ** -2) * x ** 2 == R.one


def test_subs_q_inverse_involution():
    rng = random.Random(7)
    for _ in range(30):
        x = random_scalar(rng)
        assert x.subs_q_inverse().subs_q_inverse() == x
    assert R.quantum_int(3).subs_q_inverse() == -R.quantum_int(3)


def test_subs_a_one():
    x = a(1) - a(-1)
    assert x.subs_a_one().is_zero()
    y = (a(1) - a(-1)) / R.quantum_int(1)
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
    got = R.quantum_int(2).eval_q(Fraction(2))
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
    sym = R.quantum_int(3) * a(2) + frac(1, 2) * t(-1)
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


def test_novikov_keys_have_one_form():
    one = R.one
    q1q2 = Q("Q1") * Q("Q2")
    # the order of the names does not matter, and two keys of one form add up
    q2q1 = NovikovSeries({(("Q2", 1), ("Q1", 1)): one}, R)
    assert q2q1 == q1q2 and (q2q1 - q1q2).is_zero()
    both = NovikovSeries({(("Q1", 1), ("Q2", 1)): one, (("Q2", 1), ("Q1", 1)): one}, R)
    assert both == q1q2.scale(frac(2))
    # a repeated name's exponents add, and a zero exponent drops out
    assert NovikovSeries({(("Q1", 1), ("Q1", 2)): one}, R) == NovikovSeries.monomial(
        {"Q1": 3}, one)
    assert NovikovSeries({(("Q1", 0),): one}, R) == NovikovSeries.constant(one)
    # a negative exponent is refused, by the constructor as by monomial
    with pytest.raises(ValueError, match="nonnegative"):
        NovikovSeries({(("Q1", -1),): one}, R)
    with pytest.raises(ValueError, match="nonnegative"):
        NovikovSeries.monomial({"Q1": -1}, one)


@pytest.mark.parametrize("exps", [{"Q1": 0.5}, {"Q1": 1.0}])
def test_novikov_exponents_must_be_integers(exps):
    with pytest.raises(ValueError, match="nonnegative integers"):
        NovikovSeries.monomial(exps, R.one, 1)
    with pytest.raises(ValueError, match="nonnegative integers"):
        NovikovSeries({tuple(exps.items()): R.one}, R)


@pytest.mark.parametrize("ring", [R, NumericQ(Fraction(3, 2))], ids=["symbolic", "numeric"])
def test_monomial_takes_exact_input_only(ring):
    for t_exp, a_exp in ((0.5, 0), (1.0, 0), (0, 0.5)):
        with pytest.raises(ValueError, match="exponents must be integers"):
            ring.monomial(1, t_exp, a_exp)
    for c in (0.5, 1.0, "1", None):
        with pytest.raises(TypeError, match="ints or Fractions"):
            ring.monomial(c)
        with pytest.raises(TypeError, match="ints or Fractions"):
            ring.from_fraction(c)
    assert ring.monomial(Fraction(6, 4), 1) == ring.monomial(Fraction(3, 2)) * ring.t_power(1)


def test_scalar_constructor_takes_exact_input_only():
    with pytest.raises(ValueError, match="exponents must be integers"):
        Scalar({(0.5, 0): 1}, {0: 1}, R)
    with pytest.raises(ValueError, match="exponents must be integers"):
        Scalar({(0, 0): 1}, {1.0: 1}, R)
    for c in (0.1, "1"):
        with pytest.raises(TypeError, match="ints or Fractions"):
            Scalar({(0, 0): c}, {0: 1}, R)
        with pytest.raises(TypeError, match="ints or Fractions"):
            Scalar({(0, 0): 1}, {0: c}, R)
    assert Scalar({(0, 0): Fraction(1, 10)}, {0: 1}, R) == frac(1, 10)


def test_values_of_t_and_q_must_be_exact():
    for build in (NumericQ, NumericQ.from_q, R.quantum_int(1).eval_q):
        for x in (0.1, 0.01, 2.25):
            with pytest.raises(TypeError, match="not a float"):
                build(x)
    # strings and Fractions stay exact: the CLI and the pair benchmarks pass them
    assert NumericQ("3/2") == NumericQ(Fraction(3, 2)) == NumericQ.from_q("9/4")
    assert R.quantum_int(1).eval_q("3/2") == NumericQ(Fraction(3, 2)).quantum_int(1)


def test_numeric_lane_refuses_the_substitutions():
    # Scalar's substitutions build type(self)(...); a numeric value has no t to
    # substitute, so its overrides refuse instead of returning a wrong value
    ring = NumericQ(Fraction(3, 2))
    x = ring.quantum_int(2) * ring.a_power(1) + ring.one
    series = NovikovSeries({(("Q1", 1),): x, (): ring.one}, ring, 2)
    for call in (lambda: x.adams(2), x.subs_q_inverse, lambda: x.eval_q(Fraction(2)),
                 lambda: series.adams(2), lambda: series.eval_q(Fraction(2))):
        with pytest.raises(NotImplementedError, match="symbolic q"):
            call()


def test_series_inverse():
    s = NovikovSeries.constant(R.one, 4) + Q("Q1", 4).scale(-R.quantum_int(1))
    inv = s.inverse()
    assert (s * inv) == NovikovSeries.constant(R.one, 4)
    with pytest.raises(ValueError):
        Q("Q1", 3).inverse()
    # the constant term is read in the series' own ring
    num = NovikovSeries.monomial({"Q1": 1}, NumericQ(Fraction(3, 2)).one)
    assert s.constant_term() == R.one and num.constant_term() == num.ring.zero


def test_series_adams():
    s = NovikovSeries.constant(R.quantum_int(1), None) + Q("Q1").scale(t(1))
    got = s.adams(2)
    expect = NovikovSeries.constant(R.quantum_int(1).adams(2), None) + NovikovSeries.monomial(
        {"Q1": 2}, t(2), None)
    assert got == expect


# --- Novikov series: the series core where the coefficients are scalars ------

@pytest.mark.parametrize("ring", [R, NumericQ(Fraction(3, 2))], ids=["symbolic", "numeric"])
def test_novikov_exp_is_the_taylor_sum(ring):
    x = (NovikovSeries.monomial({"Q1": 1}, ring.monomial(3, 1), 3)
         + NovikovSeries.monomial({"Q2": 1}, ring.one, 3))
    taylor = power = NovikovSeries.one(ring, 3)
    for k in range(1, 4):
        power = (power * x).scale(ring.from_fraction(Fraction(1, k)))
        taylor = taylor + power
    assert x.exp() == taylor
    assert x.exp() * (-x).exp() == NovikovSeries.one(ring, 3)
    with pytest.raises(NonNilpotentArgument):
        (x + NovikovSeries.one(ring, 3)).exp()


def test_novikov_exp_needs_a_finite_cap():
    with pytest.raises(ValueError, match="finite cap"):
        Q("Q1").exp()
    assert Q("Q1", 1).exp() == NovikovSeries.one(R, 1) + Q("Q1", 1)


def test_novikov_scale_scalar_and_map_coeffs_act_on_the_scalars():
    x = NovikovSeries({(("Q1", 1),): t(1), (): frac(1, 2)}, R, 2)
    s = R.quantum_int(2)
    assert x.scale_scalar(s) == x.scale(s)
    assert x.scale_scalar(s).coefficient((("Q1", 1),)) == t(1) * s
    flipped = x.map_coeffs(Scalar.subs_q_inverse)
    assert flipped == x.map_scalars(Scalar.subs_q_inverse)
    assert flipped.coefficient((("Q1", 1),)) == t(-1)


def test_novikov_series_has_only_the_power_sum_basis():
    for x in (Q("Q1", 2), NovikovSeries.zero(R, 2)):
        assert x.convert("p") is x
        for basis in ("schur", "monomial"):
            with pytest.raises(ValueError, match="NovikovSeries"):
                x.convert(basis)


def test_qseries_refuses_a_negative_exponent():
    one = NovikovSeries.constant(R.one)
    with pytest.raises(ValueError, match="nonnegative"):
        QSeries({-1: one}, 3, R)
    with pytest.raises(ValueError, match="nonnegative"):
        QSeries.variable(R, 3, power=-2)
    assert QSeries({0: one, 2: one}, 3, R) == QSeries.from_list(
        [one, NovikovSeries.constant(R.zero), one], 3, R)
