"""Differential tests of symbolic Scalar arithmetic against sympy.

Random rational functions in t and a are built twice from the same random
choices: once as Scalars through the ring's public constructors, once in
sympy's rational function field QQ(t, a), whose elements are kept in the
lowest terms that sympy.cancel computes.  Every Scalar result is read back
through str(), which is what the CLI prints, and must equal the field
result of the same operation.
Denominators are products of cyclotomic polynomials Phi_n(t), as hook and
quantum-integer products are, and of the non-cyclotomic content
polynomial 2 + q + q^2 + q^-1 (q = t^2) that solve_recurrence divides by.
Four reductions are built by hand as Scalar(num, den) and must give the
lowest terms of sympy.cancel exactly: two from criterion 6 whose first
evaluation point gives the heuristic gcd a false candidate, a gcd taken
jointly over the a-slices, and a repeated factor under integer content.
The places where the arithmetic decides whether to look for a polynomial
factor are checked against sympy.cancel in the same way: a value with a
one-term numerator, whose products never search (a monkeypatched _cancel
and trial division show it), and a sum over two polynomial denominators,
which goes over their lcm, coprime or sharing a factor, down to a sum that
is zero.  The factored denominator d * prod Phi_n^e_n * R is read back
against sympy.factor_list: binomial divisors t^m -+ 1, values that enter
and leave the residual R (pivots that Gaussian elimination on
Jacobi-Trudi matrices meets, and the content polynomial), dens built by
hand, and the substitutions t -> 1/t, t -> t^k and t -> 3/2.
The principal specializations of symfunc are checked against the same
field: h_k at q^(nu + rho) from its generating product, and skew Schur
values from sympy's determinant of the Jacobi-Trudi matrix (Berkowitz).
"""
import operator
import random
from fractions import Fraction
from math import gcd

import pytest

from stripvertex.partitions import enumerate_partitions
from stripvertex import scalars
from stripvertex.scalars import SYMBOLIC, NumericQ, Scalar
from stripvertex.symfunc import principal_spec_h, principal_spec_skew

sympy = pytest.importorskip("sympy")
from sympy.matrices.utilities import dotprodsimp  # noqa: E402

R = SYMBOLIC
T, A = sympy.symbols("t a")
K = sympy.field("t,a", sympy.QQ)[0]
TV = Fraction(3, 2)

# dense t-coefficients, lowest degree first
CYCLOTOMIC = {
    1: [-1, 1],
    2: [1, 1],
    3: [1, 1, 1],
    4: [1, 0, 1],
    5: [1, 1, 1, 1, 1],
    6: [1, -1, 1],
    8: [1, 0, 0, 0, 1],
    10: [1, -1, 1, -1, 1],
    12: [1, 0, -1, 0, 1],
}
# t^2 (2 + q + q^2 + q^-1) at q = t^2
RECURRENCE_CONTENT = [1, 0, 2, 0, 1, 0, 1]
FACTORS = list(CYCLOTOMIC.values()) + [RECURRENCE_CONTENT]


def _t_poly(coeffs):
    scalar = R.zero
    for e, c in enumerate(coeffs):
        if c:
            scalar = scalar + R.monomial(c, e)
    return scalar, K(sum(c * T ** e for e, c in enumerate(coeffs)))


def random_pair(rng, with_a=True, a_exp=None):
    """A random Scalar and the same value in the sympy field."""
    num, num_s = R.zero, K(0)
    for _ in range(rng.randint(1, 5)):
        c = Fraction(rng.randint(-6, 6), rng.randint(1, 5))
        te = rng.randint(-3, 4)
        ae = a_exp if a_exp is not None else (rng.randint(-2, 2) if with_a else 0)
        num = num + R.monomial(c, te, ae)
        num_s += K(sympy.Rational(c.numerator, c.denominator) * T ** te * A ** ae)
    den, den_s = R.one, K(1)
    for _ in range(rng.randint(0, 3)):
        f, f_s = _t_poly(rng.choice(FACTORS))
        den, den_s = den * f, den_s * f_s
    k = Fraction(rng.randint(1, 4), rng.randint(1, 4))
    den = den * R.from_fraction(k)
    den_s *= K(sympy.Rational(k.numerator, k.denominator))
    if num.is_zero():
        return R.zero, K(0)
    return num / den, num_s / den_s


def as_sympy(scalar):
    return sympy.sympify(str(scalar).replace("^", "**"), locals={"t": T, "a": A})


def assert_same(scalar, value):
    # compare by difference: the field does not fix the sign of a denominator
    assert K(as_sympy(scalar)) - value == 0, (str(scalar), value)


def substituted(value, subs):
    return K(value.as_expr().subs(subs, simultaneous=True))


def assert_canonical(x):
    num, den = x.num, x.den
    assert all(type(c) is int and c for c in num.values()), num
    assert all(type(c) is int and c for c in den.values()), den
    if not num:
        assert den == {0: 1}
        return
    assert min(den) == 0
    assert den[max(den)] > 0
    content = 0
    for c in (*num.values(), *den.values()):
        content = gcd(content, c)
    assert content == 1
    g = sympy.Poly(sum(c * T ** e for e, c in den.items()), T)
    for ae in {ae for _, ae in num}:
        sl = {te: c for (te, e), c in num.items() if e == ae}
        low = min(sl)
        g = sympy.gcd(g, sympy.Poly(sum(c * T ** (te - low) for te, c in sl.items()), T))
    assert g.degree() == 0, (num, den)


def test_arithmetic_matches_sympy():
    rng = random.Random(20261018)
    for _ in range(40):
        (x, xs), (y, ys) = random_pair(rng), random_pair(rng)
        for got, want in ((x + y, xs + ys), (x - y, xs - ys), (x * y, xs * ys), (-x, -xs)):
            assert_canonical(got)
            assert_same(got, want)


def test_division_matches_sympy():
    rng = random.Random(31)
    for _ in range(40):
        x, xs = random_pair(rng)
        y, ys = random_pair(rng, a_exp=rng.randint(-2, 2))
        if y.is_zero():
            continue
        got = x / y
        assert_canonical(got)
        assert_same(got, xs / ys)


def test_powers_match_sympy():
    rng = random.Random(47)
    for _ in range(20):
        x, xs = random_pair(rng)
        for k in (0, 1, 2, 3):
            got = x ** k
            assert_canonical(got)
            assert_same(got, xs ** k)
        y, ys = random_pair(rng, a_exp=rng.randint(-1, 1))
        if y.is_zero():
            continue
        for k in (-1, -2):
            got = y ** k
            assert_canonical(got)
            assert_same(got, ys ** k)


def test_substitutions_match_sympy():
    rng = random.Random(53)
    for _ in range(30):
        x, xs = random_pair(rng)
        cases = [(x.subs_q_inverse(), substituted(xs, {T: 1 / T})),
                 (x.subs_a_one(), substituted(xs, {A: 1}))]
        cases += [(x.adams(k), substituted(xs, {T: T ** k, A: A ** k}))
                  for k in (1, 2, 3)]
        for got, want in cases:
            assert_canonical(got)
            assert_same(got, want)


def test_eval_q_matches_sympy():
    rng = random.Random(59)
    tv = sympy.Rational(TV.numerator, TV.denominator)
    for _ in range(30):
        x, xs = random_pair(rng)
        got = x.eval_q(TV)
        (d,) = got.den.values()
        got_s = sum(sympy.Rational(c, d) * T ** te * A ** ae
                    for (te, ae), c in got.num.items())
        assert K(got_s) - substituted(xs, {T: tv}) == 0, str(x)


def test_sympy_cancel_agrees():
    rng = random.Random(67)
    for _ in range(6):
        (x, xs), (y, ys) = random_pair(rng), random_pair(rng)
        diff = as_sympy(x * y - x) - (xs * ys - xs).as_expr()
        assert sympy.cancel(diff) == 0


def _times(num, den, poly):
    # multiply num and den by the t-polynomial poly (dense, lowest first)
    new_num, new_den = {}, {}
    for (te, ae), c in num.items():
        for e, p in enumerate(poly):
            key = (te + e, ae)
            new_num[key] = new_num.get(key, 0) + c * p
    for te, c in den.items():
        for e, p in enumerate(poly):
            new_den[te + e] = new_den.get(te + e, 0) + c * p
    return new_num, new_den


def test_one_value_built_two_ways_is_one_scalar():
    rng = random.Random(61)
    for _ in range(40):
        x, _ = random_pair(rng)
        variants = [
            Scalar({k: 7 * c for k, c in x.num.items()}, {e: 7 * c for e, c in x.den.items()}, R),
            Scalar({k: -c for k, c in x.num.items()}, {e: -c for e, c in x.den.items()}, R),
            Scalar({k: Fraction(3, 5) * c for k, c in x.num.items()},
                   {e: Fraction(3, 5) * c for e, c in x.den.items()}, R),
            Scalar(*_times(x.num, x.den, rng.choice(FACTORS)), R),
            Scalar(*_times(x.num, x.den, [0, 0, 2]), R),
        ]
        f, _ = _t_poly(rng.choice(FACTORS))
        y, _ = random_pair(rng, a_exp=0)
        variants += [(x * f) / f, (x + y) - y]
        if not y.is_zero():
            variants.append((x * y) / y)
        for v in variants:
            assert_canonical(v)
            assert v == x
            assert hash(v) == hash(x)
            assert str(v) == str(x)


def test_rational_constants_print_as_fractions():
    half = R.from_fraction(Fraction(1, 2))
    assert half.num == {(0, 0): 1} and half.den == {0: 2}
    assert str(half) == "1/2"
    x = (R.t_power(1) * R.from_fraction(Fraction(-3, 4))) / (R.one + R.t_power(2))
    assert str(x) == "(-3/4*t)/(1 + t^2)"


# --- reductions built by hand, against sympy.cancel ----------------------------


def _poly(coeffs, shift=0):
    return sum(c * T ** (e + shift) for e, c in enumerate(coeffs))


def _cancelled(num, den):
    """num/den in lowest terms by sympy.cancel, written in Scalar's canonical form.

    num and den are dicts of integer coefficients as Scalar takes them, with
    den's constant term nonzero.
    """
    value = (sum(c * T ** te * A ** ae for (te, ae), c in num.items())
             / sum(c * T ** e for e, c in den.items()))
    p, q = sympy.fraction(sympy.cancel(value))
    p_terms = dict(sympy.Poly(p, T, A).terms())
    q_terms = {e: c for (e,), c in sympy.Poly(q, T).terms()}
    # a sympy Integer, so that dividing by the content below stays exact
    scale = sympy.Integer(sympy.ilcm(*(sympy.Rational(c).q
                                       for c in (*p_terms.values(), *q_terms.values()))))
    scale /= sympy.igcd(*(c * scale for c in (*p_terms.values(), *q_terms.values())))
    if q_terms[max(q_terms)] < 0:
        scale = -scale
    return ({k: int(c * scale) for k, c in p_terms.items()},
            {e: int(c * scale) for e, c in q_terms.items()})


def _assert_reduces_like_sympy(num, den):
    x = Scalar(num, den, R)
    assert_canonical(x)
    assert (x.num, x.den) == _cancelled(num, den)
    return x


def test_reduction_after_a_false_candidate_with_a_common_factor():
    # from criterion 6: gcd (t^2 - 1)^2, but the first evaluation point
    # xi = 8 reads the false candidate 3 + 2t^2 - t^3 + 3t^4, which divides
    # neither side, so the reduction must try a larger xi
    num = {(e, 0): c for e, c in enumerate([-2, 0, 3, 0, 0, 0, -1]) if c}
    den = {e: c for e, c in enumerate([1, 0, -3, 0, 2, 0, 2, 0, -3, 0, 1]) if c}
    x = _assert_reduces_like_sympy(num, den)
    assert x.den == {0: 1, 2: -1, 4: -1, 6: 1}
    assert x.num == {(0, 0): -2, (2, 0): -1}


def test_reduction_after_a_false_candidate_of_a_coprime_pair():
    # from criterion 6: coprime, but xi = 6 reads the false candidate (t - 1)^2
    num = {(e, 0): c for e, c in enumerate([1, 0, 2, 0, 1, 0, 1]) if c}
    den = {e: c for e, c in enumerate(
        [1, 0, -1, 0, -1, 0, 0, 0, 0, 0, 2, 0, 0, 0, 0, 0, -1, 0, -1, 0, 1]) if c}
    x = _assert_reduces_like_sympy(num, den)
    assert (x.num, x.den) == (num, den)


def test_reduction_takes_the_gcd_of_the_a_slices_jointly():
    # Phi_1 (Phi_2 + a Phi_3) / (Phi_1 Phi_2): the a^0 slice shares Phi_1 Phi_2
    # with den, the a^1 slice only Phi_1
    phi = CYCLOTOMIC
    prod = sympy.Poly(_poly(phi[1]) * _poly(phi[2]), T)
    slice_a = sympy.Poly(_poly(phi[1]) * _poly(phi[3]), T)
    num = {(e, 0): int(c) for (e,), c in prod.terms()}
    num.update({(e, 1): int(c) for (e,), c in slice_a.terms()})
    den = {e: int(c) for (e,), c in prod.terms()}
    x = _assert_reduces_like_sympy(num, den)
    assert x.den == {0: 1, 1: 1}
    assert x.num == {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1, (2, 1): 1}


def test_reduction_of_a_repeated_factor_with_integer_content():
    # 10 t Phi_2^2 Phi_6 (1 + a) / (6 Phi_2^3 Phi_4) = 5 t Phi_6 (1 + a) / (3 Phi_2 Phi_4)
    phi = CYCLOTOMIC
    top = sympy.Poly(10 * _poly(phi[2]) ** 2 * _poly(phi[6]), T)
    bottom = sympy.Poly(6 * _poly(phi[2]) ** 3 * _poly(phi[4]), T)
    num = {(e + 1, ae): int(c) for (e,), c in top.terms() for ae in (0, 1)}
    den = {e: int(c) for (e,), c in bottom.terms()}
    x = _assert_reduces_like_sympy(num, den)
    assert x.den == {0: 3, 1: 3, 2: 3, 3: 3}
    assert x.num == {(e + 1, ae): 5 * c for e, c in enumerate(phi[6]) for ae in (0, 1)}


# --- where the gcd search runs: one-term numerators, and sums over the lcm -----


def _den_mul(p, q):
    # the product of two dens given as {t exp: c}
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _den_of(rng, factors=None):
    """A small integer times a product of FACTORS (random ones by default), as a den."""
    if factors is None:
        factors = [rng.choice(FACTORS) for _ in range(rng.randint(1, 3))]
    den = {0: rng.randint(1, 6)}
    for f in factors:
        den = _den_mul(den, dict(enumerate(f)))
    return den


def _one_term_over(rng, factors=None):
    """c t^i a^j / (d * a product of FACTORS), built by hand: (Scalar, num, den)."""
    num = {(rng.randint(-3, 3), rng.randint(-2, 2)): rng.choice((-1, 1)) * rng.randint(1, 12)}
    den = _den_of(rng, factors)
    return Scalar(num, den, R), num, den


def _assert_lowest(got, num, den):
    """got is canonical and is num/den in the lowest terms of sympy.cancel.

    The powers t^i a^j common to num's terms are taken out before the cancel
    and put back after: den has a nonzero constant term and no a.
    """
    assert_canonical(got)
    low = (min(te for te, _ in num), min(ae for _, ae in num))
    p, q = _cancelled({(te - low[0], ae - low[1]): c for (te, ae), c in num.items()}, den)
    assert (got.num, got.den) == ({(te + low[0], ae + low[1]): c for (te, ae), c in p.items()}, q)


def test_one_term_product_removes_integer_content():
    # 6t/(1+t) * 1/(3(1-t)) = 2t/((1+t)(1-t))
    t, one = R.t_power(1), R.one
    x, y = R.monomial(6, 1) / (one + t), one / (R.monomial(3) * (one - t))
    for got in (x * y, y * x):
        assert_canonical(got)
        assert got.num == {(1, 0): -2} and got.den == {0: -1, 2: 1}
        assert str(got) == "(-2*t)/(-1 + t^2)"
        _assert_lowest(got, {(1, 0): 6}, {0: 3, 2: -3})


def test_one_term_products_and_quotients_match_sympy_cancel():
    rng = random.Random(89)
    for _ in range(60):
        x, n1, d1 = _one_term_over(rng)
        y, n2, d2 = _one_term_over(rng)
        ((k1, c1),), ((k2, c2),) = n1.items(), n2.items()
        prod_num = {(k1[0] + k2[0], k1[1] + k2[1]): c1 * c2}
        for got in (x * y, y * x):
            _assert_lowest(got, prod_num, _den_mul(d1, d2))
        # a one-term divisor over an integer, on either side of /
        m_c, m_d = rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12)
        m_k = (rng.randint(-3, 3), rng.randint(-2, 2))
        m = R.monomial(Fraction(m_c, m_d), *m_k)
        _assert_lowest(x / m, {(k1[0] - m_k[0], k1[1] - m_k[1]): c1 * m_d},
                       {e: c * m_c for e, c in d1.items()})
        inverse_num = {(e + m_k[0] - k1[0], m_k[1] - k1[1]): c * m_c for e, c in d1.items()}
        _assert_lowest(m / x, inverse_num, {0: m_d * c1})


def _several_over(rng, factors):
    """A numerator of a few terms over d * the product of factors, by hand."""
    num = {}
    for _ in range(rng.randint(1, 4)):
        key = (rng.randint(-2, 3), rng.randint(-1, 1))
        num[key] = num.get(key, 0) + rng.randint(-6, 6)
    num = {k: c for k, c in num.items() if c} or {(0, 0): 1}
    den = _den_of(rng, factors)
    return Scalar(num, den, R), num, den


def _raw_sum(n1, d1, n2, d2):
    # n1/d1 + n2/d2 over d1 * d2, unreduced
    num = {}
    for n, d in ((n1, d2), (n2, d1)):
        for (te, ae), c in n.items():
            for e, dc in d.items():
                num[(te + e, ae)] = num.get((te + e, ae), 0) + c * dc
    return {k: c for k, c in num.items() if c}, _den_mul(d1, d2)


@pytest.mark.parametrize("shared", [False, True], ids=["coprime", "shared-factor"])
def test_sums_over_two_polynomial_dens_match_sympy_cancel(shared):
    rng = random.Random(97 + shared)
    names = list(CYCLOTOMIC) + ["content"]
    for _ in range(25):
        picks = rng.sample(names, 3)
        f1, f2, common = ([CYCLOTOMIC.get(n, RECURRENCE_CONTENT)] for n in picks)
        if shared:
            f1, f2 = f1 + common, f2 + common * rng.randint(1, 2)
        x, n1, d1 = _several_over(rng, f1)
        y, n2, d2 = _several_over(rng, f2)
        raw = _raw_sum(n1, d1, n2, d2)
        if not raw[0]:
            continue
        for got in (x + y, y + x):
            _assert_lowest(got, *raw)
        neg = {k: -c for k, c in n2.items()}
        _assert_lowest(x - y, *_raw_sum(n1, d1, neg, d2))
        _assert_lowest(-y + x, *_raw_sum(n1, d1, neg, d2))


def test_sum_over_the_lcm_cancels_a_factor_of_the_gcd():
    # 1/(1+t) - 1/((1+t)(2+t)) = (1+t)/((1+t)(2+t)) = 1/(2+t)
    t, one, two = R.t_power(1), R.one, R.monomial(2)
    x, y = one / (one + t), one / ((one + t) * (two + t))
    for got in (x - y, -y + x):
        assert_canonical(got)
        assert got.num == {(0, 0): 1} and got.den == {0: 2, 1: 1}
        _assert_lowest(got, {(0, 0): 1, (1, 0): 1}, {0: 2, 1: 3, 2: 1})


def test_sums_over_polynomial_dens_cancel_to_zero():
    t, one = R.t_power(1), R.one
    x, y = one / (one + t), one / (one - t)
    both = R.monomial(2) / ((one + t) * (one - t))
    rng = random.Random(101)
    for _ in range(10):
        z, _, _ = _several_over(rng, [rng.choice(FACTORS), rng.choice(FACTORS)])
        for got in (x + y - both, y + x - both, (x + z) + (y - z) - both,
                    (z + x) - (z - y) - both, z - z, -z + z):
            assert_canonical(got)
            assert got.num == {} and got.den == {0: 1} and got == R.zero
            assert sympy.cancel(as_sympy(got)) == 0


def test_one_term_numerators_run_no_trial_division_and_no_gcd(monkeypatch):
    rng = random.Random(103)
    phis = list(CYCLOTOMIC.values())
    values = [_one_term_over(rng, [rng.choice(phis) for _ in range(rng.randint(1, 3))])[0]
              for _ in range(12)]
    images = [K(as_sympy(x)) for x in values]

    def no_search(*args):
        raise AssertionError("a one-term numerator looked for a polynomial factor")

    monkeypatch.setattr(scalars, "_cancel", no_search)
    monkeypatch.setattr(scalars, "_divides", no_search)
    for x, xs in zip(values, images):
        for y, ys in zip(values, images):
            got = x * y
            assert_canonical(got)
            assert_same(got, xs * ys)
        assert_same(x * x * x, xs ** 3)
        # a sum of one monomial over one den keeps a one-term numerator
        assert_same(x + x + x, 3 * xs)
        assert_same(x.subs_q_inverse() * x.adams(2), substituted(xs, {T: 1 / T})
                    * substituted(xs, {T: T ** 2, A: A ** 2}))


# --- one-term values: the integer path of +, - , * and / ---------------------

NUMERIC = NumericQ.from_q(Fraction(9, 4))
# each lane with the value of t in the oracle: symbolic, or pinned to 3/2
LANES = [(R, T), (NUMERIC, sympy.Rational(3, 2))]


def random_monomial(rng, ring, tv, key=None):
    """c t^i a^j as a scalar, as a sympy value, and as (key, c) in the lane's terms.

    The numeric lane folds t^i into c, so its key is (0, j).
    """
    c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12))
    te, ae = key or (rng.randint(-3, 3), rng.randint(-2, 2))
    value = sympy.Rational(c.numerator, c.denominator) * tv ** te * A ** ae
    lane = ((te, ae), c) if ring is R else ((0, ae), c * NUMERIC.t ** te)
    return ring.monomial(c, te, ae), K(value), lane


def _by_hand(ring, terms):
    # the Scalar of ring with these rational terms over 1, reduced by _reduce
    return ring._scalar(terms, {0: 1}, ring)


def _add_keys(k1, k2, sign=1):
    return (k1[0] + sign * k2[0], k1[1] + sign * k2[1])


@pytest.mark.parametrize("ring,tv", LANES, ids=["symbolic", "numeric"])
def test_one_term_arithmetic_matches_sympy(ring, tv):
    rng = random.Random(71)
    for i in range(150):
        x, xs, (k1, c1) = random_monomial(rng, ring, tv)
        # every third pair shares its monomial key
        same = (k1 if ring is R else (rng.randint(-3, 3), k1[1])) if i % 3 == 0 else None
        y, ys, (k2, c2) = random_monomial(rng, ring, tv, same)
        if k1 == k2:
            total, diff = {k1: c1 + c2}, {k1: c1 - c2}
        else:
            total, diff = {k1: c1, k2: c2}, {k1: c1, k2: -c2}
        cases = [(x * y, xs * ys, {_add_keys(k1, k2): c1 * c2}),
                 (x + y, xs + ys, total), (x - y, xs - ys, diff),
                 (x / y, xs / ys, {_add_keys(k1, k2, -1): c1 / c2})]
        for got, want, terms in cases:
            assert type(got) is ring._scalar
            assert_canonical(got)
            assert_same(got, want)
            hand = _by_hand(ring, terms)
            assert got == hand and hash(got) == hash(hand) and str(got) == str(hand)


@pytest.mark.parametrize("ring,tv", LANES, ids=["symbolic", "numeric"])
def test_one_term_sum_cancels_to_canonical_zero(ring, tv):
    rng = random.Random(73)
    for _ in range(40):
        x, _, (key, c) = random_monomial(rng, ring, tv)
        minus = ring._scalar({key: -c}, {0: 1}, ring)
        for got in (x + minus, minus + x, x - x):
            assert not got
            assert got.num == {} and got.den == {0: 1}
            assert got == ring.zero and hash(got) == hash(ring.zero) and str(got) == "0"


@pytest.mark.parametrize("ring,tv", LANES, ids=["symbolic", "numeric"])
def test_one_term_negative_divisor_moves_its_sign_into_num(ring, tv):
    half = ring.monomial(Fraction(-1, 2))
    got = ring.monomial(Fraction(3, 4), 0, 1) / half
    assert got.num == {(0, 1): -3} and got.den == {0: 2}
    rng = random.Random(79)
    for _ in range(40):
        x, xs, _ = random_monomial(rng, ring, tv)
        y, ys, _ = random_monomial(rng, ring, tv)
        if y.num[next(iter(y.num))] > 0:
            y, ys = -y, -ys
        got = x / y
        assert got.den[0] > 0
        assert_canonical(got)
        assert_same(got, xs / ys)


def _factored(*args):
    raise AssertionError("took a factored-den path")


def test_numeric_lane_takes_no_factored_den_path():
    # numeric values never carry a factor, so their *, / and + keep to the
    # integer paths: no split, expansion, lcm, trial division or gcd search
    ring, tv = LANES[1]
    rng = random.Random(89)
    cases = []
    for _ in range(30):
        (x, xs), (y, ys) = _several_terms(rng, ring, tv), _several_terms(rng, ring, tv)
        z, zs, _ = random_monomial(rng, ring, tv)
        cases += [((x, "*", y), xs * ys), ((x, "+", y), xs + ys), ((x, "/", z), xs / zs),
                  ((x, "*", z), xs * zs), ((x, "*", ring.one), xs)]
    ops = {"*": operator.mul, "+": operator.add, "/": operator.truediv}
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_split", "_expand", "_fac_mul", "_lcm", "_divides", "_cancel"):
            mp.setattr(scalars, name, _factored)
        mp.setattr(scalars.Scalar, "_times", _factored)
        got = [ops[op](x, y) for (x, op, y), _ in cases]
    for value, (_, want) in zip(got, cases):
        assert type(value) is ring._scalar
        assert_canonical(value)
        assert_same(value, want)


def test_one_term_divisor_splits_and_expands_nothing():
    # c t^i a^j / d as a divisor of a factored value: its inverse is one term
    rng = random.Random(97)
    cases = []
    while len(cases) < 20:
        x, xs = random_pair(rng)
        if x.fac is not None and len(x.num) > 1:
            z, zs, _ = random_monomial(rng, R, T)
            cases.append((x, z, xs / zs))
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_split", "_expand", "_divides"):
            mp.setattr(scalars, name, _factored)
        got = [x / z for x, z, _ in cases]
    for value, (_, _, want) in zip(got, cases):
        assert_factored(value)
        assert_same(value, want)


# --- a zero operand: the sum hands back the other operand ----------------------


def _several_terms(rng, ring, tv):
    """A value the one-term path does not take, with its sympy image.

    Symbolic: a random rational function whose denominator is a polynomial.
    Numeric: a sum of monomials in a with several terms.
    """
    while True:
        if ring is R:
            x, xs = random_pair(rng)
            if len(x.den) > 1:
                return x, xs
        else:
            x, xs = ring.zero, K(0)
            for _ in range(rng.randint(2, 4)):
                y, ys, _ = random_monomial(rng, ring, tv)
                x, xs = x + y, xs + ys
            if len(x.num) > 1:
                return x, xs


@pytest.mark.parametrize("ring,tv", LANES, ids=["symbolic", "numeric"])
def test_sum_with_a_zero_operand_matches_sympy(ring, tv):
    rng = random.Random(83)
    for _ in range(30):
        x, xs = _several_terms(rng, ring, tv)
        y, _ = _several_terms(rng, ring, tv)
        for zero in (ring.zero, y - y):
            cases = [(zero + x, xs), (x + zero, xs), (x - zero, xs), (zero - x, -xs),
                     (zero + zero, K(0))]
            for got, want in cases:
                assert type(got) is ring._scalar
                assert_canonical(got)
                assert_same(got, want)
            assert zero + x == x and hash(zero + x) == hash(x) and str(x + zero) == str(x)


# --- principal specializations -------------------------------------------------


def _h_rho(j):
    """h_j at x_i = t^(1-2i): t^(-j) / prod_{m<=j} (1 - t^(-2m))."""
    if j < 0:
        return K(0)
    out = K(T) ** -j
    for m in range(1, j + 1):
        out /= 1 - K(T) ** (-2 * m)
    return out


def _h_nu(k, nu):
    """h_k at x_i = t^(2 nu_i + 1 - 2i), from its generating product in u.

    prod_i 1/(1 - x_i u) is the nu = () product times the finite correction
    prod_{i <= len(nu)} (1 - t^(1-2i) u) / (1 - t^(2 nu_i + 1 - 2i) u), whose
    u-expansion is folded against h_j at nu = ().
    """
    if k < 0:
        return K(0)
    u = sympy.Symbol("u")
    corr = sympy.Integer(1)
    for i, p in enumerate(nu, 1):
        geo = sum((T ** (2 * p + 1 - 2 * i) * u) ** j for j in range(k + 1))
        corr = sympy.expand(corr * (1 - T ** (1 - 2 * i) * u) * geo)
    r = sympy.Poly(corr, u)
    return sum((K(r.coeff_monomial(u ** m)) * _h_rho(k - m) for m in range(k + 1)),
               K(0))


def test_principal_spec_h_matches_generating_product():
    for nu in enumerate_partitions(3):
        for k in range(5):
            assert_same(principal_spec_h(k, nu), _h_nu(k, nu))


def test_principal_spec_skew_matches_sympy_determinant():
    h = {}

    def entry(j, nu):
        if (j, nu) not in h:
            h[(j, nu)] = _h_nu(j, nu).as_expr()
        return h[(j, nu)]

    # up to 6 rows, as many as the numeric workloads reach
    for lam in enumerate_partitions(4) + [(1,) * 5, (2, 1, 1, 1, 1), (1,) * 6]:
        n = len(lam)
        # mu outside lam included: the determinant is then zero
        for mu in enumerate_partitions(2):
            if len(mu) > n:
                continue
            mup = mu + (0,) * (n - len(mu))
            for nu in ((), (1,), (2, 1)):
                mat = sympy.Matrix(n, n, lambda i, j: entry(int(lam[i] - mup[j] - i + j), nu))
                # Berkowitz's division-free method, not the package's expansion
                # in minors; the field reduces the result once at the end
                with dotprodsimp(False):
                    want = K(mat.det(method="berkowitz")) if n else K(1)
                assert_same(principal_spec_skew(lam, mu, nu), want)


# --- the factored den: d * prod Phi_n^e_n * R, against sympy.factor_list ---------

# pivots of Gaussian elimination on the Jacobi-Trudi matrices of verify-strip AB 4
# (1 - t^2 + t^6) and verify-two-leg 4 (1 - t^4 + t^6), non-cyclotomic dens
PIVOTS = ([1, 0, -1, 0, 0, 0, 1], [1, 0, 0, 0, -1, 0, 1])
RESIDUALS = PIVOTS + (RECURRENCE_CONTENT,)


def _cyclotomic_index(poly):
    """n with poly == Phi_n(t), or None when poly is not cyclotomic."""
    if not poly.is_cyclotomic:
        return None
    d = poly.degree()
    return next(n for n in range(1, max(d * d, 6) + 1)
                if sympy.totient(n) == d and sympy.Poly(sympy.cyclotomic_poly(n, T), T) == poly)


def assert_factored(x):
    """x's d, exponent map and residual are its den's factors by sympy.factor_list."""
    assert_canonical(x)
    content, factors = sympy.factor_list(sum(c * T ** e for e, c in x.den.items()), T)
    cyc, residual = {}, sympy.Poly(1, T)
    for f, e in factors:
        poly = sympy.Poly(f, T)
        n = _cyclotomic_index(poly)
        if n is None:
            residual *= poly ** e
        else:
            cyc[n] = e
    if residual.LC() < 0:
        content, residual = -content, -residual
    want_res = None if residual.degree() == 0 else tuple(
        int(c) for c in reversed(residual.all_coeffs()))
    want = None if not cyc and want_res is None else (tuple(sorted(cyc.items())), want_res)
    assert (x.d, x.fac) == (content, want), (str(x), x.d, x.fac)
    return x


def _over(num_poly, *den_polys):
    # num_poly / prod den_polys, each dense, built by arithmetic, with its sympy image
    x, xs = _t_poly(num_poly)
    for p in den_polys:
        f, fs = _t_poly(p)
        x, xs = x / f, xs / fs
    return x, xs


@pytest.mark.parametrize("m", range(1, 25))
def test_binomial_divisors_split_like_sympy(m):
    t_m = R.t_power(m)
    for sign in (1, -1):
        divided = (R.one / (t_m + R.monomial(sign)),
                   R.monomial(3, 1) / (R.monomial(-2) * t_m - R.monomial(2 * sign)))
        by_hand = (Scalar({(0, 1): 5}, {0: sign, m: 1}, R),
                   Scalar({(0, 0): 1}, {0: -4 * sign, m: -4}, R))
        for got in divided + by_hand:
            assert_factored(got)
            assert got.fac[1] is None
            assert_same(got, K(as_sympy(got)))
        binomial = sympy.Poly(T ** m + sign, T)
        assert assert_factored(R.one / (t_m + R.monomial(sign))).den == {
            e: int(c) for (e,), c in binomial.terms()}


def test_residual_is_entered_and_left_like_sympy():
    phi = CYCLOTOMIC
    cases = []
    for r in RESIDUALS:
        x, xs = _over([1, 2], r, phi[2])
        y, ys = _over([0, 1, 0, -1], phi[3], r)
        cases += [(x, xs), (y, ys), (x + y, xs + ys), (x - y, xs - ys), (x * y, xs * ys),
                  (x / y, xs / ys), (y / x, ys / xs)]
        # the residual cancels: out of a product, a quotient, and a sum
        f, fs = _t_poly(r)
        g, gs = _t_poly(phi[6])
        cases += [(x * f, xs * fs), (y * f / g, ys * fs / gs),
                  ((x + y) * f, (xs + ys) * fs), (x / x, K(1)), (x - x, K(0))]
        left = (x + y) * f
        assert left.fac is None or left.fac[1] is None
    # two residuals: coprime ones multiply, a shared one is taken once
    (p1, p1s), (p2, p2s), (p3, p3s) = (_over([1], r) for r in RESIDUALS)
    cases += [(p1 * p2, p1s * p2s), (p1 + p2, p1s + p2s),
              (p1 * p3 + p2 * p3, p1s * p3s + p2s * p3s), (p1 * p3 - p1 * p3, K(0)),
              ((p1 + p2) / (p2 + p3), (p1s + p2s) / (p2s + p3s))]
    both = assert_factored(p1 * p2)
    assert both.fac[1] == tuple(int(c) for c in reversed(
        sympy.Poly(_poly(PIVOTS[0]) * _poly(PIVOTS[1]), T).all_coeffs()))
    for got, want in cases:
        assert_factored(got)
        assert_same(got, want)


def test_hand_built_dens_split_like_sympy():
    rng = random.Random(107)
    names = list(CYCLOTOMIC) + ["pivot", "pivot2", "content"]
    polys = dict(CYCLOTOMIC, pivot=PIVOTS[0], pivot2=PIVOTS[1], content=RECURRENCE_CONTENT)
    for _ in range(30):
        factors = [polys[rng.choice(names)] for _ in range(rng.randint(1, 4))]
        num = {(rng.randint(-2, 2), rng.randint(-1, 1)): rng.randint(-5, 5) or 1
               for _ in range(rng.randint(1, 4))}
        den = _den_of(rng, factors)
        if rng.random() < 0.5:
            den = {e: -c for e, c in den.items()}
        got = assert_factored(Scalar(num, den, R))
        _assert_lowest(got, num, den)


def test_substitutions_on_factored_dens_match_sympy():
    # Phi_1(1/t) = -Phi_1(t) / t: 1/(t - 1) goes to -t/(t - 1)
    got = (R.one / (R.t_power(1) - R.one)).subs_q_inverse()
    assert got.num == {(1, 0): -1} and got.fac == (((1, 1),), None)
    phi = CYCLOTOMIC
    tv = sympy.Rational(TV.numerator, TV.denominator)
    for e1, rest in ((1, []), (2, [phi[2], phi[6]]), (3, [PIVOTS[0]]),
                     (1, [phi[12], RECURRENCE_CONTENT])):
        x, xs = _over([2, -1, 0, 1], *([phi[1]] * e1 + rest))
        x, xs = x * R.monomial(Fraction(1, 3), 1, 1), xs * K(T * A / 3)
        inverse = assert_factored(x.subs_q_inverse())
        assert_same(inverse, substituted(xs, {T: 1 / T}))
        # t -> 1/t takes Phi_1 to -Phi_1 / t: the sign moves into num
        assert inverse.fac == (x.fac[0], inverse.fac[1])
        assert inverse.subs_q_inverse() == x
        for k in (2, 3, 4, 6):
            got = assert_factored(x.adams(k))
            assert_same(got, substituted(xs, {T: T ** k, A: A ** k}))
        got = x.eval_q(TV)
        (d,) = got.den.values()
        got_s = sum(sympy.Rational(c, d) * A ** ae for (_, ae), c in got.num.items())
        assert K(got_s) - substituted(xs, {T: tv}) == 0, str(x)
