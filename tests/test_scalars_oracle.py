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
The principal specializations of symfunc are checked against the same
field: h_k at q^(nu + rho) from its generating product, and skew Schur
values from sympy's determinant of the Jacobi-Trudi matrix.
"""
import random
from fractions import Fraction
from math import gcd

import pytest

from stripvertex.partitions import enumerate_partitions
from stripvertex.scalars import SYMBOLIC, Scalar
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

    for lam in enumerate_partitions(4):
        n = len(lam)
        # mu outside lam included: the determinant is then zero
        for mu in enumerate_partitions(2):
            if len(mu) > n:
                continue
            mup = mu + (0,) * (n - len(mu))
            for nu in ((), (1,), (2, 1)):
                mat = sympy.Matrix(n, n, lambda i, j: entry(int(lam[i] - mup[j] - i + j), nu))
                # cofactor expansion, no division, unlike the package's
                # elimination; the field reduces the sum once at the end
                with dotprodsimp(False):
                    want = K(mat.det(method="laplace")) if n else K(1)
                assert_same(principal_spec_skew(lam, mu, nu), want)
