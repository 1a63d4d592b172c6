"""Tests for the truncated symmetric function algebra.

The main oracle expands symmetric functions as honest polynomials in
finitely many variables (enough variables for the degree at hand) and
compares coefficient dicts; specializations get an independent numeric
check by partial sums at t = 2.
"""
import itertools
import random
from fractions import Fraction

import pytest

from stripvertex import partitions as pt
from stripvertex.qdiff import QSeries
from stripvertex.scalars import (
    SYMBOLIC,
    LaurentScalar,
    NonNilpotentArgument,
    NovikovSeries,
    NumericQ,
    Scalar,
)
from stripvertex.symfunc import (
    SymFunc,
    SymFunc2,
    _det,
    contract_middle,
    principal_spec_h,
    principal_spec_schur_hook,
    principal_spec_skew,
    sym_exp,
    tensor,
)

from oracles import add_box, hall_pairing, sign_transpose_residual, skew_schur

R = SYMBOLIC


# --- polynomial oracle in n concrete variables --------------------------------

def _pmul(f, g):
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            k = tuple(a + b for a, b in zip(m1, m2))
            v = out.get(k, Fraction(0)) + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _padd(f, g):
    out = dict(f)
    for m, c in g.items():
        v = out.get(m, Fraction(0)) + c
        if v:
            out[m] = v
        else:
            out.pop(m, None)
    return out


def _pscale(f, c):
    return {m: v * c for m, v in f.items()} if c else {}


def expand_p_one(k, n):
    out = {}
    for i in range(n):
        m = [0] * n
        m[i] = k
        out[tuple(m)] = Fraction(1)
    return out


def expand_p(lam, n):
    out = {(0,) * n: Fraction(1)}
    for part in lam:
        out = _pmul(out, expand_p_one(part, n))
    return out


def expand_h(k, n):
    out = {}
    for combo in itertools.combinations_with_replacement(range(n), k):
        m = [0] * n
        for i in combo:
            m[i] += 1
        key = tuple(m)
        out[key] = out.get(key, Fraction(0)) + 1
    return out


def expand_s(lam, n):
    """Schur polynomial via the Jacobi-Trudi determinant over the h-oracle."""
    rows = len(lam)
    if rows == 0:
        return {(0,) * n: Fraction(1)}
    out = {}
    for perm in itertools.permutations(range(rows)):
        sign = 1
        seen = list(perm)
        for i in range(rows):
            for j in range(i + 1, rows):
                if seen[i] > seen[j]:
                    sign = -sign
        term = {(0,) * n: Fraction(sign)}
        ok = True
        for i in range(rows):
            k = lam[i] - (i + 1) + (perm[i] + 1)
            if k < 0:
                ok = False
                break
            if k > 0:
                term = _pmul(term, expand_h(k, n))
        if ok:
            out = _padd(out, term)
    return out


def as_fraction(scalar):
    if scalar.is_zero():
        return Fraction(0)
    (key, c), = scalar.num.items()
    assert key == (0, 0), f"not a constant: {scalar}"
    assert list(scalar.den) == [0], f"not a constant: {scalar}"
    return Fraction(c) / scalar.den[0]


def expand_symfunc(f, n):
    """Expand a parameter-free SymFunc in n variables through the p-oracle."""
    g = f.convert("p")
    out = {}
    for lam, series in g.terms.items():
        (key, scal), = series.terms.items() if series.terms else (((), R.zero),)
        assert key == ()
        out = _padd(out, _pscale(expand_p(lam, n), as_fraction(scal)))
    return out


# --- conversions ---------------------------------------------------------------

def test_conversion_matches_monomial_expansion():
    for lam in pt.enumerate_partitions(4):
        n = max(4, 1)
        got = expand_symfunc(SymFunc.schur(lam, R, 4), n)
        assert got == expand_s(lam, n), f"schur expansion failed for {lam}"


def test_conversion_round_trip():
    for lam in pt.enumerate_partitions(5):
        f = SymFunc.schur(lam, R, 5)
        assert f.convert("p").convert("schur") == f
        g = SymFunc.power_sum(lam, R, 5)
        assert g.convert("schur").convert("p") == g


def test_known_conversion():
    # s_(2,1) = p_(1,1,1)/3 - p_3/3
    f = SymFunc.schur((2, 1), R, 3).convert("p")
    assert as_fraction(f.terms[(1, 1, 1)].terms[()]) == Fraction(1, 3)
    assert as_fraction(f.terms[(3,)].terms[()]) == Fraction(-1, 3)
    assert (2, 1) not in f.terms


# --- products --------------------------------------------------------------------

def test_pieri_square():
    f = SymFunc.schur((1,), R, 2)
    got = f * f
    expect = SymFunc.schur((2,), R, 2) + SymFunc.schur((1, 1), R, 2)
    assert got == expect


def test_power_sum_products_concatenate():
    f = SymFunc.power_sum((2,), R, 5) * SymFunc.power_sum((1, 1), R, 5)
    assert list(f.terms) == [(2, 1, 1)]


def test_pieri_one_box():
    for lam in pt.enumerate_partitions(4):
        got = SymFunc.schur(lam, R, 5) * SymFunc.schur((1,), R, 5)
        expect = SymFunc.zero(R, 5, "schur")
        for mu, _ in add_box(lam):
            expect = expect + SymFunc.schur(mu, R, 5)
        assert got == expect, f"Pieri failed at {lam}"


def test_product_matches_oracle():
    rng = random.Random(5)
    lams = pt.enumerate_partitions(3)
    for _ in range(10):
        a, b = rng.choice(lams), rng.choice(lams)
        f = SymFunc.schur(a, R, 6) * SymFunc.schur(b, R, 6)
        assert expand_symfunc(f, 6) == _pmul(expand_s(a, 6), expand_s(b, 6))


def test_truncation_drops_high_degree():
    f = SymFunc.schur((2,), R, 3) * SymFunc.schur((2,), R, 3)
    assert f.is_zero()


# --- Hall pairing ----------------------------------------------------------------

def test_hall_pairing_schur_orthonormal():
    lams = pt.enumerate_partitions(4)
    for a in lams:
        for b in lams:
            got = hall_pairing(SymFunc.schur(a, R, 4), SymFunc.schur(b, R, 4))
            if a == b:
                assert got == NovikovSeries.constant(R.one)
            else:
                assert got.is_zero()


def test_hall_pairing_power_sums():
    for a in pt.enumerate_partitions(4):
        got = hall_pairing(SymFunc.power_sum(a, R, 4), SymFunc.power_sum(a, R, 4))
        assert got == NovikovSeries.constant(R.from_fraction(pt.z_factor(a)))


# --- skew Schur -------------------------------------------------------------------

def test_skew_schur_example():
    got = skew_schur((2, 1), (1,), R)
    expect = SymFunc.schur((2,), R, 2) + SymFunc.schur((1, 1), R, 2)
    assert got == expect


def test_skew_schur_pairing_adjunction():
    # <s_{lam/mu}, s_nu> = <s_lam, s_mu s_nu>
    rng = random.Random(31)
    lams = pt.enumerate_partitions(5)
    for _ in range(25):
        lam = rng.choice(lams)
        mu = rng.choice(pt.subpartitions(lam))
        nu = rng.choice(pt.partitions_of(pt.size(lam) - pt.size(mu)))
        lhs = hall_pairing(skew_schur(lam, mu, R), SymFunc.schur(nu, R, 5))
        rhs = hall_pairing(SymFunc.schur(lam, R, 5),
                           SymFunc.schur(mu, R, 5) * SymFunc.schur(nu, R, 5))
        assert lhs == rhs, (lam, mu, nu)


def test_skew_schur_edge_cases():
    assert skew_schur((2,), (3,), R).is_zero()
    assert skew_schur((2, 1), (2, 1), R) == SymFunc.one(R, 0, "schur").convert("schur")
    assert skew_schur((3,), (), R) == SymFunc.schur((3,), R, 3)


# --- exponentials ----------------------------------------------------------------

def test_sym_exp_log_degree_by_degree():
    # exp(p_1 + p_2/2) has h_2 as its degree-2 part
    g = SymFunc.power_sum((1,), R, 2) + SymFunc.power_sum((2,), R, 2).scale_scalar(
        R.from_fraction(Fraction(1, 2)))
    got = sym_exp(g).convert("schur")
    assert got.coefficient((2,)) == NovikovSeries.constant(R.one)
    assert got.coefficient((1, 1)).is_zero()


# the keys of positive size up to cap, per series kind
EXP_KEYS = {
    SymFunc: lambda cap: [k for k in pt.enumerate_partitions(cap) if k],
    SymFunc2: lambda cap: [(k1, k2) for k1 in pt.enumerate_partitions(cap)
                           for k2 in pt.enumerate_partitions(cap - pt.size(k1))
                           if k1 or k2],
    QSeries: lambda cap: list(range(1, cap + 1)),
}
SERIES_KINDS = pytest.mark.parametrize("cls", list(EXP_KEYS), ids=lambda c: c.__name__)


def _random_log(rng, cls, cap):
    log = cls.zero(R, cap)
    for key in rng.sample(EXP_KEYS[cls](cap), 3):
        c = R.monomial(Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3)),
                       rng.randint(-2, 2))
        log.add_term(key, NovikovSeries.monomial({"Q": rng.randint(0, 1)}, c))
    return log


@SERIES_KINDS
def test_exp_turns_sums_into_products(cls):
    rng = random.Random(61)
    cap = 4
    for _ in range(3):
        a, b = _random_log(rng, cls, cap), _random_log(rng, cls, cap)
        assert (a + b).exp() == a.exp() * b.exp()
        assert (-a).exp() * a.exp() == cls.one(R, cap)


@SERIES_KINDS
def test_exp_rejects_an_empty_key_term(cls):
    q = NovikovSeries.monomial({"Q": 1}, R.one)
    log = cls.one(R, 3).scale(q)
    log.add_term(EXP_KEYS[cls](3)[0], q)
    with pytest.raises(NonNilpotentArgument):
        log.exp()


@pytest.mark.parametrize("cls", [*EXP_KEYS, NovikovSeries], ids=lambda c: c.__name__)
def test_series_reject_mixed_rings(cls):
    num_ring = NumericQ(Fraction(3, 2))
    if cls is NovikovSeries:
        # disjoint keys, so that no scalar operation meets the other lane first
        sym = NovikovSeries.monomial({"Q1": 1}, R.one)
        num = NovikovSeries.monomial({"Q2": 1}, num_ring.one)
    else:
        sym, num = cls.one(R, 2), cls.one(num_ring, 2)
    with pytest.raises(ValueError):
        sym + num
    with pytest.raises(ValueError):
        sym * num
    with pytest.raises(ValueError):
        sym == num
    # a plain number or a scalar is not a series of this kind
    for other in (1, R.one):
        with pytest.raises(TypeError):
            sym + other
        with pytest.raises(TypeError):
            sym * other


@pytest.mark.parametrize("ring", [R, NumericQ(Fraction(3, 2))], ids=lambda r: r.mode)
@pytest.mark.parametrize("cls", [*EXP_KEYS, NovikovSeries], ids=lambda c: c.__name__)
def test_zero_series_is_falsy(cls, ring):
    assert not cls.zero(ring, 2) and cls.one(ring, 2)
    assert not cls.one(ring, 2) - cls.one(ring, 2)


@pytest.mark.parametrize("cls", [SymFunc, SymFunc2], ids=lambda c: c.__name__)
def test_constructor_keeps_no_zero_term_and_no_term_above_cap(cls):
    keys = EXP_KEYS[cls](3)
    small, big = keys[0], keys[-1]  # of sizes 1 and 3
    zero, one = NovikovSeries.constant(R.zero), NovikovSeries.constant(R.one)
    f = cls("p", {small: zero, big: one}, 2, R)
    assert f.is_zero() and f == cls.zero(R, 2)


@pytest.mark.parametrize("cls", [SymFunc, SymFunc2], ids=lambda c: c.__name__)
def test_truncation_never_raises_a_coefficient_cap(cls):
    # a coefficient known only to Q-degree 1 keeps that cap inside a series
    # with room for more, so its square does not invent a Q^2 term
    one, q = NovikovSeries.constant(R.one, 1), NovikovSeries.monomial({"Q": 1}, R.one, 1)
    assert (one + q).truncate(4).cap == 1
    f = cls.one(R, 4).scale(one + q)
    got = (f * f).coefficient(cls._unit)
    assert got == one + q.scale(R.from_fraction(2))
    assert got.cap == 1


# --- principal specializations -------------------------------------------------------

def q_int(n):
    return R.quantum_int(n)


def test_h_rho_closed_forms():
    assert principal_spec_h(1, ()) == R.one / q_int(1)
    assert principal_spec_h(2, ()) == R.t_power(1) / (q_int(1) * q_int(2))
    assert principal_spec_h(0, ()) == R.one
    assert principal_spec_h(-1, ()).is_zero()


def test_skew_spec_example():
    got = principal_spec_skew((2,), (), ())
    assert got == R.t_power(1) / (q_int(1) * q_int(2))
    # mu not inside lam, also with more rows than lam: s_{lam/mu} = 0
    for ring in (R, NumericQ(Fraction(3, 2))):
        for lam, mu in (((1,), (2,)), ((1,), (1, 1)), ((2,), (1, 1, 1)), ((), (1,))):
            assert principal_spec_skew(lam, mu, (1,), ring) == ring.zero


def test_hook_content_cross_check():
    for lam in pt.enumerate_partitions(8):
        jt = principal_spec_skew(lam, (), ())
        hook = principal_spec_schur_hook(lam)
        assert jt == hook, f"hook content mismatch at {lam}"


def _numeric_spec_sum(lam, mu, nu, tval, nvars):
    """Truncated monomial oracle: skew Schur at finitely many specialized variables."""
    ring = NumericQ(tval)
    xs = []
    nu = tuple(nu)
    for i in range(1, nvars + 1):
        e = 2 * (nu[i - 1] if i <= len(nu) else 0) - 2 * i + 1
        xs.append(tval ** e)
    total = Fraction(0)
    for nuu, c in skew_schur(lam, mu, R).terms.items():
        coeff = as_fraction(c.terms.get((), R.zero))
        # expand s_nuu at the concrete values via Jacobi-Trudi over h evaluations
        rows = len(nuu)
        if rows == 0:
            total += coeff
            continue
        val = Fraction(0)
        for perm in itertools.permutations(range(rows)):
            sign = 1
            for i in range(rows):
                for j in range(i + 1, rows):
                    if perm[i] > perm[j]:
                        sign = -sign
            term = Fraction(sign)
            ok = True
            for i in range(rows):
                k = nuu[i] - (i + 1) + (perm[i] + 1)
                if k < 0:
                    ok = False
                    break
                term *= _h_eval(k, tuple(xs))
            if ok:
                val += term
        total += coeff * val
    return total


def _h_eval(k, xs, _memo={}):
    key = (k, xs)
    if key not in _memo:
        # h_k of the concrete values by the standard one-variable-at-a-time dp
        prev = [Fraction(1)] + [Fraction(0)] * k
        for x in xs:
            cur = prev[:]
            for d in range(1, k + 1):
                cur[d] = prev[d] + x * cur[d - 1]
            prev = cur
        _memo[key] = prev[k]
    return _memo[key]


def test_specializations_against_truncated_sums():
    # at t = 2 the omitted tail variables are at most 2^-19, far below tolerance
    tval = Fraction(2)
    cases = [((2, 1), (), ()), ((3, 1), (1,), ()), ((2, 2), (), (2, 1)),
             ((3,), (), (1,)), ((2, 1, 1), (1,), (3, 1))]
    for lam, mu, nu in cases:
        exact = principal_spec_skew(lam, mu, nu)
        val = as_fraction_eval(exact, tval)
        approx = _numeric_spec_sum(lam, mu, nu, tval, nvars=20)
        rel = (val - approx) / max(Fraction(1), abs(val))
        assert abs(float(rel)) < 1e-9, (lam, mu, nu)


def as_fraction_eval(scalar, tval):
    return as_fraction(scalar.eval_q(tval))


def test_spec_h_consistent_with_skew():
    for k in range(4):
        for nu in [(), (1,), (2, 1)]:
            assert principal_spec_h(k, nu) == principal_spec_skew((k,) if k else (), (), nu)


def test_sign_transpose_identity_small():
    rng = random.Random(41)
    lams = pt.enumerate_partitions(5)
    for _ in range(12):
        lam = rng.choice(lams)
        mu = rng.choice(pt.subpartitions(lam))
        assert sign_transpose_residual(lam, mu).is_zero(), (lam, mu)


def test_numeric_mode_specializations_match_eval():
    nring = NumericQ(Fraction(3, 2))
    for lam, nu in [((2, 1), ()), ((2,), (1, 1)), ((3, 1), (2,))]:
        sym = principal_spec_skew(lam, (), nu)
        num = principal_spec_skew(lam, (), nu, nring)
        assert sym.eval_q(Fraction(3, 2)) == num


@pytest.mark.parametrize("ring", [R, NumericQ(Fraction(3, 2))], ids=["symbolic", "numeric"])
def test_jacobi_trudi_determinant_divides_nothing(ring, monkeypatch):
    # the h values divide; the determinant of their matrix must not, so that
    # no elimination pivot enters a den
    lam, nu = (3, 2, 1), (2, 1)
    mat = [[principal_spec_h(lam[i] - i + j, nu, ring) for j in range(3)] for i in range(3)]
    want = principal_spec_skew(lam, (), nu, ring)

    def refuse(self, other):
        raise AssertionError("the determinant divided")

    monkeypatch.setattr(Scalar, "__truediv__", refuse)
    monkeypatch.setattr(LaurentScalar, "__truediv__", refuse)
    assert _det(mat, ring) == want
    assert _det([], ring) == ring.one


# --- tensor square --------------------------------------------------------------------

def test_tensor_and_convert_round_trip():
    f = tensor(SymFunc.schur((2,), R, 3), SymFunc.schur((1,), R, 3), cap=3)
    assert f.convert("schur").coefficient(((2,), (1,))) == NovikovSeries.constant(R.one)
    g = f.convert("schur").convert("p")
    assert g == f.convert("p")


def test_two_alphabet_product():
    a = tensor(SymFunc.schur((1,), R, 4), SymFunc.one(R, 4), cap=4)
    b = tensor(SymFunc.one(R, 4), SymFunc.schur((1,), R, 4), cap=4)
    ab = (a * b).convert("schur")
    assert ab.coefficient(((1,), (1,))) == NovikovSeries.constant(R.one)


def test_cauchy_kernel_small():
    # sum_lam s_lam (x) s_lam = exp(sum_k p_k (x) p_k / k) up to combined degree 4
    cap = 4
    log = SymFunc2.zero(R, cap)
    for k in range(1, cap + 1):
        log = log + tensor(SymFunc.power_sum((k,), R, cap),
                           SymFunc.power_sum((k,), R, cap), cap).scale_scalar(
            R.from_fraction(Fraction(1, k)))
    lhs = log.exp().convert("schur")
    rhs = SymFunc2.zero(R, cap, "schur")
    for lam in pt.enumerate_partitions(cap // 2):
        rhs.add_term((lam, lam), NovikovSeries.constant(R.one))
    # combined-degree truncation keeps |lam1|+|lam2| <= 4, i.e. |lam| <= 2 on the diagonal
    assert lhs == rhs


def test_contract_middle_plain_and_transposed():
    cap = 4
    u = tensor(SymFunc.schur((2,), R, cap), SymFunc.schur((2,), R, cap), cap)
    v = tensor(SymFunc.schur((2,), R, cap), SymFunc.schur((2, 1), R, cap), cap + 1)
    got = contract_middle(u, v)
    assert got.coefficient(((2,), (2, 1))) == NovikovSeries.constant(R.one)
    v2 = tensor(SymFunc.schur((1, 1), R, cap), SymFunc.schur((2, 1), R, cap), cap + 1)
    got2 = contract_middle(u, v2, transpose_middle=True)
    assert got2.coefficient(((2,), (2, 1))) == NovikovSeries.constant(R.one)
    assert contract_middle(u, v2).is_zero()


def test_slice_first():
    f = tensor(SymFunc.schur((2,), R, 3), SymFunc.one(R, 3), 3) + tensor(
        SymFunc.schur((1,), R, 3), SymFunc.schur((1,), R, 3), 3)
    row = f.slice_first().convert("schur")
    assert list(row.terms) == [(2,)]
