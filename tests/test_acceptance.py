"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a single PASS/FAIL line with its wall time so the whole
gate can be read off `pytest tests/test_acceptance.py -v -s`.  Every
comparison is exact: a criterion passes only when residuals vanish
identically at the stated truncation.
"""
import itertools
import math
import random
import time
from fractions import Fraction

from stripvertex.partitions import enumerate_partitions, transpose
from stripvertex.qdiff import verify_annihilation
from stripvertex.scalars import SYMBOLIC, NovikovSeries, NumericQ
from stripvertex.skein import formal, psi, psi_inverse, verify_dilog_recurrence
from stripvertex.symfunc import SymFunc, SymFunc2, sym_exp, tensor
from stripvertex.vertex import (
    StripGeometry,
    mirror_and_quantum,
    verify_one_brane_match,
    verify_strip_identity,
    verify_two_leg_product,
)

R = SYMBOLIC
NUMERIC = NumericQ.from_q(Fraction(9, 4))


def strip_words(max_len):
    words = []
    for n in range(1, max_len + 1):
        for bits in range(1 << (n - 1)):
            words.append("A" + "".join(
                "AB"[(bits >> i) & 1] for i in range(n - 1)))
    return words


def report(num, ok, t0, label):
    elapsed = time.perf_counter() - t0
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f}s) {label}")
    return elapsed


def test_criterion_1_dilog_recurrences():
    t0 = time.perf_counter()
    reports = [verify_dilog_recurrence(8, which) for which in
               ("forward", "inverse")]
    ok = all(r["pass"] for r in reports)
    ok = ok and all(r["checked"] == len(enumerate_partitions(8))
                    for r in reports)
    elapsed = report(1, ok, t0, "meridian recursion kills both dilogarithms "
                                "through partitions of size 8")
    assert ok, [r["residuals"][:3] for r in reports]
    assert elapsed < 30


def test_criterion_2_product_vs_exponential():
    t0 = time.perf_counter()
    xi = formal("xi")
    ok = psi(xi, 8) == psi(xi, 8, form="exponential")
    ok = ok and psi_inverse(xi, 8) == psi_inverse(xi, 8, form="exponential")
    prod = psi(xi, 8).convert("p") * psi_inverse(xi, 8).convert("p")
    ok = ok and prod == SymFunc.one(R, 8)
    elapsed = report(2, ok, t0, "dilogarithm product and exponential forms "
                                "agree to degree 8; the two are inverse")
    assert ok
    assert elapsed < 30


def _diagonal_exp(cap, alternating):
    """exp(sum_k +-p_k (x) p_k / k) evaluated factor by factor.

    Each commuting summand is exponentiated termwise, so the evaluation
    never assumes the identity under test.
    """
    out = SymFunc2.one(R, cap)
    for k in range(1, cap // 2 + 1):
        sign = (-1) ** (k + 1) if alternating else 1
        terms = {}
        m = 0
        while 2 * k * m <= cap:
            c = Fraction(sign, k) ** m / math.factorial(m)
            terms[((k,) * m, (k,) * m)] = NovikovSeries.constant(
                R.from_fraction(c))
            m += 1
        out = out * SymFunc2("p", terms, cap, R)
    return out


def _schur_diagonal(cap, transpose_second):
    one = NovikovSeries.constant(R.one)
    terms = {}
    for lam in enumerate_partitions(cap // 2):
        terms[(lam, transpose(lam) if transpose_second else lam)] = one
    return SymFunc2("schur", terms, cap, R)


def _h_in_p(k, cap):
    if k < 0:
        return None
    return SymFunc.schur((k,), R, cap).convert("p")


def _jacobi_trudi_skew(eta, mu, cap, h_table):
    """Skew function via the determinant in complete homogeneous parts."""
    n = len(eta)
    if len(mu) > n:
        return SymFunc.zero(R, cap)
    pad = tuple(mu) + (0,) * (n - len(mu))
    if n == 0:
        return SymFunc.one(R, cap)
    total = SymFunc.zero(R, cap)
    for perm in itertools.permutations(range(n)):
        inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                         if perm[i] > perm[j])
        entries = [eta[i] - pad[perm[i]] - i + perm[i] for i in range(n)]
        if any(e < 0 for e in entries):
            continue
        term = SymFunc.one(R, cap)
        for e in entries:
            term = term * h_table[e]
        if inversions % 2:
            term = -term
        total = total + term
    return total


def _check_generalized_cauchy(mu, cap2):
    h_table = {k: _h_in_p(k, cap2) for k in range(cap2 + 1)}
    # the combined cap keeps keys (|eta|-|mu|, |eta|) up to degree cap2,
    # so eta must range beyond the comparison box itself
    top = (cap2 + sum(mu)) // 2
    one = NovikovSeries.constant(R.one)
    for transpose_second in (False, True):
        lhs = SymFunc2.zero(R, cap2)
        for eta in enumerate_partitions(top):
            skew = _jacobi_trudi_skew(eta, mu, cap2, h_table)
            if skew.is_zero():
                continue
            second = transpose(eta) if transpose_second else eta
            lhs = lhs + tensor(skew, SymFunc.schur(second, R, cap2), cap2)
        kernel = _schur_diagonal(cap2, transpose_second)
        factor = transpose(mu) if transpose_second else mu
        shift = SymFunc2("schur", {((), factor): one}, cap2, R)
        if not lhs == kernel * shift:
            return False
    return True


def _random_scalar(rng):
    c = Fraction(rng.randint(1, 4), rng.randint(1, 3)) * (-1) ** rng.randint(0, 1)
    return R.monomial(c, rng.randint(-2, 2))


def _weighted_exp(coeffs, marker, cap):
    # leave the Novikov side uncapped: every coefficient is one monomial
    # and the diagonal products below reach marker degree 2*cap
    terms = {}
    for k, c in coeffs.items():
        terms[(k,)] = NovikovSeries.monomial({marker: k}, c / R.from_fraction(k))
    return sym_exp(SymFunc("p", terms, cap, R)).convert("schur")


def _check_gluing_family(rng, cap):
    a = {k: _random_scalar(rng) for k in range(1, cap + 1)}
    b = {k: _random_scalar(rng) for k in range(1, cap + 1)}
    u = _weighted_exp(a, "xi", cap)
    v_plain = _weighted_exp(b, "eta", cap)
    v_alt = _weighted_exp(
        {k: -c if k % 2 == 0 else c for k, c in b.items()}, "eta", cap)

    # exp(sum_k a_k b_k w^k / k) by the series recurrence, w = xi*eta
    g = [R.one]
    for n in range(1, cap + 1):
        acc = R.zero
        for k in range(1, n + 1):
            acc = acc + a[k] * b[k] * g[n - k]
        g.append(acc / R.from_fraction(n))
    expect = NovikovSeries.constant(R.one)
    for m in range(1, cap + 1):
        expect = expect + NovikovSeries.monomial({"xi": m, "eta": m}, g[m])

    for v, twist in ((v_plain, False), (v_alt, True)):
        got = NovikovSeries.constant(R.zero)
        for lam in enumerate_partitions(cap):
            left = u.coefficient(lam)
            right = v.coefficient(transpose(lam) if twist else lam)
            got = got + left * right
        if not got == expect:
            return False
    return True


def test_criterion_3_cauchy_and_gluing():
    t0 = time.perf_counter()
    ok = _schur_diagonal(12, False) == _diagonal_exp(12, False).convert("schur")
    ok = ok and _schur_diagonal(12, True) == _diagonal_exp(12, True).convert("schur")
    for mu in ((1,), (2,), (1, 1), (2, 1)):
        ok = ok and _check_generalized_cauchy(mu, 10)
    rng = random.Random(2026)
    for _ in range(10):
        ok = ok and _check_gluing_family(rng, 5)
    elapsed = report(3, ok, t0, "Cauchy kernels at bidegree (6,6), skew "
                                "variants at (5,5), and 10 random pairing "
                                "families to degree 5")
    assert ok
    assert elapsed < 120


def test_criterion_4_two_leg_product_form():
    t0 = time.perf_counter()
    rep = verify_two_leg_product(4)
    ok = rep["pass"]
    elapsed = report(4, ok, t0, "two-leg vertex series equals its three-factor "
                                "product form through combined degree 4")
    assert ok, rep["residuals"][:3]
    assert elapsed < 120


def test_criterion_5_strip_closed_form():
    t0 = time.perf_counter()
    ok = True
    for word in strip_words(4):
        ok = ok and verify_strip_identity(word, 3)["pass"]
    for word in ("AA", "AB"):
        ok = ok and verify_strip_identity(word, 5)["pass"]
    sym_elapsed = time.perf_counter() - t0
    t1 = time.perf_counter()
    for word in strip_words(4):
        ok = ok and verify_strip_identity(word, 3, NUMERIC)["pass"]
    for word in ("AA", "AB"):
        ok = ok and verify_strip_identity(word, 5, NUMERIC)["pass"]
    num_elapsed = time.perf_counter() - t1
    report(5, ok, t0, "glued strips match the closed product form: 15 words "
                      "to degree 3 plus AA, AB to degree 5, symbolic and "
                      "numeric q")
    assert ok
    assert sym_elapsed < 600
    assert num_elapsed < 60


def test_criterion_6_curve_annihilation():
    t0 = time.perf_counter()
    ok = True
    for word in strip_words(4):
        ok = ok and verify_annihilation(word, 8)["pass"]
    for word in strip_words(4):
        ok = ok and verify_annihilation(word, 16, NUMERIC)["pass"]
    elapsed = report(6, ok, t0, "quantum curves annihilate the reduced "
                                "solutions: x^8 symbolic and x^16 numeric, "
                                "all 15 strips")
    assert ok
    assert elapsed < 300


def test_criterion_7_classical_limit():
    t0 = time.perf_counter()
    unit = NumericQ(Fraction(1))
    rng = random.Random(53)
    ok = True
    for _ in range(20):
        n = rng.randint(1, 6)
        word = "A" + "".join(rng.choice("AB") for _ in range(n - 1))
        curve = mirror_and_quantum(StripGeometry(word), unit)
        ok = ok and curve["quantum"]["A"] == curve["classical"]["y"]
        ok = ok and curve["quantum"]["B"] == curve["classical"]["one"]
    elapsed = report(7, ok, t0, "quantum curve coefficients collapse to the "
                                "classical mirror polynomial at q = 1, 20 "
                                "random strips")
    assert ok
    assert elapsed < 10


def test_criterion_8_one_brane_reconciliation():
    t0 = time.perf_counter()
    ok = True
    for word in strip_words(4):
        ok = ok and verify_one_brane_match(word, 6)["pass"]
    for word in strip_words(4):
        ok = ok and verify_one_brane_match(word, 8, NUMERIC)["pass"]
    elapsed = report(8, ok, t0, "disk closed form equals the recursion "
                                "solution under q -> 1/q, degree 6 symbolic "
                                "and degree 8 numeric, all 15 strips")
    assert ok
    assert elapsed < 120
