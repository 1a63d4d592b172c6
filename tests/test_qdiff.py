"""Tests for the one-variable reduction and the quantum curve residual."""
import random
from fractions import Fraction

from stripvertex import qdiff
from stripvertex.qdiff import (
    QSeries,
    _reduced_solution,
    curve_residual,
    log_reduce,
    sigma_q,
    u1_reduce,
    verify_annihilation,
)
from stripvertex.scalars import SYMBOLIC, NovikovSeries, NumericQ
from stripvertex.skein import solution_element
from stripvertex.symfunc import SymFunc
from stripvertex.vertex import StripGeometry, strip_params

R = SYMBOLIC


def q_int(n):
    return R.quantum_int(n)


def novikov_one(ring=R):
    return NovikovSeries.constant(ring.one)


def all_words(max_len):
    words = []
    for n in range(1, max_len + 1):
        for bits in range(1 << (n - 1)):
            words.append("A" + "".join(
                "AB"[(bits >> i) & 1] for i in range(n - 1)))
    return words


def test_u1_reduce_small_schur():
    cap = 4
    one_box = u1_reduce(SymFunc.schur((1,), R, cap))
    assert one_box == QSeries.variable(R, cap)
    # (p_1^2 - p_2)/2 kills itself under p_d -> x^d
    col = u1_reduce(SymFunc.schur((1, 1), R, cap))
    assert col.is_zero()
    row = u1_reduce(SymFunc.schur((2,), R, cap))
    assert row == QSeries.variable(R, cap, power=2)


def test_u1_reduce_is_algebra_map():
    rng = random.Random(47)
    cap = 8
    pool = [(), (1,), (2,), (1, 1), (3,), (2, 1), (2, 2), (4,)]
    for _ in range(6):
        def sample():
            terms = {}
            for lam in rng.sample(pool, 4):
                c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                terms[lam] = NovikovSeries.constant(R.from_fraction(c))
            return SymFunc("p", terms, cap, R)
        f, g = sample(), sample()
        assert u1_reduce(f * g) == u1_reduce(f) * u1_reduce(g)
        # basis conversion must not change the image
        assert u1_reduce(f.convert("schur")) == u1_reduce(f)


def test_sigma_q_shifts_coefficients():
    cap = 3
    assert sigma_q(QSeries.one(R, cap)) == QSeries.one(R, cap)
    x = QSeries.variable(R, cap)
    assert sigma_q(x) == x.scale_scalar(R.t_power(2))
    sq = (QSeries.one(R, 2) + QSeries.variable(R, 2))
    sq = sq * sq
    got = sigma_q(sq)
    expect = QSeries({
        0: novikov_one(),
        1: NovikovSeries.constant(R.from_fraction(2) * R.t_power(2)),
        2: NovikovSeries.constant(R.t_power(4)),
    }, 2, R)
    assert got == expect


def test_log_reduce_degree_one():
    z = log_reduce(StripGeometry("A"), 3)
    assert z.coefficient(0) == novikov_one()
    assert z.coefficient(1) == NovikovSeries.constant(-R.one / q_int(1))
    z2 = log_reduce(StripGeometry("AB"), 3)
    q1 = NovikovSeries.monomial({"Q1": 1}, R.one)
    expect = (q1 - NovikovSeries.constant(R.one)).scale(R.one / q_int(1))
    assert z2.coefficient(1) == expect


def test_log_reduce_degree_two_closed_form():
    # by hand: z_2 = (1/{1}^2 - 1/{2})/2 and {2} - {1}^2 = 2 t^{-1} {1},
    # so z_2 collapses to t^{-1}/({1}{2})
    z = log_reduce(StripGeometry("A"), 4)
    expect = R.t_power(-1) / (q_int(1) * q_int(2))
    assert z.coefficient(2) == NovikovSeries.constant(expect)


def test_log_reduce_matches_reduced_solution():
    for ring in (R, NumericQ.from_q(Fraction(9, 4))):
        for word in ("A", "AB", "ABA", "ABB", "ABBA"):
            strip = StripGeometry(word)
            alphas, betas = strip_params(strip, ring)
            sol = u1_reduce(solution_element(alphas, betas, 6, ring))
            assert log_reduce(strip, 6, ring) == sol, (ring, word)
            assert _reduced_solution(alphas, betas, 6, ring) == sol, (ring, word)


def test_degree_one_cancellation_by_hand():
    # (q - 1)/{1} = t is the identity that makes the x^1 residual vanish
    q_minus_one = R.t_power(2) - R.one
    assert q_minus_one / q_int(1) == R.t_power(1)


def test_annihilation_symbolic_small_strips():
    for word in all_words(3):
        report = verify_annihilation(word, 6)
        assert report["pass"], (word, report["residuals"])
        assert report["checked"] == 7
    report = verify_annihilation("ABAB", 5)
    assert report["pass"], report["residuals"]


def test_annihilation_fails_for_swapped_weights(monkeypatch):
    # the solution of the curve with its two interval polynomials exchanged
    def swapped(strip, ring=R):
        alphas, betas = strip_params(strip, ring)
        return betas, alphas

    monkeypatch.setattr(qdiff, "strip_params", swapped)
    report = verify_annihilation("AB", 4)
    assert report["pass"] is False
    assert report["residuals"]
    for row in report["residuals"]:
        assert isinstance(row[0], int) and isinstance(row[1], str)
        assert len(row) == 2


def test_annihilation_numeric():
    ring = NumericQ.from_q(Fraction(9, 4))
    report = verify_annihilation("ABB", 10, ring)
    assert report["pass"], report["residuals"]


def test_wrong_solution_leaves_residual():
    strip = StripGeometry("A")
    z = log_reduce(strip, 4) + QSeries.variable(R, 4)
    r = curve_residual(strip, z)
    assert not r.is_zero()
    # the constant terms always cancel, even for a wrong tail
    assert r.coefficient(0).is_zero()
