"""Tests for meridian eigenvalues and the skein dilogarithm."""
from fractions import Fraction

import pytest

from stripvertex import partitions as pt
from stripvertex import skein
from stripvertex.scalars import SYMBOLIC, NovikovSeries, NumericQ, Scalar
from stripvertex.skein import (
    formal,
    meridian_eigenvalue,
    psi,
    psi_inverse,
    solution_element,
    solve_recurrence,
    unknot_value,
    verify_dilog_recurrence,
)
from stripvertex.symfunc import SymFunc

R = SYMBOLIC


def q_int(n):
    return R.quantum_int(n)


def test_unknot_value():
    got = unknot_value()
    assert got == (R.a_power(1) - R.a_power(-1)) / q_int(1)


def test_meridian_eigenvalues():
    one_box = meridian_eigenvalue((1,), +1)
    assert one_box == unknot_value() + q_int(1) * R.a_power(1)
    rev = meridian_eigenvalue((1,), -1)
    assert rev == unknot_value() - q_int(1) * R.a_power(-1)
    ev = meridian_eigenvalue((2, 1), +1)
    expect = unknot_value() + q_int(1) * R.a_power(1) * (
        R.one + R.t_power(2) + R.t_power(-2))
    assert ev == expect
    with pytest.raises(ValueError):
        meridian_eigenvalue((1,), 0)


def test_psi_small_coefficients():
    xi = formal("xi")
    f = psi(xi, 2)
    assert f.coefficient(()) == NovikovSeries.constant(R.one)
    c1 = f.coefficient((1,))
    assert c1 == NovikovSeries.monomial({"xi": 1}, -(R.one / q_int(1)))
    c2 = f.coefficient((2,))
    assert c2 == NovikovSeries.monomial({"xi": 2}, R.t_power(-1) / (q_int(1) * q_int(2)))
    c11 = f.coefficient((1, 1))
    assert c11 == NovikovSeries.monomial({"xi": 2}, R.t_power(1) / (q_int(1) * q_int(2)))


def test_psi_inverse_small_coefficients():
    xi = formal("xi")
    f = psi_inverse(xi, 1)
    assert f.coefficient((1,)) == NovikovSeries.monomial({"xi": 1}, R.one / q_int(1))


def test_psi_forms_agree():
    xi = formal("xi")
    for cap in (3, 4):
        assert psi(xi, cap) == psi(xi, cap, form="exponential")
        assert psi_inverse(xi, cap) == psi_inverse(xi, cap, form="exponential")


def test_psi_forms_agree_numeric():
    ring = NumericQ(Fraction(5, 3))
    xi = formal("xi", ring)
    assert psi(xi, 3, ring) == psi(xi, 3, ring, form="exponential")


@pytest.mark.parametrize("form", ["product", "exponential"])
def test_psi_inverts_under_q_inverse(form):
    # the quantum dilogarithm inversion relation: q -> 1/q sends Psi[xi] to
    # Psi[xi]^(-1); the image differs from Psi[xi], so the check is not empty
    xi = formal("xi")
    image = psi(xi, 8, form=form).map_coeffs(Scalar.subs_q_inverse)
    assert image == psi_inverse(xi, 8, form=form)
    assert image != psi(xi, 8, form=form)


def test_psi_product_inverse():
    xi = formal("xi")
    cap = 5
    prod = psi(xi, cap) * psi_inverse(xi, cap)
    assert prod == SymFunc.one(R, cap, "schur")


def test_recurrence_reports_pass():
    for which in ("forward", "inverse"):
        rep = verify_dilog_recurrence(4, which)
        assert rep["pass"] is True
        assert rep["residuals"] == []
        assert rep["checked"] == len(pt.enumerate_partitions(4))


def test_recurrence_fails_for_wrong_element():
    # the forward element passes the forward check and leaves a residual
    # under the inverse operator: the directions are different checks
    xi = formal("xi")
    o = unknot_value()
    bad = verify_dilog_recurrence(2, "forward")
    assert bad["pass"]
    wrong = psi(xi, 2, form="product")
    evm = meridian_eigenvalue((1,), -1)
    res2 = wrong.coefficient((1,)).scale(o - evm) - wrong.coefficient(()).scale(
        R.a_power(-1)) * xi
    assert not res2.is_zero()


def test_recurrence_report_fails_for_inverse_element(monkeypatch):
    monkeypatch.setattr(skein, "psi", psi_inverse)
    rep = verify_dilog_recurrence(3, "forward")
    assert rep["pass"] is False
    assert rep["residuals"]
    for row in rep["residuals"]:
        assert len(row) == 2
        assert tuple(row[0]) in pt.enumerate_partitions(3) and isinstance(row[1], str)


def test_recurrence_determines_coefficients():
    xi = formal("xi")
    assert solve_recurrence(4) == psi(xi, 4)
    assert solve_recurrence(4, which="inverse") == psi_inverse(xi, 4)


def test_recurrence_rejects_unknown_direction():
    for bad in ("inverted", "Forward", None):
        with pytest.raises(ValueError):
            solve_recurrence(2, which=bad)
        with pytest.raises(ValueError):
            verify_dilog_recurrence(2, which=bad)


def test_solution_element_conifold():
    Q = formal("Q1")
    one = NovikovSeries.constant(R.one)
    z = solution_element([one], [Q], 2)
    c1 = z.coefficient((1,))
    expect = (NovikovSeries.monomial({"Q1": 1}, R.one) - one).scale(R.one / q_int(1))
    assert c1 == expect


def test_solution_element_single_psi():
    xi = formal("xi")
    assert solution_element([xi], [], 3) == psi(xi, 3)
    assert solution_element([], [xi], 3) == psi_inverse(xi, 3)


def test_a_specialization_collapses_unknot():
    # at a = 1 the unknot value vanishes and both meridian eigenvalues merge
    # up to q -> 1/q on the content polynomial
    got = unknot_value().subs_a_one()
    assert got.is_zero()
    lam = (2, 1)
    plus = meridian_eigenvalue(lam, +1).subs_a_one()
    minus = meridian_eigenvalue(lam, -1).subs_a_one()
    assert plus == q_int(1) * pt.content_polynomial(lam, R)
    assert minus == -q_int(1) * pt.content_polynomial(lam, R, inverse_q=True)
