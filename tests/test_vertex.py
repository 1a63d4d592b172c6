"""Tests for the trivalent vertex, strip gluing, and product forms."""
import random
from fractions import Fraction

import pytest

from stripvertex.partitions import enumerate_partitions, size
from stripvertex.scalars import SYMBOLIC, NovikovSeries, NumericQ
from stripvertex.symfunc import SymFunc2
from stripvertex.vertex import (
    GLUE_RULES,
    NonUnitClosedSector,
    StripGeometry,
    closed_form,
    framed_vertex,
    glue_strip,
    mirror_and_quantum,
    one_brane_closed_form,
    strip_params,
    topological_vertex,
    two_leg_product_form,
    two_leg_vertex_series,
    verify_one_brane_match,
    verify_strip_identity,
    verify_two_leg_product,
    z_open,
)

R = SYMBOLIC


def q_int(n):
    return R.quantum_int(n)


def test_vertex_base_values():
    assert topological_vertex((), (), ()) == R.one
    assert topological_vertex((1,), (), ()) == R.one / q_int(1)
    assert topological_vertex((), (1,), ()) == R.one / q_int(1)
    # one box on two slots: 1/{1} * (sum over the hook contents of one row
    # prepended to the staircase), worked out by hand
    expect = R.one + R.one / (q_int(1) * q_int(1))
    assert topological_vertex((1,), (1,), ()) == expect


def test_vertex_cyclic_symmetry():
    rng = random.Random(31)
    pool = enumerate_partitions(3)
    for _ in range(12):
        m1, m2, m3 = (rng.choice(pool) for _ in range(3))
        a = topological_vertex(m1, m2, m3)
        assert a == topological_vertex(m3, m1, m2)
        assert a == topological_vertex(m2, m3, m1)


def test_framed_vertex():
    assert framed_vertex((), (), (), 0, 0, 0) == R.one
    assert framed_vertex((1,), (), (), -1, 0, 0) == topological_vertex((1,), (), ())
    got = framed_vertex((2,), (), (), -1, 0, 0)
    assert got == R.t_power(-2) * topological_vertex((2,), (), ())


def test_strip_geometry_validation():
    with pytest.raises(ValueError):
        StripGeometry("")
    with pytest.raises(ValueError):
        StripGeometry("AXB")
    with pytest.raises(ValueError):
        StripGeometry("BA")
    s = StripGeometry("AAB")
    assert s.types == "AAB"
    with pytest.raises(ValueError):
        s.q_interval(0, 2)


def test_strip_params():
    one = NovikovSeries.constant(R.one)
    al, be = strip_params(StripGeometry("A"))
    assert al == [one] and be == []
    al, be = strip_params(StripGeometry("AB"))
    assert al == [one]
    assert be == [NovikovSeries.monomial({"Q1": 1}, R.one)]
    al, be = strip_params(StripGeometry("AAB"))
    assert al == [one, NovikovSeries.monomial({"Q1": 1}, R.one)]
    assert be == [NovikovSeries.monomial({"Q1": 1, "Q2": 1}, R.one)]


def test_glue_single_vertex_matches_raw_series():
    # boundary slots pair with the vertex slots in opposite order
    glued = glue_strip(StripGeometry("A"), 3)
    keys = set()
    for m1 in enumerate_partitions(3):
        for m2 in enumerate_partitions(3 - size(m1)):
            val = framed_vertex(m2, m1, (), -1, 0, 0)
            if not val.is_zero():
                keys.add((m1, m2))
            assert glued.coefficient((m1, m2)).terms == ({(): val} if (m1, m2) in keys else {})
    assert set(glued.terms) == keys


def test_degree_zero_term_is_one():
    for word in ("A", "AB", "ABB"):
        z = glue_strip(StripGeometry(word), 2)
        assert z.coefficient(((), ())).constant_term() == R.one
        zo = z_open(z)
        one = NovikovSeries.constant(R.one).truncate(2)
        assert zo.coefficient(((), ())) == one


def test_conifold_open_coefficient():
    zo = z_open(glue_strip(StripGeometry("AB"), 2))
    q1 = NovikovSeries.monomial({"Q1": 1}, R.one)
    one = NovikovSeries.constant(R.one)
    expect = (one - q1).scale(R.one / q_int(1))
    assert zo.coefficient(((1,), ())) == expect
    assert zo.coefficient(((), (1,))) == expect
    assert closed_form(StripGeometry("AB"), 2).coefficient(((1,), ())) == expect


def test_closed_form_annulus_coefficient():
    # coefficient of s_1 x s_1 for the two-vertex strip, by expanding the
    # exponential by hand: disk1 * disk2 + annulus
    cf = closed_form(StripGeometry("AB"), 4)
    d = R.one / q_int(1)
    one = NovikovSeries.constant(R.one)
    q1 = NovikovSeries.monomial({"Q1": 1}, R.one)
    disk = (one - q1).scale(d)
    expect = (disk * disk - q1).truncate(2)
    assert cf.coefficient(((1,), (1,))) == expect


def test_two_leg_series_coefficients():
    f = two_leg_vertex_series(2)
    one = NovikovSeries.constant(R.one)
    d = one.scale(R.one / q_int(1))
    assert f.coefficient(((), ())) == one
    assert f.coefficient(((1,), ())) == d
    assert f.coefficient(((), (1,))) == d
    assert verify_two_leg_product(3)["pass"] is True


def test_strip_identity_symbolic():
    for word in ("A", "AA", "AB", "AAB", "ABA", "ABB", "ABBA"):
        rep = verify_strip_identity(word, 3)
        assert rep["pass"] is True, (word, rep["residuals"][:3])
        assert rep["checked"] > 0


def test_strip_identity_numeric():
    ring = NumericQ.from_q(Fraction(9, 4))
    rep = verify_strip_identity("ABB", 4, ring)
    assert rep["pass"] is True


def test_wrong_edge_sign_fails():
    rules = {"edge_sign": {"AA": 1, "AB": 1, "BA": -1, "BB": 1},
             "edge_kappa": GLUE_RULES["edge_kappa"],
             "b_slots": "left_first", "end_sign_b": 1}
    s = StripGeometry("AB")
    lhs = z_open(glue_strip(s, 2, rules=rules))
    assert lhs != closed_form(s, 2)


def test_one_brane_match():
    for word in ("A", "AB", "AAB"):
        rep = verify_one_brane_match(word, 4)
        assert rep["pass"] is True, (word, rep["residuals"][:3])


def test_one_brane_closed_form_slices_two_brane():
    s = StripGeometry("ABA")
    cap = 3
    whole = closed_form(s, cap)
    part = one_brane_closed_form(s, cap)
    for lam, c in whole.slice_first().terms.items():
        assert part.coefficient(lam).truncate(c.cap) == c


def test_z_open_needs_constant_term():
    z = SymFunc2("schur", {((1,), ()): NovikovSeries.constant(R.one)}, 2, R)
    with pytest.raises(NonUnitClosedSector):
        z_open(z)


def test_mirror_curve_conifold():
    data = mirror_and_quantum(StripGeometry("AB"))
    one = NovikovSeries.constant(R.one)
    q1 = NovikovSeries.monomial({"Q1": 1}, R.one)
    assert data["classical"]["y"] == [one, -one]
    assert data["classical"]["one"] == [one, -q1]
    assert data["quantum"]["A"][1] == (-one).scale(R.t_power(1))


def test_mirror_curve_c3():
    data = mirror_and_quantum(StripGeometry("A"))
    one = NovikovSeries.constant(R.one)
    assert data["classical"]["y"] == [one, -one]
    assert data["classical"]["one"] == [one]


def test_quantum_reduces_to_classical_at_unit_t():
    ring = NumericQ(Fraction(1))
    data = mirror_and_quantum(StripGeometry("AAB"), ring)
    assert data["quantum"]["A"] == data["classical"]["y"]
    assert data["quantum"]["B"] == data["classical"]["one"]
