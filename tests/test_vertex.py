"""Tests for the trivalent vertex, strip gluing, and product forms."""
import itertools
import random
from fractions import Fraction

import pytest

from oracles import SHIPPED_RULES, glue_strip_by_tuples
from stripvertex import cli, vertex
from stripvertex.partitions import enumerate_partitions, size
from stripvertex.scalars import SYMBOLIC, NovikovSeries, NumericQ, Scalar
from stripvertex.qdiff import log_reduce, verify_annihilation
from stripvertex.skein import (
    _solution_p,
    psi,
    psi_inverse,
    solution_element,
    solve_recurrence,
    verify_dilog_recurrence,
)
from stripvertex.symfunc import SymFunc, SymFunc2
from stripvertex.vertex import (
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
NUMERIC = NumericQ.from_q(Fraction(9, 4))
# the 15 strip words of length at most 4
WORDS = ["A" + "".join(rest) for n in range(4) for rest in itertools.product("AB", repeat=n)]


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
    rules = {**SHIPPED_RULES, "edge_sign": {"AA": 1, "AB": 1, "BA": -1, "BB": 1}}
    s = StripGeometry("AB")
    lhs = z_open(glue_strip_by_tuples(s, 2, rules=rules))
    assert lhs != closed_form(s, 2)


@pytest.mark.parametrize("branes", ["two", "one"])
@pytest.mark.parametrize("ring,cap", [(R, 3), (NUMERIC, 4)], ids=["symbolic", "numeric"])
def test_glue_walk_matches_tuple_enumeration(ring, cap, branes):
    for word in WORDS:
        s = StripGeometry(word)
        walk = glue_strip(s, cap, ring, branes)
        assert walk == glue_strip_by_tuples(s, cap, ring, branes), word


# sign tables of the oracle other than the shipped one: every sign negated,
# and the AB and BB edges alone.  Negating the sign of an edge is Q_k -> -Q_k
# on that edge, and an end sign at a type-B end is (-1)^|l2| on the second
# slot, so the walk's fixed signs must give the oracle's series after these
# substitutions.
ODD_RULES = [
    {**SHIPPED_RULES, "edge_sign": {"AA": -1, "AB": 1, "BA": 1, "BB": -1},
     "end_sign_b": -1},
    {**SHIPPED_RULES, "edge_sign": {"AA": 1, "AB": 1, "BA": -1, "BB": -1}},
]


def _resign(z: SymFunc2, word: str, rules) -> SymFunc2:
    """z with Q_k -> -Q_k on each edge whose sign rules flip, and the end sign."""
    flipped = {f"Q{k + 1}" for k in range(len(word) - 1)
               if rules["edge_sign"][word[k:k + 2]] != SHIPPED_RULES["edge_sign"][word[k:k + 2]]}
    end = rules["end_sign_b"] < 0 and word[-1] == "B"
    terms = {}
    for (l1, l2), series in z.terms.items():
        coeffs = {}
        for key, c in series.terms.items():
            odd = sum(e for name, e in key if name in flipped) + (size(l2) if end else 0)
            coeffs[key] = -c if odd % 2 else c
        terms[(l1, l2)] = NovikovSeries(coeffs, series.ring, series.cap)
    return SymFunc2(z.basis, terms, z.cap, z.ring)


@pytest.mark.parametrize("rules", ODD_RULES)
@pytest.mark.parametrize("word", ["AB", "ABB", "ABAB"])
def test_glue_walk_matches_tuple_enumeration_under_other_rules(word, rules):
    s = StripGeometry(word)
    for branes in ("one", "two"):
        walk = glue_strip(s, 3, R, branes)
        oracle = glue_strip_by_tuples(s, 3, R, branes, rules)
        assert _resign(walk, word, rules) == oracle, (word, branes)
    # the rules reach the two-brane series
    assert oracle != walk, word


def test_length_five_glue_walk_and_strip_identity():
    # the 16 words of length 5, one past the acceptance words
    for rest in itertools.product("AB", repeat=4):
        word = "A" + "".join(rest)
        s = StripGeometry(word)
        assert glue_strip(s, 3) == glue_strip_by_tuples(s, 3), word
        rep = verify_strip_identity(word, 3)
        assert rep["pass"] is True, (word, rep["residuals"][:3])


def test_one_brane_match():
    for ring in (R, NUMERIC):
        for word in ("A", "AB", "AAB"):
            rep = verify_one_brane_match(word, 4, ring)
            assert rep["pass"] is True, (ring, word, rep["residuals"][:3])


def test_one_brane_sides_compare_alike_in_p_and_schur():
    # the check compares in p what the public builders return in Schur
    inv = Scalar.subs_q_inverse
    for word in WORDS:
        strip = StripGeometry(word)
        alphas, betas = strip_params(strip)
        sol_p = _solution_p(alphas, betas, 4, R)
        sol = solution_element(alphas, betas, 4)
        assert sol.map_coeffs(inv) == sol_p.map_coeffs(inv).convert("schur"), word
        assert len(sol_p.terms) == len(sol.terms), word
        closed_p = vertex._one_brane_p(strip, 4, R)
        assert len(closed_p.terms) == len(one_brane_closed_form(strip, 4).terms), word


def test_one_brane_solution_inverts_by_exchanging_lists():
    # q -> 1/q maps prod Psi[alpha] * prod Psi[beta]^(-1) to the product
    # with alpha and beta exchanged, which criterion 8 compares against
    inv = Scalar.subs_q_inverse
    for word in WORDS:
        alphas, betas = strip_params(StripGeometry(word))
        image = solution_element(alphas, betas, 4).map_coeffs(inv)
        assert image == solution_element(betas, alphas, 4), word


@pytest.mark.parametrize("ring", [R, NUMERIC], ids=["symbolic", "numeric"])
def test_one_brane_fails_without_the_exchange(monkeypatch, ring):
    # with alpha and beta unexchanged the recursion side is the product
    # itself, not its q -> 1/q image
    build = vertex._solution_p
    monkeypatch.setattr(vertex, "_solution_p",
                        lambda alphas, betas, *rest: build(betas, alphas, *rest))
    rep = verify_one_brane_match("AB", 3, ring)
    assert rep["pass"] is False
    assert rep["residuals"]


@pytest.mark.parametrize("check,key_columns", [
    (lambda: verify_two_leg_product(2), 2),
    (lambda: verify_strip_identity("AB", 2), 2),
    (lambda: verify_one_brane_match("AB", 2), 1),
], ids=["two-leg", "strip", "one-brane"])
def test_checks_fail_for_wrong_disk_weight(monkeypatch, check, key_columns):
    weight = vertex.disk_weight
    monkeypatch.setattr(vertex, "disk_weight",
                        lambda d, ring=R: weight(d, ring) + ring.one)
    rep = check()
    assert rep["pass"] is False
    assert rep["residuals"]
    for row in rep["residuals"]:
        assert len(row) == key_columns + 1
        assert all(isinstance(k, list) for k in row[:-1])
        assert isinstance(row[-1], str)


def test_one_brane_closed_form_slices_two_brane():
    s = StripGeometry("ABA")
    cap = 3
    whole = closed_form(s, cap)
    part = one_brane_closed_form(s, cap)
    for lam, c in whole.slice_first().terms.items():
        assert part.coefficient(lam).truncate(c.cap) == c


@pytest.mark.parametrize("ring", [R, NUMERIC], ids=["symbolic", "numeric"])
def test_one_brane_closed_form_at_combined_degree(ring):
    # the first-slot build equals the two-brane slice, and its table equals
    # the table of the exact one-alphabet product cut to combined degree
    cap = 4
    for word in WORDS:
        s = StripGeometry(word)
        one = closed_form(s, cap, ring, branes="one")
        assert {l2 for _, l2 in one.terms} == {()}, word
        one = one.slice_first()
        assert one == closed_form(s, cap, ring).slice_first(), word
        exact = one_brane_closed_form(s, cap, ring)
        cut = SymFunc("schur", {lam: c.truncate(cap - size(lam))
                                for lam, c in exact.terms.items()}, cap, ring)
        assert cli._table(one, "one") == cli._table(cut, "one"), word


@pytest.mark.parametrize("build", [glue_strip, closed_form])
def test_builders_refuse_an_unknown_brane_count(build):
    with pytest.raises(ValueError, match="branes must be 'one' or 'two'"):
        build(StripGeometry("AB"), 2, R, branes="three")


AB = StripGeometry("AB")
XI = NovikovSeries.constant(R.one)
# every check and builder, called at a given cap
BUILDS_AT_CAP = {
    "verify_strip_identity": lambda cap: verify_strip_identity("AB", cap),
    "verify_one_brane_match": lambda cap: verify_one_brane_match("AB", cap),
    "verify_two_leg_product": verify_two_leg_product,
    "verify_annihilation": lambda cap: verify_annihilation("AB", cap),
    "verify_dilog_recurrence": verify_dilog_recurrence,
    "verify_dilog_recurrence-inverse": lambda cap: verify_dilog_recurrence(cap, "inverse"),
    "glue_strip": lambda cap: glue_strip(AB, cap),
    "glue_strip-one": lambda cap: glue_strip(AB, cap, branes="one"),
    "closed_form": lambda cap: closed_form(AB, cap),
    "one_brane_closed_form": lambda cap: one_brane_closed_form(AB, cap),
    "two_leg_vertex_series": two_leg_vertex_series,
    "two_leg_product_form": two_leg_product_form,
    "log_reduce": lambda cap: log_reduce(AB, cap),
    "solve_recurrence": solve_recurrence,
    "psi": lambda cap: psi(XI, cap),
    "psi_inverse-exponential": lambda cap: psi_inverse(XI, cap, form="exponential"),
    "solution_element": lambda cap: solution_element(*strip_params(AB), cap),
}


@pytest.mark.parametrize("build", BUILDS_AT_CAP.values(), ids=BUILDS_AT_CAP.keys())
def test_negative_cap_fails_loudly(build):
    build(0)
    with pytest.raises(ValueError, match="cap must be nonnegative"):
        build(-1)


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
