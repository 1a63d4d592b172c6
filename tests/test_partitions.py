"""Tests for partition combinatorics and symmetric group characters."""
import random
from fractions import Fraction

import pytest

from stripvertex import partitions as pt
from stripvertex.scalars import SYMBOLIC

from oracles import add_box, check_partition, contains, epsilon


# --- oracle: partition counts by the classic two-variable recurrence ---------

def _count_with_parts_at_most(n, k, memo={}):
    if n == 0:
        return 1
    if k == 0:
        return 0
    key = (n, k)
    if key not in memo:
        memo[key] = _count_with_parts_at_most(n - k, k) if k <= n else 0
        memo[key] += _count_with_parts_at_most(n, k - 1)
    return memo[key]


def test_enumeration_counts_match_recurrence():
    for n in range(9):
        assert len(pt.partitions_of(n)) == _count_with_parts_at_most(n, n)
    assert len(pt.enumerate_partitions(8)) == 67


def test_enumeration_order():
    assert pt.enumerate_partitions(2) == [(), (1,), (2,), (1, 1)]
    got = pt.enumerate_partitions(3)
    assert got[4:] == [(3,), (2, 1), (1, 1, 1)]


def test_enumeration_entries_are_partitions_and_unique():
    lams = pt.enumerate_partitions(7)
    assert len(set(lams)) == len(lams)
    for lam in lams:
        check_partition(lam)


def test_transpose_involution():
    for lam in pt.enumerate_partitions(8):
        assert pt.transpose(pt.transpose(lam)) == lam
    assert pt.transpose((3, 1)) == (2, 1, 1)


def test_kappa_values_and_antisymmetry():
    assert pt.kappa(()) == 0
    assert pt.kappa((1,)) == 0
    assert pt.kappa((2,)) == 2
    assert pt.kappa((1, 1)) == -2
    for lam in pt.enumerate_partitions(8):
        k = pt.kappa(lam)
        assert k % 2 == 0
        assert pt.kappa(pt.transpose(lam)) == -k
        # kappa is twice the sum of contents
        assert k == 2 * sum(pt.contents(lam))


def test_hooks_and_contents():
    assert sorted(pt.hooks((2, 1))) == [1, 1, 3]
    assert sorted(pt.contents((2, 1))) == [-1, 0, 1]
    assert pt.hooks(()) == []
    for lam in pt.enumerate_partitions(7):
        assert len(pt.hooks(lam)) == pt.size(lam)
        assert sorted(pt.hooks(lam)) == sorted(pt.hooks(pt.transpose(lam)))
        assert sorted(pt.contents(pt.transpose(lam))) == sorted(-c for c in pt.contents(lam))


def test_content_polynomial():
    R = SYMBOLIC
    got = pt.content_polynomial((2, 1), R)
    assert got == R.one + R.t_power(2) + R.t_power(-2)
    assert pt.content_polynomial((2, 1), R, inverse_q=True) == got
    assert pt.content_polynomial((2,), R, inverse_q=True) == R.one + R.t_power(-2)


def test_box_moves():
    ups = add_box((2, 1))
    assert ((3, 1), 1) in ups and ((2, 2), 2) in ups and ((2, 1, 1), 3) in ups
    assert len(ups) == 3
    downs = pt.remove_box((2, 1))
    assert ((1, 1), 1) in downs and ((2,), 2) in downs
    assert len(downs) == 2
    assert add_box(()) == [((1,), 1)]
    assert pt.remove_box(()) == []


def test_box_moves_are_dual():
    for lam in pt.enumerate_partitions(6):
        for mu, _ in add_box(lam):
            assert any(nu == lam for nu, _ in pt.remove_box(mu))


def test_containment_and_subpartitions():
    assert contains((3, 2), (2, 2))
    assert not contains((3, 2), (1, 1, 1))
    subs = pt.subpartitions((2, 1))
    assert subs == [(), (1,), (1, 1), (2,), (2, 1)]
    for lam in subs:
        assert contains((2, 1), lam)


def test_subpartitions_are_the_contained_partitions_once_each():
    every = pt.enumerate_partitions(8)
    for bound in every:
        want = sorted((lam for lam in every if contains(bound, lam)),
                      key=lambda m: (sum(m), m))
        assert pt.subpartitions(bound) == want, bound


def test_z_factor():
    assert pt.z_factor(()) == 1
    assert pt.z_factor((1, 1, 1)) == 6
    assert pt.z_factor((2, 1)) == 2
    assert pt.z_factor((3,)) == 3
    assert pt.z_factor((2, 2)) == 8


# --- characters --------------------------------------------------------------
# oracle: column orthogonality sum_lam chi(lam,mu)*chi(lam,nu) = delta * z(mu)

def test_character_small_table():
    assert pt.character((), ()) == 1
    assert pt.character((1,), (1,)) == 1
    assert pt.character((2,), (1, 1)) == 1
    assert pt.character((2,), (2,)) == 1
    assert pt.character((1, 1), (1, 1)) == 1
    assert pt.character((1, 1), (2,)) == -1
    assert pt.character((2, 1), (1, 1, 1)) == 2
    assert pt.character((2, 1), (2, 1)) == 0
    assert pt.character((2, 1), (3,)) == -1


def test_character_orthogonality():
    for n in range(1, 8):
        lams = pt.partitions_of(n)
        for mu in lams:
            for nu in lams:
                s = sum(pt.character(lam, mu) * pt.character(lam, nu) for lam in lams)
                assert s == (pt.z_factor(mu) if mu == nu else 0)


def test_character_transpose_twist():
    # chi^{lam'}(mu) = eps(mu) * chi^lam(mu)
    for n in range(1, 8):
        for lam in pt.partitions_of(n):
            for mu in pt.partitions_of(n):
                assert pt.character(pt.transpose(lam), mu) == epsilon(mu) * pt.character(lam, mu)


def test_character_dimension():
    # chi at the identity is the number of standard tableaux (hook length formula)
    import math
    for lam in pt.enumerate_partitions(8):
        n = pt.size(lam)
        dim = math.factorial(n)
        for h in pt.hooks(lam):
            dim //= h
        assert pt.character(lam, (1,) * n) == dim


def test_character_size_mismatch():
    with pytest.raises(ValueError):
        pt.character((2,), (1,))
