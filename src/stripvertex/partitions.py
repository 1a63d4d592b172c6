"""Integer partitions: enumeration, hooks, contents, and symmetric group characters.

Partitions are tuples of weakly decreasing positive integers, the empty
partition being ().  Rows and columns are 1-indexed English style, so the
box in row i, column j has content j - i.
"""
from __future__ import annotations

from functools import cache

Partition = tuple[int, ...]


def size(lam: Partition) -> int:
    return sum(lam)


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, lexicographically decreasing ((n) first)."""
    if n < 0:
        return ()
    if n == 0:
        return ((),)

    def gen(rest: int, maxpart: int):
        if rest == 0:
            yield ()
            return
        for first in range(min(rest, maxpart), 0, -1):
            for tail in gen(rest - first, first):
                yield (first,) + tail

    return tuple(gen(n, n))


def enumerate_partitions(max_size: int) -> list[Partition]:
    """All partitions of size at most max_size, ordered by size then lexicographically decreasing."""
    out: list[Partition] = []
    for n in range(max_size + 1):
        out.extend(partitions_of(n))
    return out


def transpose(lam: Partition) -> Partition:
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def kappa(lam: Partition) -> int:
    """sum of lam_i * (lam_i - 2i + 1); always even, antisymmetric under transpose."""
    return sum(p * (p - 2 * i - 1) for i, p in enumerate(lam))


def hooks(lam: Partition) -> list[int]:
    """Hook lengths of all boxes, row by row."""
    lt = transpose(lam)
    return [lam[i] - j + lt[j - 1] - i
            for i in range(len(lam)) for j in range(1, lam[i] + 1)]


def contents(lam: Partition) -> list[int]:
    """Contents j - i of all boxes, row by row."""
    return [j - i for i in range(1, len(lam) + 1) for j in range(1, lam[i - 1] + 1)]


def content_polynomial(lam: Partition, ring, inverse_q: bool = False):
    """The sum of q^content over the boxes (q -> 1/q when inverse_q)."""
    out = ring.zero
    s = -2 if inverse_q else 2
    for c in contents(lam):
        out = out + ring.t_power(s * c)
    return out


def remove_box(lam: Partition) -> list[tuple[Partition, int]]:
    """Partitions covered by lam, with the 1-based row the box was removed from."""
    out = []
    for i in range(len(lam)):
        below = lam[i + 1] if i + 1 < len(lam) else 0
        if lam[i] > below:
            mu = list(lam)
            mu[i] -= 1
            out.append((tuple(p for p in mu if p), i + 1))
    return out


def subpartitions(bound: Partition) -> list[Partition]:
    """All partitions contained in the given diagram."""
    if not bound:
        return [()]

    def gen(i: int, maxpart: int):
        if i == len(bound):
            yield ()
            return
        yield ()
        for first in range(1, min(bound[i], maxpart) + 1):
            for tail in gen(i + 1, first):
                yield (first,) + tail

    # rows weakly decrease and stay within the bound rows; gen yields each
    # partition once, as a tuple of its nonzero rows
    return sorted(gen(0, bound[0]), key=lambda m: (sum(m), m))


def z_factor(mu: Partition) -> int:
    """Order of the centralizer of a permutation of cycle type mu."""
    out = 1
    mult: dict[int, int] = {}
    for p in mu:
        mult[p] = mult.get(p, 0) + 1
    for p, m in mult.items():
        out *= p ** m
        for i in range(1, m + 1):
            out *= i
    return out


@cache
def character(lam: Partition, mu: Partition) -> int:
    """Irreducible symmetric group character chi^lam at cycle type mu.

    Computed by iterated border strip removal on the beta-set of lam;
    both partitions must have the same size.
    """
    if size(lam) != size(mu):
        raise ValueError("character requires |lam| = |mu|")
    if not mu:
        return 1
    r = mu[0]
    rest = mu[1:]
    n = len(lam)
    beta = [lam[i] + n - 1 - i for i in range(n)]
    bset = set(beta)
    total = 0
    for b in beta:
        nb = b - r
        if nb < 0 or nb in bset:
            continue
        crossed = sum(1 for x in beta if nb < x < b)
        newbeta = sorted((x for x in beta if x != b), reverse=True)
        # reinsert the lowered entry and rebuild the partition
        newbeta.append(nb)
        newbeta.sort(reverse=True)
        m = len(newbeta)
        newlam = tuple(p for p in (newbeta[i] - (m - 1 - i) for i in range(m)) if p)
        sign = -1 if crossed % 2 else 1
        total += sign * character(newlam, rest)
    return total
