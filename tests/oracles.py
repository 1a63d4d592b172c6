"""Oracles that only the tests use: partition checks, the Hall pairing, skew Schurs
and the chain sum by tuples under any table of gluing conventions.

Each is an independent route to a quantity the package computes another
way (Pieri's rule against the product, Littlewood-Richardson coefficients
from the character table against the skew Jacobi-Trudi specialization,
every tuple of edge partitions multiplied out afresh against the walk of
vertex.glue_strip), so it lives beside the tests rather than in the package.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from stripvertex.partitions import (
    Partition,
    character,
    enumerate_partitions,
    kappa,
    partitions_of,
    size,
    transpose,
    z_factor,
)
from stripvertex.scalars import SYMBOLIC, NovikovSeries
from stripvertex.symfunc import SymFunc, SymFunc2, principal_spec_skew
from stripvertex.vertex import topological_vertex


# --- partitions -------------------------------------------------------------------

def check_partition(lam) -> Partition:
    lam = tuple(lam)
    if any(not isinstance(p, int) or p <= 0 for p in lam):
        raise ValueError(f"not a partition: {lam!r}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"parts must weakly decrease: {lam!r}")
    return lam


def add_box(lam: Partition) -> list[tuple[Partition, int]]:
    """Partitions covering lam in the Young lattice, with the 1-based row of the new box."""
    out = []
    for i in range(len(lam) + 1):
        cur = lam[i] if i < len(lam) else 0
        above = lam[i - 1] if i > 0 else None
        if above is None or cur < above:
            mu = list(lam)
            if i < len(lam):
                mu[i] += 1
            else:
                mu.append(1)
            out.append((tuple(mu), i + 1))
    return out


def contains(lam: Partition, mu: Partition) -> bool:
    """Whether the diagram of mu fits inside the diagram of lam."""
    if len(mu) > len(lam):
        return False
    return all(mu[i] <= lam[i] for i in range(len(mu)))


def epsilon(mu: Partition) -> int:
    """Sign of a permutation of cycle type mu."""
    return -1 if (size(mu) - len(mu)) % 2 else 1


# --- symmetric functions -------------------------------------------------------------

def hall_pairing(f: SymFunc, g: SymFunc) -> NovikovSeries:
    """The Hall inner product, extended bilinearly over coefficient series."""
    a = f.convert("p")
    b = g.convert("p")
    ring = f.ring
    out = NovikovSeries.constant(ring.zero)
    for mu, c in a.terms.items():
        d = b.terms.get(mu)
        if d is None:
            continue
        out = out + (c * d).scale(ring.from_fraction(z_factor(mu)))
    return out


@cache
def _littlewood_richardson(mu: Partition, nu: Partition) -> dict[Partition, int]:
    """Expansion of s_mu * s_nu in the Schur basis (integer coefficients)."""
    n = size(mu) + size(nu)
    prod: dict[Partition, Fraction] = {}
    for r1 in partitions_of(size(mu)):
        x1 = character(mu, r1)
        if not x1:
            continue
        c1 = Fraction(x1, z_factor(r1))
        for r2 in partitions_of(size(nu)):
            x2 = character(nu, r2)
            if not x2:
                continue
            key = tuple(sorted(r1 + r2, reverse=True))
            prod[key] = prod.get(key, Fraction(0)) + c1 * Fraction(x2, z_factor(r2))
    out: dict[Partition, int] = {}
    for lam in partitions_of(n):
        val = sum((c * character(lam, rho) for rho, c in prod.items()), Fraction(0))
        assert val.denominator == 1
        if val:
            out[lam] = int(val)
    return out


def skew_schur(lam: Partition, mu: Partition, ring, cap: int | None = None) -> SymFunc:
    """The skew Schur function s_{lam/mu} = sum_nu <s_lam, s_mu s_nu> s_nu."""
    lam, mu = tuple(lam), tuple(mu)
    if cap is None:
        cap = size(lam)
    if not contains(lam, mu):
        return SymFunc.zero(ring, cap, "schur")
    n = size(lam) - size(mu)
    terms: dict[Partition, NovikovSeries] = {}
    for nu in partitions_of(n):
        c = _littlewood_richardson(mu, nu).get(lam, 0)
        if c:
            terms[nu] = NovikovSeries.constant(ring.from_fraction(c))
    return SymFunc("schur", terms, cap, ring)


def sign_transpose_residual(lam: Partition, mu: Partition, ring=SYMBOLIC):
    """Residual of s_{lam/mu}(q^rho) - (-1)^(|lam|-|mu|) s_{lam'/mu'}(q^-rho)."""
    lam, mu = tuple(lam), tuple(mu)
    lhs = principal_spec_skew(lam, mu, (), ring)
    rhs = principal_spec_skew(transpose(lam), transpose(mu), (), ring).subs_q_inverse()
    if (size(lam) - size(mu)) % 2:
        rhs = -rhs
    return lhs - rhs


# --- the chain sum -------------------------------------------------------------------

# The gluing conventions as a table of the choices a chain sum leaves open: the
# sign per unit of an internal edge partition and an optional q^(kappa/2) power
# per edge, for each ordered pair of vertex types; which of a type-B vertex's
# edge slots comes first, and so carries framing -1; and a sign on an odd
# boundary partition at a type-B end.  This is the table vertex.glue_strip
# hard-codes, and the one scripts/calibrate_gluing.py finds.
SHIPPED_RULES = {
    "edge_sign": {"AA": 1, "AB": -1, "BA": -1, "BB": 1},
    "edge_kappa": {"AA": 0, "AB": 0, "BA": 0, "BB": 0},
    "b_slots": "left_first",
    "end_sign_b": 1,
}


def _vertex_factor(vtype: str, left: Partition, right: Partition, ring, rules):
    # framing -1 on the first slot is q^(-kappa/2) = t^(-kappa)
    if vtype == "B" and rules["b_slots"] == "left_first":
        m1, m2 = left, right
    else:
        m1, m2 = right, left
    return topological_vertex(m1, m2, (), ring) * ring.t_power(-kappa(m1))


def _partition_tuples(slots: int, budget: int):
    """All tuples of `slots` partitions with total size at most budget."""
    if slots == 0:
        yield (), 0
        return
    for head in enumerate_partitions(budget):
        h = size(head)
        for tail, t in _partition_tuples(slots - 1, budget - h):
            yield (head,) + tail, h + t


def glue_strip_by_tuples(strip, cap: int, ring=SYMBOLIC, branes: str = "two",
                         rules=None) -> SymFunc2:
    """vertex.glue_strip with every tuple of edge partitions multiplied out afresh.

    Each (l1, l2, edge tuple) term is the product of its n vertex factors
    from the ring's one, with the edge signs and the end sign collected in
    one flag and applied at the end.  The conventions are those of the
    table rules, SHIPPED_RULES by default.
    """
    if rules is None:
        rules = SHIPPED_RULES
    word = strip.types
    n = len(word)
    out = SymFunc2.zero(ring, cap, "schur")
    for l1 in enumerate_partitions(cap):
        s1 = size(l1)
        l2_choices = enumerate_partitions(cap - s1) if branes == "two" else [()]
        for l2 in l2_choices:
            budget = cap - s1 - size(l2)
            for sigmas, _ in _partition_tuples(n - 1, budget):
                val = ring.one
                exps = {}
                negate = False
                left = l1
                for k in range(n):
                    right = sigmas[k] if k < n - 1 else l2
                    val = val * _vertex_factor(word[k], left, right, ring, rules)
                    if k < n - 1:
                        sig = sigmas[k]
                        if sig:
                            pair = word[k] + word[k + 1]
                            exps[f"Q{k + 1}"] = size(sig)
                            if rules["edge_sign"][pair] < 0 and size(sig) % 2:
                                negate = not negate
                            g = rules["edge_kappa"][pair]
                            if g:
                                val = val * ring.t_power(g * kappa(sig))
                        left = transpose(sig)
                if rules["end_sign_b"] < 0 and word[-1] == "B" and size(l2) % 2:
                    negate = not negate
                if negate:
                    val = -val
                out.add_term((l1, l2), NovikovSeries.monomial(exps, val))
    return out
