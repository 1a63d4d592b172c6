"""Strip geometries, the framed trivalent vertex, gluing, and closed forms.

A strip is a linear chain of trivalent vertices, each of type A or B, with
neighbouring vertices joined by an edge carrying one parameter Q_k and the
two outermost edges carrying boundary partitions.  The chain sum is a series
whose coefficients are polynomials in the Q's; the same series also has a
product form built from plethystic exponentials, and comparing the two is
the main machine check of this module.  The product forms take their disk
weight from skein.disk_weight and their first-boundary disk row from
StripGeometry.disk_row.  The one-vertex series with both boundaries (the
two-leg vertex) is the strip "A" with its boundaries exchanged.
"""
from __future__ import annotations

from fractions import Fraction

from .partitions import (
    Partition,
    enumerate_partitions,
    kappa,
    size,
    subpartitions,
    transpose,
)
from .scalars import SYMBOLIC, NovikovSeries
from .skein import disk_weight, solution_element
from .symfunc import SymFunc, SymFunc2, principal_spec_skew, sym_exp


class NonUnitClosedSector(ValueError):
    """The empty-boundary series cannot be inverted at this truncation."""


class StripGeometry:
    """A chain of trivalent vertices labelled by a word over {A, B}.

    Vertex k (1-based) has type word[k-1]; the edge joining vertices k and
    k+1 carries the parameter Q_k.  The first boundary condition sits on the
    outer edge of vertex 1, the second on the outer edge of vertex n.  The
    leftmost vertex is required to have type A; the reflected words are
    equivalent geometries and add nothing.
    """

    __slots__ = ("types",)

    def __init__(self, types: str):
        if not types:
            raise ValueError("a strip needs at least one vertex")
        bad = set(types) - {"A", "B"}
        if bad:
            raise ValueError(f"vertex types must be A or B, got {sorted(bad)!r}")
        if types[0] != "A":
            raise ValueError("the leftmost vertex must have type A")
        self.types = types

    def __repr__(self):
        return f"StripGeometry({self.types!r})"

    def q_interval(self, i: int, j: int, ring=SYMBOLIC, power: int = 1) -> NovikovSeries:
        """The monomial Q_i Q_{i+1} ... Q_{j-1} (to the given power), 1 when i >= j."""
        if not 1 <= i <= len(self.types) or not 1 <= j <= len(self.types):
            raise ValueError("vertex index out of range")
        exps = {f"Q{l}": power for l in range(i, j)}
        return NovikovSeries.monomial(exps, ring.one)

    def disk_row(self, d: int, weight) -> NovikovSeries:
        """sum_k +-Q_{1,k}^d times weight, + at type-A vertices, - at type-B.

        With the disk weight 1/(d {d}) this is the degree-d disk tower
        against the first boundary.
        """
        ring, neg = weight.ring, -weight
        row = NovikovSeries.constant(ring.zero)
        for k, vt in enumerate(self.types, 1):
            row = row + self.q_interval(1, k, ring, d).scale(weight if vt == "A" else neg)
        return row


def strip_params(strip: StripGeometry, ring=SYMBOLIC):
    """Interval monomials of the two vertex types, in vertex order.

    Returns (alphas, betas): the monomial Q_{1,k} lands in alphas when
    vertex k has type A and in betas when it has type B.  The first entry
    of alphas is always the constant 1.
    """
    alphas, betas = [], []
    for k, vt in enumerate(strip.types, 1):
        mono = strip.q_interval(1, k, ring)
        (alphas if vt == "A" else betas).append(mono)
    return alphas, betas


# ---------------------------------------------------------------------------
# the vertex and its framed variant

def topological_vertex(mu1, mu2, mu3, ring=SYMBOLIC):
    """Exact value of the trivalent vertex on three partitions.

    q^(kappa(mu3)/2) * s_{mu2}(q^rho) * sum over eta of
    s_{mu1/eta}(q^(mu2' + rho)) s_{mu3'/eta}(q^(mu2 + rho)), where the sum
    ranges over partitions contained in both mu1 and the transpose of mu3.
    """
    mu1, mu2, mu3 = tuple(mu1), tuple(mu2), tuple(mu3)
    memo = ring.memo
    key = ("vertex", mu1, mu2, mu3)
    if key in memo:
        return memo[key]
    m2t = transpose(mu2)
    m3t = transpose(mu3)
    envelope = tuple(min(a, b) for a, b in zip(mu1, m3t))
    tot = ring.zero
    for eta in subpartitions(envelope):
        left = principal_spec_skew(mu1, eta, m2t, ring)
        right = principal_spec_skew(m3t, eta, mu2, ring)
        tot = tot + left * right
    out = ring.t_power(kappa(mu3)) * principal_spec_skew(mu2, (), (), ring) * tot
    memo[key] = out
    return out


def framed_vertex(mu1, mu2, mu3, f1: int, f2: int, f3: int, ring=SYMBOLIC):
    """The vertex times the framing power q^(sum f_i kappa(mu_i) / 2)."""
    shift = f1 * kappa(tuple(mu1)) + f2 * kappa(tuple(mu2)) + f3 * kappa(tuple(mu3))
    return ring.t_power(shift) * topological_vertex(mu1, mu2, mu3, ring)


# ---------------------------------------------------------------------------
# gluing

# Slot conventions. A type-A vertex reads (right edge, left edge, leg) into
# the vertex slots, a type-B one reads (left edge, right edge, leg); in both
# cases the first slot carries framing -1 and the others 0, and the leg stays
# empty on a strip.  An internal edge inserts sigma on the right slot of one
# vertex and its transpose on the left slot of the next, weighted by
# Q^(|sigma|) and the sign below per unit of |sigma|.  The table was fixed
# once by matching the normalized glued series against the plethystic
# product form at small truncation; scripts/calibrate_gluing.py re-runs that
# search over the candidate conventions.
GLUE_RULES = {
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


def glue_strip(strip: StripGeometry, cap: int, ring=SYMBOLIC,
               branes: str = "two", rules=None) -> SymFunc2:
    """Unnormalized chain sum over all edge and boundary partitions.

    The result is a two-alphabet Schur series; the coefficient of
    s_{l1} x s_{l2} is a polynomial in the edge parameters, and every term
    obeys |l1| + |l2| + (total edge size) <= cap.  With branes="one" the
    second boundary is pinned to the empty partition.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    if branes not in ("one", "two"):
        raise ValueError("branes must be 'one' or 'two'")
    if rules is None:
        rules = GLUE_RULES
    word = strip.types
    n = len(word)
    out = SymFunc2.zero(ring, cap, "schur")
    for l1 in enumerate_partitions(cap):
        s1 = size(l1)
        l2_choices = enumerate_partitions(cap - s1) if branes == "two" else [()]
        for l2 in l2_choices:
            budget = cap - s1 - size(l2)
            for sigmas, used in _partition_tuples(n - 1, budget):
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


def z_open(z: SymFunc2) -> SymFunc2:
    """Quotient by the empty-boundary part, so the constant term becomes 1."""
    den = z.coefficient(((), ()))
    if den.constant_term().is_zero():
        raise NonUnitClosedSector("empty-boundary series has no constant term")
    return z.scale(den.truncate(z.cap).inverse())


# ---------------------------------------------------------------------------
# product (multiple cover) form of the same series

def _disk_sign_second(vt: str, last: str, d: int) -> int:
    # sign of the degree-d disk term binding vertex vt to the second boundary
    if last == "A":
        s = 1 if d % 2 else -1
        return s if vt == "A" else -s
    return -1 if vt == "A" else 1


def closed_form(strip: StripGeometry, cap: int, ring=SYMBOLIC) -> SymFunc2:
    """The two-boundary series as one plethystic exponential, truncated.

    The exponent collects, for every multiple-cover degree d: disk terms
    from each vertex to either boundary with coefficient +-Q^d / (d {d}),
    and annulus terms joining the two boundaries with coefficient
    +-Q^d / d, the signs and intervals depending on the vertex types.
    """
    word = strip.types
    n = len(word)
    log = SymFunc2.zero(ring, cap, "p")
    last = word[-1]
    for d in range(1, cap + 1):
        disk = disk_weight(d, ring)
        log.add_term(((d,), ()), strip.disk_row(d, disk))
        row2 = NovikovSeries.constant(ring.zero)
        for k, vt in enumerate(word, 1):
            m2 = strip.q_interval(k, n, ring, d)
            row2 = row2 + m2.scale(disk if _disk_sign_second(vt, last, d) > 0 else -disk)
        log.add_term(((), (d,)), row2)
        inv_d = ring.from_fraction(Fraction(1, d))
        ann = inv_d if last == "A" and d % 2 else -inv_d
        log.add_term(((d,), (d,)), strip.q_interval(1, n, ring, d).scale(ann))
    return log.exp().convert("schur")


def one_brane_closed_form(strip: StripGeometry, cap: int, ring=SYMBOLIC) -> SymFunc:
    """Only the disk factors against the first boundary, as a one-alphabet series.

    Equal to the second-boundary-empty slice of closed_form, but computed
    without combined-degree truncation: coefficients are exact polynomials
    in the Q's for every |lam| <= cap.
    """
    terms = {(d,): strip.disk_row(d, disk_weight(d, ring)) for d in range(1, cap + 1)}
    return sym_exp(SymFunc("p", terms, cap, ring, clean=True)).convert("schur")


# ---------------------------------------------------------------------------
# the one-vertex series with both boundaries: the strip A, slots swapped

def _swap_slots(z: SymFunc2) -> SymFunc2:
    terms = {(l2, l1): c for (l1, l2), c in z.terms.items()}
    return SymFunc2(z.basis, terms, z.cap, z.ring, clean=True)


def two_leg_vertex_series(cap: int, ring=SYMBOLIC) -> SymFunc2:
    """Raw framed vertex values summed against both boundary alphabets.

    Framing (-1, 0) on the two occupied slots, empty leg; the coefficient
    of s_{m1} x s_{m2} is the framed vertex value itself.  This is the
    glued one-vertex strip A with its two boundaries exchanged.
    """
    return _swap_slots(glue_strip(StripGeometry("A"), cap, ring))


def two_leg_product_form(cap: int, ring=SYMBOLIC) -> SymFunc2:
    """The matching triple product of plethystic exponentials.

    Alternating disk tower on the first alphabet, plain disk tower on the
    second, alternating annulus joining them: the closed form of the strip
    A with its two boundaries exchanged.
    """
    return _swap_slots(closed_form(StripGeometry("A"), cap, ring))


# ---------------------------------------------------------------------------
# mirror curve data

def _falling_product(xs, ring):
    """Coefficient lists of prod_i (1 - x_i T) in a counting variable T."""
    coeffs = [NovikovSeries.constant(ring.one)]
    for x in xs:
        nxt = [coeffs[0]]
        for i in range(1, len(coeffs) + 1):
            term = coeffs[i - 1] * x
            if i < len(coeffs):
                nxt.append(coeffs[i] - term)
            else:
                nxt.append(-term)
        coeffs = nxt
    return coeffs


def mirror_and_quantum(strip: StripGeometry, ring=SYMBOLIC) -> dict:
    """Classical curve y A(x) + B(x) and its quantum coefficient lists.

    A(x) = prod_i (1 - alpha_i x) and B(x) = prod_j (1 - beta_j x); the
    quantum lists carry an extra t^i on the degree-i coefficient, matching
    the ordering where the shift acts after multiplication by x.  At t = 1
    the quantum lists reduce to the classical ones.
    """
    alphas, betas = strip_params(strip, ring)
    a_cl = _falling_product(alphas, ring)
    b_cl = _falling_product(betas, ring)
    return {
        "alphas": alphas,
        "betas": betas,
        "classical": {"y": a_cl, "one": b_cl},
        "quantum": {
            "A": [c.scale(ring.t_power(i)) for i, c in enumerate(a_cl)],
            "B": [c.scale(ring.t_power(i)) for i, c in enumerate(b_cl)],
            "shift": "x-then-shift",
        },
    }


# ---------------------------------------------------------------------------
# machine checks

def _series2_report(check: str, lhs: SymFunc2, rhs: SymFunc2, extra: dict) -> dict:
    diff = lhs - rhs
    keys = set(lhs.terms) | set(rhs.terms)
    bad = [[list(k1), list(k2), str(c)] for (k1, k2), c in diff.sorted_terms()]
    report = {"check": check}
    report.update(extra)
    report.update({"checked": len(keys), "residuals": bad, "pass": not bad})
    return report


def verify_two_leg_product(cap: int, ring=SYMBOLIC) -> dict:
    """Raw one-vertex series against its triple product form."""
    lhs = two_leg_vertex_series(cap, ring)
    rhs = two_leg_product_form(cap, ring)
    return _series2_report("two-leg-product", lhs, rhs, {"cap": cap})


def verify_strip_identity(types: str, cap: int, ring=SYMBOLIC) -> dict:
    """Normalized glued chain against the plethystic closed form."""
    strip = StripGeometry(types)
    lhs = z_open(glue_strip(strip, cap, ring))
    rhs = closed_form(strip, cap, ring)
    return _series2_report("strip-closed-form", lhs, rhs,
                           {"types": types, "cap": cap})


def verify_one_brane_match(types: str, cap: int, ring=SYMBOLIC) -> dict:
    """One-boundary closed form against the meridian-recursion solution.

    The recursion solution built from the strip's interval monomials agrees
    with the disk-only closed form after inverting q in every coefficient.
    """
    strip = StripGeometry(types)
    lhs = one_brane_closed_form(strip, cap, ring)
    alphas, betas = strip_params(strip, ring)
    sol = solution_element(alphas, betas, cap, ring)
    rhs = sol.map_coeffs(lambda s: s.subs_q_inverse())
    diff = lhs - rhs
    keys = set(lhs.terms) | set(rhs.terms)
    bad = [[list(k), str(c)] for k, c in sorted(diff.terms.items())]
    return {"check": "one-brane-skein-match", "types": types, "cap": cap,
            "checked": len(keys), "residuals": bad, "pass": not bad}
