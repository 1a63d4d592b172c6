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
from .skein import _solution_p, disk_weight
from .symfunc import SymFunc, SymFunc2, check_report, principal_spec_skew, sym_exp


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
    m2t = transpose(mu2)
    m3t = transpose(mu3)
    envelope = tuple(min(a, b) for a, b in zip(mu1, m3t))
    tot = ring.zero
    for eta in subpartitions(envelope):
        left = principal_spec_skew(mu1, eta, m2t, ring)
        right = principal_spec_skew(m3t, eta, mu2, ring)
        tot = tot + left * right
    return ring.t_power(kappa(mu3)) * principal_spec_skew(mu2, (), (), ring) * tot


def framed_vertex(mu1, mu2, mu3, f1: int, f2: int, f3: int, ring=SYMBOLIC):
    """The vertex times the framing power q^(sum f_i kappa(mu_i) / 2)."""
    shift = f1 * kappa(tuple(mu1)) + f2 * kappa(tuple(mu2)) + f3 * kappa(tuple(mu3))
    return ring.t_power(shift) * topological_vertex(mu1, mu2, mu3, ring)


# ---------------------------------------------------------------------------
# gluing

# Conventions.  A type-B vertex reads (left edge, right edge, leg) into the
# vertex slots and a type-A one (right edge, left edge, leg); the first slot
# carries framing -1, the others 0, and the leg stays empty on a strip.  An
# internal edge inserts sigma on the right slot of one vertex and its
# transpose on the left slot of the next, weighted by Q^|sigma| and, between
# vertices of different types, by (-1)^|sigma|.  These were fixed once as the
# one survivor of matching the normalized chain sum against the product form
# at small truncation; scripts/calibrate_gluing.py re-runs that search over
# the chain sum of tests/oracles.py.

def _vertex_factor(vtype: str, left: Partition, right: Partition, ring):
    m1, m2 = (left, right) if vtype == "B" else (right, left)
    memo = ring.memo
    key = ("vertex", m1, m2)
    if key not in memo:
        memo[key] = framed_vertex(m1, m2, (), -1, 0, 0, ring)
    return memo[key]


def _check_branes(branes: str) -> None:
    if branes not in ("one", "two"):
        raise ValueError("branes must be 'one' or 'two'")


def glue_strip(strip: StripGeometry, cap: int, ring=SYMBOLIC,
               branes: str = "two") -> SymFunc2:
    """Unnormalized chain sum over all edge and boundary partitions.

    The result is a two-alphabet Schur series; the coefficient of
    s_{l1} x s_{l2} is a polynomial in the edge parameters, and every term
    obeys |l1| + |l2| + (total edge size) <= cap.  With branes="one" the
    second boundary is pinned to the empty partition.  The slot, framing and
    edge sign conventions are stated in the comment before _vertex_factor.

    For each l1 the sum is one depth-first walk along the chain: a step
    carries the product of the vertex factors so far, the Q exponents, the
    size budget left and the partition entering the next vertex, so a
    prefix shared by many terms is multiplied out once.
    """
    _check_branes(branes)
    word = strip.types
    last = len(word) - 1
    out = SymFunc2.zero(ring, cap, "schur")

    def walk(l1, k, left, val, exps, budget):
        if k == last:
            for l2 in enumerate_partitions(budget) if branes == "two" else [()]:
                v = val * _vertex_factor(word[k], left, l2, ring)
                out.add_term((l1, l2), NovikovSeries.monomial(exps, v))
            return
        flip = word[k] != word[k + 1]
        for sig in enumerate_partitions(budget):
            s = size(sig)
            v = val * _vertex_factor(word[k], left, sig, ring)
            if flip and s % 2:
                v = -v
            walk(l1, k + 1, transpose(sig), v, {**exps, f"Q{k + 1}": s}, budget - s)

    for l1 in enumerate_partitions(cap):
        walk(l1, 0, l1, ring.one, {}, cap - size(l1))
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


def closed_form(strip: StripGeometry, cap: int, ring=SYMBOLIC,
                branes: str = "two") -> SymFunc2:
    """The two-boundary series as one plethystic exponential, truncated.

    The exponent collects, for every multiple-cover degree d: disk terms
    from each vertex to either boundary with coefficient +-Q^d / (d {d}),
    and annulus terms joining the two boundaries with coefficient
    +-Q^d / d, the signs and intervals depending on the vertex types.
    With branes="one", as in glue_strip, the exponent keeps only the disk
    rows against the first boundary: the result holds the keys (lam, ())
    of the two-boundary series alone, with the same coefficients.
    """
    _check_branes(branes)
    word = strip.types
    n = len(word)
    log = SymFunc2.zero(ring, cap, "p")
    last = word[-1]
    for d in range(1, cap + 1):
        disk = disk_weight(d, ring)
        log.add_term(((d,), ()), strip.disk_row(d, disk))
        if branes == "one":
            continue
        row2 = NovikovSeries.constant(ring.zero)
        for k, vt in enumerate(word, 1):
            m2 = strip.q_interval(k, n, ring, d)
            row2 = row2 + m2.scale(disk if _disk_sign_second(vt, last, d) > 0 else -disk)
        log.add_term(((), (d,)), row2)
        inv_d = ring.from_fraction(Fraction(1, d))
        ann = inv_d if last == "A" and d % 2 else -inv_d
        log.add_term(((d,), (d,)), strip.q_interval(1, n, ring, d).scale(ann))
    return log.exp().convert("schur")


def _one_brane_p(strip: StripGeometry, cap: int, ring) -> SymFunc:
    # one_brane_closed_form in the power sum basis
    terms = {(d,): strip.disk_row(d, disk_weight(d, ring)) for d in range(1, cap + 1)}
    return sym_exp(SymFunc._new("p", terms, cap, ring))


def one_brane_closed_form(strip: StripGeometry, cap: int, ring=SYMBOLIC) -> SymFunc:
    """Only the disk factors against the first boundary, as a one-alphabet series.

    Equal to the second-boundary-empty slice of closed_form, but computed
    without combined-degree truncation: coefficients are exact polynomials
    in the Q's for every |lam| <= cap.  The CLI's one-brane table is built
    by closed_form(..., branes="one") at combined degree instead; this exact
    form is kept for the package API and as the independent side of that
    table's tests, and its power sum form is the closed-form side of
    verify_one_brane_match.
    """
    return _one_brane_p(strip, cap, ring).convert("schur")


# ---------------------------------------------------------------------------
# the one-vertex series with both boundaries: the strip A, slots swapped

def _swap_slots(z: SymFunc2) -> SymFunc2:
    terms = {(l2, l1): c for (l1, l2), c in z.terms.items()}
    return SymFunc2._new(z.basis, terms, z.cap, z.ring)


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

def _compare(check: str, lhs, rhs, **fields) -> dict:
    # the report of lhs == rhs, checked over every key either side holds;
    # the residual is reported in the Schur basis
    return check_report(check, (lhs - rhs).convert("schur"),
                        len(lhs.terms.keys() | rhs.terms.keys()), **fields)


def verify_two_leg_product(cap: int, ring=SYMBOLIC) -> dict:
    """Raw one-vertex series against its triple product form."""
    return _compare("two-leg-product", two_leg_vertex_series(cap, ring),
                    two_leg_product_form(cap, ring), cap=cap)


def verify_strip_identity(types: str, cap: int, ring=SYMBOLIC) -> dict:
    """Normalized glued chain against the plethystic closed form."""
    strip = StripGeometry(types)
    return _compare("strip-closed-form", z_open(glue_strip(strip, cap, ring)),
                    closed_form(strip, cap, ring), types=types, cap=cap)


def verify_one_brane_match(types: str, cap: int, ring=SYMBOLIC) -> dict:
    """One-boundary closed form against the dilogarithm product, lists exchanged.

    The disk-only closed form equals the recursion solution
    prod Psi[alpha] * prod Psi[beta]^(-1) after q -> 1/q in every
    coefficient.  That image is the same product with the two lists
    exchanged: {h} -> -{h} under t -> 1/t and lam has |lam| hooks, so the
    s_lam coefficient (-1)^|lam| t^(-kappa/2) / prod {h} of Psi[xi] goes to
    t^(kappa/2) / prod {h}, the coefficient of Psi[xi]^(-1) (the inversion
    relation of the quantum dilogarithm).  So both sides are built in the
    ring given, in one code path for every lane, and stay independent: the
    exponential of the disk rows against hook-content products.  They are
    compared in the power sum basis; the change of basis is invertible over
    Q, so the residual is zero there exactly when it is zero in the Schur
    basis, and only the residual is converted, for the report.
    """
    strip = StripGeometry(types)
    alphas, betas = strip_params(strip, ring)
    return _compare("one-brane-skein-match", _one_brane_p(strip, cap, ring),
                    _solution_p(betas, alphas, cap, ring), types=types, cap=cap)
