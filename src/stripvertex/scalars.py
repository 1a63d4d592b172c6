"""Exact coefficient arithmetic in t = q^(1/2) and the loop variable a.

A symbolic scalar is a reduced fraction num / den with integer
coefficients only: num maps (t exponent, a exponent) to an int, a Laurent
polynomial in t and a, and den, a polynomial in t alone, is held factored
as d * prod Phi_n(t)^e_n * R(t).  d is a positive integer; fac holds the
rest as ((n, e_n) pairs by increasing n, R), or is None when den is d
alone.  R, the residual, is a primitive polynomial with a positive lead,
a nonzero constant term and no cyclotomic factor, held as a tuple of its
coefficients (lowest degree first), or None for R = 1.  The quantum
integers and hook products of the package make almost every den a product
of Phi_n: R is entered only by dividing by a polynomial that is not, or
by building a value by hand with one.  Reduction keeps a unique canonical
form, so equality is plain comparison of num, d and fac:

- powers of t live in num (Phi_n(0) and R(0) are nonzero);
- den shares no polynomial factor with the a-slices of num (the
  coefficients of the powers of a, taken jointly);
- d is prime to the integer content of num.

Expanded, den is the den of a fraction num/den with a positive lead and
joint integer content 1, and printing shows it so: rational coefficients
over the primitive polynomial prod Phi_n^e_n * R.  A product adds
exponents; a sum goes over the lcm, the larger exponent of each Phi_n,
and only a Phi_n that both operands hold to the same power can divide
the sum's num.  Reduction divides such Phi_n out of the a-slices by
trial, after a fold mod t^n - 1 that each Phi_n divides; only against R
does it look for a gcd, by the heuristic gcd (Char, Geddes & Gonnet
1989), which proves most pairs coprime at one integer xi past the roots of
R and otherwise reads a candidate off its base-xi digits.  A one-term num
shares no factor with any den, so +, * and / of one-term values need only
an integer gcd, and a unit operand of * hands back the other operand.

A numeric ring pins t to a rational value while a stays formal.  Its
scalars, LaurentScalar, are this same normal form with t pinned: every t
exponent is 0 and fac is None, so the two lanes share one arithmetic and
the higher layers run unchanged in either mode.  Scalars of different
rings do not mix: +, -, *, / and == between them raise TypeError.

The module also holds the one truncated-series core, TruncatedSeries:
sums, products, truncation and equality for every series kind of the
package, with one ring check on sums, products and ==.  Its instance
here is NovikovSeries, a truncated multivariate series in named formal
parameters (Kahler classes, brane weights) whose coefficients are
scalars of either kind; symfunc and qdiff build the symmetric-function
and one-variable kinds on the same core, with Novikov series as their
coefficients.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, inf, isqrt, lcm, prod
from operator import mul

# the num of the scalar 1
_UNIT = {(0, 0): 1}


# ---------------------------------------------------------------------------
# dense integer polynomials, lowest degree first

def _primitive(c: list[int]) -> list[int]:
    g = 0
    for x in c:
        g = gcd(g, x)
        if g == 1:
            return c
    return [x // g for x in c]


def _dense(p: dict[int, int], shift: int = 0) -> list[int]:
    out = [0] * (max(p) - shift + 1)
    for e, c in p.items():
        out[e - shift] = c
    return out


def _dense_mul(p, q) -> list[int]:
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return out


def _horner(p, x):
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _quotient(p: list[int], g: list[int]) -> list[int] | None:
    """p / g in Z[t] for a primitive g, or None when g does not divide p.

    A primitive g that divides p in Q[t] leaves an integer quotient (Gauss's
    lemma), so a step whose coefficient the lead of g does not divide, or a
    nonzero remainder, proves g does not divide p.
    """
    dg = len(g) - 1
    lead = g[-1]
    r = p[:]
    out = [0] * (len(p) - dg)
    for k in range(len(out) - 1, -1, -1):
        c = r[k + dg]
        if c:
            q, m = divmod(c, lead)
            if m:
                return None
            out[k] = q
            for i, gi in enumerate(g):
                r[k + i] -= q * gi
    return None if any(r[:dg]) else out


def _cancel(den: list[int],
            slices: list[list[int]]) -> tuple[list[int], list[list[int]]] | None:
    """den and the slices divided by their joint gcd, or None when it is 1.

    den is nonconstant, and den and every slice have a nonzero constant term.
    This is the heuristic gcd (Char, Geddes & Gonnet, GCDHEU, J. Symbolic
    Comput. 7, 1989): at an integer xi past twice the Cauchy bound of den's
    roots, h is the integer gcd of den(xi) and every slice's value, and the
    candidate G is the primitive part of the polynomial P whose coefficients
    are h's balanced base-xi digits (|digit| <= xi/2), so that P(xi) = h.
    A G that divides den and every slice is their gcd (up to sign):
    were the gcd D = G*H, D(xi) would divide h = +-cont(P)*G(xi), so H(xi)
    would divide cont(P) <= xi/2; yet every root r of H is a root of den,
    with |xi - r| > xi/2, so |H(xi)| > xi/2 unless H is constant.  The same
    bound makes a constant G (h <= xi/2, h = 1 in particular) prove den
    coprime to the slices.  Any other G is false, and xi grows.  The loop
    ends: with den = D*A and slice_j = D*B_j, some integer combination of
    A and the B_j is a fixed nonzero integer N, so h = D(xi)*g with g
    dividing N, and once xi/2 exceeds the coefficients of N*D, P is g*D.
    """
    xi = 2 * max(map(abs, den)) + 2
    while True:
        h = _horner(den, xi)
        for p in slices:
            h = gcd(h, _horner(p, xi))
            if h == 1:
                return None
        digits = []
        while h:
            d = h % xi
            if 2 * d > xi:
                d -= xi
            digits.append(d)
            h = (h - d) // xi
        if len(digits) == 1:
            return None
        g = _primitive(digits)
        quotients = []
        for p in (den, *slices):
            q = _quotient(p, g)
            if q is None:
                break
            quotients.append(q)
        else:
            return quotients[0], quotients[1:]
        xi *= 2


# ---------------------------------------------------------------------------
# cyclotomic polynomials, each built on first use

# n: (Phi_n dense, the (degree, coefficient) pairs of its terms below the lead)
_PHI: dict[int, tuple[list[int], list[tuple[int, int]]]] = {}


def _phi(n: int):
    got = _PHI.get(n)
    if got is None:
        p = [-1] + [0] * (n - 1) + [1]  # t^n - 1, the product of Phi_k over k | n
        for k in range(1, n):
            if n % k == 0:
                p = _quotient(p, _phi(k)[0])
        got = _PHI[n] = (p, [(i, c) for i, c in enumerate(p[:-1]) if c])
    return got


def _split(p: list[int]):
    """(c, fac) with p = c * the polynomial of fac, for a dense p with p[0] != 0.

    c is p's content, signed as its lead.  A binomial t^m -+ 1 is factored
    in closed form; any other p is divided by each Phi_n of degree at most
    its own whose value at 2 divides p(2), as often as it goes, and the
    rest is the residual.
    """
    c = gcd(*p)
    if p[-1] < 0:
        c = -c
    m = len(p) - 1
    if not m:
        return c, None
    if c != 1:
        p = [x // c for x in p]
    if p[-1] == 1 and p[0] in (1, -1) and not any(p[1:-1]):
        # t^m - 1 is the product of Phi_k over k | m; t^m + 1 over k | 2m, k not | m
        top = m if p[0] < 0 else 2 * m
        return c, (tuple((k, 1) for k in range(1, top + 1)
                         if top % k == 0 and (p[0] < 0 or m % k)), None)
    # deg Phi_n for every n up to m^2, past which deg Phi_n = phi(n) >= sqrt(n)
    # exceeds m (but for n = 2 and 6): t^n - 1 is the product of Phi_k over k | n.
    # Phi_n(2) likewise, but only for an n of degree below len(p); each divisor of
    # such an n had one too, as deg Phi_k <= deg Phi_n for k | n and len(p) only falls
    top = max(m * m, 6)
    deg, at2, v2, cyc = list(range(top + 1)), {}, _horner(p, 2), []
    for n in range(1, top + 1):
        for j in range(2 * n, top + 1, n):
            deg[j] -= deg[n]
        if deg[n] >= len(p):
            continue
        at2[n] = ((1 << n) - 1) // prod(at2[k] for k in range(1, n) if n % k == 0)
        # Phi_n divides p only if Phi_n(2) divides p(2); only a Phi_n that passes is built
        e = 0
        while deg[n] < len(p) and v2 % at2[n] == 0:
            q = _quotient(p, _phi(n)[0])
            if q is None:
                break
            p, e, v2 = q, e + 1, v2 // at2[n]
        if e:
            cyc.append((n, e))
    return c, (tuple(cyc), tuple(p) if len(p) > 1 else None)


# fac: its polynomial expanded, for sums, quotients and printing; a run meets
# tens of distinct facs and expands each of them hundreds of times
_EXPANDED: dict = {}


def _expand(fac) -> dict[tuple[int, int], int]:
    """The polynomial prod Phi_n^e_n * R of fac, as a num {(t exp, 0): c}."""
    if fac is None:
        return _UNIT
    p = _EXPANDED.get(fac)
    if p is None:
        cyc, res = fac
        dense = list(res or (1,))
        for n, e in cyc:
            for _ in range(e):
                dense = _dense_mul(dense, _phi(n)[0])
        p = _EXPANDED[fac] = {(e, 0): c for e, c in enumerate(dense) if c}
    return p


def _fac_mul(f1, f2):
    # the fac of a product: exponents add, residuals multiply
    if f1 is None:
        return f2
    if f2 is None:
        return f1
    (c1, r1), (c2, r2) = f1, f2
    if c1 and c2:
        exps = dict(c1)
        for n, e in c2:
            exps[n] = exps.get(n, 0) + e
        c1 = tuple(sorted(exps.items()))
    return (c1 or c2,
            r2 if r1 is None else r1 if r2 is None else tuple(_dense_mul(r1, r2)))


def _lcm(f1, f2):
    """(lcm, cof1, cof2, ns) for the facs of two dens.

    cof1 = lcm / f1 and cof2 = lcm / f2 are expanded, or None when 1.  A
    sum n1 * cof1 + n2 * cof2 over the lcm can be divided only by a Phi_n
    that f1 and f2 hold to the same power, listed in ns (None: all of f1):
    for any other, one term is a multiple of Phi_n and the other is not.
    """
    if f1 == f2:
        return f1, None, None, None
    if f1 is None:
        return f2, _expand(f2), None, ()
    if f2 is None:
        return f1, None, _expand(f1), ()
    (c1, r1), (c2, r2) = f1, f2
    e1, e2 = dict(c1), dict(c2)
    top, k1, k2, ns = [], [], [], []
    for n in sorted(e1.keys() | e2.keys()):
        a, b = e1.get(n, 0), e2.get(n, 0)
        top.append((n, max(a, b)))
        if a < b:
            k1.append((n, b - a))
        elif b < a:
            k2.append((n, a - b))
        else:
            ns.append(n)
    # the residuals' lcm; _reduce looks for a gcd against the residual anyway
    q1 = q2 = None
    if r1 != r2:
        if r1 is None or r2 is None:
            q1, q2 = r2, r1
        else:
            # with g = gcd(r1, r2), the cofactor of r1 is r2 / g and that of r2 is r1 / g
            q2, (q1,) = _cancel(list(r1), [list(r2)]) or (r1, [r2])
            if q1[-1] < 0:
                q1, q2 = [-c for c in q1], [-c for c in q2]
            q1, q2 = tuple(q1), tuple(q2)
    res = r1 if q1 is None else r2 if r1 is None else tuple(_dense_mul(r1, q1))
    cof1 = _expand((tuple(k1), q1)) if k1 or q1 else None
    cof2 = _expand((tuple(k2), q2)) if k2 or q2 else None
    return (tuple(top), res), cof1, cof2, ns


# ---------------------------------------------------------------------------
# sparse numerators {(t exp, a exp): c}

def _num_mul(n1: dict[tuple[int, int], int],
             n2: dict[tuple[int, int], int]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for (t1, a1), c1 in n1.items():
        for (t2, a2), c2 in n2.items():
            k = (t1 + t2, a1 + a2)
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


def _num_add(n1, n2, m1: int = 1, m2: int = 1):
    # m1 * n1 + m2 * n2 for integers m1 and m2
    out = dict(n1) if m1 == 1 else {k: c * m1 for k, c in n1.items()}
    for k, c in n2.items():
        v = out.get(k, 0) + c * m2
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _slices(num) -> dict[int, tuple[int, list[int]]]:
    # the a-slices of num: a exp -> (lowest t exp, the slice dense from there)
    by_a: dict[int, dict[int, int]] = {}
    for (te, ae), c in num.items():
        by_a.setdefault(ae, {})[te] = c
    return {ae: (min(sl), _dense(sl, min(sl))) for ae, sl in by_a.items()}


def _joined(slices, polys):
    # the num whose a-slices are polys, placed as slices
    return {(e + low, ae): c for (ae, (low, _)), p in zip(slices.items(), polys)
            for e, c in enumerate(p) if c}


def _divides(num, n: int) -> bool:
    """Whether Phi_n(t) divides every a-slice of num.

    Each slice is folded mod t^n - 1, a multiple of Phi_n, so the remainder
    is taken of a polynomial of degree below n.
    """
    phi, low = _phi(n)
    deg = len(phi) - 1
    rows: dict[int, list[int]] = {}
    for (te, ae), c in num.items():
        row = rows.get(ae)
        if row is None:
            row = rows[ae] = [0] * n
        row[te % n] += c
    for r in rows.values():
        for k in range(n - 1, deg - 1, -1):
            c = r[k]
            if c:
                for i, g in low:
                    r[k - deg + i] -= c * g
        if any(r[:deg]):
            return False
    return True


def _exact(coeffs, exps) -> None:
    for c in coeffs:
        if not isinstance(c, (int, Fraction)):
            raise TypeError("scalar coefficients must be ints or Fractions")
    for e in exps:
        if not isinstance(e, int):
            raise ValueError("exponents must be integers")


def _rational(x, name: str) -> Fraction:
    # an exact value of t or q: an int, a Fraction or a string such as "9/4"
    if isinstance(x, float):
        raise TypeError(f"{name} must be exact (an int, a Fraction or a string), not a float")
    return Fraction(x)


def _clean_input(num: dict, den: dict) -> tuple[dict, dict]:
    # a Scalar built by hand: check it is exact, drop zero terms, scale num and
    # den by the lcm of their coefficients' denominators, move t's powers out of den
    _exact((*num.values(), *den.values()), (*den, *(e for k in num for e in k)))
    num = {k: c for k, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator")
    m = lcm(*(Fraction(c).denominator for c in (*num.values(), *den.values())))
    s = min(den)
    return ({(te - s, ae): int(c * m) for (te, ae), c in num.items()},
            {e - s: int(c * m) for e, c in den.items()})


def _reduce(num: dict[tuple[int, int], int], d: int, fac, ns=None):
    """Bring num / (d * fac) to the canonical form of the module docstring.

    The input is what the arithmetic produces: nonzero int coefficients, a
    positive d and a fac in canonical form.  ns lists the Phi_n of fac that
    can divide num (all of them by default); each is divided out of the
    a-slices of num, jointly, as often as it goes.  The heuristic gcd
    (_cancel) then runs against the residual R only.  A one-term num
    shares no polynomial factor with den, whose constant term is nonzero,
    and skips both; the integer content of num and d ends every reduction.
    """
    if not num:
        return {}, 1, None
    if fac is not None and len(num) > 1:
        cyc, res = fac
        exps = dict(cyc)
        cut = False
        for n in exps if ns is None else ns:
            e = exps[n]
            while e and _divides(num, n):
                slices = _slices(num)
                phi = _PHI[n][0]
                num = _joined(slices, [_quotient(p, phi) for _, p in slices.values()])
                exps[n] = e = e - 1
                cut = True
        if res is not None and len(num) > 1:
            slices = _slices(num)
            cancelled = _cancel(list(res), [p for _, p in slices.values()])
            if cancelled:
                q, quotients = cancelled
                if q[-1] < 0:
                    q, quotients = [-c for c in q], [[-c for c in p] for p in quotients]
                res = tuple(q) if len(q) > 1 else None
                num = _joined(slices, quotients)
                cut = True
        if cut:
            cyc = tuple((n, e) for n, e in exps.items() if e)
            fac = (cyc, res) if cyc or res else None
    if d != 1:
        g = gcd(d, *num.values())
        if g != 1:
            num = {k: c // g for k, c in num.items()}
            d //= g
    return num, d, fac


def _ring_error(x, y) -> TypeError:
    where = f" over {y.ring!r}" if hasattr(y, "ring") else ""
    return TypeError(f"cannot combine a scalar over {x.ring!r} with "
                     f"{type(y).__name__}{where}: scalars of different rings do not mix")


def _operand(x, y):
    # num, d and fac of y, once y is known to be a scalar of x's ring
    try:
        ring, num, d, fac = y.ring, y.num, y.d, y.fac
    except AttributeError:
        raise _ring_error(x, y) from None
    if ring is not x.ring and ring != x.ring:
        raise _ring_error(x, y)
    return num, d, fac


class Scalar:
    """Canonical rational function in t (denominator a-free, numerator Laurent in t, a)."""

    __slots__ = ("num", "d", "fac", "ring")

    def __init__(self, num, den, ring):
        num, den = _clean_input(num, den)
        c, fac = _split(_dense(den))
        if c < 0:
            num, c = {k: -v for k, v in num.items()}, -c
        self.num, self.d, self.fac = _reduce(num, c, fac)
        self.ring = ring

    @classmethod
    def _of(cls, num, d, fac, ring) -> "Scalar":
        # a value whose num, d and fac are already canonical
        out = object.__new__(cls)
        out.num, out.d, out.fac, out.ring = num, d, fac, ring
        return out

    def _new(self, num, d, fac, ns=None) -> "Scalar":
        # a result of the arithmetic, reduced, in self's class and ring
        return self._of(*_reduce(num, d, fac, ns), self.ring)

    @property
    def den(self) -> dict[int, int]:
        """The denominator expanded, {t exp: c}."""
        d = self.d
        return {te: d * c for (te, _), c in _expand(self.fac).items()}

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        onum, od, ofac = _operand(self, other)
        num, d, fac = self.num, self.d, self.fac
        if not num or not onum:
            # scalars are never mutated, so a zero operand can hand back the other
            return other if onum else self
        if fac is None is ofac:
            if len(num) == 1 == len(onum):
                # one term each over integers: one gcd gives the canonical form
                (k1, c1), = num.items()
                (k2, c2), = onum.items()
                if k1 == k2:
                    c, d = c1 * od + c2 * d, d * od
                    if not c:
                        return self._of({}, 1, None, self.ring)
                    g = gcd(c, d)
                    return self._of({k1: c // g}, d // g, None, self.ring)
                # c1 is prime to d and c2 to od, so the content is gcd(d, od)
                g = gcd(d, od)
                return self._of({k1: c1 * (od // g), k2: c2 * (d // g)}, d // g * od,
                                None, self.ring)
            if d == od:
                return self._new(_num_add(num, onum), d, None)
        else:
            # polynomial dens: add over their lcm
            fac, cof1, cof2, ns = _lcm(fac, ofac)
            if cof1:
                num = _num_mul(num, cof1)
            if cof2:
                onum = _num_mul(onum, cof2)
            g = gcd(d, od)
            return self._new(_num_add(num, onum, od // g, d // g), d // g * od, fac, ns)
        # integer dens (every numeric value): add over their lcm
        g = gcd(d, od)
        return self._new(_num_add(num, onum, od // g, d // g), d // g * od, None)

    def __neg__(self) -> "Scalar":
        return self._of({k: -c for k, c in self.num.items()}, self.d, self.fac, self.ring)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        onum, od, ofac = _operand(self, other)
        num = self.num
        if self.fac is not None or ofac is not None:
            return self._times(other)
        if len(num) == 1 == len(onum):
            ((t1, a1), c1), = num.items()
            ((t2, a2), c2), = onum.items()
            c, d = c1 * c2, self.d * od
            g = gcd(c, d)
            return self._of({(t1 + t2, a1 + a2): c // g}, d // g, None, self.ring)
        # integer dens (every numeric value): only the integer content can cancel
        return self._new(_num_mul(num, onum), self.d * od, None)

    def _times(self, other: "Scalar") -> "Scalar":
        # self * other for a factored den on either side
        num, d, fac = self.num, self.d, self.fac
        onum, od, ofac = other.num, other.d, other.fac
        if od == 1 and ofac is None and onum == _UNIT:
            return self
        if d == 1 and fac is None and num == _UNIT:
            return other
        prod = _fac_mul(fac, ofac)
        if len(num) == 1 == len(onum):
            # one term over factored dens: only an integer gcd
            ((t1, a1), c1), = num.items()
            ((t2, a2), c2), = onum.items()
            c, d = c1 * c2, d * od
            g = gcd(c, d)
            return self._of({(t1 + t2, a1 + a2): c // g}, d // g, prod, self.ring)
        # a factor of one operand's den can divide only the other's num
        if len(num) == 1:
            ns = [n for n, _ in fac[0]] if fac else ()
        elif len(onum) == 1:
            ns = [n for n, _ in ofac[0]] if ofac else ()
        else:
            ns = None
        return self._new(_num_mul(num, onum), d * od, prod, ns)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        onum, od, ofac = _operand(self, other)
        num = self.num
        if ofac is None and len(onum) == 1:
            # c2 t^i a^j / od, as every numeric divisor is: its inverse is one term
            ((t2, a2), c2), = onum.items()
            if self.fac is None and len(num) == 1:
                ((t1, a1), c1), = num.items()
                c, d = c1 * od, self.d * c2
                g = gcd(c, d) if d > 0 else -gcd(c, d)  # the divisor's sign moves into num
                return self._of({(t1 - t2, a1 - a2): c // g}, d // g, None, self.ring)
            s = od if c2 > 0 else -od
            return self._new({(t1 - t2, a1 - a2): s * c for (t1, a1), c in num.items()},
                             self.d * abs(c2), self.fac, ())
        if not onum:
            raise ZeroDivisionError("division by zero scalar")
        aexps = {ae for (_, ae) in onum}
        if len(aexps) != 1:
            raise ValueError("divisor must be a-free up to a monomial in a")
        ae = aexps.pop()
        m = min(te for te, _ in onum)
        # other is t^m a^ae c P / (od Q), P and Q split; its inverse is canonical
        # once the sign of c moves into the num od t^-m a^-ae Q
        c, pfac = _split(_dense({te: v for (te, _), v in onum.items()}, m))
        s = od if c > 0 else -od
        inverse = self._of({(te - m, -ae): s * v for (te, _), v in _expand(ofac).items()},
                           abs(c), pfac, self.ring)
        return self._times(inverse)

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return self.ring.one / self ** (-k)
        out = self.ring.one
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base if k > 1 else base
            k >>= 1
        return out

    # -- substitutions ------------------------------------------------------
    def subs_q_inverse(self) -> "Scalar":
        """Substitute t by 1/t (equivalently q by 1/q).

        With deg the degree of den, the value is t^deg num(1/t) over den
        reversed, brought to canonical form by the checked constructor.
        """
        den = self.den
        deg = max(den)
        return type(self)({(deg - te, ae): c for (te, ae), c in self.num.items()},
                          {deg - e: c for e, c in den.items()}, self.ring)

    def subs_a_one(self) -> "Scalar":
        """Set a = 1."""
        num: dict[tuple[int, int], int] = {}
        for (te, _), c in self.num.items():
            k = (te, 0)
            v = num.get(k, 0) + c
            if v:
                num[k] = v
            else:
                num.pop(k, None)
        return self._new(num, self.d, self.fac)

    def adams(self, k: int) -> "Scalar":
        """The degree-k Adams image: t -> t^k, a -> a^k, in num and den."""
        if k < 1:
            raise ValueError("adams degree must be positive")
        if k == 1:
            return self
        return type(self)({(te * k, ae * k): c for (te, ae), c in self.num.items()},
                          {e * k: c for e, c in self.den.items()}, self.ring)

    def eval_q(self, t_value) -> "LaurentScalar":
        """Evaluate at an exact rational value of t = q^(1/2); a stays formal."""
        t_value = _rational(t_value, "t")
        if t_value == 0:
            raise ZeroDivisionError("t must be a nonzero rational")
        dv = sum(c * t_value ** e for e, c in self.den.items())
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at this value of t")
        out: dict[tuple[int, int], Fraction] = {}
        for (te, ae), c in self.num.items():
            out[(0, ae)] = out.get((0, ae), 0) + c * t_value ** te
        return LaurentScalar(out, {0: dv}, NumericQ(t_value))

    # -- plumbing -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            return NotImplemented
        onum, od, ofac = _operand(self, other)
        return self.num == onum and self.d == od and self.fac == ofac

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), self.d, self.fac))

    def __str__(self) -> str:
        # print rational coefficients over the primitive polynomial of fac
        num, d = self.num, self.d
        if d != 1:
            num = {k: Fraction(c, d) for k, c in num.items()}
        ns = _num_str(num)
        if self.fac is None:
            return ns
        return f"({ns})/({_num_str(_expand(self.fac))})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class LaurentScalar(Scalar):
    """A scalar of a numeric ring: the normal form of Scalar with t pinned.

    Every t exponent is 0 and fac is None, den the positive integer d, so a
    value is a Laurent polynomial in a with rational coefficients.  The arithmetic is
    Scalar's, bound again in this class's own dict: wrapping a Scalar method
    by name, as benchmark/tracer.py does, then leaves this lane's unwrapped,
    and each lane is counted once.
    """

    __slots__ = ()
    __add__, __sub__, __neg__ = Scalar.__add__, Scalar.__sub__, Scalar.__neg__
    __mul__, __truediv__, __pow__ = Scalar.__mul__, Scalar.__truediv__, Scalar.__pow__
    subs_a_one = Scalar.subs_a_one

    def adams(self, k: int):
        raise NotImplementedError("Adams operations need symbolic q")

    def subs_q_inverse(self):
        raise NotImplementedError("q -> 1/q substitution needs symbolic q")

    def eval_q(self, t_value):
        raise NotImplementedError("evaluating at a value of q needs symbolic q")


def _term_str(c: Fraction | int, vars_part: str) -> str:
    if not vars_part:
        return str(c)
    if c == 1:
        return vars_part
    if c == -1:
        return "-" + vars_part
    return f"{c}*{vars_part}"


def _vpow(name: str, e: int) -> str:
    return name if e == 1 else f"{name}^{e}"


def _num_str(num: dict[tuple[int, int], Fraction | int]) -> str:
    if not num:
        return "0"
    parts = []
    for (te, ae) in sorted(num):
        c = num[(te, ae)]
        vs = "*".join([_vpow("t", te)] * (te != 0) + [_vpow("a", ae)] * (ae != 0))
        parts.append(_term_str(c, vs))
    out = parts[0]
    for p in parts[1:]:
        out += " - " + p[1:] if p.startswith("-") else " + " + p
    return out


class SymbolicQ:
    """Factory ring for symbolic scalars.  Holds the memo caches."""

    mode = "symbolic"
    _scalar = Scalar

    def __init__(self):
        self.memo: dict = {}
        self.zero = self._scalar._of({}, 1, None, self)
        self.one = self.monomial(1)

    def from_fraction(self, c) -> Scalar:
        """The rational constant c, an int or a Fraction."""
        return self.monomial(c)

    def monomial(self, c, t_exp: int = 0, a_exp: int = 0) -> Scalar:
        """c * t^t_exp * a^a_exp for an int or Fraction c and int exponents."""
        _exact((c,), (t_exp, a_exp))
        if not c:
            return self.zero
        # a rational's numerator and denominator are coprime, denominator > 0
        return self._scalar._of({(t_exp, a_exp): c.numerator}, c.denominator, None, self)

    def t_power(self, k: int) -> Scalar:
        return self.monomial(1, k)

    def a_power(self, k: int) -> Scalar:
        return self.monomial(1, 0, k)

    def quantum_int(self, n: int) -> Scalar:
        """The balanced quantum integer {n} = t^n - t^(-n)."""
        if n == 0:
            return self.zero
        return Scalar._of({(n, 0): 1, (-n, 0): -1}, 1, None, self)

    def __repr__(self):
        return "SymbolicQ()"


class NumericQ(SymbolicQ):
    """Factory ring with t = q^(1/2) pinned to an exact rational value.

    SymbolicQ with t pinned: its scalars are LaurentScalars, and monomial,
    which the other factories go through, folds the power of t into the
    rational coefficient, so every t exponent is 0.
    """

    mode = "numeric"
    _scalar = LaurentScalar

    def __init__(self, t):
        t = _rational(t, "t")
        if t == 0:
            raise ValueError("t must be nonzero")
        self.t = t
        super().__init__()

    @classmethod
    def from_q(cls, q) -> "NumericQ":
        """Build the ring from a rational value of q, which must be a perfect square."""
        q = _rational(q, "q")
        if q <= 0:
            raise ValueError("q must be a positive rational")
        rn, rd = isqrt(q.numerator), isqrt(q.denominator)
        if rn * rn != q.numerator or rd * rd != q.denominator:
            raise ValueError("q must be the square of a rational so that t = q^(1/2) is exact")
        return cls(Fraction(rn, rd))

    def monomial(self, c, t_exp: int = 0, a_exp: int = 0) -> LaurentScalar:
        if t_exp:
            # check c and t_exp before they are folded; monomial checks the rest
            _exact((c,), (t_exp,))
            c = c * self.t ** t_exp
        return super().monomial(c, 0, a_exp)

    def quantum_int(self, n: int) -> LaurentScalar:
        p = self.t ** n
        return self.monomial(p - 1 / p)

    def __eq__(self, other):
        return isinstance(other, NumericQ) and other.t == self.t

    def __hash__(self):
        return hash(("NumericQ", self.t))

    def __repr__(self):
        return f"NumericQ({self.t})"


SYMBOLIC = SymbolicQ()


# ---------------------------------------------------------------------------
# the truncated series core, and its instance in named formal parameters

_BASES = ("schur", "p")


class NonNilpotentArgument(ValueError):
    """Raised when an exponential is fed a series with an empty-key term."""


class TruncatedSeries:
    """A sparse series in graded keys: the one series core of the package.

    Subclasses supply the key hooks: _size (the grading, additive under
    _key_mul), _key_mul (the product of two power sum keys), _unit (the
    empty key), _key_str, _key_row (its columns in symfunc.check_report),
    _rewrite (one key in the other basis) and _lift (a scalar as a
    coefficient).  Terms of key size above cap are dropped; cap = math.inf
    keeps every term, and __init__ and zero refuse a negative cap.  With
    _combined set, a coefficient is also truncated to Novikov degree
    cap - size(key).
    Products are taken in the "p" basis and returned in the basis of the
    left factor.  Both operands of +, * and == must share one ring.

    NovikovSeries has scalar coefficients and the one basis "p"; every
    other kind has Novikov series coefficients, and the basis change,
    scale_scalar, map_coeffs and the exponential act on those.  The
    exponential needs a finite cap.
    """

    __slots__ = ("basis", "terms", "cap", "ring")
    _combined = False
    _lift = staticmethod(lambda scalar: NovikovSeries.constant(scalar))

    def __init__(self, basis: str, terms: dict, cap, ring):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        self.basis, self.cap, self.ring, self.terms = basis, cap, ring, {}
        for key, c in terms.items():
            self.add_term(key, c)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def _new(cls, basis: str, terms: dict, cap, ring):
        # terms and a cap that already meet everything __init__ checks
        out = object.__new__(cls)
        out.basis, out.terms, out.cap, out.ring = basis, terms, cap, ring
        return out

    @classmethod
    def zero(cls, ring, cap, basis: str = "p"):
        if cap < 0:
            raise ValueError("cap must be nonnegative")
        return cls._new(basis, {}, cap, ring)

    @classmethod
    def one(cls, ring, cap, basis: str = "p"):
        out = cls.zero(ring, cap, basis)
        out.add_term(cls._unit, cls._lift(ring.one))
        return out

    def _collect(self, pairs, cap, basis: str | None = None):
        out = self._new(basis or self.basis, {}, cap, self.ring)
        for key, c in pairs:
            out.add_term(key, c)
        return out

    def add_term(self, key, c) -> None:
        """Mutating accumulation used while assembling sums; truncates as it goes."""
        room = self.cap - self._size(key)
        if room >= 0:
            self._put(key, c, room)

    def _put(self, key, c, room) -> None:
        # add_term for a key whose size is known to leave room >= 0 below cap
        if self._combined:
            c = c.truncate(room)
        terms = self.terms
        if key in terms:
            c = terms[key] + c
        if c.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = c

    # -- ring structure --------------------------------------------------------
    def _require_like(self, other) -> None:
        if not isinstance(other, type(self)):
            raise TypeError(f"cannot combine {type(self).__name__} with "
                            f"{type(other).__name__}")
        if self.ring is not other.ring and self.ring != other.ring:
            raise ValueError("mixed coefficient rings")

    def __add__(self, other):
        self._require_like(other)
        b = other.convert(self.basis)
        if self.cap <= b.cap:
            out = self._new(self.basis, dict(self.terms), self.cap, self.ring)
        else:
            out = self.truncate(b.cap)
        for key, c in b.terms.items():
            out.add_term(key, c)
        return out

    def __neg__(self):
        return self._new(self.basis, {k: -c for k, c in self.terms.items()},
                         self.cap, self.ring)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """Product, computed in the power sum basis, returned in the left basis."""
        self._require_like(other)
        a = self.convert("p")
        b = other.convert("p")
        cap = min(a.cap, b.cap)
        size_of, key_mul = self._size, self._key_mul
        right = [(k, size_of(k), c) for k, c in b.terms.items()]
        out = self._new("p", {}, cap, self.ring)
        for k1, c1 in a.terms.items():
            room = cap - size_of(k1)
            for k2, s2, c2 in right:
                if s2 <= room:
                    out._put(key_mul(k1, k2), c1 * c2, room - s2)
        return out.convert(self.basis)

    def _map(self, fn):
        # fn of every coefficient on the same keys: only zeros drop out,
        # unless _combined asks add_term to truncate each coefficient
        if self._combined:
            return self._collect(((k, fn(c)) for k, c in self.terms.items()), self.cap)
        out = {}
        for k, c in self.terms.items():
            c = fn(c)
            if not c.is_zero():
                out[k] = c
        return self._new(self.basis, out, self.cap, self.ring)

    def scale(self, c):
        """Every coefficient times c (a scalar for NovikovSeries, else a series)."""
        return self._map(lambda v: v * c)

    def scale_scalar(self, scalar):
        return self._map(lambda c: c.scale(scalar))

    def map_coeffs(self, fn):
        """Apply a scalar map (such as q -> 1/q) to every coefficient."""
        return self._map(lambda c: c.map_scalars(fn))

    def truncate(self, cap):
        """Drop the terms above cap; a truncation never raises the cap."""
        cap = min(cap, self.cap)
        if self._combined:
            return self._collect(self.terms.items(), cap)
        size_of = self._size
        return self._new(self.basis, {k: c for k, c in self.terms.items()
                                      if size_of(k) <= cap}, cap, self.ring)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def coefficient(self, key):
        c = self.terms.get(key)
        return self._lift(self.ring.zero) if c is None else c

    # -- basis change -----------------------------------------------------------
    def convert(self, basis: str):
        if basis == self.basis:
            return self
        if basis not in _BASES:
            raise ValueError(f"cannot convert {self.basis} -> {basis}")
        scalar = self.ring.from_fraction
        return self._collect(((new, c.scale(scalar(x)))
                              for key, c in self.terms.items()
                              for new, x in self._rewrite(key, basis)),
                             self.cap, basis)

    # -- the exponential ----------------------------------------------------------
    def exp(self):
        """exp of a series with no empty-key term, in the power sum basis.

        Solved size by size from n z_n = sum_k k L_k z_(n-k), where L_k and
        z_n are the parts of key size k and n of the log and of the result.
        Multiplying the size-n part by n is a derivation of the product and
        of every truncation here, so this is the exponential in the
        truncated ring.
        """
        log = self.convert("p")
        ring, cap, size_of, key_mul = log.ring, log.cap, log._size, log._key_mul
        try:
            sizes = range(1, cap + 1)
        except TypeError:  # cap = math.inf
            raise ValueError("an exponential needs a finite cap") from None
        # a coefficient times a scalar: Novikov series coefficients are scalars
        scale = mul if isinstance(log, NovikovSeries) else NovikovSeries.scale
        weighted: dict[int, list] = {}
        for key, c in log.terms.items():
            k = size_of(key)
            if k == 0:
                raise NonNilpotentArgument("exponential needs a nilpotent argument")
            weighted.setdefault(k, []).append((key, scale(c, ring.from_fraction(k))))
        out = log.one(ring, cap)
        parts = [dict(out.terms)]
        for n in sizes:
            acc = log._new("p", {}, cap, ring)
            for k in range(1, n + 1):
                for kl, cl in weighted.get(k, ()):
                    for kz, cz in parts[n - k].items():
                        acc._put(key_mul(kl, kz), cl * cz, cap - n)
            inv_n = ring.from_fraction(Fraction(1, n))
            parts.append({key: scale(c, inv_n) for key, c in acc.terms.items()})
            out.terms.update(parts[n])
        return out

    # -- plumbing ----------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_like(other)
        return self.terms == other.convert(self.basis).terms

    def sorted_terms(self):
        size_of = self._size
        return sorted(self.terms.items(), key=lambda kv: (size_of(kv[0]), kv[0]))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        sym = "s" if self.basis == "schur" else "p"
        return " + ".join(f"({c})*{self._key_str(k, sym)}" for k, c in self.sorted_terms())

    def __repr__(self):
        return f"{type(self).__name__}({self})"


Key = tuple[tuple[str, int], ...]


def _novikov_key(pairs) -> Key:
    # the key of a product of (name, exponent) factors: names sorted, a
    # repeated name's exponents added, zero exponents dropped
    d: dict[str, int] = {}
    for n, e in pairs:
        if not isinstance(e, int) or e < 0:
            raise ValueError("parameter exponents must be nonnegative integers")
        d[n] = d.get(n, 0) + e
    return tuple(sorted((n, e) for n, e in d.items() if e))


def _merge_keys(k1: Key, k2: Key) -> Key:
    if not k2:
        return k1
    if not k1:
        return k2
    d = dict(k1)
    for n, e in k2:
        d[n] = d.get(n, 0) + e
    return tuple(sorted(d.items()))


class NovikovSeries(TruncatedSeries):
    """Truncated series in named formal parameters with scalar coefficients.

    Terms are keyed by sorted tuples of (name, positive exponent) pairs, to
    which the constructor brings every key (_novikov_key); the empty key is
    the constant term.  A term is kept while its total degree is at most
    cap; the default cap None means no truncation, held as cap = math.inf.
    """

    __slots__ = ()
    _unit = ()
    _key_mul = staticmethod(_merge_keys)
    _lift = staticmethod(lambda scalar: scalar)

    def __init__(self, terms: dict[Key, object], ring, cap: int | None = None):
        super().__init__("p", {}, inf if cap is None else cap, ring)
        for key, c in terms.items():
            self.add_term(_novikov_key(key), c)

    @staticmethod
    def _size(key: Key) -> int:
        return sum([e for _, e in key])

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, scalar, cap: int | None = None) -> "NovikovSeries":
        out = cls.zero(scalar.ring, inf if cap is None else cap)
        out.add_term((), scalar)
        return out

    @classmethod
    def monomial(cls, exps: dict[str, int], scalar, cap: int | None = None) -> "NovikovSeries":
        out = cls.zero(scalar.ring, inf if cap is None else cap)
        out.add_term(_novikov_key(exps.items()), scalar)
        return out

    # -- operations on the scalar coefficients -------------------------------
    def constant_term(self):
        return self.terms.get((), self.ring.zero)

    def inverse(self) -> "NovikovSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.terms.get(())
        if c0 is None:
            raise ValueError("series has no constant term, cannot invert")
        c0inv = self.ring.one / c0
        if len(self.terms) == 1:
            return NovikovSeries.constant(c0inv, self.cap)
        if self.cap == inf:
            raise ValueError("inverting a non-constant series needs a finite cap")
        # Neumann series: 1/(c0 + r) = c0inv * sum_k b^k, b = 1 - (c0 + r) c0inv
        out = term = self.one(self.ring, self.cap)
        base = out - self.scale(c0inv)
        for _ in range(self.cap):
            term = term * base
            if term.is_zero():
                break
            out = out + term
        return out.scale(c0inv)

    def adams(self, k: int) -> "NovikovSeries":
        """Scale every exponent by k and apply the scalar Adams operation."""
        return self._collect(((tuple((n, e * k) for n, e in key), c.adams(k))
                              for key, c in self.terms.items()), self.cap)

    def eval_q(self, t_value) -> "NovikovSeries":
        return NovikovSeries({k: c.eval_q(t_value) for k, c in self.terms.items()},
                             NumericQ(t_value), self.cap)

    def map_scalars(self, fn) -> "NovikovSeries":
        """Apply a scalar-to-scalar map to every coefficient."""
        return self._map(fn)

    # the coefficients are scalars themselves
    scale_scalar, map_coeffs = TruncatedSeries.scale, map_scalars

    def convert(self, basis: str) -> "NovikovSeries":
        if basis != "p":
            raise ValueError(f"a NovikovSeries has the one basis 'p', not {basis!r}")
        return self

    def __str__(self) -> str:
        parts = []
        for k, c in self.sorted_terms():
            cs = str(c)
            if k and cs == "1":
                cs = key_string(k)
            elif k:
                if "+" in cs or "/" in cs or " - " in cs or cs.startswith("-"):
                    cs = f"({cs})"
                cs = f"{cs}*{key_string(k)}"
            parts.append(cs)
        return " + ".join(parts) or "0"


def key_string(key: Key) -> str:
    if not key:
        return "1"
    return "*".join(_vpow(n, e) for n, e in key)
