"""Exact coefficient arithmetic in t = q^(1/2) and the loop variable a.

A symbolic scalar is a reduced fraction num/den held with integer
coefficients only: num maps (t exponent, a exponent) to an int, a Laurent
polynomial in t and a, and den maps a t exponent to an int, a polynomial
in t alone.  Reduction keeps a unique canonical form, so equality is plain
dict comparison:

- min(den) == 0 (powers of t live in num);
- the leading coefficient of den is positive;
- den shares no polynomial factor with the a-slices of num (the
  coefficients of the powers of a, taken jointly);
- num and den together have integer content 1.

Rational content lives in den: 1/2 is num {(0, 0): 1} over den {0: 2}.
The common factor is found with the primitive polynomial remainder
sequence over the integers (Brown 1971; Knuth TAOCP vol. 2, 4.6.1) and
divided out exactly in Z[t].  Most reductions have no common factor; an
integer evaluation past the roots of den proves that first, without the
remainder sequence.  Printing divides out the content of den, so a scalar
prints as rational coefficients over a primitive denominator.

A numeric ring pins t to a rational value while a stays formal; the same
operation names apply, which lets the higher layers run unchanged in
either mode.

The module also provides NovikovSeries, a truncated multivariate series
in named formal parameters (Kahler classes, brane weights) whose
coefficients are scalars of either kind.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm

# coefficients of the numeric lane
_ZERO = Fraction(0)
_ONE = Fraction(1)

# the denominator of every symbolic scalar with an integer Laurent numerator
_DEN_ONE = {0: 1}


# ---------------------------------------------------------------------------
# dense integer polynomial helpers, lowest degree first

def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _primitive(c: list[int]) -> list[int]:
    g = 0
    for x in c:
        g = gcd(g, x)
        if g == 1:
            return c
    if g == 0:
        return []
    return [x // g for x in c]


def _prem_step(a: list[int], b: list[int]) -> list[int]:
    # pseudo-remainder of a by b; exact integer arithmetic throughout
    db = len(b) - 1
    lb = b[-1]
    r = a[:]
    while len(r) - 1 >= db:
        cr = r[-1]
        dr = len(r) - 1
        r = [lb * c for c in r]
        off = dr - db
        for i in range(db + 1):
            r[off + i] -= cr * b[i]
        r.pop()
        _trim(r)
        if not r:
            break
    return r


def _int_poly_gcd(a: list[int], b: list[int]) -> list[int]:
    a = _primitive(_trim(a[:]))
    b = _primitive(_trim(b[:]))
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _prem_step(a, b)
        a, b = b, _primitive(r)
    if a and a[-1] < 0:
        a = [-c for c in a]
    return a


def _dense(p: dict[int, int], shift: int = 0) -> list[int]:
    out = [0] * (max(p) - shift + 1)
    for e, c in p.items():
        out[e - shift] = c
    return out


def _coprime_by_value(den: list[int], polys) -> bool:
    """True when integer values prove den shares no factor with polys jointly.

    A common factor G in Z[t] makes G(x) divide den(x) and every p(x).  At
    an integer x two past the Cauchy bound of den's roots, every root r of
    G has |x - r| > 1, so |G(x)| >= 2 unless G is constant; a gcd of 1 of
    the values rules out every nonconstant G.  False only means unproven.
    """
    x0 = 3 + max(map(abs, den)) // abs(den[-1])
    for x in (x0, x0 + 1):
        h = _horner(den, x)
        for p in polys:
            h = gcd(h, _horner(p, x))
            if h == 1:
                return True
    return False


def _horner(p: list[int], x: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _divexact(p: list[int], g: list[int]) -> list[int]:
    # quotient of p by g in Z[t]; g must divide p, and a primitive g divides
    # an integer p with an integer quotient (Gauss's lemma)
    dg = len(g) - 1
    lead = g[-1]
    r = p[:]
    out = [0] * (len(p) - dg)
    for k in range(len(out) - 1, -1, -1):
        c = r[k + dg]
        if c:
            q = c // lead
            out[k] = q
            for i, gi in enumerate(g):
                r[k + i] -= q * gi
    return out


# ---------------------------------------------------------------------------
# sparse integer polynomials: den as {t exp: c}, num as {(t exp, a exp): c}

def _poly_mul(p: dict[int, int], q: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            k = e1 + e2
            v = out.get(k, 0) + c1 * c2
            if v:
                out[k] = v
            else:
                out.pop(k, None)
    return out


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


def _num_add(n1, n2):
    out = dict(n1)
    for k, c in n2.items():
        v = out.get(k, 0) + c
        if v:
            out[k] = v
        else:
            out.pop(k, None)
    return out


def _clean_input(num: dict, den: dict) -> tuple[dict, dict]:
    # drop zero terms, then scale num and den by the lcm of the denominators
    # of their coefficients, so that a caller may pass ints or Fractions
    num = {k: c for k, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    m = 1
    for c in (*num.values(), *den.values()):
        m = lcm(m, Fraction(c).denominator)
    return ({k: int(c * m) for k, c in num.items()},
            {e: int(c * m) for e, c in den.items()})


def _reduce(num: dict[tuple[int, int], int],
            den: dict[int, int]):
    """Bring num/den to the canonical form described in the module docstring.

    The arithmetic passes nonzero int coefficients; anything else (zero
    terms, Fraction coefficients from a caller building a Scalar by hand)
    is cleaned once on entry.
    """
    if (0 in num.values() or 0 in den.values()
            or {*map(type, num.values()), *map(type, den.values())} != {int}):
        num, den = _clean_input(num, den)
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return {}, {0: 1}
    m = min(den)
    if m:
        den = {e - m: c for e, c in den.items()}
        num = {(te - m, ae): c for (te, ae), c in num.items()}
    if len(den) > 1:
        # cancel any common polynomial factor (powers of t were moved out above)
        slices: dict[int, dict[int, int]] = {}
        for (te, ae), c in num.items():
            slices.setdefault(ae, {})[te] = c
        shifts = {ae: min(sl) for ae, sl in slices.items()}
        dense = {ae: _dense(sl, shifts[ae]) for ae, sl in slices.items()}
        d = g = _dense(den)
        if not _coprime_by_value(d, dense.values()):
            for p in dense.values():
                g = _int_poly_gcd(g, p)
                if len(g) <= 1:
                    break
            if len(g) > 1:
                den = {e: c for e, c in enumerate(_divexact(d, g)) if c}
                num = {}
                for ae, p in dense.items():
                    for e, c in enumerate(_divexact(p, g)):
                        if c:
                            num[(e + shifts[ae], ae)] = c
    # joint integer content, signed so that den leads positive
    cont = 0
    for c in den.values():
        cont = gcd(cont, c)
    if cont != 1:
        for c in num.values():
            cont = gcd(cont, c)
            if cont == 1:
                break
    if den[max(den)] < 0:
        cont = -cont
    if cont != 1:
        num = {k: c // cont for k, c in num.items()}
        den = {e: c // cont for e, c in den.items()}
    return num, den


def _lane_error(a, b) -> TypeError:
    return TypeError(f"cannot combine {type(a).__name__} with {type(b).__name__}: "
                     "scalars of different rings do not mix")


class Scalar:
    """Canonical rational function in t (denominator a-free, numerator Laurent in t, a)."""

    __slots__ = ("num", "den", "ring")

    def __init__(self, num, den, ring, reduced: bool = False):
        if not reduced:
            num, den = _reduce(num, den)
        self.num = num
        self.den = den
        self.ring = ring

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == {(0, 0): 1} and self.den == _DEN_ONE

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        try:
            oden = other.den
        except AttributeError:
            raise _lane_error(self, other) from None
        if self.den == oden:
            return Scalar(_num_add(self.num, other.num), self.den, self.ring)
        d2 = {(e, 0): c for e, c in oden.items()}
        d1 = {(e, 0): c for e, c in self.den.items()}
        num = _num_add(_num_mul(self.num, d2), _num_mul(other.num, d1))
        return Scalar(num, _poly_mul(self.den, other.den), self.ring)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __neg__(self) -> "Scalar":
        return Scalar({k: -c for k, c in self.num.items()}, self.den, self.ring, reduced=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        try:
            onum = other.num
        except AttributeError:
            raise _lane_error(self, other) from None
        return Scalar(_num_mul(self.num, onum),
                      _poly_mul(self.den, other.den), self.ring)

    def __truediv__(self, other: "Scalar") -> "Scalar":
        try:
            onum = other.num
        except AttributeError:
            raise _lane_error(self, other) from None
        if not onum:
            raise ZeroDivisionError("division by zero scalar")
        aexps = {ae for (_, ae) in onum}
        if len(aexps) != 1:
            raise ValueError("divisor must be a-free up to a monomial in a")
        ae = aexps.pop()
        m = min(te for te, _ in onum)
        lp = {te - m: c for (te, _), c in onum.items()}
        d2 = {(e - m, -ae): c for e, c in other.den.items()}
        num = _num_mul(self.num, d2)
        return Scalar(num, _poly_mul(self.den, lp), self.ring)

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
        """Substitute t by 1/t (equivalently q by 1/q)."""
        d = max(self.den)
        num = {(d - te, ae): c for (te, ae), c in self.num.items()}
        den = {d - e: c for e, c in self.den.items()}
        return Scalar(num, den, self.ring)

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
        return Scalar(num, self.den, self.ring)

    def adams(self, k: int) -> "Scalar":
        """The degree-k Adams image: t -> t^k, a -> a^k."""
        if k < 1:
            raise ValueError("adams degree must be positive")
        if k == 1:
            return self
        num = {(te * k, ae * k): c for (te, ae), c in self.num.items()}
        den = {e * k: c for e, c in self.den.items()}
        return Scalar(num, den, self.ring, reduced=True)

    def eval_q(self, t_value: Fraction) -> "LaurentScalar":
        """Evaluate at a rational value of t = q^(1/2); a stays formal."""
        t_value = Fraction(t_value)
        if t_value == 0:
            raise ZeroDivisionError("t must be a nonzero rational")
        dv = sum(c * t_value ** e for e, c in self.den.items())
        if dv == 0:
            raise ZeroDivisionError("denominator vanishes at this value of t")
        out: dict[int, Fraction] = {}
        for (te, ae), c in self.num.items():
            out[ae] = out.get(ae, 0) + c * t_value ** te
        return LaurentScalar({ae: v / dv for ae, v in out.items()}, NumericQ(t_value))

    # -- plumbing -----------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            if isinstance(other, LaurentScalar):
                raise _lane_error(self, other)
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    def __str__(self) -> str:
        # print rational coefficients over the primitive part of den
        cont = 0
        for c in self.den.values():
            cont = gcd(cont, c)
        num, den = self.num, self.den
        if cont != 1:
            num = {k: Fraction(c, cont) for k, c in num.items()}
            den = {e: c // cont for e, c in den.items()}
        ns = _num_str(num)
        if den == _DEN_ONE:
            return ns
        return f"({ns})/({_den_str(den)})"

    def __repr__(self) -> str:
        return f"Scalar({self})"


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


def _den_str(den: dict[int, int]) -> str:
    return _num_str({(e, 0): c for e, c in den.items()})


class SymbolicQ:
    """Factory ring for symbolic scalars.  Holds the memo caches."""

    mode = "symbolic"

    def __init__(self):
        self.memo: dict = {}
        self.one = Scalar({(0, 0): 1}, {0: 1}, self, reduced=True)
        self.zero = Scalar({}, {0: 1}, self, reduced=True)

    def from_fraction(self, c) -> Scalar:
        """The rational constant c (an int, or a rational with numerator/denominator)."""
        return self.monomial(c)

    def monomial(self, c, t_exp: int = 0, a_exp: int = 0) -> Scalar:
        """c * t^t_exp * a^a_exp for a rational c (as in from_fraction)."""
        if not c:
            return self.zero
        # a rational's numerator and denominator are coprime, denominator > 0
        return Scalar({(t_exp, a_exp): c.numerator}, {0: c.denominator}, self,
                      reduced=True)

    def t_power(self, k: int) -> Scalar:
        return Scalar({(k, 0): 1}, {0: 1}, self, reduced=True)

    def a_power(self, k: int) -> Scalar:
        return Scalar({(0, k): 1}, {0: 1}, self, reduced=True)

    def quantum_int(self, n: int) -> Scalar:
        """The balanced quantum integer {n} = t^n - t^(-n)."""
        if n == 0:
            return self.zero
        return Scalar({(n, 0): 1, (-n, 0): -1}, {0: 1}, self, reduced=True)

    def __repr__(self):
        return "SymbolicQ()"


class LaurentScalar:
    """Numeric-mode scalar: a Laurent polynomial in a over the rationals."""

    __slots__ = ("coeffs", "ring")

    def __init__(self, coeffs: dict[int, Fraction], ring: "NumericQ", clean: bool = False):
        if not clean:
            coeffs = {e: c for e, c in coeffs.items() if c}
        self.coeffs = coeffs
        self.ring = ring

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_one(self) -> bool:
        return self.coeffs == {0: _ONE}

    def __add__(self, other: "LaurentScalar") -> "LaurentScalar":
        try:
            ocoeffs = other.coeffs
        except AttributeError:
            raise _lane_error(self, other) from None
        out = dict(self.coeffs)
        for e, c in ocoeffs.items():
            v = out.get(e, _ZERO) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return LaurentScalar(out, self.ring, clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return LaurentScalar({e: -c for e, c in self.coeffs.items()}, self.ring, clean=True)

    def __mul__(self, other: "LaurentScalar") -> "LaurentScalar":
        try:
            ocoeffs = other.coeffs
        except AttributeError:
            raise _lane_error(self, other) from None
        out: dict[int, Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in ocoeffs.items():
                k = e1 + e2
                v = out.get(k, _ZERO) + c1 * c2
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
        return LaurentScalar(out, self.ring, clean=True)

    def __truediv__(self, other: "LaurentScalar") -> "LaurentScalar":
        try:
            ocoeffs = other.coeffs
        except AttributeError:
            raise _lane_error(self, other) from None
        if not ocoeffs:
            raise ZeroDivisionError("division by zero scalar")
        if len(ocoeffs) != 1:
            raise ValueError("divisor must be a-free up to a monomial in a")
        (ae, c), = ocoeffs.items()
        return LaurentScalar({e - ae: v / c for e, v in self.coeffs.items()}, self.ring, clean=True)

    def __pow__(self, k: int) -> "LaurentScalar":
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

    def subs_a_one(self) -> "LaurentScalar":
        return LaurentScalar({0: sum(self.coeffs.values(), _ZERO)}, self.ring)

    def adams(self, k: int):
        raise NotImplementedError("Adams operations need symbolic q")

    def subs_q_inverse(self):
        raise NotImplementedError("q -> 1/q substitution needs symbolic q")

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentScalar):
            if isinstance(other, Scalar):
                raise _lane_error(self, other)
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(tuple(sorted(self.coeffs.items())))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = [_term_str(self.coeffs[e], _vpow("a", e) if e else "") for e in sorted(self.coeffs)]
        out = parts[0]
        for p in parts[1:]:
            out += " - " + p[1:] if p.startswith("-") else " + " + p
        return out

    def __repr__(self):
        return f"LaurentScalar({self})"


class NumericQ:
    """Factory ring with t = q^(1/2) pinned to an exact rational value."""

    mode = "numeric"

    def __init__(self, t):
        t = Fraction(t)
        if t == 0:
            raise ValueError("t must be nonzero")
        self.t = t
        self.memo: dict = {}
        self.one = LaurentScalar({0: _ONE}, self, clean=True)
        self.zero = LaurentScalar({}, self, clean=True)

    @classmethod
    def from_q(cls, q) -> "NumericQ":
        """Build the ring from a rational value of q, which must be a perfect square."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError("q must be a positive rational")
        rn, rd = isqrt(q.numerator), isqrt(q.denominator)
        if rn * rn != q.numerator or rd * rd != q.denominator:
            raise ValueError("q must be the square of a rational so that t = q^(1/2) is exact")
        return cls(Fraction(rn, rd))

    def from_fraction(self, c) -> LaurentScalar:
        c = Fraction(c)
        if not c:
            return self.zero
        return LaurentScalar({0: c}, self, clean=True)

    def monomial(self, c, t_exp: int = 0, a_exp: int = 0) -> LaurentScalar:
        c = Fraction(c) * self.t ** t_exp
        if not c:
            return self.zero
        return LaurentScalar({a_exp: c}, self, clean=True)

    def t_power(self, k: int) -> LaurentScalar:
        return LaurentScalar({0: self.t ** k}, self, clean=True)

    def a_power(self, k: int) -> LaurentScalar:
        return LaurentScalar({k: _ONE}, self, clean=True)

    def quantum_int(self, n: int) -> LaurentScalar:
        v = self.t ** n - self.t ** (-n)
        if not v:
            return self.zero
        return LaurentScalar({0: v}, self, clean=True)

    def __eq__(self, other):
        return isinstance(other, NumericQ) and other.t == self.t

    def __hash__(self):
        return hash(("NumericQ", self.t))

    def __repr__(self):
        return f"NumericQ({self.t})"


SYMBOLIC = SymbolicQ()


def quantum_integer(n: int, ring=SYMBOLIC):
    """The balanced quantum integer {n} = q^(n/2) - q^(-n/2)."""
    return ring.quantum_int(n)


# ---------------------------------------------------------------------------
# truncated multivariate series in named formal parameters

Key = tuple[tuple[str, int], ...]


def _key_mul(k1: Key, k2: Key) -> Key:
    d = dict(k1)
    for n, e in k2:
        d[n] = d.get(n, 0) + e
    return tuple(sorted(d.items()))


def _key_pow(k: Key, p: int) -> Key:
    return tuple((n, e * p) for n, e in k)


class NovikovSeries:
    """Truncated series in named formal parameters with scalar coefficients.

    Terms are keyed by sorted tuples of (name, positive exponent) pairs; the
    empty key is the constant term.  A term is kept while its total degree
    is at most cap (cap None means no truncation).
    """

    __slots__ = ("terms", "cap")

    def __init__(self, terms: dict[Key, object], cap: int | None = None,
                 clean: bool = False):
        if not clean:
            terms = {k: c for k, c in terms.items() if not c.is_zero()}
            if cap is not None:
                terms = {k: c for k, c in terms.items() if _deg(k) <= cap}
        self.terms = terms
        self.cap = cap

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, scalar, cap: int | None = None) -> "NovikovSeries":
        if scalar.is_zero():
            return cls({}, cap, clean=True)
        return cls({(): scalar}, cap, clean=True)

    @classmethod
    def monomial(cls, exps: dict[str, int], scalar, cap: int | None = None) -> "NovikovSeries":
        key = tuple(sorted((n, e) for n, e in exps.items() if e))
        if any(e < 0 for _, e in key):
            raise ValueError("parameter exponents must be nonnegative")
        return cls({key: scalar}, cap)

    # -- helpers -------------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self, ring):
        return self.terms.get((), ring.zero)

    def _caps(self, other) -> int | None:
        if self.cap is None:
            return other.cap
        if other.cap is None:
            return self.cap
        return min(self.cap, other.cap)

    # -- arithmetic ----------------------------------------------------------
    def __add__(self, other: "NovikovSeries") -> "NovikovSeries":
        out = dict(self.terms)
        for k, c in other.terms.items():
            if k in out:
                v = out[k] + c
                if v.is_zero():
                    del out[k]
                else:
                    out[k] = v
            else:
                out[k] = c
        cap = self._caps(other)
        if cap is not None:
            out = {k: c for k, c in out.items() if _deg(k) <= cap}
        return NovikovSeries(out, cap, clean=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return NovikovSeries({k: -c for k, c in self.terms.items()},
                             self.cap, clean=True)

    def __mul__(self, other: "NovikovSeries") -> "NovikovSeries":
        cap = self._caps(other)
        out: dict[Key, object] = {}
        for k1, c1 in self.terms.items():
            d1 = _deg(k1)
            for k2, c2 in other.terms.items():
                if cap is not None and d1 + _deg(k2) > cap:
                    continue
                k = _key_mul(k1, k2)
                v = c1 * c2
                if k in out:
                    v = out[k] + v
                if v.is_zero():
                    out.pop(k, None)
                else:
                    out[k] = v
        return NovikovSeries(out, cap, clean=True)

    def scale(self, scalar) -> "NovikovSeries":
        if scalar.is_zero():
            return NovikovSeries({}, self.cap, clean=True)
        return NovikovSeries({k: c * scalar for k, c in self.terms.items()}, self.cap)

    def truncate(self, cap: int | None) -> "NovikovSeries":
        if cap is None:
            return NovikovSeries(dict(self.terms), None, clean=True)
        return NovikovSeries({k: c for k, c in self.terms.items() if _deg(k) <= cap},
                             cap, clean=True)

    def inverse(self, ring) -> "NovikovSeries":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.terms.get(())
        if c0 is None or c0.is_zero():
            raise ValueError("series has no constant term, cannot invert")
        c0inv = ring.one / c0
        rest = NovikovSeries({k: c for k, c in self.terms.items() if k},
                             self.cap, clean=True)
        if rest.is_zero():
            return NovikovSeries.constant(c0inv, self.cap)
        if self.cap is None:
            raise ValueError("inverting a non-constant series needs a finite cap")
        # Neumann series: 1/(c0 + r) = c0inv * sum_k (-r * c0inv)^k
        base = rest.scale(-c0inv)
        out = NovikovSeries.constant(ring.one, self.cap)
        term = NovikovSeries.constant(ring.one, self.cap)
        for _ in range(self.cap):
            term = term * base
            if term.is_zero():
                break
            out = out + term
        return out.scale(c0inv)

    def adams(self, k: int) -> "NovikovSeries":
        """Scale every exponent by k and apply the scalar Adams operation."""
        out = {_key_pow(key, k): c.adams(k) for key, c in self.terms.items()}
        if self.cap is not None:
            out = {key: c for key, c in out.items() if _deg(key) <= self.cap}
        return NovikovSeries(out, self.cap, clean=True)

    def eval_q(self, t_value) -> "NovikovSeries":
        return NovikovSeries({k: c.eval_q(t_value) for k, c in self.terms.items()},
                             self.cap, clean=True)

    def map_scalars(self, fn) -> "NovikovSeries":
        """Apply a scalar-to-scalar map to every coefficient."""
        return NovikovSeries({k: fn(c) for k, c in self.terms.items()}, self.cap)

    # -- plumbing -------------------------------------------------------------
    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (_deg(kv[0]), kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovSeries):
            return NotImplemented
        return self.terms == other.terms

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for k, c in self.sorted_terms():
            mono = "*".join(_vpow(n, e) for n, e in k)
            cs = str(c)
            if mono:
                if ("+" in cs or "/" in cs or (" - " in cs) or cs.startswith("-")):
                    cs = f"({cs})"
                parts.append(f"{cs}*{mono}" if cs != "1" else mono)
            else:
                parts.append(cs)
        return " + ".join(parts)

    def __repr__(self):
        return f"NovikovSeries({self})"


def _deg(key: Key) -> int:
    return sum(e for _, e in key)


def key_string(key: Key) -> str:
    if not key:
        return "1"
    return "*".join(_vpow(n, e) for n, e in key)
