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

A numeric ring pins t to a rational value while a stays formal.  Its
scalars, LaurentScalar, are this same normal form with t pinned: every t
exponent is 0 and den is one positive integer, so the two lanes share one
arithmetic and the higher layers run unchanged in either mode.  Scalars of
different rings do not mix: +, -, *, / and == between them raise TypeError.

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
from math import gcd, inf, isqrt, lcm

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
# sparse polynomials: den as {t exp: c}, num as {(t exp, a exp): c}

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


def _clean_input(num: dict, den: dict) -> tuple[dict, dict]:
    # a Scalar built by hand: drop zero terms, scale num and den by the lcm of
    # the denominators of their coefficients (a caller may pass ints or
    # Fractions) and move the powers of t out of den
    num = {k: c for k, c in num.items() if c}
    den = {e: c for e, c in den.items() if c}
    if not den:
        raise ZeroDivisionError("zero denominator")
    m = lcm(*(Fraction(c).denominator for c in (*num.values(), *den.values())))
    s = min(den)
    return ({(te - s, ae): int(c * m) for (te, ae), c in num.items()},
            {e - s: int(c * m) for e, c in den.items()})


def _reduce(num: dict[tuple[int, int], int],
            den: dict[int, int]):
    """Bring num/den to the canonical form described in the module docstring.

    The input is what the arithmetic produces: nonzero int coefficients and
    min(den) == 0 (a Scalar built by hand passes _clean_input first).  A
    one-term den, which every numeric value has, reduces by its integer
    content alone; the numeric lane is this same form with t pinned.
    """
    if not num:
        return {}, _DEN_ONE
    if len(den) > 1:
        # cancel any common polynomial factor (powers of t live in num)
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
    cont = gcd(*den.values(), *num.values())
    if den[max(den)] < 0:
        cont = -cont
    if cont != 1:
        num = {k: c // cont for k, c in num.items()}
        den = {e: c // cont for e, c in den.items()}
    return num, den


def _ring_error(x, y) -> TypeError:
    where = f" over {y.ring!r}" if hasattr(y, "ring") else ""
    return TypeError(f"cannot combine a scalar over {x.ring!r} with "
                     f"{type(y).__name__}{where}: scalars of different rings do not mix")


def _operand(x, y):
    # num and den of y, once y is known to be a scalar of x's ring
    try:
        ring, num, den = y.ring, y.num, y.den
    except AttributeError:
        raise _ring_error(x, y) from None
    if ring is not x.ring and ring != x.ring:
        raise _ring_error(x, y)
    return num, den


class Scalar:
    """Canonical rational function in t (denominator a-free, numerator Laurent in t, a)."""

    __slots__ = ("num", "den", "ring")

    def __init__(self, num, den, ring, reduced: bool = False):
        if not reduced:
            num, den = _reduce(*_clean_input(num, den))
        self.num = num
        self.den = den
        self.ring = ring

    def _new(self, num, den) -> "Scalar":
        # a result of the arithmetic, in self's class and ring
        out = object.__new__(type(self))
        out.num, out.den = _reduce(num, den)
        out.ring = self.ring
        return out

    # -- predicates ---------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == {(0, 0): 1} and self.den == _DEN_ONE

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other: "Scalar") -> "Scalar":
        onum, oden = _operand(self, other)
        den = self.den
        if den == oden:
            return self._new(_num_add(self.num, onum), den)
        if len(den) == 1 == len(oden):
            # integer denominators (every numeric value): add over their lcm
            g = gcd(den[0], oden[0])
            return self._new(_num_add(self.num, onum, oden[0] // g, den[0] // g),
                             {0: den[0] // g * oden[0]})
        d2 = {(e, 0): c for e, c in oden.items()}
        d1 = {(e, 0): c for e, c in self.den.items()}
        num = _num_add(_num_mul(self.num, d2), _num_mul(onum, d1))
        return self._new(num, _poly_mul(self.den, oden))

    def __neg__(self) -> "Scalar":
        return type(self)({k: -c for k, c in self.num.items()}, self.den, self.ring,
                          reduced=True)

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + (-other)

    def __mul__(self, other: "Scalar") -> "Scalar":
        onum, oden = _operand(self, other)
        return self._new(_num_mul(self.num, onum), _poly_mul(self.den, oden))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        onum, oden = _operand(self, other)
        if not onum:
            raise ZeroDivisionError("division by zero scalar")
        aexps = {ae for (_, ae) in onum}
        if len(aexps) != 1:
            raise ValueError("divisor must be a-free up to a monomial in a")
        ae = aexps.pop()
        m = min(te for te, _ in onum)
        lp = {te - m: c for (te, _), c in onum.items()}
        d2 = {(e - m, -ae): c for e, c in oden.items()}
        return self._new(_num_mul(self.num, d2), _poly_mul(self.den, lp))

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
        return self._new(num, den)

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
        return self._new(num, self.den)

    def adams(self, k: int) -> "Scalar":
        """The degree-k Adams image: t -> t^k, a -> a^k."""
        if k < 1:
            raise ValueError("adams degree must be positive")
        if k == 1:
            return self
        num = {(te * k, ae * k): c for (te, ae), c in self.num.items()}
        den = {e * k: c for e, c in self.den.items()}
        return type(self)(num, den, self.ring, reduced=True)

    def eval_q(self, t_value: Fraction) -> "LaurentScalar":
        """Evaluate at a rational value of t = q^(1/2); a stays formal."""
        t_value = Fraction(t_value)
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
        onum, oden = _operand(self, other)
        return self.num == onum and self.den == oden

    def __hash__(self):
        return hash((tuple(sorted(self.num.items())), tuple(sorted(self.den.items()))))

    def __str__(self) -> str:
        # print rational coefficients over the primitive part of den
        cont = gcd(*self.den.values())
        num, den = self.num, self.den
        if cont != 1:
            num = {k: Fraction(c, cont) for k, c in num.items()}
            den = {e: c // cont for e, c in den.items()}
        ns = _num_str(num)
        if den == _DEN_ONE:
            return ns
        return f"({ns})/({_den_str(den)})"

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self})"


class LaurentScalar(Scalar):
    """A scalar of a numeric ring: the normal form of Scalar with t pinned.

    Every t exponent is 0 and den is one positive integer, so a value is a
    Laurent polynomial in a with rational coefficients.  The arithmetic is
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


def _den_str(den: dict[int, int]) -> str:
    return _num_str({(e, 0): c for e, c in den.items()})


class SymbolicQ:
    """Factory ring for symbolic scalars.  Holds the memo caches."""

    mode = "symbolic"
    _scalar = Scalar

    def __init__(self):
        self.memo: dict = {}
        self.zero = self._scalar({}, _DEN_ONE, self, reduced=True)
        self.one = self.monomial(1)

    def from_fraction(self, c) -> Scalar:
        """The rational constant c (an int, or a rational with numerator/denominator)."""
        return self.monomial(c)

    def monomial(self, c, t_exp: int = 0, a_exp: int = 0) -> Scalar:
        """c * t^t_exp * a^a_exp for a rational c (as in from_fraction)."""
        if not c:
            return self.zero
        # a rational's numerator and denominator are coprime, denominator > 0
        return self._scalar({(t_exp, a_exp): c.numerator}, {0: c.denominator}, self,
                            reduced=True)

    def t_power(self, k: int) -> Scalar:
        return self.monomial(1, k)

    def a_power(self, k: int) -> Scalar:
        return self.monomial(1, 0, k)

    def quantum_int(self, n: int) -> Scalar:
        """The balanced quantum integer {n} = t^n - t^(-n)."""
        if n == 0:
            return self.zero
        return Scalar({(n, 0): 1, (-n, 0): -1}, _DEN_ONE, self, reduced=True)

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
        t = Fraction(t)
        if t == 0:
            raise ValueError("t must be nonzero")
        self.t = t
        super().__init__()

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

    def monomial(self, c, t_exp: int = 0, a_exp: int = 0) -> LaurentScalar:
        if t_exp:
            c = c * self.t ** t_exp
        return super().monomial(c, 0, a_exp)

    def quantum_int(self, n: int) -> LaurentScalar:
        return self.monomial(self.t ** n - self.t ** (-n))

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
# the truncated series core, and its instance in named formal parameters

_BASES = ("schur", "p")


class NonNilpotentArgument(ValueError):
    """Raised when an exponential is fed a series with an empty-key term."""


class TruncatedSeries:
    """A sparse series in graded keys: the one series core of the package.

    Subclasses supply the key hooks: _size (the grading, additive under
    _key_mul), _key_mul (the product of two power sum keys), _unit (the
    empty key), _key_str and _rewrite (one key in the other basis), and
    _lift (a scalar as a coefficient).  Terms of key size above cap are
    dropped; cap = math.inf keeps every term.  With _combined set, a
    coefficient is also truncated to Novikov degree cap - size(key).
    Products are taken in the "p" basis and returned in the basis of the
    left factor.  Both operands of +, * and == must share one ring.

    NovikovSeries has scalar coefficients; every other kind has Novikov
    series coefficients, and the basis change, scale_scalar, map_coeffs
    and the exponential act on those.
    """

    __slots__ = ("basis", "terms", "cap", "ring")
    _combined = False
    _lift = staticmethod(lambda scalar: NovikovSeries.constant(scalar))

    def __init__(self, basis: str, terms: dict, cap, ring, clean: bool = False):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis, self.cap, self.ring = basis, cap, ring
        self.terms = terms if clean else {}
        if not clean:
            for key, c in terms.items():
                self.add_term(key, c)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def _new(cls, basis: str, terms: dict, cap, ring):
        out = object.__new__(cls)
        out.basis, out.terms, out.cap, out.ring = basis, terms, cap, ring
        return out

    @classmethod
    def zero(cls, ring, cap, basis: str = "p"):
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
        weighted: dict[int, list] = {}
        for key, c in log.terms.items():
            k = size_of(key)
            if k == 0:
                raise NonNilpotentArgument("exponential needs a nilpotent argument")
            weighted.setdefault(k, []).append((key, c.scale(ring.from_fraction(k))))
        out = log.one(ring, cap)
        parts = [dict(out.terms)]
        for n in range(1, cap + 1):
            acc = log._new("p", {}, cap, ring)
            for k in range(1, n + 1):
                for kl, cl in weighted.get(k, ()):
                    for kz, cz in parts[n - k].items():
                        acc._put(key_mul(kl, kz), cl * cz, cap - n)
            inv_n = ring.from_fraction(Fraction(1, n))
            parts.append({key: c.scale(inv_n) for key, c in acc.terms.items()})
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

    Terms are keyed by sorted tuples of (name, positive exponent) pairs; the
    empty key is the constant term.  A term is kept while its total degree
    is at most cap; the default cap None means no truncation, held as
    cap = math.inf.
    """

    __slots__ = ()
    _unit = ()
    _key_mul = staticmethod(_merge_keys)
    _lift = staticmethod(lambda scalar: scalar)

    def __init__(self, terms: dict[Key, object], ring, cap: int | None = None,
                 clean: bool = False):
        super().__init__("p", terms, inf if cap is None else cap, ring, clean)

    @staticmethod
    def _size(key: Key) -> int:
        return sum([e for _, e in key])

    # -- constructors -------------------------------------------------------
    @classmethod
    def constant(cls, scalar, cap: int | None = None) -> "NovikovSeries":
        return cls({(): scalar}, scalar.ring, cap)

    @classmethod
    def monomial(cls, exps: dict[str, int], scalar, cap: int | None = None) -> "NovikovSeries":
        key = tuple(sorted((n, e) for n, e in exps.items() if e))
        if any(e < 0 for _, e in key):
            raise ValueError("parameter exponents must be nonnegative")
        return cls({key: scalar}, scalar.ring, cap)

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
