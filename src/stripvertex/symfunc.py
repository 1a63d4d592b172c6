"""Symmetric functions truncated by degree, over Novikov series coefficients.

One truncated sparse series type, TruncatedSeries, holds all the series
arithmetic: sums, products, scaling, truncation, the change between the
Schur and power sum bases, and the exponential.  Its instances here are
SymFunc (one alphabet, keys are partitions) and SymFunc2 (two alphabets,
keys are pairs of partitions, truncated by combined degree); qdiff adds
the one-variable QSeries.

Basis changes go through the integer character table (power sums to
Schurs and back), multiplication is concatenation in the power sum basis,
and the Hall pairing makes the power sums orthogonal with norm z_lambda.
The module also provides the principal specializations used by the
vertex: evaluations at q^rho and q^(nu+rho) computed through Jacobi-Trudi
determinants with a closed-form tail.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache

from .partitions import (
    Partition,
    character,
    contains,
    hooks,
    kappa,
    partitions_of,
    size,
    transpose,
    z_factor,
)
from .scalars import SYMBOLIC, NovikovSeries

_BASES = ("schur", "p")


class NonNilpotentArgument(ValueError):
    """Raised when an exponential is fed a series with an empty-key term."""


def _concat(mu: Partition, nu: Partition) -> Partition:
    return tuple(sorted(mu + nu, reverse=True))


def _basis_row(lam: Partition, basis: str) -> list[tuple[Partition, Fraction]]:
    """The element labelled lam of the basis other than `basis`, expanded in `basis`.

    p_lam = sum_mu chi^mu(lam) s_mu and s_lam = sum_mu chi^lam(mu)/z_mu p_mu.
    """
    if basis == "schur":
        return [(mu, Fraction(x)) for mu in partitions_of(size(lam))
                if (x := character(mu, lam))]
    return [(mu, Fraction(x, z_factor(mu))) for mu in partitions_of(size(lam))
            if (x := character(lam, mu))]


class TruncatedSeries:
    """A sparse series in graded keys with NovikovSeries coefficients.

    Subclasses supply the key hooks: _size (the grading, additive under
    _key_mul), _key_mul (the product of two power sum keys), _unit (the
    empty key), _key_str and _rewrite (one key in the other basis).  Terms
    of key size above cap are dropped; with _combined set, a coefficient is
    also truncated to Novikov degree cap - size(key).  Products are taken
    in the "p" basis and returned in the basis of the left factor.
    """

    __slots__ = ("basis", "terms", "cap", "ring")
    _combined = False

    def __init__(self, basis: str, terms: dict, cap: int, ring, clean: bool = False):
        if basis not in _BASES:
            raise ValueError(f"unknown basis {basis!r}")
        self.basis = basis
        self.cap = cap
        self.ring = ring
        self.terms = terms if clean else {}
        if not clean:
            for key, c in terms.items():
                self.add_term(key, c)

    # -- constructors ---------------------------------------------------------
    @classmethod
    def _new(cls, basis: str, terms: dict, cap: int, ring):
        out = object.__new__(cls)
        out.basis, out.terms, out.cap, out.ring = basis, terms, cap, ring
        return out

    @classmethod
    def zero(cls, ring, cap: int, basis: str = "p"):
        return cls._new(basis, {}, cap, ring)

    @classmethod
    def one(cls, ring, cap: int, basis: str = "p"):
        out = cls.zero(ring, cap, basis)
        out.add_term(cls._unit, NovikovSeries.constant(ring.one))
        return out

    def _collect(self, pairs, cap: int | None = None, basis: str | None = None):
        out = self._new(basis or self.basis, {}, self.cap if cap is None else cap,
                        self.ring)
        for key, c in pairs:
            out.add_term(key, c)
        return out

    def add_term(self, key, series: NovikovSeries) -> None:
        """Mutating accumulation used while assembling sums; truncates as it goes."""
        room = self.cap - self._size(key)
        if room < 0:
            return
        if self._combined:
            series = series.truncate(room)
        terms = self.terms
        if key in terms:
            series = terms[key] + series
        if series.is_zero():
            terms.pop(key, None)
        else:
            terms[key] = series

    # -- ring structure --------------------------------------------------------
    def _require_like(self, other) -> None:
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
                    out.add_term(key_mul(k1, k2), c1 * c2)
        return out.convert(self.basis)

    def scale(self, series: NovikovSeries):
        return self._collect((k, c * series) for k, c in self.terms.items())

    def scale_scalar(self, scalar):
        return self._collect((k, c.scale(scalar)) for k, c in self.terms.items())

    def map_coeffs(self, fn):
        """Apply a scalar map (such as q -> 1/q) to every coefficient."""
        return self._collect((k, c.map_scalars(fn)) for k, c in self.terms.items())

    def truncate(self, cap: int):
        return self._collect(self.terms.items(), cap)

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, key) -> NovikovSeries:
        c = self.terms.get(key)
        return NovikovSeries({}, clean=True) if c is None else c

    # -- basis change -----------------------------------------------------------
    def convert(self, basis: str):
        if basis == self.basis:
            return self
        if basis not in _BASES:
            raise ValueError(f"cannot convert {self.basis} -> {basis}")
        scalar = self.ring.from_fraction
        return self._collect(((new, c.scale(scalar(x)))
                              for key, c in self.terms.items()
                              for new, x in self._rewrite(key, basis)), basis=basis)

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
                        acc.add_term(key_mul(kl, kz), cl * cz)
            inv_n = ring.from_fraction(Fraction(1, n))
            parts.append({key: c.scale(inv_n) for key, c in acc.terms.items()})
            out.terms.update(parts[n])
        return out

    # -- plumbing ----------------------------------------------------------------
    def __eq__(self, other) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
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


class SymFunc(TruncatedSeries):
    """A truncated symmetric function with NovikovSeries coefficients."""

    __slots__ = ()
    _unit = ()
    _size = staticmethod(size)
    _key_mul = staticmethod(_concat)
    _rewrite = staticmethod(_basis_row)

    @staticmethod
    def _key_str(key: Partition, sym: str) -> str:
        return f"{sym}{list(key)}"

    @classmethod
    def schur(cls, lam: Partition, ring, cap: int) -> "SymFunc":
        return cls("schur", {tuple(lam): NovikovSeries.constant(ring.one)}, cap, ring)

    @classmethod
    def power_sum(cls, lam: Partition, ring, cap: int) -> "SymFunc":
        return cls("p", {tuple(lam): NovikovSeries.constant(ring.one)}, cap, ring)


# the one exponential, under its symmetric-function name
sym_exp = SymFunc.exp


def hall_pairing(f: SymFunc, g: SymFunc) -> NovikovSeries:
    """The Hall inner product, extended bilinearly over coefficient series."""
    a = f.convert("p")
    b = g.convert("p")
    out = NovikovSeries({}, clean=True)
    ring = f.ring
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
            key = _concat(r1, r2)
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
    return SymFunc("schur", terms, cap, ring, clean=True)


# ---------------------------------------------------------------------------
# principal specializations

def _h_rho(k: int, ring):
    """h_k at x_i = q^(-(2i-1)/2): equals t^(-k) / prod_{j<=k} (1 - t^(-2j))."""
    memo = ring.memo
    key = ("h_rho", k)
    if key not in memo:
        if k < 0:
            memo[key] = ring.zero
        elif k == 0:
            memo[key] = ring.one
        else:
            prev = _h_rho(k - 1, ring)
            memo[key] = prev * ring.t_power(-1) / (ring.one - ring.t_power(-2 * k))
    return memo[key]


def principal_spec_h(k: int, nu: Partition, ring=SYMBOLIC):
    """h_k evaluated at x_i = q^(nu_i - (2i-1)/2), as an exact scalar.

    The finitely many corrected factors of the generating product are
    expanded as a series in the auxiliary variable and folded against the
    closed-form tail values at nu = empty.
    """
    nu = tuple(nu)
    if k < 0:
        return ring.zero
    memo = ring.memo
    key = ("h_nu", k, nu)
    if key in memo:
        return memo[key]
    if not nu:
        out = _h_rho(k, ring)
    else:
        # r-series of prod_i (1 - t^(-2i+1) u) / (1 - t^(2 nu_i - 2i + 1) u) up to u^k
        r = [ring.one] + [ring.zero] * k
        for i, p in enumerate(nu, 1):
            geo = ring.t_power(2 * p - 2 * i + 1)
            new = [ring.zero] * (k + 1)
            acc = ring.one
            for m in range(k + 1):
                # multiply r by the geometric series of geo
                val = ring.zero
                g = ring.one
                for j in range(m, -1, -1):
                    val = val + r[j] * g
                    g = g * geo
                new[m] = val
            head = ring.t_power(-2 * i + 1)
            r = [new[0]] + [new[m] - head * new[m - 1] for m in range(1, k + 1)]
        out = ring.zero
        for m in range(k + 1):
            if not r[m].is_zero():
                out = out + r[m] * _h_rho(k - m, ring)
    memo[key] = out
    return out


def _det(mat, ring):
    """Determinant by fraction-field Gaussian elimination."""
    n = len(mat)
    if n == 0:
        return ring.one
    m = [row[:] for row in mat]
    det = ring.one
    sign = 1
    for col in range(n):
        piv = None
        for row in range(col, n):
            if not m[row][col].is_zero():
                piv = row
                break
        if piv is None:
            return ring.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            sign = -sign
        pivot = m[col][col]
        det = det * pivot
        for row in range(col + 1, n):
            if m[row][col].is_zero():
                continue
            f = m[row][col] / pivot
            for c2 in range(col, n):
                m[row][c2] = m[row][c2] - f * m[col][c2]
    if sign < 0:
        det = -det
    return det


def principal_spec_skew(lam: Partition, mu: Partition, nu: Partition, ring=SYMBOLIC):
    """s_{lam/mu} at x_i = q^(nu_i - (2i-1)/2) via the Jacobi-Trudi determinant."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    memo = ring.memo
    key = ("ssk", lam, mu, nu)
    if key in memo:
        return memo[key]
    n = len(lam)
    if len(mu) > n:
        out = ring.zero
    elif n == 0:
        out = ring.one
    else:
        mup = mu + (0,) * (n - len(mu))
        mat = [[principal_spec_h(lam[i] - mup[j] - i + j, nu, ring)
                for j in range(n)] for i in range(n)]
        out = _det(mat, ring)
    memo[key] = out
    return out


def principal_spec_schur_hook(lam: Partition, ring=SYMBOLIC):
    """Closed form for s_lam at q^rho: t^(kappa/2) over the product of {hook}."""
    lam = tuple(lam)
    out = ring.t_power(kappa(lam) // 2)
    for h in hooks(lam):
        out = out / ring.quantum_int(h)
    return out


def sign_transpose_residual(lam: Partition, mu: Partition, ring=SYMBOLIC):
    """Residual of s_{lam/mu}(q^rho) - (-1)^(|lam|-|mu|) s_{lam'/mu'}(q^-rho)."""
    lam, mu = tuple(lam), tuple(mu)
    lhs = principal_spec_skew(lam, mu, (), ring)
    rhs = principal_spec_skew(transpose(lam), transpose(mu), (), ring).subs_q_inverse()
    if (size(lam) - size(mu)) % 2:
        rhs = -rhs
    return lhs - rhs


# ---------------------------------------------------------------------------
# the tensor square: two independent sets of variables

PairKey = tuple[Partition, Partition]


def _pair_size(key: PairKey) -> int:
    return size(key[0]) + size(key[1])


def _pair_mul(k: PairKey, m: PairKey) -> PairKey:
    return _concat(k[0], m[0]), _concat(k[1], m[1])


def _pair_row(key: PairKey, basis: str) -> list[tuple[PairKey, Fraction]]:
    second = _basis_row(key[1], basis)
    return [((m1, m2), x1 * x2) for m1, x1 in _basis_row(key[0], basis)
            for m2, x2 in second]


class SymFunc2(TruncatedSeries):
    """Symmetric functions in two alphabets, truncated by combined degree.

    Keys are pairs (lam1, lam2).  The combined degree of a term is
    |lam1| + |lam2| plus the Novikov degree of its coefficient; every stored
    coefficient is truncated to Novikov degree cap - |lam1| - |lam2|.
    """

    __slots__ = ()
    _combined = True
    _unit = ((), ())
    _size = staticmethod(_pair_size)
    _key_mul = staticmethod(_pair_mul)
    _rewrite = staticmethod(_pair_row)

    @staticmethod
    def _key_str(key: PairKey, sym: str) -> str:
        return f"{sym}{list(key[0])}(x){sym}{list(key[1])}"

    def slice_first(self) -> SymFunc:
        """The part paired with the empty partition in the second slot."""
        terms = {l1: c for (l1, l2), c in self.terms.items() if l2 == ()}
        return SymFunc(self.basis, terms, self.cap, self.ring, clean=True)


def tensor(f: SymFunc, g: SymFunc, cap: int | None = None) -> SymFunc2:
    """The tensor product element f(x) g(y) in the two-alphabet ring."""
    a = f.convert("p")
    b = g.convert("p")
    if cap is None:
        cap = a.cap + b.cap
    out = SymFunc2.zero(f.ring, cap)
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            out.add_term((k1, k2), c1 * c2)
    return out


def contract_middle(u: SymFunc2, v: SymFunc2, transpose_middle: bool = False) -> SymFunc2:
    """Pair the second slot of u with the first slot of v against the Schur kernel.

    With transpose_middle, the kernel pairs s_lam with s_{lam'} instead
    (the dual kernel).
    """
    a = u.convert("schur")
    b = v.convert("schur")
    cap = a.cap + b.cap
    by_mid: dict[Partition, list] = {}
    for (k1, mid), c in a.terms.items():
        by_mid.setdefault(mid, []).append((k1, c))
    out = SymFunc2.zero(u.ring, cap, "schur")
    for (mid, k2), d in b.terms.items():
        key = transpose(mid) if transpose_middle else mid
        for k1, c in by_mid.get(key, ()):
            out.add_term((k1, k2), c * d)
    return out
