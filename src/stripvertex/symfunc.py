"""Symmetric functions truncated by degree, over Novikov series coefficients.

SymFunc (one alphabet, keys are partitions) and SymFunc2 (two alphabets,
keys are pairs of partitions, truncated by combined degree) are instances
of the one truncated-series core, scalars.TruncatedSeries, which holds all
the series arithmetic: sums, products, scaling, truncation, the change
between the Schur and power sum bases, and the exponential.  This module
supplies their key hooks: sizes, products and basis rows of partitions.

Basis changes go through the integer character table (power sums to
Schurs, and back divided by z_lambda), and multiplication is concatenation
in the power sum basis.  The module also provides the principal
specializations used by the vertex: evaluations at q^rho and q^(nu+rho)
computed through Jacobi-Trudi determinants with a closed-form tail.  The
Hall pairing and skew Schur functions are test oracles, in tests/oracles.py.
"""
from __future__ import annotations

from fractions import Fraction

from .partitions import (
    Partition,
    character,
    hooks,
    kappa,
    partitions_of,
    size,
    transpose,
    z_factor,
)
from .scalars import SYMBOLIC, NovikovSeries, TruncatedSeries


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


class SymFunc(TruncatedSeries):
    """A truncated symmetric function with NovikovSeries coefficients."""

    __slots__ = ()
    _unit = ()
    _size = staticmethod(size)
    _key_mul = staticmethod(_concat)
    _rewrite = staticmethod(_basis_row)
    _key_row = staticmethod(lambda lam: [list(lam)])

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


def check_report(check: str, residual: TruncatedSeries, checked: int, **fields) -> dict:
    """The JSON-ready report of a machine check, passing when residual is zero.

    residuals holds one row per residual term in size-then-key order: the
    key's _key_row, then the coefficient string.
    """
    rows = [residual._key_row(k) + [str(c)] for k, c in residual.sorted_terms()]
    return {"check": check, **fields, "checked": checked, "residuals": rows,
            "pass": not rows}


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
            # divide by (1 - geo u), then multiply by (1 - head u)
            geo = ring.t_power(2 * p - 2 * i + 1)
            for m in range(1, k + 1):
                r[m] = r[m] + geo * r[m - 1]
            head = ring.t_power(-2 * i + 1)
            r = [r[0]] + [r[m] - head * r[m - 1] for m in range(1, k + 1)]
        out = ring.zero
        for m in range(k + 1):
            if not r[m].is_zero():
                out = out + r[m] * _h_rho(k - m, ring)
    memo[key] = out
    return out


def _det(mat, ring):
    """Determinant by expansion in minors, with no division.

    The rows are taken from the bottom up, and minors maps the bit mask of
    the columns used so far to the minor on the rows taken and those
    columns.  A new row is the top row of the larger minor, whose Laplace
    expansion along it signs column j by the used columns left of j.  A
    Jacobi-Trudi row i is zero left of column i - lam_i, so few masks arise.
    """
    minors = {0: ring.one}
    for row in reversed(mat):
        grown = {}
        for used, minor in minors.items():
            for j, x in enumerate(row):
                bit = 1 << j
                if used & bit or x.is_zero():
                    continue
                term = x * minor
                term = -term if (used & (bit - 1)).bit_count() & 1 else term
                key = used | bit
                grown[key] = grown[key] + term if key in grown else term
        minors = grown
    return minors.get((1 << len(mat)) - 1, ring.zero)


def principal_spec_skew(lam: Partition, mu: Partition, nu: Partition, ring=SYMBOLIC):
    """s_{lam/mu} at x_i = q^(nu_i - (2i-1)/2) via the Jacobi-Trudi determinant."""
    lam, mu, nu = tuple(lam), tuple(mu), tuple(nu)
    memo = ring.memo
    key = ("ssk", lam, mu, nu)
    if key in memo:
        return memo[key]
    # any size past both lengths will do; the determinant is zero unless mu is in lam
    n = max(len(lam), len(mu))
    lamp, mup = (p + (0,) * (n - len(p)) for p in (lam, mu))
    mat = [[principal_spec_h(lamp[i] - mup[j] - i + j, nu, ring)
            for j in range(n)] for i in range(n)]
    out = memo[key] = _det(mat, ring)
    return out


def principal_spec_schur_hook(lam: Partition, ring=SYMBOLIC):
    """Closed form for s_lam at q^rho: t^(kappa/2) over the product of {hook}."""
    lam = tuple(lam)
    out = ring.t_power(kappa(lam) // 2)
    for h in hooks(lam):
        out = out / ring.quantum_int(h)
    return out


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
    _key_row = staticmethod(lambda key: [list(key[0]), list(key[1])])

    @staticmethod
    def _key_str(key: PairKey, sym: str) -> str:
        return f"{sym}{list(key[0])}(x){sym}{list(key[1])}"

    def slice_first(self) -> SymFunc:
        """The part paired with the empty partition in the second slot."""
        terms = {l1: c for (l1, l2), c in self.terms.items() if l2 == ()}
        return SymFunc._new(self.basis, terms, self.cap, self.ring)


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
