"""The skein of the solid torus: meridian eigenvalues and dilogarithm elements.

The positive-winding part of the torus skein is identified with symmetric
functions, the basis element labelled by a partition pairing with the Schur
function.  The central element Psi[xi] is characterized by an eigenvalue
recursion under encircling by a meridian; both its closed product form and
its plethystic exponential form are implemented, together with machine
checks of the recursion they satisfy.  Both forms index one table of the
powers of xi.  The exponential form's multiple-cover weight 1/(d {d}),
disk_weight, is also the weight of every disk tower in vertex and qdiff.
"""
from __future__ import annotations

from fractions import Fraction

from .partitions import (
    content_polynomial,
    enumerate_partitions,
    hooks,
    kappa,
    remove_box,
    size,
)
from .scalars import SYMBOLIC, NovikovSeries
from .symfunc import SymFunc, check_report, sym_exp


def formal(name: str, ring=SYMBOLIC) -> NovikovSeries:
    """A named formal parameter as a degree-one series."""
    return NovikovSeries.monomial({name: 1}, ring.one)


def unknot_value(ring=SYMBOLIC):
    """Value of the zero-winding unknot: (a - 1/a) / {1}."""
    return (ring.a_power(1) - ring.a_power(-1)) / ring.quantum_int(1)


def meridian_eigenvalue(lam, orientation: int = +1, ring=SYMBOLIC):
    """Eigenvalue of encircling a basis element by a meridian.

    orientation +1 wraps the meridian one way, -1 the other; the two differ
    by a -> 1/a, q -> 1/q applied to the content sum.
    """
    lam = tuple(lam)
    o = unknot_value(ring)
    z = ring.quantum_int(1)
    if orientation == +1:
        return o + z * ring.a_power(1) * content_polynomial(lam, ring)
    if orientation == -1:
        return o - z * ring.a_power(-1) * content_polynomial(lam, ring, inverse_q=True)
    raise ValueError("orientation must be +1 or -1")


def disk_weight(d: int, ring=SYMBOLIC):
    """The multiple-cover weight 1/(d {d}) of a degree-d disk.

    It is the coefficient of -xi^d p_d in log Psi[xi], and every disk
    tower of the strip closed forms carries it.
    """
    return ring.from_fraction(Fraction(1, d)) / ring.quantum_int(d)


def _hook_content(lam, ring, inverse: bool):
    # the coefficient of xi^|lam| s_lam in Psi[xi], or in its inverse
    sign = -1 if (size(lam) % 2 and not inverse) else 1
    c = ring.monomial(sign, kappa(lam) // 2 if inverse else -kappa(lam) // 2)
    for h in hooks(lam):
        c = c / ring.quantum_int(h)
    return c


def psi(xi: NovikovSeries, cap: int, ring=SYMBOLIC, form: str = "product") -> SymFunc:
    """The skein dilogarithm Psi[xi], truncated to winding degree cap.

    form "product" uses the hook-content closed form of the coefficients;
    form "exponential" exponentiates the power sum series directly.  The two
    agree identically (and a test insists on it).
    """
    return _psi_impl(xi, cap, ring, form, inverse=False)


def psi_inverse(xi: NovikovSeries, cap: int, ring=SYMBOLIC, form: str = "product") -> SymFunc:
    """The multiplicative inverse of Psi[xi]."""
    return _psi_impl(xi, cap, ring, form, inverse=True)


def _psi_impl(xi, cap, ring, form, inverse: bool) -> SymFunc:
    if form not in ("product", "exponential"):
        raise ValueError(f"unknown form {form!r}")
    xpow = [NovikovSeries.constant(ring.one)]
    for _ in range(cap):
        xpow.append(xpow[-1] * xi)
    if form == "product":
        terms = {lam: xpow[size(lam)].scale(_hook_content(lam, ring, inverse))
                 for lam in enumerate_partitions(cap)}
        return SymFunc("schur", terms, cap, ring)
    log = SymFunc.zero(ring, cap)
    for d in range(1, cap + 1):
        w = disk_weight(d, ring)
        c = xpow[d].scale(w if inverse else -w)
        log = log + SymFunc.power_sum((d,), ring, cap).scale(c)
    return sym_exp(log).convert("schur")


def _pieri_sum(f: SymFunc, lam) -> NovikovSeries:
    out = NovikovSeries.constant(f.ring.zero)
    for mu, _ in remove_box(lam):
        out = out + f.coefficient(mu)
    return out


def _recursion(which: str, ring):
    """The operator unknot - meridian(+-1) - a^(+-1) xi s_1, + forward, - inverse.

    Returns its diagonal part, lam -> unknot - meridian_eigenvalue(lam, +-1),
    and the weight a^(+-1) xi of its part that adds a box.
    """
    if which not in ("forward", "inverse"):
        raise ValueError("which must be 'forward' or 'inverse'")
    o = 1 if which == "forward" else -1
    unknot = unknot_value(ring)
    return (lambda lam: unknot - meridian_eigenvalue(lam, o, ring),
            formal("xi", ring).scale(ring.a_power(o)))


def verify_dilog_recurrence(cap: int, which: str = "forward", ring=SYMBOLIC) -> dict:
    """Check the meridian recursion against the closed-form coefficients.

    forward: (unknot - meridian(+1) - a xi s_1) annihilates Psi[xi];
    inverse: (unknot - meridian(-1) - (1/a) xi s_1) annihilates Psi[xi]^(-1).
    Returns a JSON-ready report; residuals lists the offending terms.
    """
    diagonal, weight = _recursion(which, ring)
    f = (psi_inverse if which == "inverse" else psi)(formal("xi", ring), cap, ring)
    shapes = enumerate_partitions(cap)
    residual = SymFunc("schur", {lam: f.coefficient(lam).scale(diagonal(lam))
                                 - _pieri_sum(f, lam) * weight for lam in shapes},
                       cap, ring)
    return check_report(f"skein-dilog-recurrence-{which}", residual, len(shapes),
                        cap=cap)


def solve_recurrence(cap: int, which: str = "forward", ring=SYMBOLIC) -> SymFunc:
    """Solve the meridian recursion of `which` degree by degree from the unit term.

    The s_lam coefficient is the box-adding part applied to the smaller ones,
    over the operator's diagonal at lam.  This is the uniqueness half: the
    result must reproduce Psi[xi] (forward) or its inverse.
    """
    diagonal, weight = _recursion(which, ring)
    f = SymFunc.one(ring, cap, "schur")
    for lam in enumerate_partitions(cap)[1:]:
        coeff = (_pieri_sum(f, lam) * weight).scale(ring.one / diagonal(lam))
        if not coeff.is_zero():
            f.terms[lam] = coeff
    return f


def _psi_p(xi, cap: int, ring, inverse: bool) -> SymFunc:
    # dilogarithm factors recur across strips; cache their p-basis form
    key = ("psi-p", tuple(sorted(xi.terms.items(), key=lambda kv: kv[0])),
           xi.cap, cap, inverse)
    hit = ring.memo.get(key)
    if hit is None:
        hit = _psi_impl(xi, cap, ring, "product", inverse).convert("p")
        ring.memo[key] = hit
    return hit


def _solution_p(alphas, betas, cap: int, ring) -> SymFunc:
    # solution_element in the power sum basis
    out = SymFunc.one(ring, cap)
    for al in alphas:
        out = out * _psi_p(al, cap, ring, False)
    for be in betas:
        out = out * _psi_p(be, cap, ring, True)
    return out


def solution_element(alphas, betas, cap: int, ring=SYMBOLIC) -> SymFunc:
    """Product of dilogarithms prod_i Psi[alpha_i] * prod_j Psi[beta_j]^(-1).

    alphas and betas are Novikov monomials (use the constant one for a
    trivial weight).  The result is the annihilated wavefunction of the
    associated q-difference operator, in the Schur basis.
    """
    return _solution_p(alphas, betas, cap, ring).convert("schur")
