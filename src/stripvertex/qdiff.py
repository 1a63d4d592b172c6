"""One-variable reduction of skein elements and the annihilation check.

Collapsing every power sum p_d to x^d turns a skein solution into a
q-series z(x), a QSeries: the one-variable instance of the truncated
series core scalars.TruncatedSeries.  The quantum curve of a strip acts on
such series through the shift x -> qx, and z(x) is annihilated by it.
This module builds the reduction, the shift, z(x) from its logarithm (the
strip's negated disk row, in either q lane) and the residual test.
"""

import operator

from .partitions import size
from .scalars import SYMBOLIC, NovikovSeries, TruncatedSeries
from .skein import _hook_content, disk_weight
from .symfunc import SymFunc, check_report
from .vertex import StripGeometry, mirror_and_quantum, strip_params

__all__ = [
    "QSeries",
    "u1_reduce",
    "sigma_q",
    "log_reduce",
    "curve_residual",
    "verify_annihilation",
]


class QSeries(TruncatedSeries):
    """Truncated series in one variable x with NovikovSeries coefficients.

    Keys are the exponents d of x^d.  The one basis is labelled "p": the
    reduction below sends p_lam to x^|lam|.
    """

    __slots__ = ()
    _unit = 0
    _key_mul = staticmethod(operator.add)
    _key_row = staticmethod(lambda d: [d])

    def __init__(self, terms: dict, cap: int, ring):
        if any(d < 0 for d in terms):
            raise ValueError("x exponents must be nonnegative")
        super().__init__("p", terms, cap, ring)

    @staticmethod
    def _size(d: int) -> int:
        return d

    @staticmethod
    def _key_str(d: int, sym: str) -> str:
        return "1" if d == 0 else ("x" if d == 1 else f"x^{d}")

    @classmethod
    def variable(cls, ring, cap: int, power: int = 1) -> "QSeries":
        return cls({power: NovikovSeries.constant(ring.one)}, cap, ring)

    @classmethod
    def from_list(cls, entries, cap: int, ring) -> "QSeries":
        """Polynomial with NovikovSeries coefficients, entries[d] at x^d."""
        return cls(dict(enumerate(entries)), cap, ring)


def u1_reduce(f: SymFunc) -> QSeries:
    """Algebra map sending p_lam to x^|lam|, so s_(1,1) dies and s_(2) -> x^2.

    The map is evaluation on a one-letter alphabet, so in the Schur basis
    only single-row partitions survive; the tests check that this agrees
    with reducing the power sum expansion directly.
    """
    out = QSeries.zero(f.ring, f.cap)
    for lam, c in f.terms.items():
        if f.basis == "p" or len(lam) <= 1:
            out.add_term(size(lam), c)
    return out


def sigma_q(z: QSeries) -> QSeries:
    """Substitution x -> qx; the x^d coefficient picks up q^d = t^{2d}."""
    ring = z.ring
    terms = {d: c.scale(ring.t_power(2 * d)) for d, c in z.terms.items()}
    return QSeries._new("p", terms, z.cap, ring)


def log_reduce(strip: StripGeometry, cap: int, ring=SYMBOLIC) -> QSeries:
    """z(x) from its logarithm -sum_d (sum_i a_i^d - sum_j b_j^d) x^d / (d{d}).

    The x^d coefficient of the logarithm is the strip's first-boundary disk
    row, negated; nothing in it needs symbolic q, so both lanes work.  Must
    agree with u1_reduce of the dilogarithm product built from the same
    interval weights; the exponential is the shared series one.
    """
    log = QSeries.zero(ring, cap)
    for d in range(1, cap + 1):
        log.add_term(d, strip.disk_row(d, -disk_weight(d, ring)))
    return log.exp()


def _reduced_solution(alphas, betas, cap: int, ring) -> QSeries:
    # the reduction is an algebra map that keeps only one-row Schur terms:
    # each dilogarithm factor reduces to the sum of xi^n x^n times the
    # hook-content coefficient of (n), and the factors multiply in x
    out = QSeries.one(ring, cap)
    for xi, inverse in [(al, False) for al in alphas] + [(be, True) for be in betas]:
        row, xpow = QSeries.one(ring, cap), NovikovSeries.constant(ring.one)
        for n in range(1, cap + 1):
            xpow = xpow * xi
            row.add_term(n, xpow.scale(_hook_content((n,), ring, inverse)))
        out = out * row
    return out


def curve_residual(strip: StripGeometry, z: QSeries, ring=SYMBOLIC) -> QSeries:
    """Apply the quantum curve to z and return what is left over.

        residual = sigma_q(z) * prod_j (1 - t b_j x) - z * prod_i (1 - t a_i x)

    This is the operator y^ * B(x^) + A(x^) acting on z, where y^ sends
    f(x) to -f(qx) and is applied after the multiplication by B.  Which of
    the two interval polynomials rides with the shift, and the sign of the
    shift, are fixed by requiring the one-vertex strip to be annihilated
    (classically the two pairings describe the same curve, read through
    y -> 1/y).  The module tests pin the degree-one cancellation by hand.
    """
    curve = mirror_and_quantum(strip, ring)
    a_poly = QSeries.from_list(curve["quantum"]["A"], z.cap, ring)
    b_poly = QSeries.from_list(curve["quantum"]["B"], z.cap, ring)
    return sigma_q(z) * b_poly - z * a_poly


def verify_annihilation(types: str, cap: int, ring=SYMBOLIC) -> dict:
    """Check that the quantum curve kills the reduced solution through x^cap."""
    strip = StripGeometry(types)
    alphas, betas = strip_params(strip, ring)
    r = curve_residual(strip, _reduced_solution(alphas, betas, cap, ring), ring)
    return check_report("curve-annihilation", r, cap + 1, types=types, cap=cap)
