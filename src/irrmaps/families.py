"""Special power-series families and the Q-polynomial table.

The counting pipeline is built out of two hypergeometric-style series in a
formal variable r,

    I(b, l; r) = sum_p r^p / (p!)^2 * prod_{m=0}^{p-1} (l^2 - (b-m)^2)
               = 2F1(l - b, -l - b; 1; -r),
    J(b; r)    = sum_{p>=1} (-1)^(p+1) r^p / (p! (p-1)!)
                 * prod_{m=0}^{p-2} (b-m)(b-m-1)
               = r * 2F1(1 - b, -b; 2; -r),

their compositional inverse J^{-1}, binomial powers (1+r)^(c0 + c1*b) with a
symbolic exponent, and the family Q_p(b, j) of operator-coefficient
polynomials defined by the binomial-sum identity

    sum_{k=b}^{j-1} C(2k+1+p, 2p+1) C(2j-1, j+k) = C(2j-1, j+b) Q_p(b, j)

for integers j > b >= 0.  Q_p is unique of degree 2p+1 in b and p+1 in j; it
is recovered here by exact bivariate interpolation on a grid of evaluations
of the left-hand sum, then certified against a disjoint grid, the companion
alternating-sum identity, the vanishing Q_p(b, -b) = 0, and the degree
bounds before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

from .ring import MultiPoly, Series

#: generator context for Q polynomials
Q_GENS = ("b", "j")


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


def series_I(order: int, gens, ell: str = "l") -> Series:
    """The series I(b, ell; r) truncated at ``order``.

    Coefficients are polynomials in b and ell^2; the coefficient of r^p has
    degree exactly p in ell^2.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    gens = tuple(gens)
    bp = MultiPoly.variable(gens, "b")
    lp2 = MultiPoly.variable(gens, ell) ** 2
    zero = MultiPoly(gens)
    coeffs = [MultiPoly.constant(gens, 1)]
    prod = MultiPoly.constant(gens, 1)
    for p in range(1, order + 1):
        m = p - 1
        prod = prod * (lp2 - (bp - m) ** 2)
        coeffs.append(prod * Fraction(1, _factorial(p) ** 2))
    return Series(coeffs, order, zero)


def series_J(order: int, gens) -> Series:
    """The series J(b; r) truncated at ``order`` (valuation 1, J'(0) = 1)."""
    if order < 1:
        raise ValueError("order must be at least 1")
    gens = tuple(gens)
    bp = MultiPoly.variable(gens, "b")
    zero = MultiPoly(gens)
    coeffs = [zero, MultiPoly.constant(gens, 1)]
    prod = MultiPoly.constant(gens, 1)
    for p in range(2, order + 1):
        m = p - 2
        prod = prod * (bp - m) * (bp - m - 1)
        c = Fraction((-1) ** (p + 1), _factorial(p) * _factorial(p - 1))
        coeffs.append(prod * c)
    return Series(coeffs, order, zero)


def series_J_inverse(order: int, gens) -> Series:
    """Compositional inverse of J: the unique g with J(b; g(z)) = z + O(z^order+1)."""
    return series_J(order, gens).reverse(order)


def power_one_plus_r(c0: int, c1: int, order: int, gens) -> Series:
    """(1 + r)^(c0 + c1*b) as a truncated binomial series.

    The exponent may be any integer-linear expression in the generator b;
    the coefficient of r^k is binom(c0 + c1*b, k) expanded as a polynomial.
    """
    gens = tuple(gens)
    alpha = MultiPoly.constant(gens, c0) + MultiPoly.variable(gens, "b") * c1
    zero = MultiPoly(gens)
    coeffs = [MultiPoly.constant(gens, 1)]
    acc = MultiPoly.constant(gens, 1)
    for k in range(1, order + 1):
        acc = acc * (alpha - (k - 1)) * Fraction(1, k)
        coeffs.append(acc)
    return Series(coeffs, order, zero)


@lru_cache(maxsize=None)
def _factorial(n: int) -> int:
    out = 1
    for k in range(2, n + 1):
        out *= k
    return out


# ============================================================
# Q polynomials
# ============================================================


def qpoly_direct_sum(p: int, b: int, j: int) -> int:
    """Left-hand binomial sum sum_{k=b}^{j-1} C(2k+1+p, 2p+1) C(2j-1, j+k)."""
    if not (j > b >= 0):
        raise ValueError("requires j > b >= 0")
    return sum(comb(2 * k + 1 + p, 2 * p + 1) * comb(2 * j - 1, j + k)
               for k in range(b, j))


def qpoly_direct_sum_oracle(p: int, b: int, j: int) -> Fraction:
    """The sum above divided by C(2j-1, j+b): an exact evaluation of Q_p(b, j)."""
    return Fraction(qpoly_direct_sum(p, b, j), comb(2 * j - 1, j + b))


def qpoly_alternating_sum(p: int, b: int, m: int) -> int:
    """Companion sum sum_{k=m}^{b-1} C(2k+1+p, 2p+1) (-1)^(k+m) C(k+m, 2m)."""
    if not (b > m >= 0):
        raise ValueError("requires b > m >= 0")
    return sum(comb(2 * k + 1 + p, 2 * p + 1) * (-1) ** (k + m) * comb(k + m, 2 * m)
               for k in range(m, b))


def _lagrange_interpolate(points, gens, name: str) -> MultiPoly:
    """Exact univariate Lagrange interpolation.

    ``points`` is a list of (integer abscissa, value), the values being
    Fractions or MultiPoly over ``gens``.
    """
    gens = tuple(gens)
    x = MultiPoly.variable(gens, name)
    total = MultiPoly(gens)
    for i, (xi, yi) in enumerate(points):
        basis = MultiPoly.constant(gens, 1)
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            basis = basis * (x - xk)
            denom *= Fraction(xi - xk)
        term = basis * (Fraction(1) / denom)
        if isinstance(yi, MultiPoly):
            total = total + term * yi
        else:
            total = total + term * Fraction(yi)
    return total


class QPolyTable:
    """Interpolated table of the polynomials Q_p(b, j), p = 0..p_max.

    Every entry is certified before use; construction raises
    :class:`ConsistencyError` if any cross-check fails.
    """

    def __init__(self, p_max: int = 4):
        if p_max < 0:
            raise ValueError("p_max must be nonnegative")
        self.p_max = p_max
        self.entries: dict[int, MultiPoly] = {}
        for p in range(p_max + 1):
            q = self._interpolate(p)
            self._certify(p, q)
            self.entries[p] = q

    def __getitem__(self, p: int) -> MultiPoly:
        return self.entries[p]

    @staticmethod
    def _interpolate(p: int) -> MultiPoly:
        # degree 2p+1 in b needs 2p+2 nodes; degree p+1 in j needs p+2 nodes.
        b_nodes = list(range(0, 2 * p + 2))
        per_b: list[tuple[int, MultiPoly]] = []
        for b0 in b_nodes:
            pts = [(j0, qpoly_direct_sum_oracle(p, b0, j0))
                   for j0 in range(b0 + 1, b0 + p + 3)]
            per_b.append((b0, _lagrange_interpolate(pts, Q_GENS, "j")))
        return _lagrange_interpolate(per_b, Q_GENS, "b")

    @staticmethod
    def _certify(p: int, q: MultiPoly) -> None:
        if q.degree_in("b") != 2 * p + 1 or q.degree_in("j") != p + 1:
            raise ConsistencyError(
                f"Q_{p} has degrees ({q.degree_in('b')}, {q.degree_in('j')}), "
                f"expected ({2 * p + 1}, {p + 1})")
        # vanishing along j = -b
        minus_b = -MultiPoly.variable(Q_GENS, "b")
        if not q.substitute("j", minus_b).is_zero():
            raise ConsistencyError(f"Q_{p}(b, -b) != 0")
        # disjoint verification grid, at least 30 points
        checked = 0
        for b0 in range(0, max(2 * p + 3, 10)):
            for j0 in range(b0 + p + 3, b0 + p + 6):
                expect = qpoly_direct_sum_oracle(p, b0, j0)
                got = q.evaluate({"b": b0, "j": j0}).as_fraction()
                if got != expect:
                    raise ConsistencyError(
                        f"Q_{p} disagrees with the direct sum at (b, j) = ({b0}, {j0})")
                checked += 1
        if checked < 30:
            raise ConsistencyError("verification grid too small")
        # alternating-sum identity at negative second argument
        for b0 in range(1, p + 4):
            for m in range(0, b0):
                lhs = qpoly_alternating_sum(p, b0, m)
                rhs = -((-1) ** (b0 + m)) * comb(b0 + m, 2 * m) \
                    * q.evaluate({"b": b0, "j": -m}).as_fraction()
                if lhs != rhs:
                    raise ConsistencyError(
                        f"Q_{p} fails the alternating-sum identity at (b, m) = ({b0}, {m})")


@lru_cache(maxsize=None)
def qpoly_table(p_max: int = 4) -> QPolyTable:
    return QPolyTable(p_max)
