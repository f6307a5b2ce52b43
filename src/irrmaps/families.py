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

Each family has one generator context: I is over (b, l), J, J^{-1} and the
binomial powers over ``ring.B_ONLY`` = (b,), and the Q table, Q_0..Q_4 as
one cached tuple, over (b, j).  J^{-1} is solved by a fixed point, the
way ``pipeline.solve_R_hat`` solves R.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .ring import B_ONLY, MultiPoly, Series

#: generator context of I
I_GENS = ("b", "l")

#: generator context for Q polynomials
Q_GENS = ("b", "j")


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


def series_I(order: int) -> Series:
    """The series I(b, l; r) truncated at ``order``, over :data:`I_GENS`.

    Coefficients are polynomials in b and l^2; the coefficient of r^p has
    degree exactly p in l^2.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    bp = MultiPoly.variable(I_GENS, "b")
    lp2 = MultiPoly.variable(I_GENS, "l") ** 2
    coeffs = [MultiPoly.constant(I_GENS, 1)]
    prod = MultiPoly.constant(I_GENS, 1)
    for p in range(1, order + 1):
        m = p - 1
        prod = prod * (lp2 - (bp - m) ** 2)
        coeffs.append(prod * Fraction(1, factorial(p) ** 2))
    return Series(coeffs, order, MultiPoly(I_GENS))


def series_J(order: int) -> Series:
    """The series J(b; r) truncated at ``order`` (valuation 1, J'(0) = 1),
    over :data:`B_ONLY`."""
    if order < 1:
        raise ValueError("order must be at least 1")
    bp = MultiPoly.variable(B_ONLY, "b")
    zero = MultiPoly(B_ONLY)
    coeffs = [zero, MultiPoly.constant(B_ONLY, 1)]
    prod = MultiPoly.constant(B_ONLY, 1)
    for p in range(2, order + 1):
        m = p - 2
        prod = prod * (bp - m) * (bp - m - 1)
        c = Fraction((-1) ** (p + 1), factorial(p) * factorial(p - 1))
        coeffs.append(prod * c)
    return Series(coeffs, order, zero)


def series_J_inverse(order: int) -> Series:
    """Compositional inverse of J over :data:`B_ONLY`: the unique g with
    J(b; g(z)) = z + O(z^(order+1)), the root R of J(b; R) = t with no faces.

    Order by order, by the fixed point g = z + N(g) with
    N(r) = r - J(b; r) = O(r^2): from g = z at order 1, round
    k = 2..order composes N, truncated to order k, into the round k - 1
    result lifted to order k, which settles exactly the z^k coefficient,
    since that coefficient of N(g) reads g only below order k.  Each round
    must reproduce the previous one below order k; a mismatch is an
    internal error.
    """
    zero = MultiPoly(B_ONLY)
    z = Series([zero, MultiPoly.constant(B_ONLY, 1)], order, zero)
    N = z - series_J(order)
    g = z.truncate(1)
    for k in range(2, order + 1):
        g_next = z + N.truncate(k).compose(Series(g.coeffs, k, zero))
        if g_next.truncate(k - 1) != g:
            raise ConsistencyError(f"round {k} of the solve for J^-1 changed lower orders")
        g = g_next
    return g


def power_one_plus_r(c0: int, c1: int, order: int) -> Series:
    """(1 + r)^(c0 + c1*b) as a truncated binomial series over :data:`B_ONLY`.

    The exponent may be any integer-linear expression in b; the coefficient
    of r^k is binom(c0 + c1*b, k) expanded as a polynomial.
    """
    alpha = MultiPoly.constant(B_ONLY, c0) + MultiPoly.variable(B_ONLY, "b") * c1
    coeffs = [MultiPoly.constant(B_ONLY, 1)]
    acc = MultiPoly.constant(B_ONLY, 1)
    for k in range(1, order + 1):
        acc = acc * (alpha - (k - 1)) * Fraction(1, k)
        coeffs.append(acc)
    return Series(coeffs, order, MultiPoly(B_ONLY))


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


def _lagrange_interpolate(points, name: str) -> MultiPoly:
    """Exact univariate Lagrange interpolation in the generator ``name`` of
    :data:`Q_GENS`.

    ``points`` is a list of (integer abscissa, value), the values being
    Fractions or MultiPoly over :data:`Q_GENS`.
    """
    x = MultiPoly.variable(Q_GENS, name)
    total = MultiPoly(Q_GENS)
    for i, (xi, yi) in enumerate(points):
        basis = MultiPoly.constant(Q_GENS, 1)
        denom = Fraction(1)
        for k, (xk, _) in enumerate(points):
            if k == i:
                continue
            basis = basis * (x - xk)
            denom *= Fraction(xi - xk)
        total = total + basis * (Fraction(1) / denom) * yi
    return total


def _interpolate(p: int) -> MultiPoly:
    # degree 2p+1 in b needs 2p+2 nodes; degree p+1 in j needs p+2 nodes.
    per_b = []
    for b0 in range(0, 2 * p + 2):
        pts = [(j0, qpoly_direct_sum_oracle(p, b0, j0))
               for j0 in range(b0 + 1, b0 + p + 3)]
        per_b.append((b0, _lagrange_interpolate(pts, "j")))
    return _lagrange_interpolate(per_b, "b")


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
def qpoly_table() -> tuple[MultiPoly, ...]:
    """The polynomials Q_0..Q_4 over :data:`Q_GENS`, indexed by p, built
    once.  Every entry is certified before use: construction raises
    :class:`ConsistencyError` if any cross-check fails."""
    table = []
    for p in range(5):
        q = _interpolate(p)
        _certify(p, q)
        table.append(q)
    return tuple(table)
