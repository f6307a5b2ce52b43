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

for integers j > b >= 0.  Q_p is unique of degree 2p+1 in b and p+1 in j.
Genus g reads the moments p = 0..3g-3, so genus <= 2 needs Q_0..Q_3 only;
the table holds their closed forms, and ``verify --suite qpoly`` checks
them against the binomial sums of the definition.

Each family has one generator context: I is over (b, l), J, J^{-1} and the
binomial powers over ``ring.B_ONLY`` = (b,), and the Q table, Q_0..Q_3 as
one cached tuple, over (b, j).  J^{-1} and ``pipeline.solve_R_hat``'s R
are the roots of one equation, J(b; R) = t + sum_i e_i I(b, l_i; R), with
the faces or with t alone, and :func:`solve_root` finds both in the graded
ring: for J^{-1}, t is the degree-one marker E_0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .ring import B_ONLY, GradedSeries, MultiPoly, Series, _graded

#: generator context of I
I_GENS = ("b", "l")

#: generator context for Q polynomials
Q_GENS = ("b", "j")


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


def series_I_rows(order: int) -> list[tuple[list[list[int]], int]]:
    """[r^p] I for p = 0..``order`` as (rows, (p!)^2), rows[i] the int
    coefficients, by power of b, of [x^i] prod_{m<p} (x - (b - m)^2) in
    x = l^2: each product is the one before times x - (b - p + 1)^2.  The
    lists are fresh on every call."""
    out, rows = [], [[1]]
    for p in range(order + 1):
        out.append((rows, factorial(p) ** 2))
        # times x - (b - p)^2 = x - p^2 + 2p b - b^2
        nxt = [[0] * (2 * p + 3)] + [list(row) for row in rows]
        for i, row in enumerate(rows):
            for k, c in enumerate(row):
                nxt[i][k] -= c * p * p
                nxt[i][k + 1] += 2 * p * c
                nxt[i][k + 2] -= c
        rows = nxt
    return out


def series_I(order: int) -> Series:
    """The series I(b, l; r) truncated at ``order``, over :data:`I_GENS`.

    Coefficients are polynomials in b and l^2, read off
    :func:`series_I_rows`; the coefficient of r^p has degree exactly p in l^2.
    """
    if order < 0:
        raise ValueError("order must be nonnegative")
    coeffs = [MultiPoly.from_numerators(I_GENS, {(k, 2 * i): c for i, row in enumerate(rows)
                                                 for k, c in enumerate(row)}, den)
              for rows, den in series_I_rows(order)]
    return Series(coeffs, order, MultiPoly(I_GENS))


def series_J(order: int) -> Series:
    """The series J(b; r) truncated at ``order`` (valuation 1, J'(0) = 1),
    over :data:`B_ONLY`."""
    if order < 1:
        raise ValueError("order must be at least 1")
    coeffs, row = [MultiPoly(B_ONLY)], [1]
    for p in range(1, order + 1):
        coeffs.append(MultiPoly.from_numerators(
            B_ONLY, {(k,): c for k, c in enumerate(row) if c}, factorial(p) * factorial(p - 1)))
        # times -(b - p + 1)(b - p) = -b^2 + (2p - 1) b - p(p - 1)
        nxt = [0] * (len(row) + 2)
        for k, c in enumerate(row):
            nxt[k] -= c * p * (p - 1)
            nxt[k + 1] += c * (2 * p - 1)
            nxt[k + 2] -= c
        row = nxt
    return Series(coeffs, order, coeffs[0])


def solve_root(Z: Series, cap: int) -> GradedSeries:
    """The root R of Z(R) = 0 in the graded ring at ``cap``, for an r-series
    Z of order at least ``cap`` with graded coefficients at ``cap``, equal
    to r up to terms of grading degree >= 1 and terms O(r^2) of degree 0.

    Degree by degree, by the fixed point R <- R - Z(R): round k = 1..cap
    composes Z, truncated to order and cap k, into the round k - 1 result
    lifted to cap k, which settles exactly grading degree k of R, since
    degree k of R - Z(R) reads R only below degree k.  Each round must
    reproduce the previous one below its top degree; a mismatch is an
    internal error.
    """
    R = GradedSeries(0)
    for k in range(1, cap + 1):
        lift = _graded(k, R.num, R.den)
        Z_k = Series([c.truncate(k) for c in Z.coeffs[:k + 1]], k, GradedSeries(k))
        R_next = lift - Z_k.compose(lift)
        if R_next.truncate(k - 1) != R:
            raise ConsistencyError(f"round {k} of the root solve changed lower degrees")
        R = R_next
    return R


def series_J_inverse(order: int) -> Series:
    """Compositional inverse of J over :data:`B_ONLY`: the unique g with
    J(b; g(t)) = t + O(t^(order+1)), the root R of J(b; R) = t with no faces.

    :func:`solve_root` solves Z(r) = J(b; r) - E_0 at cap ``order``, the
    marker E_0 = M_(0) standing for t.  E_0^k = M_(0,...,0) with k zeros, so
    the coefficient of t^k is the one of that key.
    """
    E_0 = GradedSeries(order, {(0,): MultiPoly.constant(B_ONLY, 1)})
    Z = -Series([E_0], order, GradedSeries(order)) + series_J(order)
    R = solve_root(Z, order).terms
    zero = MultiPoly(B_ONLY)
    return Series([R.get((0,) * k, zero) for k in range(order + 1)], order, zero)


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


@lru_cache(maxsize=None)
def qpoly_table() -> tuple[MultiPoly, ...]:
    """The polynomials Q_0..Q_3 over :data:`Q_GENS`, indexed by p, from
    their closed forms, built once; ``verify.verify_qpoly`` checks them
    against the binomial-sum definition."""
    b = MultiPoly.variable(Q_GENS, "b")
    j = MultiPoly.variable(Q_GENS, "j")
    return (
        b + j,
        (b + j) * (b ** 2 + j - 1) * Fraction(2, 3),
        (b + j) * (b ** 4 * 4 + b ** 2 * (j * 8 - 15)
                   + (j - 1) * (j * 8 - 11)) * Fraction(1, 30),
        (b + j) * (b ** 6 * 4 + b ** 4 * (j * 12 - 35)
                   + b ** 2 * (j * j * 24 - j * 90 + 91)
                   + (j - 1) * (j - 2) * (j * 4 - 5) * 6) * Fraction(1, 315),
    )
