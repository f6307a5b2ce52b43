"""The b-structure of the counting polynomials.

Write N-hat_{g,n} = sum_lambda c_lambda(b) m_lambda(l_1^2, ..., l_n^2) and
D = 3g - 3 + n.  On all 27 guarded (g, n) the coefficients satisfy:

- every partition has |lambda| <= D, and |lambda| = D is reached;
- c_lambda(b) = c_lambda(-1 - b);
- deg_b c_lambda <= 2(D - |lambda|), so c_lambda is free of b when
  |lambda| = D.

These facts are observed on the 27 polynomials, not cited: the paper
proves only that the dependence on b is polynomial.
"""

from math import comb

import pytest

from irrmaps.pipeline import B_ONLY, CountPolynomial, nhat
from irrmaps.ring import MultiPoly

from test_serialize import GUARDED


def _reflected(c: MultiPoly) -> MultiPoly:
    """c(-1 - b) for a polynomial c over ("b",)."""
    out = {}
    for (k,), a in c.terms.items():
        for j in range(k + 1):
            out[(j,)] = out.get((j,), 0) + (-1) ** k * comb(k, j) * a
    return MultiPoly(B_ONLY, out)


def b_structure_failures(count: CountPolynomial) -> list:
    """The partitions lambda of ``count.mlambda`` with |lambda| > D, with a
    c_lambda that changes under b -> -1 - b, or with deg_b c_lambda above
    2(D - |lambda|); at |lambda| = D the bound asks for a constant."""
    top = 3 * count.genus - 3 + count.nfaces
    return [lam for lam, c in count.mlambda.items()
            if sum(lam) > top or _reflected(c) != c
            or max(k for (k,) in c.terms) > 2 * (top - sum(lam))]


@pytest.mark.parametrize("genus,n", GUARDED)
def test_every_guarded_polynomial_has_the_b_structure(genus, n):
    count = nhat(genus, n)
    assert b_structure_failures(count) == []
    assert max(sum(lam) for lam in count.mlambda) == 3 * genus - 3 + n


def test_a_flipped_odd_power_of_b_is_named():
    # the sign of one odd-power b numerator flipped in one guarded polynomial
    real = nhat(1, 2)
    lam, c = next((lam, c) for lam, c in real.mlambda.items()
                  if any(k % 2 for (k,) in c.terms))
    k = min(k for (k,) in c.terms if k % 2)
    flipped = MultiPoly(B_ONLY, {**c.terms, (k,): -c.terms[(k,)]})
    assert b_structure_failures(CountPolynomial(1, 2, {**real.mlambda, lam: flipped})) == [lam]
