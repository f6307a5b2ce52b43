"""Exact counts against the point-by-point routes they replaced.

``grid_count_exact`` is the earlier degree-one count: it evaluates the whole
counting polynomial, plus the planar correction, at every point of
range(b, d_1 + 1) x ... x range(b, d_n + 1) and weights each point by the
product of the tree-transform coefficients.  ``multipoly_value`` evaluates
through ``MultiPoly.evaluate``.  ``term_walk`` is the earlier
``CountPolynomial.weighted_sum``, one pass over the expanded monomials.
All three are kept here only as references.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.pipeline import (a_transform_coeff, count_exact, girth_count, nhat,
                              planar_correction)

from test_reference_mbasis import expand

PAIRS = [(0, 3), (0, 4), (0, 5), (0, 6), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


def multipoly_value(genus, n, b, degrees):
    assign = {"b": b}
    assign.update({f"l{i}": d for i, d in enumerate(degrees, start=1)})
    return expand(nhat(genus, n)).evaluate(assign).as_fraction()


def grid_count_exact(genus, n, b, degrees):
    total = Fraction(0)
    for ptuple in product(*[range(b, d + 1) for d in degrees]):
        w = Fraction(1)
        for ell, p in zip(degrees, ptuple):
            w *= a_transform_coeff(b, ell, p)
        if w:
            total += w * (multipoly_value(genus, n, b, ptuple)
                          + planar_correction(genus, n, b, ptuple))
    return total


def term_walk(count, b, faces):
    """Sum of w_1 ... w_n N(b; p_1, ..., p_n) over one weighted point (p_i,
    w_i) from each ``faces[i]``: each term c b^k prod_i l_i^(e_i) of the
    expanded polynomial contributes c b^k prod_i m_i[e_i], with the moment
    m_i[e] = sum over (p, w) in faces[i] of w p^e."""
    points = [((b, 1),)] + list(faces)
    tables = [{} for _ in points]
    total = 0
    poly = expand(count)
    for exps, c in poly.num.items():
        for table, face, e in zip(tables, points, exps):
            if e not in table:
                table[e] = sum(w * p ** e for p, w in face)
            c *= table[e]
        total += c
    return Fraction(total, poly.den)


def small_tuples(n, b):
    lo = max(b, 1)
    # the grid has prod (d_i - b + 1) points: keep it to a few hundred
    span = 3 if n <= 4 else 2
    return combinations_with_replacement(range(lo, lo + span), n)


@pytest.mark.parametrize("genus,n", PAIRS)
def test_degree_one_counts_match_the_grid_sum(genus, n):
    for b in range(3):
        for degrees in small_tuples(n, b):
            assert count_exact(genus, n, b, degrees, allow_degree_one=True) \
                == grid_count_exact(genus, n, b, degrees), (b, degrees)


@pytest.mark.parametrize("n", [4, 5, 6])
@pytest.mark.parametrize("b", [1, 2])
def test_planar_correction_points_match_the_grid_sum(n, b):
    degrees = (b,) * n
    correction = planar_correction(0, n, b, degrees)
    assert correction != 0
    assert count_exact(0, n, b, degrees) == multipoly_value(0, n, b, degrees) + correction
    assert count_exact(0, n, b, degrees, allow_degree_one=True) == \
        grid_count_exact(0, n, b, degrees)


@pytest.mark.parametrize("genus,n", PAIRS)
def test_plain_and_girth_counts_match_multipoly_evaluate(genus, n):
    for b in range(3):
        for degrees in small_tuples(n, b):
            assert count_exact(genus, n, b, degrees) == multipoly_value(
                genus, n, b, degrees) + planar_correction(genus, n, b, degrees)
            assert nhat(genus, n).evaluate(b, degrees) == multipoly_value(
                genus, n, b, degrees)
            if b >= 1:
                assert girth_count(genus, n, b, degrees) == multipoly_value(
                    genus, n, b - 1, degrees)
            if b >= 1 and min(degrees) > b:
                assert girth_count(genus, n, b, degrees, mode="exactly") == \
                    multipoly_value(genus, n, b - 1, degrees) \
                    - multipoly_value(genus, n, b, degrees)


@st.composite
def admissible(draw):
    genus, n = draw(st.sampled_from(PAIRS[:3] + PAIRS[4:]))
    b = draw(st.integers(0, 3))
    lo = max(b, 1)
    span = 4 if n <= 3 else 2
    degrees = tuple(draw(st.integers(lo, lo + span)) for _ in range(n))
    return genus, n, b, degrees


@settings(max_examples=40, deadline=None)
@given(admissible())
def test_degree_one_count_matches_the_grid_sum_on_random_tuples(case):
    assert count_exact(*case, allow_degree_one=True) == grid_count_exact(*case)


@st.composite
def weighted_faces(draw):
    genus, n = draw(st.sampled_from(PAIRS + [(0, 8), (1, 5), (2, 4)]))
    b = draw(st.integers(0, 4))
    degrees = [draw(st.integers(max(b, 1), max(b, 1) + 6)) for _ in range(n)]
    if draw(st.booleans()):
        # degree-one vertices: the transform weights, scaled to integers
        faces = [[(p, int(d * a_transform_coeff(b, d, p))) for p in range(b, d + 1)]
                 for d in degrees]
    else:
        faces = [((d, 1),) for d in degrees]
    return genus, n, b, faces


@settings(max_examples=150, deadline=None)
@given(weighted_faces())
def test_weighted_sum_over_the_m_basis_matches_the_term_walk(case):
    genus, n, b, faces = case
    count = nhat(genus, n)
    assert count.weighted_sum(b, faces) == term_walk(count, b, faces)
