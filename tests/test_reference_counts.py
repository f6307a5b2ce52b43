"""Exact counts against the point-by-point routes they replaced.

``grid_count_exact`` is the earlier degree-one count: it evaluates the whole
counting polynomial, plus the planar correction, at every point of
range(b, d_1 + 1) x ... x range(b, d_n + 1) and weights each point by the
product of the tree-transform coefficients.  ``multipoly_value`` evaluates
through ``MultiPoly.evaluate``.  ``term_walk`` is the earlier
``CountPolynomial.weighted_sum``, one pass over the expanded monomials.
``lattice_weighted_sum`` is the walk over the sub-multisets of the m-basis
that rebuilt its lattice on every call, before the evaluation plan was held
on the polynomial.  All four are kept here only as references.
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.pipeline import (B_ONLY, CountPolynomial, DomainError, a_transform_coeff,
                              count_exact, girth_count, nhat, planar_correction)
from irrmaps.ring import MultiPoly

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


def lattice_weighted_sum(count, b, faces):
    """``CountPolynomial.weighted_sum`` with its lattice rebuilt on each call:
    V_0(()) = 1 and V_i(mu) = V_{i-1}(mu) m_i[0] + sum_a V_{i-1}(mu - a)
    m_i[2a] over the distinct parts a of each sub-multiset mu, and the sum
    is sum_lambda c_lambda(b) V_n(lambda)."""
    if len(faces) != count.nfaces:
        raise DomainError(f"expected {count.nfaces} degrees, got {len(faces)}")
    # each sub-multiset with its (2a, mu - a) for the distinct parts a
    steps = {}
    level = set(count.mlambda)
    while level:
        for mu in level:
            steps[mu] = [(2 * a, mu[:j] + mu[j + 1:])
                         for j, a in enumerate(mu) if j == 0 or mu[j - 1] != a]
        level = {rest for mu in level for _, rest in steps[mu]} - steps.keys()
    exps = {0} | {e for s in steps.values() for e, _ in s}
    # longest first, so that V(mu - a) still holds the previous face
    order = sorted(steps, key=len, reverse=True)
    V = dict.fromkeys(order, 0)
    V[()] = 1
    for face in faces:
        m = {e: sum(w * p ** e for p, w in face) for e in exps}
        for mu in order:
            V[mu] = V[mu] * m[0] + sum(V[rest] * m[e] for e, rest in steps[mu])
    den = lcm(*(c.den for c in count.mlambda.values()))
    total = sum(sum(bc * b ** k for (k,), bc in c.num.items()) * (den // c.den) * V[lam]
                for lam, c in count.mlambda.items())
    return Fraction(total, den)


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


@settings(max_examples=150, deadline=None)
@given(weighted_faces(), st.lists(st.integers(0, 6), min_size=1, max_size=3))
def test_planned_weighted_sum_matches_the_lattice_walk_and_the_term_walk(case, bs):
    genus, n, b, faces = case
    count = nhat(genus, n)
    got = count.weighted_sum(b, faces)
    assert got == lattice_weighted_sum(count, b, faces) == term_walk(count, b, faces)
    # the several-b path reads every b from one walk
    assert count._weighted_sums(bs, faces) == [count.weighted_sum(x, faces) for x in bs]


@pytest.mark.parametrize("b", [0, 1, 3])
def test_planned_weighted_sum_of_the_zero_polynomial(b):
    zero = CountPolynomial(0, 3, {})
    faces = [((2, 1),), ((3, 5), (4, 7)), ((b + 1, 2),)]
    assert zero.weighted_sum(b, faces) == lattice_weighted_sum(zero, b, faces) == 0
    assert zero._weighted_sums((b, b + 1), faces) == [0, 0]
    with pytest.raises(DomainError):
        zero.weighted_sum(b, faces[:2])


@pytest.mark.parametrize("b", [0, 1, 3])
def test_planned_weighted_sum_of_a_constant_in_the_half_degrees(b):
    # only the key (): c(b) times the product of the face weights
    c = MultiPoly(B_ONLY, {(0,): Fraction(5, 6), (2,): Fraction(-1, 4)})
    count = CountPolynomial(1, 2, {(): c})
    faces = [((2, 3), (5, 7)), ((4, 2),)]
    want = c.evaluate({"b": b}).as_fraction() * 10 * 2
    assert count.weighted_sum(b, faces) == lattice_weighted_sum(count, b, faces) == want
    assert count._weighted_sums((b, 0), faces) == [want, 2 * 10 * Fraction(5, 6)]
