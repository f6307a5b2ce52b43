"""The fundamental-group layer of the oracle: dart words, relator, Dehn."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irrmaps.oracle import (GluingSpec, HalfEdgeMap, OracleError, Pi1Words,
                            _inverse, _reduce, brute_count, check_irreducible,
                            polygon_layout)
from irrmaps.pipeline import count_exact
from test_reference_cover import ball_verdict
from test_reference_search import enumerate_matchings

F = Fraction

TORUS = [(0, 2), (1, 3)]
OCTAGON = [(0, 2), (1, 3), (4, 6), (5, 7)]   # a b a^-1 b^-1 c d c^-1 d^-1


def face_walks(hm):
    nxt, _, offsets = polygon_layout(hm.degrees)
    for p in range(len(hm.degrees)):
        walk = [offsets[p]]
        while nxt[walk[-1]] != walk[0]:
            walk.append(nxt[walk[-1]])
        yield walk


def word_of(words, walk):
    return [x for d in walk for x in words.word[d]]


@st.composite
def higher_genus_gluings(draw):
    """A connected gluing of genus >= 1 of up to four polygons, 2-6 sides each."""
    degrees = tuple(draw(st.lists(st.integers(1, 3), min_size=1, max_size=4)))
    perm = draw(st.permutations(range(2 * sum(degrees))))
    hm = HalfEdgeMap(degrees, list(zip(perm[::2], perm[1::2])))
    assume(hm.connected and hm.genus >= 1)
    return hm


@settings(max_examples=100, deadline=None)
@given(higher_genus_gluings())
def test_relator_uses_each_letter_once_with_each_sign(hm):
    words = Pi1Words(hm)
    g = hm.genus
    assert len(words.relator) == 4 * g
    assert sorted(words.relator) == [x for x in range(-2 * g, 2 * g + 1) if x]
    for d in range(hm.S):
        assert list(words.word[hm.partner[d]]) == _inverse(words.word[d])


@settings(max_examples=100, deadline=None)
@given(higher_genus_gluings())
def test_every_face_word_is_the_identity(hm):
    words = Pi1Words(hm)
    for p, walk in enumerate(face_walks(hm)):
        w = word_of(words, walk)
        assert words.is_trivial(w)
        if p:  # faces other than the root face reduce freely to nothing
            assert _reduce(w) == []
        # a face is a closed walk with zero homology: its steps sum to zero
        assert sum(words.steps(len(walk))[d] for d in walk) == 0


def test_square_torus_words():
    hm = HalfEdgeMap((2,), TORUS)
    words = Pi1Words(hm)
    assert words.is_trivial(word_of(words, range(4)))
    a, b = list(words.word[0]), list(words.word[1])
    assert not words.is_trivial(a)
    assert not words.is_trivial(b)
    assert not words.is_trivial(a + b)
    assert words.is_trivial(a + b + _inverse(a) + _inverse(b))   # Z^2 is abelian


def test_planar_maps_have_no_fundamental_group_words():
    with pytest.raises(OracleError):
        Pi1Words(HalfEdgeMap((1, 1, 1), [(1, 2), (3, 4), (5, 0)]))


def _genus_two_maps():
    out = []
    for degrees in [(4,), (2, 2, 1)]:
        def visit(m, degrees=degrees):
            hm = HalfEdgeMap(degrees, m)
            if hm.connected and hm.genus == 2:
                out.append(hm)
        enumerate_matchings(degrees, visit)
    return out[::7]


GENUS_TWO = [HalfEdgeMap((4,), OCTAGON)] + _genus_two_maps()


def cyclic_conjugates(r):
    return [list(r[i:] + r[:i]) for i in range(len(r))]


@pytest.mark.parametrize("hm", GENUS_TWO, ids=lambda hm: str(hm.partner))
def test_genus_two_relator_conjugates_are_trivial_and_generators_are_not(hm):
    words = Pi1Words(hm)
    r = words.relator
    for c in cyclic_conjugates(r) + cyclic_conjugates(tuple(_inverse(r))):
        assert words.is_trivial(c)
        assert words.is_trivial(c + c)
        assert not words.is_trivial(c + [1])
    for x in (1, 2, 3, 4, -1, -2, -3, -4):
        assert not words.is_trivial([x])
    commutator = [1, 2, -1, -2]
    assert not words.is_trivial(commutator)
    # zero homology and longer than 2g: Dehn's algorithm has to decide
    assert not words.is_trivial(commutator * 2)
    assert not words.is_trivial(commutator + [3, 4, -3, -4] + commutator)


letters = st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GENUS_TWO), st.lists(letters, max_size=10),
       st.lists(letters, max_size=10), st.integers(0, 7), st.booleans(),
       st.integers(0, 10))
def test_inserting_a_relator_conjugate_keeps_the_element(hm, u, w, shift, inv, at):
    words = Pi1Words(hm)
    r = list(words.relator)
    c = cyclic_conjugates(tuple(_inverse(r) if inv else r))[shift]
    at = min(at, len(w))
    # u c u^-1 is trivial, and inserting it anywhere in w changes nothing
    assert words.is_trivial(u + c + _inverse(u))
    assert words.is_trivial(w[:at] + u + c + _inverse(u) + w[at:]) == words.is_trivial(w)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(GENUS_TWO), st.lists(letters, min_size=1, max_size=12))
def test_trivial_words_have_zero_homology(hm, w):
    words = Pi1Words(hm)
    if words.is_trivial(w):
        assert all(sum(1 if x == a else -1 for x in w if abs(x) == a) == 0
                   for a in (1, 2, 3, 4))
    assert words.is_trivial(w + _inverse(w))


# genus 1 at b = 1 with three or more faces: the ball of radius b - 1 the
# oracle once used missed contractible 2-cycles here, and the brute count
# came out high
GENUS_ONE_B_ONE = [
    ((1, 2, 3), False), ((1, 2, 4), False), ((1, 3, 4), False), ((2, 3, 4), False),
    ((1, 2, 2, 2), False),
    ((1, 2, 3), True), ((1, 2, 4), True), ((1, 3, 4), True), ((1, 2, 2, 2), True),
]


@pytest.mark.parametrize("degrees,allow", GENUS_ONE_B_ONE)
def test_genus_one_b_one_counts_match_the_formula(degrees, allow):
    got = brute_count(GluingSpec(1, degrees, 1, allow_degree_one=allow))
    assert got == count_exact(1, len(degrees), 1, degrees, allow_degree_one=allow)


@pytest.mark.parametrize("degrees,want", [((2, 2, 3), F(365)), ((1, 2, 4), F(1143, 2)),
                                          ((2, 5), F(1295, 2))])
def test_genus_two_b_one_counts_at_fourteen_sides(degrees, want):
    assert brute_count(GluingSpec(2, degrees, 1)) == want
    assert count_exact(2, len(degrees), 1, degrees) == want


def test_the_word_test_rejects_what_the_radius_zero_ball_missed():
    # the leaf check once built balls of radius b - 1: on (1, 2, 3) at b = 1
    # they accepted maps with a contractible 2-cycle around faces away from
    # its two vertices; the word test rejects them, as does a radius-2b ball
    missed = []

    def visit(m):
        hm = HalfEdgeMap((1, 2, 3), m)
        if hm.connected and hm.genus == 1 and min(map(len, hm.vertices)) >= 2 \
                and not check_irreducible(hm, 1) and ball_verdict(hm, 1, radius=0):
            missed.append(hm)

    enumerate_matchings((1, 2, 3), visit)
    assert missed
    assert not any(ball_verdict(hm, 1) for hm in missed)
