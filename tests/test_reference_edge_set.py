"""The planar leaf check by edge sets, kept as a test-only route.

``edge_set_verdict`` is the genus-0 leaf check the oracle made before one
walk over the cycles of the universal cover served every genus.  A planar
map is simply connected, so every cycle is contractible, and a simple cycle
is determined by its edge set: the map must have no simple cycle shorter
than 2b, and every simple 2b-cycle must equal, as an edge set, the contour
of a face of degree 2b (a contour that repeats an edge is not a simple
cycle and cannot certify).  It shares with ``oracle.check_irreducible``
nothing but the map.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.oracle import HalfEdgeMap, check_irreducible, polygon_layout, simple_cycles_up_to
from test_reference_search import enumerate_matchings


def cycle_graph(hmap):
    """Adjacency view: (num vertices, adj) with adj[v] = [(w, edge id)].

    An edge is named by its lesser dart.
    """
    adj = [[] for _ in hmap.vertices]
    for s, t in enumerate(hmap.partner):
        if s < t:
            u, w = hmap.vertex_of[s], hmap.vertex_of[t]
            adj[u].append((w, s))
            if w != u:
                adj[w].append((u, s))
    return len(hmap.vertices), adj


def face_contours(hmap):
    """(degree, edge set) per face; None when the contour repeats an edge."""
    offsets = polygon_layout(hmap.degrees)[2]
    out = []
    for base, l in zip(offsets, hmap.degrees):
        ids = [min(d, hmap.partner[d]) for d in range(base, base + 2 * l)]
        edges = frozenset(ids)
        out.append((2 * l, edges if len(edges) == 2 * l else None))
    return out


def edge_set_verdict(hmap, b, girth_only=False):
    """Essential 2b-irreducibility of a planar map, from its simple cycles."""
    if hmap.genus:
        raise ValueError("edge sets decide contractibility on planar maps only")
    if b == 0:
        return True
    two_b = 2 * b
    contours = {c for deg, c in face_contours(hmap) if deg == two_b and c is not None}
    for cyc in simple_cycles_up_to(cycle_graph(hmap), two_b):
        if len(cyc) < two_b:
            return False
        if not girth_only and cyc not in contours:
            return False
    return True


def test_face_contours_of_the_theta_and_a_tree():
    theta = HalfEdgeMap((1, 1, 1), [(1, 2), (3, 4), (5, 0)])
    assert [deg for deg, _ in face_contours(theta)] == [2, 2, 2]
    assert all(c is not None and len(c) == 2 for _, c in face_contours(theta))
    # one square glued as a path: its contour walks both edges twice
    path = HalfEdgeMap((2,), [(0, 1), (2, 3)])
    assert face_contours(path) == [(4, None)]
    assert edge_set_verdict(path, 2)


def test_edge_sets_refuse_a_torus():
    with pytest.raises(ValueError):
        edge_set_verdict(HalfEdgeMap((2,), [(0, 2), (1, 3)]), 1)


@st.composite
def planar_gluings(draw):
    """A connected planar gluing of at most 12 sides, as a HalfEdgeMap.

    The polygons are first glued into one disk along a spanning tree of the
    dual, each new polygon by one of its sides to a free side of the disk,
    and the disk's boundary is then closed by a non-crossing matching.
    Cutting a connected planar map along a spanning tree of its dual leaves
    a disk whose sides are so matched, so every such map can be drawn.
    """
    n = draw(st.integers(1, 6))
    budget = 6 - n
    degrees = []
    for _ in range(n):
        extra = draw(st.integers(0, budget))
        budget -= extra
        degrees.append(1 + extra)
    nxt, _, offsets = polygon_layout(tuple(degrees))
    partner = [-1] * len(nxt)

    def around(d):
        """The sides of d's polygon after d, in order, ending before d."""
        out, e = [], nxt[d]
        while e != d:
            out.append(e)
            e = nxt[e]
        return out

    boundary = [offsets[0]] + around(offsets[0])
    for q in draw(st.permutations(range(1, n))):
        i = draw(st.integers(0, len(boundary) - 1))
        s = offsets[q] + draw(st.integers(0, 2 * degrees[q] - 1))
        partner[boundary[i]], partner[s] = s, boundary[i]
        boundary[i:i + 1] = around(s)
    stack = [boundary]
    while stack:
        sides = stack.pop()
        if sides:
            k = draw(st.sampled_from(range(1, len(sides), 2)))
            partner[sides[0]], partner[sides[k]] = sides[k], sides[0]
            stack += [sides[1:k], sides[k + 1:]]
    hmap = HalfEdgeMap(degrees, partner)
    assert hmap.connected and hmap.genus == 0, partner
    return hmap


@settings(max_examples=150, deadline=None)
@given(planar_gluings(), st.integers(1, 3), st.booleans())
def test_leaf_check_matches_edge_sets_on_random_planar_gluings(hmap, b, girth_only):
    assert check_irreducible(hmap, b, girth_only) == \
        edge_set_verdict(hmap, b, girth_only), (hmap.degrees, hmap.partner)


def test_leaf_check_matches_edge_sets_on_every_small_planar_gluing():
    # all connected planar gluings of these tuples, among them maps with
    # degree-one vertices, digon faces and double edges; a planar map with
    # even faces is bipartite, so none has a loop
    seen = {"degree one": 0, "digon face": 0, "double edge": 0}
    for degrees in [(1, 1, 1), (2, 1, 1), (1, 1, 1, 1), (5,), (3, 2), (3, 1, 1),
                    (2, 2, 1), (2, 1, 1, 1), (1, 1, 1, 1, 1)]:

        def visit(matching):
            hm = HalfEdgeMap(degrees, matching)
            if not hm.connected or hm.genus:
                return
            seen["degree one"] += min(map(len, hm.vertices)) == 1
            seen["digon face"] += 1 in degrees
            seen["double edge"] += any(c not in {e for _, e in face_contours(hm)}
                                       for c in simple_cycles_up_to(cycle_graph(hm), 2))
            for b in (1, 2, 3):
                for girth_only in (False, True):
                    assert check_irreducible(hm, b, girth_only) == \
                        edge_set_verdict(hm, b, girth_only), (matching, b, girth_only)

        enumerate_matchings(degrees, visit)
    assert all(seen.values()), seen
