import sys
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from irrmaps import oracle
from irrmaps.oracle import (CoverBall, GluingSpec, HalfEdgeMap, OracleError,
                            SizeError, _leaf_passes, _rotation_code, _search,
                            brute_count, check_irreducible, polygon_layout,
                            simple_cycles_up_to)
from irrmaps.pipeline import count_exact, girth_count
from irrmaps.verify import harer_zagier_numbers
from test_reference_cover import ball_verdict
from test_reference_edge_set import cycle_graph, edge_set_verdict, planar_gluings
from test_reference_search import assemble_map, enumerate_matchings

F = Fraction

TORUS = [(0, 2), (1, 3)]
THETA = [(1, 2), (3, 4), (5, 0)]


def test_matching_counts_are_double_factorials():
    assert enumerate_matchings((2,)) == 3
    assert enumerate_matchings((4,)) == 105
    assert enumerate_matchings((1, 1, 1)) == 15


def test_matchings_visited_once():
    seen = []
    enumerate_matchings((1, 1), visitor=seen.append)
    assert len(seen) == len(set(seen)) == 3


@pytest.mark.parametrize("degrees, matching", [
    ((1,), [1, 1]),                        # side 1 glued to itself
    ((2, 1), [3, 2, 1, 0, 0, 0]),          # sides 4 and 5 both claim side 0
    ((2,), [(0, 1), (1, 2), (3, 3)]),      # side 1 in two pairs, side 3 to itself
    ((1,), [(0, 5)]),                      # no side 5
    ((1,), [5, 0]),
])
def test_half_edge_map_refuses_what_is_not_a_matching(degrees, matching):
    with pytest.raises(OracleError, match="not a perfect matching"):
        HalfEdgeMap(degrees, matching)


def test_assemble_square_torus():
    hm = HalfEdgeMap((2,), TORUS)
    assert (hm.num_vertices, hm.nedges, hm.genus) == (1, 2, 1)
    assert list(map(len, hm.vertices)) == [4]
    assert hm.connected


def test_assemble_adjacent_gluing():
    hm = HalfEdgeMap((2,), [(0, 1), (2, 3)])
    assert hm.genus == 0
    assert min(map(len, hm.vertices)) == 1


def test_assemble_theta():
    hm = HalfEdgeMap((1, 1, 1), THETA)
    assert (hm.num_vertices, hm.nedges, hm.genus) == (2, 3, 0)
    assert min(map(len, hm.vertices)) == 3
    assert hm.connected


def test_assemble_map_rejects():
    spec = GluingSpec(1, (2,), 0)
    assert assemble_map(spec, TORUS) is not None
    assert assemble_map(spec, [(0, 1), (2, 3)]) is None  # genus 0
    spec2 = GluingSpec(0, (1, 1, 1), 0)
    disconnected = [(0, 1), (2, 3), (4, 5)]
    assert assemble_map(spec2, disconnected) is None


def test_simple_cycles():
    theta = HalfEdgeMap((1, 1, 1), THETA)
    two_cycles = simple_cycles_up_to(cycle_graph(theta), 2)
    assert len(two_cycles) == 3 and all(len(c) == 2 for c in two_cycles)
    torus = HalfEdgeMap((2,), TORUS)
    loops = simple_cycles_up_to(cycle_graph(torus), 1)
    assert len(loops) == 2 and all(len(c) == 1 for c in loops)
    # a tree has no cycles: two digons glued into a path has cycles, so use
    # a single polygon glued as a pendant chain instead
    tree = HalfEdgeMap((2,), [(0, 1), (2, 3)])
    # consecutive gluings backtrack; any cycle list of length <= 4 is empty
    assert simple_cycles_up_to(cycle_graph(tree), 4) == []


def test_irreducibility_fixtures():
    torus = HalfEdgeMap((2,), TORUS)
    theta = HalfEdgeMap((1, 1, 1), THETA)
    assert check_irreducible(torus, 0)
    assert check_irreducible(torus, 2)       # grid 4-cycles all bound faces
    assert not check_irreducible(torus, 3)   # 4-cycles are shorter than 6
    assert not check_irreducible(theta, 2)   # 2-cycles shorter than 4
    assert check_irreducible(theta, 1)       # 2-cycles bound the digon faces
    # girth-only mode ignores the bounding-face condition
    assert check_irreducible(torus, 2, girth_only=True)
    assert not check_irreducible(theta, 2, girth_only=True)


def test_irreducibility_monotone():
    maps = []
    enumerate_matchings((2, 2), lambda m: maps.append(HalfEdgeMap((2, 2), m)))
    for hm in maps:
        if not hm.connected:
            continue
        results = [check_irreducible(hm, b) for b in (0, 1, 2)]
        for lo, hi in zip(results, results[1:]):
            assert lo or not hi  # true at b implies true below


def test_planar_leaf_checks_build_no_words_and_no_edge_sets(monkeypatch):
    # one walk decides every genus: a planar map is its own universal cover,
    # so its check needs neither fundamental group words nor cycle sets
    theta = HalfEdgeMap((1, 1, 1), THETA)

    def refuse(*args, **kwargs):
        raise AssertionError("a planar leaf check took another route")

    monkeypatch.setattr(oracle, "simple_cycles_up_to", refuse)
    monkeypatch.setattr(oracle, "Pi1Words", refuse)
    assert check_irreducible(theta, 1)
    assert not check_irreducible(theta, 2)
    assert not check_irreducible(theta, 2, girth_only=True)
    assert brute_count(GluingSpec(0, (2, 2, 2), 1)) == count_exact(0, 3, 1, (2, 2, 2))
    assert brute_count(GluingSpec(0, (2, 2, 2), 2, constraint="girth")) == \
        girth_count(0, 3, 2, (2, 2, 2))


def test_cover_ball_of_the_square_torus_is_the_grid():
    torus = HalfEdgeMap((2,), TORUS)
    ball = CoverBall(torus, 0, 2)
    assert ball.validate_local_isomorphism()
    assert ball.complete_within_radius()
    nv, adj = ball.cycle_graph()
    # the base lift of the grid has degree 4 and all its faces are squares
    assert len(adj[ball.base_lift]) == 4
    assert all(deg == 4 for deg, _ in ball.face_contours())
    with pytest.raises(OracleError):
        CoverBall(torus, 0, -1)
    with pytest.raises(SizeError):
        CoverBall(torus, 0, 6, max_faces=3)


def test_cover_ball_radius_one_star():
    torus = HalfEdgeMap((2,), TORUS)
    ball = CoverBall(torus, 0, 1)
    assert ball.complete_within_radius()
    assert ball.validate_local_isomorphism()


def test_cover_ball_needs_positive_genus():
    theta = HalfEdgeMap((1, 1, 1), THETA)
    with pytest.raises(OracleError):
        CoverBall(theta, 0, 1)


def test_brute_fixture_counts():
    assert brute_count(GluingSpec(1, (2,), 1)) == F(1, 4)
    assert brute_count(GluingSpec(2, (4,), 1)) == F(21, 8)
    assert brute_count(GluingSpec(0, (1, 1, 1), 1)) == 1


def test_harer_zagier_one_face_numbers():
    # square -> one torus gluing; octagon -> 21 genus-2 gluings
    assert brute_count(GluingSpec(1, (2,), 0, allow_degree_one=True)) == F(1, 4)
    assert brute_count(GluingSpec(2, (4,), 0, allow_degree_one=True)) == F(21, 8)
    # rooted counts: multiply by the perimeter
    assert brute_count(GluingSpec(1, (2,), 0, allow_degree_one=True)) * 4 == 1
    assert brute_count(GluingSpec(2, (4,), 0, allow_degree_one=True)) * 8 == 21


def test_brute_count_b_independent_for_one_face():
    for b in (0, 1, 2):
        assert brute_count(GluingSpec(1, (2,), b)) == F(1, 4)
    for b in (0, 1, 2, 3):
        spec = GluingSpec(0, (3, 3, 3), b, allow_degree_one=False)
        assert brute_count(spec) == count_exact(0, 3, b, (3, 3, 3))


def test_brute_matches_formula_on_three_planar_faces():
    for degs in [(2, 2, 2), (3, 2, 2)]:
        assert brute_count(GluingSpec(0, degs, 1)) == count_exact(0, 3, 1, degs)


def test_brute_disputed_tree_transform_case():
    # the nested transform gives 1 here (strict p > b); the oracle agrees
    got = brute_count(GluingSpec(0, (2, 1, 1), 1, allow_degree_one=True))
    assert got == 1
    assert count_exact(0, 3, 1, (2, 1, 1), allow_degree_one=True) == got


def test_brute_guard():
    with pytest.raises(SizeError):
        brute_count(GluingSpec(0, (5, 5, 5), 0))
    with pytest.raises(OracleError):
        brute_count(GluingSpec(0, (2, 2), 0))
    with pytest.raises(OracleError):
        brute_count(GluingSpec(0, (2, 2, 2), 0, constraint="girth"))


def test_brute_vs_formula_sweep_small():
    for g in (0, 1, 2):
        nmin = 3 if g == 0 else 1
        for n in range(nmin, 4):
            for b in range(0, 3):
                lo = max(b, 1)
                for degs in combinations_with_replacement(range(lo, 4), n):
                    if sum(2 * d for d in degs) > 8:
                        continue
                    for allow in (False, True):
                        want = count_exact(g, n, b, degs, allow_degree_one=allow)
                        got = brute_count(
                            GluingSpec(g, degs, b, allow_degree_one=allow))
                        assert want == got, (g, n, b, degs, allow)


def test_girth_oracle_matches_formula():
    spec = GluingSpec(0, (2, 2, 2), 1, constraint="girth")
    assert brute_count(spec) == girth_count(0, 3, 1, (2, 2, 2))
    spec = GluingSpec(1, (2, 2), 2, constraint="girth")
    assert brute_count(spec) == girth_count(1, 2, 2, (2, 2))


def test_word_test_matches_large_cover_balls():
    # the exact word test against the ball route, on one gluing per map
    for degs in [(2,), (1, 2), (3,), (1, 1, 2), (4,)]:
        for partner in _orbit_representatives(degs):
            hm = HalfEdgeMap(degs, partner)
            if hm.genus < 1:
                continue
            for b in (1, 2, 3):
                assert check_irreducible(hm, b) == ball_verdict(hm, b), (partner, b)


def test_enumerate_matchings_guard():
    with pytest.raises(SizeError):
        enumerate_matchings((5, 5))


def test_simple_cycles_accepts_map_and_ball():
    theta = HalfEdgeMap((1, 1, 1), THETA)
    assert len(simple_cycles_up_to(cycle_graph(theta), 2)) == 3
    torus = HalfEdgeMap((2,), TORUS)
    ball = CoverBall(torus, 0, 1)
    cycles = simple_cycles_up_to(ball, 4, through=ball.base_lift)
    assert all(len(c) == 4 for c in cycles) and cycles


def test_brute_vs_formula_spot_checks_medium():
    # 12-side tuples beyond the exhaustive small sweep
    cases = [
        (0, (2, 2, 1, 1), 1, False),
        (0, (2, 2, 1, 1), 1, True),
        (1, (3, 2), 2, False),
        (2, (2, 2), 1, False),
        (1, (2, 2, 1), 1, True),
    ]
    for g, degs, b, allow in cases:
        want = count_exact(g, len(degs), b, degs, allow_degree_one=allow)
        got = brute_count(GluingSpec(g, degs, b, allow_degree_one=allow))
        assert want == got, (g, degs, b, allow, want, got)


def test_brute_vs_formula_on_six_planar_faces():
    # 24 and 20 sides: entering each class of equal faces once per node
    # takes the b = 1 specs from 13 s and 1.7 s to about 0.1 s each, and
    # keeping every boundary circle even takes the b = 2 specs, both on 24
    # sides, from 0.04 s and 0.18 s to 0.03 s and 0.06 s
    for degs, b, want in [((2, 2, 2, 2, 2, 2), 1, 2730), ((2, 2, 2, 2, 1, 1), 1, 504),
                          ((2, 2, 2, 2, 2, 2), 2, 30), ((3, 3, 2, 2, 2), 2, 62)]:
        got = brute_count(GluingSpec(0, degs, b, guard_sides=24))
        assert got == count_exact(0, len(degs), b, degs) == want


def _naive_count(spec):
    """Accepted matchings by a filter over the full canonical enumeration.

    Planar maps are decided by their edge-set cycles (``edge_set_verdict``)
    and higher-genus maps by large cover balls (``ball_verdict``), neither
    of which shares code with the oracle's leaf check; each higher-genus
    map's verdict is kept under the least of its polygon rotations.
    """
    hits = 0
    girth_only = spec.constraint == "girth"
    shifts = list(product(*(range(2 * l) for l in spec.degrees)))
    verdicts = {}

    def visit(matching):
        nonlocal hits
        hm = HalfEdgeMap(spec.degrees, matching)
        if not hm.connected or hm.genus != spec.genus:
            return
        if not spec.allow_degree_one and min(map(len, hm.vertices)) < 2:
            return
        if spec.b and hm.genus == 0:
            if not edge_set_verdict(hm, spec.b, girth_only):
                return
        elif spec.b:
            orbit = min(tuple(_rotate(spec.degrees, hm.partner, s)) for s in shifts)
            if orbit not in verdicts:
                verdicts[orbit] = ball_verdict(hm, spec.b, girth_only)
            if not verdicts[orbit]:
                return
        hits += 1

    enumerate_matchings(spec.degrees, visit)
    return hits


def test_pruned_search_equals_naive_filter():
    # the pruned, pinned engine must count exactly what a filter over the
    # full canonical enumeration counts; three or more polygons exercise the
    # pinned entry into untouched polygons
    specs = [
        GluingSpec(0, (1, 1, 1), 1),
        GluingSpec(0, (2, 1, 1), 1, allow_degree_one=True),
        GluingSpec(1, (2,), 1),
        GluingSpec(1, (1, 2), 2, allow_degree_one=True),
        GluingSpec(1, (2, 2), 1),
        GluingSpec(2, (4,), 1),
        GluingSpec(0, (2, 2, 2), 2),
        GluingSpec(1, (2, 2), 2, constraint="girth"),
        GluingSpec(0, (2, 1, 1), 1),
        GluingSpec(0, (2, 2, 1, 1), 1),
        GluingSpec(0, (2, 2, 1, 1), 1, allow_degree_one=True),
        GluingSpec(1, (1, 1, 2), 1),
        GluingSpec(1, (1, 1, 2), 1, allow_degree_one=True),
        GluingSpec(0, (2, 2, 1), 1, constraint="girth"),
    ]
    for spec in specs:
        assert _search(spec) == _naive_count(spec), spec


@st.composite
def _small_specs(draw):
    """Admissible specs of at most 10 sides, genus 0-2, b 0-2."""
    genus = draw(st.integers(0, 2))
    constraint = draw(st.sampled_from(["irreducible", "girth"]))
    # three planar faces of half-degree 2 already need 12 sides
    b = draw(st.integers(1 if constraint == "girth" else 0, 1 if genus == 0 else 2))
    lo = max(b, 1)
    n = draw(st.integers(3 if genus == 0 else 1, 5 // lo))
    budget = 5 - lo * n
    degs = []
    for _ in range(n):
        extra = draw(st.integers(0, budget))
        budget -= extra
        degs.append(lo + extra)
    return GluingSpec(genus, tuple(degs), b, allow_degree_one=draw(st.booleans()),
                      constraint=constraint)


@settings(max_examples=60, deadline=None)
@given(_small_specs())
def test_pinned_search_equals_naive_filter_on_random_specs(spec):
    assert _search(spec) == _naive_count(spec)


def _count_leaf_checks(monkeypatch):
    calls = []
    leaf_passes = oracle._leaf_passes

    def counted(spec, partner):
        calls.append(tuple(partner))
        return leaf_passes(spec, partner)

    monkeypatch.setattr(oracle, "_leaf_passes", counted)
    return calls


def _count_leaves(monkeypatch):
    leaves = []
    rotation_code = oracle._rotation_code
    monkeypatch.setattr(oracle, "_rotation_code",
                        lambda d, p: leaves.append(p) or rotation_code(d, p))
    return leaves


def test_pinning_cuts_criterion_10_leaf_checks(monkeypatch):
    # an untouched polygon is entered once per class of equal faces, at its
    # first side, and polygon 0 turns only until a side glued to its least
    # neighbouring class is its side 0: 35 leaves where the unpinned search
    # made 45,360, pinning all but polygon 0 made 360 and pinning polygon 0
    # by its least neighbour alone made 160; the memo checks 15 of them
    calls = _count_leaf_checks(monkeypatch)
    leaves = _count_leaves(monkeypatch)
    spec = GluingSpec(0, (3, 3, 3, 3), 2, constraint="girth", guard_sides=24)
    assert _search(spec) == 29 * 6 ** 4
    assert len(leaves) <= 35
    assert len(calls) <= 15


def test_memo_checks_one_leaf_per_rotation_orbit_of_a_single_face(monkeypatch):
    # a single face is pinned by its least chord: one face of 10 sides
    # reaches 52 genus-2 leaves, not one per rotation of each map, and the
    # memo checks 32 orbits
    calls = _count_leaf_checks(monkeypatch)
    leaves = _count_leaves(monkeypatch)
    assert _search(GluingSpec(2, (5,), 2)) == 273
    assert len(leaves) <= 52
    assert len(calls) <= 40
    assert len({_rotation_code((5,), p) for p in calls}) == len(calls)


def _search_work(monkeypatch, specs):
    """The counts of ``specs``, with the glues, leaves and leaf checks made."""
    calls = _count_leaf_checks(monkeypatch)
    leaves = _count_leaves(monkeypatch)
    glue = next(c for c in _search.__code__.co_consts if getattr(c, "co_name", None) == "glue")
    glues = 0

    def profile(frame, event, arg):
        nonlocal glues
        if event == "call" and frame.f_code is glue:
            glues += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        got = [brute_count(spec) for spec in specs]
    finally:
        sys.setprofile(previous)
    return got, glues, len(leaves), len(calls)


def test_parity_and_two_cycle_rules_cut_the_planar_benchmark_search(monkeypatch):
    # with no handle left a gluing at an even offset along the smallest
    # unmatched side's own circle is refused, and at genus 0 so is one that
    # makes two edges join one pair of vertices, not a 2-gon's sides: the
    # four genus-0 specs of the benchmark's oracle-planar workload make
    # 1,649 glues (7,982 with neither rule, 2,799 with the parity rule
    # alone, 1,967 when 2-cycles are refused only at a closed vertex) and
    # reach 70 leaves (331 without the 2-cycle rule), of which 38 are
    # checked, one per accepted rotation orbit (210)
    specs = [
        GluingSpec(0, (3, 3, 2, 2), 2, constraint="girth", guard_sides=20),
        GluingSpec(0, (3, 2, 2, 2), 1),
        GluingSpec(0, (2, 2, 2, 1), 1, allow_degree_one=True),
        GluingSpec(0, (2, 2, 2, 1, 1), 1),
    ]
    assert _search_work(monkeypatch, specs) == ([19, 14, 6, 30], 1649, 70, 38)


def test_work_of_the_cover_benchmark_search(monkeypatch):
    # the five higher-genus specs of the benchmark's oracle-cover workload
    # make 1,469 glues and reach 235 leaves, 98 rotation orbits of which
    # are checked: a cheaper leaf check must still be made 98 times
    specs = [
        GluingSpec(1, (2, 2, 2), 2),
        GluingSpec(1, (3, 3), 2, constraint="girth"),
        GluingSpec(1, (4, 2), 2),
        GluingSpec(2, (5,), 2),
        GluingSpec(2, (3, 2), 2),
    ]
    want = [F(6), F(34, 3), F(53, 4), F(273, 10), F(13, 2)]
    assert _search_work(monkeypatch, specs) == (want, 1469, 235, 98)


def _boundary_states(degrees, pairs):
    """Glue ``pairs`` of sides in order; give (handles, circle lengths)
    before the first gluing and after each, the genus of the result and
    whether it is connected.

    Written from the definitions alone: phi turns one side along its
    polygon, the unglued side after an unglued d on its boundary circle is
    the first unglued one of phi(d), phi(alpha(phi(d))), ..., and gluing
    two sides on distinct circles of one component adds a handle.
    """
    phi, poly = [], []
    for p, l in enumerate(degrees):
        start = len(phi)
        phi += [start + (k + 1) % (2 * l) for k in range(2 * l)]
        poly += [p] * (2 * l)
    alpha = {}
    comp = list(range(len(degrees)))   # component label of each polygon

    def succ(d):
        d = phi[d]
        while d in alpha:
            d = phi[alpha[d]]
        return d

    def circles():
        seen, out = set(), []
        for d in range(len(phi)):
            if d not in alpha and d not in seen:
                circle = [d]
                while (d := succ(d)) != circle[0]:
                    circle.append(d)
                seen.update(circle)
                out.append(circle)
        return out

    handles = 0
    states = [(handles, [len(c) for c in circles()])]
    for a, c in pairs:
        ca, cc = comp[poly[a]], comp[poly[c]]
        if ca == cc:
            handles += not any(a in circle and c in circle for circle in circles())
        else:
            comp = [ca if x == cc else x for x in comp]
        alpha[a], alpha[c] = c, a
        states.append((handles, [len(c) for c in circles()]))
    vertices, seen = 0, set()
    for d in range(len(phi)):
        if d not in seen:
            vertices += 1
            while d not in seen:
                seen.add(d)
                d = phi[alpha[d]]
    genus = (2 - vertices + len(phi) // 2 - len(degrees)) // 2
    return states, genus, len(set(comp)) == 1


@st.composite
def _glued_polygons(draw):
    """Polygons of at most 16 sides in all and their sides in a random
    order: consecutive sides of the order are glued, in that order."""
    degrees = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)
                   .filter(lambda ls: sum(ls) <= 8))
    sides = draw(st.permutations(range(2 * sum(degrees))))
    return tuple(degrees), list(zip(sides[::2], sides[1::2]))


@settings(max_examples=200, deadline=None)
@given(_glued_polygons())
@example(((3,), [(0, 3), (1, 4), (2, 5)]))       # one face, genus 1
@example(((2, 2), [(0, 2), (4, 6), (1, 5), (3, 7)]))
def test_circles_stay_even_once_no_handle_is_left(case):
    # the lemma behind the search's parity rule, checked without the
    # search: a map with faces of even degree, glued in any order, has
    # only even boundary circles from its last handle on
    degrees, pairs = case
    states, genus, connected = _boundary_states(degrees, pairs)
    assume(connected and genus <= 2)
    assert states[-1][0] == genus
    for handles, lengths in states:
        if handles == genus:
            assert all(L % 2 == 0 for L in lengths), (handles, lengths)


def test_circles_may_be_odd_while_a_handle_is_left():
    # the square torus glued 0-2 first: two circles of one side each, which
    # the second gluing joins as the handle
    states, genus, connected = _boundary_states((2,), [(0, 2), (1, 3)])
    assert (genus, connected) == (1, True)
    assert states == [(0, [4]), (0, [1, 1]), (1, [])]


def _stray_two_cycles(hmap):
    """Pairs of edges that join one pair of vertices without being the two
    sides of one 2-gon; an edge is named by its lesser dart."""
    partner, vertex_of = hmap.partner, hmap.vertex_of
    offsets = polygon_layout(hmap.degrees)[2]
    faces = {frozenset(min(d, partner[d]) for d in (base, base + 1))
             for base, l in zip(offsets, hmap.degrees) if l == 1}
    ends = {}
    for d in range(hmap.S):   # each dart from its tail to its head
        if d < partner[d]:
            ends.setdefault(frozenset((vertex_of[d], vertex_of[partner[d]])), []).append(d)
    return [pair for edges in ends.values() for pair in map(frozenset, combinations(edges, 2))
            if pair not in faces]


@settings(max_examples=200, deadline=None)
@given(planar_gluings(7, digons=1), st.integers(1, 3))
@example(HalfEdgeMap((1, 1, 1), THETA), 1)
@example(HalfEdgeMap((1, 2, 2, 1), [(0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11)]), 1)
def test_stray_two_cycles_fail_every_planar_leaf_check(hmap, b):
    # the lemma behind the search's 2-cycle rule, checked without the
    # search on planar maps of at most 14 sides with a 2-gon: no edge is a
    # loop (faces of even degree make the graph bipartite), and two edges
    # between one pair of vertices that are not a 2-gon's sides make a
    # cycle of length 2 that fails irreducibility at every b >= 1 and the
    # essential girth from b = 2 on
    assert all(hmap.vertex_of[d] != hmap.vertex_of[p] for d, p in enumerate(hmap.partner))
    if _stray_two_cycles(hmap):
        assert not edge_set_verdict(hmap, b)
        if b >= 2:
            assert not edge_set_verdict(hmap, b, girth_only=True)


def test_stray_two_cycles_of_the_examples():
    # the theta's three parallel edges are sides of its 2-gons, pair by
    # pair; the second map has two parallel edges between its squares
    assert _stray_two_cycles(HalfEdgeMap((1, 1, 1), THETA)) == []
    hmap = HalfEdgeMap((1, 2, 2, 1), [(0, 2), (1, 3), (4, 6), (5, 7), (8, 10), (9, 11)])
    assert _stray_two_cycles(hmap) == [frozenset({4, 5})]
    assert edge_set_verdict(hmap, 1, girth_only=True)


@pytest.mark.parametrize("genus", [1, 2, 3])
def test_one_face_counts_match_harer_zagier(genus):
    # every gluing of a 2l-gon: the least-chord weights n0 / k must add up
    # to whole rotation orbits, symmetric gluings included
    want = harer_zagier_numbers(genus, 7)
    for l in range(1, 8):
        spec = GluingSpec(genus, (l,), 0, allow_degree_one=True)
        assert 2 * l * brute_count(spec) == want[l], (genus, l)


def _connected_partners(degrees):
    out = []

    def visit(matching):
        hm = HalfEdgeMap(degrees, matching)
        if hm.connected:
            out.append(hm.partner)

    enumerate_matchings(degrees, visit)
    return out


def _rotate(degrees, partner, shifts):
    """The partner list after turning polygon i by shifts[i] sides."""
    _, poly_of, offsets = polygon_layout(degrees)

    def moved(d):
        p = poly_of[d]
        return offsets[p] + (d - offsets[p] + shifts[p]) % (2 * degrees[p])

    rotated = [0] * len(partner)
    for d, e in enumerate(partner):
        rotated[moved(d)] = moved(e)
    return rotated


def _orbit_representatives(degrees):
    """One connected gluing per rotation orbit: one per face-labeled map."""
    shifts = list(product(*(range(2 * l) for l in degrees)))
    return sorted({min(tuple(_rotate(degrees, p, s)) for s in shifts)
                   for p in _connected_partners(degrees)})


@st.composite
def _rotated_gluings(draw):
    """A connected gluing of at most 10 sides and a rotation of each polygon."""
    n = draw(st.integers(1, 4))
    budget = 5 - n
    degrees = []
    for _ in range(n):
        extra = draw(st.integers(0, budget))
        budget -= extra
        degrees.append(1 + extra)
    degrees = tuple(degrees)
    partner = draw(st.sampled_from(_connected_partners(degrees)))
    shifts = [draw(st.integers(0, 2 * l - 1)) for l in degrees]
    return degrees, partner, _rotate(degrees, partner, shifts)


@settings(max_examples=80, deadline=None)
@given(_rotated_gluings())
def test_rotation_code_is_invariant_under_polygon_rotations(case):
    degrees, partner, rotated = case
    assert _rotation_code(degrees, rotated) == _rotation_code(degrees, partner)


@pytest.mark.parametrize("degrees, partner", [
    ((2, 1), [1, 0, 4, 5, 2, 3]),           # sides 0-1 of polygon 0 glued together
    ((2, 2), [3, 6, 5, 0, 7, 2, 1, 4]),     # sides 0-3 of polygon 0 glued together
    ((2, 1, 1), [2, 6, 0, 4, 3, 7, 1, 5]),  # 0-2 inside, one side each to 1 and 2
])
def test_rotation_code_is_invariant_when_polygon_0_is_glued_to_itself(degrees, partner):
    # the code starts only from the sides of polygon 0 glued to its least
    # neighbour; those move with polygon 0 past its self-glued sides
    code = _rotation_code(degrees, partner)
    for shifts in product(*(range(2 * l) for l in degrees)):
        assert _rotation_code(degrees, _rotate(degrees, partner, shifts)) == code


@pytest.mark.parametrize("degrees", [(4,), (2, 1), (1, 1, 2), (2, 2), (1, 1, 1, 1)])
def test_rotation_code_separates_rotation_orbits(degrees):
    # equal codes exactly when the gluings are rotations of one another
    partners = _connected_partners(degrees)
    shifts = list(product(*(range(2 * l) for l in degrees)))
    orbit_of = {tuple(p): min(tuple(_rotate(degrees, p, s)) for s in shifts)
                for p in partners}
    code_of = {tuple(p): _rotation_code(degrees, p) for p in partners}
    assert len(set(code_of.values())) == len(set(orbit_of.values()))
    for p in partners:
        q = code_of[tuple(p)]
        assert orbit_of[q] == orbit_of[tuple(p)]  # the code is in p's orbit


@pytest.mark.parametrize("degrees", [(3,), (2, 1), (1, 1, 2), (2, 2)])
def test_rotation_code_has_the_leaf_verdict_of_its_gluing(degrees):
    for partner in _connected_partners(degrees):
        code = _rotation_code(degrees, partner)
        genus = HalfEdgeMap(degrees, partner).genus
        for b in (1, 2):
            for constraint in ("irreducible", "girth"):
                spec = GluingSpec(genus, degrees, b, constraint=constraint)
                assert _leaf_passes(spec, list(code)) == _leaf_passes(spec, partner)


def test_girth_exactly_matches_oracle_difference():
    # exactly 2b = (at least 2b) - (at least 2b + 2), all via the oracle
    at2 = brute_count(GluingSpec(0, (2, 2, 2, 2), 1, constraint="girth"))
    at4 = brute_count(GluingSpec(0, (2, 2, 2, 2), 2, constraint="girth"))
    assert at2 - at4 == girth_count(0, 4, 1, (2, 2, 2, 2), mode="exactly")

