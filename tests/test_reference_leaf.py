"""The leaf check with a distance table to radius b, kept as a test reference.

``reference_check_irreducible`` is ``oracle.check_irreducible`` as it stood
when it tabled homology-cover distances to radius b around every start (a
vertex outside the table reading b + 1) and compared lifts through a
``same_lift`` closure.  ``ReferencePi1Words`` builds the dart words as they
were built then: face words read through a ``face_walk`` generator and
reduced by ``_reduce`` over generator chains, Dehn's successor tables built
with the words, and each dart's step summed by a generator over its tail
and head.  It inherits ``is_trivial``, which decides a word the same way
with either construction.

The oracle's check must give the same verdict on every gluing, and its
words, relator and homology steps must be the same as the reference's.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from irrmaps import oracle
from irrmaps.families import ConsistencyError
from irrmaps.oracle import (GluingSpec, HalfEdgeMap, OracleError, Pi1Words, _follows_face,
                            _inverse, _reduce, brute_count, check_irreducible,
                            polygon_layout)
import test_reference_search


class ReferencePi1Words(Pi1Words):
    """Dart words built by generator chains, with every table up front."""

    def __init__(self, hmap: HalfEdgeMap):
        if hmap.genus < 1:
            raise OracleError("fundamental group words are for genus >= 1 maps")
        S, nxt, partner, vertex_of = hmap.S, hmap.nxt, hmap.partner, hmap.vertex_of
        poly_of, offsets = hmap.poly_of, polygon_layout(hmap.degrees)[2]
        self.genus = g = hmap.genus

        in_tree = [False] * S
        reached = [False] * hmap.num_vertices
        reached[0] = True
        queue = [0]
        for v in queue:                       # grows while it is walked
            for d in hmap.vertices[v]:
                w = vertex_of[partner[d]]
                if not reached[w]:
                    reached[w] = True
                    in_tree[d] = in_tree[partner[d]] = True
                    queue.append(w)

        def face_walk(d):
            yield d
            e = nxt[d]
            while e != d:
                yield e
                e = nxt[e]

        word: list = [() if t else None for t in in_tree]
        up = [-1] * len(hmap.degrees)         # a face's dart on its cotree edge
        order = [0]
        for p in order:
            for d in face_walk(offsets[p]):
                q = poly_of[partner[d]]
                if word[d] is None and q != 0 and up[q] == -1:
                    up[q] = partner[d]
                    order.append(q)
        cotree = {up[q] for q in order[1:]}
        cotree |= {partner[d] for d in cotree}
        letters = 0
        for d in range(S):
            if word[d] is None and d not in cotree and d < partner[d]:
                letters += 1
                word[d], word[partner[d]] = (letters,), (-letters,)
        if letters != 2 * g:
            raise ConsistencyError(f"{letters} generators for a genus-{g} map")
        for q in reversed(order[1:]):
            e = up[q]
            rest = _reduce(x for d in face_walk(e) if d != e for x in word[d])
            word[e], word[partner[e]] = tuple(_inverse(rest)), tuple(rest)

        r = _reduce(x for d in face_walk(0) for x in word[d])
        while len(r) > 1 and r[0] == -r[-1]:
            r = r[1:-1]
        if sorted(r) != [x for x in range(-2 * g, 2 * g + 1) if x]:
            raise ConsistencyError(f"root face relator {r} of a genus-{g} map")
        self.word = word
        self.relator = tuple(r)
        # the letter after x in r and in r^-1, read cyclically
        n = len(r)
        at = {x: i for i, x in enumerate(r)}
        self._succ = ({x: r[(i + 1) % n] for x, i in at.items()},
                      {x: -r[(at[-x] - 1) % n] for x in at})

        self._ends = [(vertex_of[d], vertex_of[partner[d]]) for d in range(S)]
        self._nv = hmap.num_vertices

    def steps(self, length: int) -> list[int]:
        B = 2 * length * max(map(len, self.word)) + 1
        out = []
        for w, (tail, head) in zip(self.word, self._ends):
            h = sum(B ** (x - 1) if x > 0 else -B ** (-x - 1) for x in w)
            out.append(h * self._nv + head - tail)
        return out


def reference_check_irreducible(hmap: HalfEdgeMap, b: int, girth_only: bool = False) -> bool:
    """The closed-walk check with distances tabled to radius b."""
    if b == 0:
        return True
    two_b = 2 * b
    nxt, partner, out = hmap.nxt, hmap.partner, hmap.vertices
    vertex_of = hmap.vertex_of
    if hmap.genus:
        words = ReferencePi1Words(hmap)
        step = words.steps(two_b)
    else:   # no words: each dart steps from its tail to its head
        step = [vertex_of[partner[d]] - vertex_of[d] for d in range(hmap.S)]
    V = hmap.num_vertices
    exact = hmap.genus <= 1
    path: list[int] = []
    keys: list[int] = []   # keys[i]: the homology-cover vertex after path[:i]

    def same_lift(i: int, d: int) -> bool:
        return exact or words.is_trivial([x for e in path[i:] + [d]
                                          for x in words.word[e]])

    def walk(key: int, darts, d0: int, dist: dict[int, int]) -> bool:
        j = len(path) + 1
        back = partner[path[-1]] if path else -1
        for d in darts:
            if d < d0 or partner[d] < d0 or d == back:
                continue
            nk = key + step[d]
            if nk in keys:
                i = next((i for i, k in enumerate(keys)
                          if k == nk and same_lift(i, d)), None)
                if i == 0:
                    # back at the start lift: a simple cycle of length j
                    if j < two_b or not (girth_only
                                         or _follows_face(path + [d], nxt, partner)):
                        return False
                    continue
                if i is not None:
                    continue
            if j >= two_b or j + dist.get(nk, b + 1) > two_b:
                continue
            path.append(d)
            keys.append(nk)
            ok = walk(nk, out[nk % V], d0, dist)
            path.pop()
            keys.pop()
            if not ok:
                return False
        return True

    dists: dict[int, dict[int, int]] = {}
    for d0 in range(hmap.S):
        if partner[d0] < d0:
            continue
        v0 = vertex_of[d0]
        dist = dists.get(v0)
        if dist is None:
            dist = dists[v0] = {v0: 0}
            ring = [v0]
            for r in range(1, b + 1):
                new = []
                for key in ring:
                    for d in out[key % V]:
                        nk = key + step[d]
                        if nk not in dist:
                            dist[nk] = r
                            new.append(nk)
                ring = new
        keys.append(v0)
        ok = walk(v0, (d0,), d0, dist)
        keys.pop()
        if not ok:
            return False
    return True


@st.composite
def connected_gluings(draw):
    """A connected gluing of genus 0-2 of up to four polygons, 2-8 sides each,
    14 sides in all at most."""
    n = draw(st.integers(1, 4))
    budget = 7 - n
    degrees = []
    for _ in range(n):
        extra = draw(st.integers(0, min(budget, 3)))
        budget -= extra
        degrees.append(1 + extra)
    degrees = tuple(degrees)
    perm = draw(st.permutations(range(2 * sum(degrees))))
    hm = HalfEdgeMap(degrees, list(zip(perm[::2], perm[1::2])))
    assume(hm.connected and hm.genus <= 2)
    return hm


@settings(max_examples=150, deadline=None)
@given(connected_gluings(), st.integers(1, 3), st.booleans())
def test_leaf_check_matches_the_reference(hm, b, girth_only):
    assert check_irreducible(hm, b, girth_only) == \
        reference_check_irreducible(hm, b, girth_only)
    if hm.genus:
        words, ref = Pi1Words(hm), ReferencePi1Words(hm)
        assert words.word == ref.word
        assert words.relator == ref.relator
        assert words.steps(2 * b) == ref.steps(2 * b)


# the nine specs of the benchmark's oracle-planar and oracle-cover workloads
BENCHMARK_SPECS = [
    GluingSpec(0, (3, 3, 2, 2), 2, constraint="girth", guard_sides=20),
    GluingSpec(0, (3, 2, 2, 2), 1),
    GluingSpec(0, (2, 2, 2, 1), 1, allow_degree_one=True),
    GluingSpec(0, (2, 2, 2, 1, 1), 1),
    GluingSpec(1, (2, 2, 2), 2),
    GluingSpec(1, (3, 3), 2, constraint="girth"),
    GluingSpec(1, (4, 2), 2),
    GluingSpec(2, (5,), 2),
    GluingSpec(2, (3, 2), 2),
]


def test_every_benchmark_leaf_has_the_reference_verdict(monkeypatch):
    # the search checks 38 planar leaves, all accepted, and 98 higher-genus
    # ones; the planar leaves its 2-cycle rule refuses before they are
    # reached come from the reference search, which checks one leaf of
    # every rotation orbit it reaches: 345, of which 276 fail
    leaves = []
    leaf_passes = oracle._leaf_passes

    def recorded(spec, partner):
        ok = leaf_passes(spec, partner)
        leaves.append((spec, list(partner), ok))
        return ok

    monkeypatch.setattr(oracle, "_leaf_passes", recorded)
    monkeypatch.setattr(test_reference_search, "_leaf_passes", recorded)
    for spec in BENCHMARK_SPECS:
        brute_count(spec)
    assert len(leaves) == 38 + 98
    assert all(ok for spec, _, ok in leaves if spec.genus == 0)
    for spec in BENCHMARK_SPECS[:4]:
        test_reference_search.reference_search(spec)
    assert len(leaves) == 38 + 98 + 345
    assert sum(not ok for *_, ok in leaves[38 + 98:]) == 276
    for spec, partner, _ in leaves:
        hm = HalfEdgeMap(spec.degrees, partner)
        girth_only = spec.constraint == "girth"
        assert check_irreducible(hm, spec.b, girth_only) == \
            reference_check_irreducible(hm, spec.b, girth_only), (spec, partner)
