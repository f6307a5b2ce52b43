"""Universal-cover balls: the incremental construction against whole-ball
rescans, and the ball-based leaf check kept as a test-only route.

``ReferenceCoverBall`` keeps the earlier construction of ``CoverBall``:
every settle pass rebuilds all sigma-chains of the ball and applies the
periodicity and zip rules to each, every development round measures
distances by a breadth-first search over the whole ball, and face contours
are walked once from every dart.  It is kept here only as a reference.
Both constructions must yield isomorphic balls, compared through the
invariants below, and the same irreducibility verdicts.

``ball_verdict`` is the higher-genus leaf check the oracle made before it
compared lifts by words in the fundamental group: the simple cycles through
the base lift of a cover ball around every vertex.  A ball identifies two
lifts of a vertex only once it has developed the disk between them, so a
small radius misses contractible cycles (radius b - 1 accepted maps with
contractible 2-cycles at genus 1, b = 1, from 12 sides on).  Other tests
use it with a large radius as a contractibility route that shares no code
with the word test.
"""

from collections import Counter, deque

import pytest

from irrmaps.families import ConsistencyError
from irrmaps.oracle import CoverBall, HalfEdgeMap, simple_cycles_up_to
from test_reference_search import enumerate_matchings


class ReferenceCoverBall(CoverBall):
    """CoverBall built by whole-ball rescans."""

    def _sigma(self, x):
        """sigma on classes where defined (alpha glued), else -1."""
        p = self.part[x]
        if p == -1:
            return -1
        return self._find(self.cnxt[self._find(p)])

    def _classes(self):
        return [d for d in range(len(self.proj)) if self._find(d) == d]

    def _chains(self):
        """Maximal sigma-paths on classes: list of (darts, closed_flag)."""
        classes = self._classes()
        succ = {x: self._sigma(x) for x in classes}
        pred = {}
        for x, s in succ.items():
            if s != -1:
                if s in pred:
                    raise ConsistencyError("cover rotation branches")
                pred[s] = x
        chains = []
        seen = set()
        for x in classes:
            if x in seen or x in pred:
                continue
            run = [x]
            seen.add(x)
            cur = succ[x]
            while cur != -1:
                run.append(cur)
                seen.add(cur)
                cur = succ[cur]
            chains.append((run, False))
        for x in classes:
            if x in seen:
                continue
            run = [x]
            seen.add(x)
            cur = succ[x]
            while cur != x:
                run.append(cur)
                seen.add(cur)
                cur = succ[cur]
            chains.append((run, True))
        return chains

    def _distances(self, chains):
        vert_of = {}
        for i, (run, _) in enumerate(chains):
            for x in run:
                vert_of[x] = i
        adj = {}
        for x in vert_of:
            u = vert_of[x]
            w = vert_of[self._find(self.cnxt[x])]
            adj.setdefault(u, set()).add(w)
            adj.setdefault(w, set()).add(u)
        root = vert_of[self._find(self._seed)]
        dist = {root: 0}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj.get(u, ()):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    def _settle(self):
        while True:
            acted = False
            for run, closed in self._chains():
                need = self._base_deg[self.proj[run[0]]]
                if len(run) > need:
                    if closed and len(run) % need:
                        raise ConsistencyError("cover rotation of the wrong degree")
                    a, c = self._find(run[0]), self._find(run[need])
                    if a != c:
                        self._identify(a, c)
                        acted = True
                elif closed and len(run) != need:
                    raise ConsistencyError("cover rotation closed too early")
                elif not closed and len(run) == need:
                    e = self._find(run[-1])
                    t = self._find(self.cprv[self._find(run[0])])
                    p = self.part[e]
                    if p == -1 or self._find(p) != t:
                        self._glue(e, t)
                        acted = True
            if not acted:
                return

    def _develop(self):
        while True:
            self._settle()
            chains = self._chains()
            dist = self._distances(chains)
            targets = [run[-1] for i, (run, closed) in enumerate(chains)
                       if not closed and dist.get(i, self.radius + 1) <= self.radius]
            if not targets:
                return
            for end in targets:
                e = self._find(end)
                if self.part[e] != -1:
                    continue
                nd = self._new_face_over(self.base.partner[self.proj[e]])
                self._glue(e, nd)
            self._settle()

    def _finalize(self):
        chains = self._chains()
        self._chain_list = chains
        self._vert_of = {}
        for i, (run, _) in enumerate(chains):
            for x in run:
                self._vert_of[x] = i
        self.num_vertices = len(chains)
        self.base_lift = self._vert_of[self._find(self._seed)]

    def face_contours(self):
        out = []
        seen = set()
        for x in self._vert_of:
            cyc = [x]
            cur = self._find(self.cnxt[x])
            while cur != x:
                cyc.append(cur)
                cur = self._find(self.cnxt[cur])
            key = min(cyc)
            if key in seen:
                continue
            seen.add(key)
            ids = [self._edge_id(d) for d in cyc]
            out.append((len(cyc), frozenset(ids) if len(set(ids)) == len(cyc) else None))
        return out

    def complete_within_radius(self):
        chains = self._chain_list
        dist = self._distances(chains)
        return all(closed for i, (run, closed) in enumerate(chains)
                   if dist.get(i, self.radius + 1) <= self.radius)


def ball_verdict(hmap, b, girth_only=False, radius=None, ball=CoverBall):
    """Essential 2b-irreducibility of a genus >= 1 map from cover balls.

    Every simple cycle of length <= 2b through the base lift of a ball
    around each vertex of degree >= 2 must have length 2b and, unless
    ``girth_only``, bound a face of the ball.  The default radius is 2b at
    genus 1; at genus >= 2 the balls grow exponentially (a radius-4 ball
    of an octagon map has 19,609 faces), so it is b + 1 there.
    """
    if radius is None:
        radius = 2 * b if hmap.genus == 1 else b + 1
    two_b = 2 * b
    for v in range(hmap.num_vertices):
        if len(hmap.vertices[v]) < 2:
            continue  # no cycle passes through a degree-1 vertex
        cb = ball(hmap, v, radius)
        contours = {c for (deg, c) in cb.face_contours()
                    if deg == two_b and c is not None}
        for cyc in simple_cycles_up_to(cb, two_b, through=cb.base_lift):
            if len(cyc) < two_b:
                return False
            if not girth_only and cyc not in contours:
                return False
    return True


def higher_genus_maps(degrees):
    maps = []
    enumerate_matchings(degrees, lambda m: maps.append(HalfEdgeMap(degrees, m)))
    return [hm for hm in maps if hm.connected and hm.genus >= 1]


def invariants(ball):
    """What two constructions of one ball must agree on, up to dart names."""
    return (
        ball.num_vertices,
        sorted(len(run) for run, _ in ball._chain_list),
        Counter((deg, c is not None) for deg, c in ball.face_contours()),
        sorted(len(c) for c in simple_cycles_up_to(ball, 6, through=ball.base_lift)),
        ball.complete_within_radius(),
        ball.validate_local_isomorphism(),
    )


# (half-degrees, largest radius); (3,) and (1, 2) have degree-1 vertices
CASES = [((2,), 2), ((3,), 2), ((4,), 1), ((1, 2), 2), ((3, 1), 2), ((2, 2), 2),
         ((1, 1, 2), 2)]


@pytest.mark.parametrize("degrees,max_radius", CASES)
def test_incremental_ball_matches_whole_ball_rescans(degrees, max_radius):
    balls = 0
    for hm in higher_genus_maps(degrees):
        for v in range(hm.num_vertices):
            for radius in range(max_radius + 1):
                got = CoverBall(hm, v, radius)
                want = ReferenceCoverBall(hm, v, radius)
                assert invariants(got) == invariants(want), (hm.partner, v, radius)
                balls += 1
    assert balls


def test_rotations_around_degree_one_vertices_are_always_zipped():
    # a face lift over a degree-1 base vertex is a full rotation at once, so
    # it owes its zip even where no growth round reaches it
    checked = 0
    for hm in higher_genus_maps((3,)) + higher_genus_maps((1, 2)):
        if min(map(len, hm.vertices)) != 1:
            continue
        for v in range(hm.num_vertices):
            for radius in (0, 1):
                ball = CoverBall(hm, v, radius)
                assert all(closed for run, closed in ball._chain_list
                           if ball._base_deg[ball.proj[run[0]]] == 1)
                assert invariants(ball) == invariants(ReferenceCoverBall(hm, v, radius))
                checked += 1
    assert checked


@pytest.mark.parametrize("degrees", [(2,), (3,), (1, 2), (3, 1), (2, 2)])
def test_irreducibility_verdicts_match_whole_ball_rescans(degrees):
    for hm in higher_genus_maps(degrees):
        for b in (1, 2):
            for radius in (b - 1, b):
                for girth_only in (False, True):
                    got = ball_verdict(hm, b, girth_only, radius)
                    want = ball_verdict(hm, b, girth_only, radius, ReferenceCoverBall)
                    assert got == want, (hm.partner, b, radius, girth_only)
