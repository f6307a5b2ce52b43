"""Ground-truth map enumeration by gluing labeled polygons.

A map with n labeled faces of degrees 2*l_1, ..., 2*l_n is encoded by a
perfect matching (the gluing) on the sides of n labeled polygons:

  * sides are darts 0..S-1, polygon i contributing 2*l_i consecutive ones;
  * phi advances one step counterclockwise along a polygon boundary;
  * alpha is the gluing involution (matched sides form an edge);
  * sigma = phi o alpha rotates darts around their tail vertex.

Vertices are sigma-orbits, faces are the polygons, and the genus comes from
Euler's formula V - E + F = 2 - 2g.  Summing accepted matchings and dividing
by prod(2*l_i) yields the automorphism-weighted count sum_m 1/|Aut(m)| over
face-labeled maps: side labelings of a fixed labeled map form a free orbit
space of size prod(2*l_i)/|Aut(m)|, because an orientation-preserving
automorphism fixing an oriented edge of a connected map is the identity.

The search prunes branches only on provably monotone grounds:

  * a sigma-chain closing at length one is a finished degree-1 vertex;
  * closed vertices only accumulate, and bounds on how many more chains can
    still close cap the final vertex count on both sides of the Euler
    target;
  * gluing two sides on distinct boundary circles of one connected
    component creates exactly one handle (oriented gluings), so the handle
    budget of the target genus prunes hard, especially for genus 0;
  * a component whose boundary is fully glued while others remain can never
    connect;
  * once the handle budget is spent, every boundary circle has even length
    in any completion.  With no handle left, no later gluing joins two
    circles of one component, so the sides on a circle C, with every side
    of the components later attached through C, are glued only among
    themselves; each component holds an even number of unglued sides,
    because its faces have even degree, so C has even length.  Gluing a
    side to the side i steps further along its own circle of L sides
    leaves circles of i - 1 and L - i - 1 sides, so an even i is refused.
    At genus 0 the rule always applies, at genus >= 1 after the last
    handle.
  * at genus 0 with b >= 1, a vertex v that a gluing closes may not have
    two edges ending in one vertex chain, named by its end, or by its
    least side once closed, unless they are the two sides of one 2-gon;
    girth mode at b = 1 asks for no cycle shorter than 2, so it is exempt.
    A closed vertex never changes and chains only merge, so in every
    completion the two edges end at one vertex w, and w is not v: they
    form a cycle of length 2.  A planar map is its own universal cover,
    so the cycle is contractible.  It is shorter than 2b for b >= 2, and
    at b = 1 it bounds a face of degree 2 only if one 2-gon has a side in
    each of the two edges, so ``check_irreducible`` rejects every leaf
    below.  Loops need no such rule: by the parity rule every circle of a
    genus-0 search stays even, so with its circles capped by disks each
    component is a sphere of even faces, whose graph is bipartite.  One
    such pair is refused before its vertex closes: gluing a to c makes
    phi(c) turn about a's vertex and phi(a) about c's, so if phi(a) and
    phi(c), or the sides before a and c, are glued to each other, the
    vertices of a and c are joined twice (or by loops, which no completion
    has), and the two edges are a 2-gon's sides only when a or c lies on
    a 2-gon.

Four of these rules are decided before a gluing is applied, so a refused
candidate never touches the search state: a gluing across two boundary
circles of one component once the handle budget is spent, a gluing at an
even offset along one circle once it is spent, without degree-one
vertices a gluing of two consecutive sides of one polygon (which closes a
degree-1 vertex), and, where 2-cycles are refused, a gluing parallel to
the edge of the sides after, or before, its own two.  The vertex bounds,
the sealed component and the 2-cycle rule at a closed vertex are decided
after the gluing is applied, and it is undone when one refuses.

The partial surface is kept once, as its vertex chains: maximal runs d,
sigma(d), ... of glued sides around an unfinished vertex, known by their
ends.  A chain ends at an unglued side and phi(d) starts one for unglued d,
so the unglued side after d on its boundary circle is the end of the chain
starting at phi(d).  Untouched polygons are entered only at their first
side (see below), so one is touched exactly when its first side is glued.

It also enters each class of interchangeable polygons once.  Sorting the
half-degrees in descending order makes polygon 0 a largest one and each
class, the other polygons of one half-degree, a block.  When the smallest
unmatched side is glued into a polygon q other than its own that has no
glued side yet, q must be the least untouched polygon of its class and only
its first side is tried; the subtree counts 2*l_q times the number of
untouched polygons left in the class.  Turning q, or permuting those
polygons, fixes every glued side and maps the subtrees entered at any of
their sides onto the one tried; the image of a map is the same map with
faces or sides relabeled, accepted exactly when the original is.  Only the
least is ever entered, so the untouched polygons of a class are its last.

With n >= 2 polygons, polygon 0 is pinned by an orbit weight.  Its sides
are matched first; side 0 goes to the first side of a class's first
polygon, the anchor, and no side of polygon 0 goes to a class below it.
Rotating polygon 0 acts freely on connected gluings: a turn that fixes a
gluing fixes the partner of a side glued outside polygon 0, hence that
side, hence every side.  The anchor's class, the least class next to
polygon 0, is the same across an orbit, so an orbit holds exactly k
gluings that meet the rule, k the number of polygon-0 sides glued into
that class.  Each accepted leaf therefore counts 2*l_0 / k times; the
leaves are summed per k in integers and divided once at the end.

With one polygon of S sides, side 0 carries a least chord, the chord of
side d being (partner[d] - d) mod S: it is glued to a side c <= S/2, and
every later side lo to a side c with lo + chord(0) <= c <= lo + S -
chord(0), so neither end of the new chord is shorter.  A rotation shifts
every chord with its side, so an orbit whose gluings s rotations fix holds
k / s such gluings, k the number of sides of least chord, and counting
each S / k times gives the orbit's size S / s.

A polygon first entered from inside its own boundary is not pinned, so a
leaf is still reached once per rotation of it.  Each search therefore
keeps its leaf verdicts in a dict keyed by a rotation-canonical code of
the full matching: for each rotation of polygon 0 that brings a side glued
to its least other neighbour to side 0 (a side of least chord when n = 1),
walk the polygons breadth-first from it, turn each newly reached polygon
so that the side the walk enters first becomes its side 0, relabel the
matching under those rotations, and keep the least result.  Rotating
polygon 0 turns the set of tried rotations with it, and rotating any other
polygon changes none of these walks, so every rotation of a gluing has the
same code; and the code is itself a rotation of the gluing, so equal codes
mean the same face-labeled map with its sides relabeled, which is accepted
exactly when the original is.  The cycle checks thus run once per rotation
orbit of the leaves the search reaches.  With b = 0 every leaf passes, and
no code is built.

Essential irreducibility is decided on the simple cycles of the universal
cover, for every genus by one check and without building any part of the
cover.  A planar map is its own universal cover, so its walks need no
words.  At genus >= 1 a tree-cotree decomposition labels every dart by a
word in the 2g generators of the fundamental group, and a closed walk
lifts to a closed walk exactly when its word is trivial: at genus 1 the
group is Z^2 and exponent sums decide, at genus >= 2 the one relator is
C'(1/6) and Dehn's algorithm decides.  The cycles of length at most 2b are
walked once each up to deck transformations, comparing the lifts of their
prefixes exactly, so no radius has to be chosen.  Walks that could not
close in time are pruned by distances in the homology cover, tabled to
radius b - 1 only: the j-th step ends within distance j, so only a step
j > b is pruned, for a distance above 2b - j < b, which the table tells
exactly (``check_irreducible`` has the proof).  ``CoverBall`` builds
finite balls of the universal cover, face by face around a lift of a
vertex; the leaf check does not use it, because a ball identifies two
lifts of a vertex only once it has developed the disk between them, and no
radius fixed by b is known to suffice.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import chain

from .families import ConsistencyError

DEFAULT_GUARD_SIDES = 18
COVER_FACE_GUARD = 200000


class SizeError(ValueError):
    """The request exceeds a desk-scale guard (oracle sides, ``nhat`` faces)."""


class OracleError(ValueError):
    """Inadmissible oracle request."""


def check_sides(sides: int, guard_sides: int = DEFAULT_GUARD_SIDES) -> None:
    """Raise SizeError when ``sides`` polygon sides exceed the guard."""
    if sides > guard_sides:
        raise SizeError(f"{sides} sides exceed the guard of {guard_sides}")


@dataclass(frozen=True)
class GluingSpec:
    """What to enumerate: genus, face half-degrees, and the constraint."""

    genus: int
    degrees: tuple[int, ...]
    b: int = 0
    allow_degree_one: bool = False
    constraint: str = "irreducible"  # or "girth": only the cycle-length bound
    guard_sides: int = DEFAULT_GUARD_SIDES

    def __post_init__(self):
        object.__setattr__(self, "degrees", tuple(self.degrees))

    @property
    def total_sides(self) -> int:
        return sum(2 * l for l in self.degrees)

    def validate(self) -> None:
        if self.genus < 0:
            raise OracleError("genus must be nonnegative")
        if self.b < 0:
            raise OracleError("b must be nonnegative")
        if not self.degrees or any(l < 1 for l in self.degrees):
            raise OracleError("face half-degrees must be positive")
        if self.genus == 0 and len(self.degrees) < 3:
            raise OracleError("planar counts need at least 3 faces")
        if self.constraint == "irreducible":
            if any(l < max(self.b, 1) for l in self.degrees):
                raise OracleError("half-degrees must be at least max(b, 1)")
        elif self.constraint == "girth":
            if self.b < 1:
                raise OracleError("girth mode needs b >= 1")
            if any(l < self.b for l in self.degrees):
                raise OracleError("girth mode needs half-degrees at least b")
        else:
            raise OracleError(f"unknown constraint {self.constraint!r}")
        check_sides(self.total_sides, self.guard_sides)


# ============================================================
# Assembled maps
# ============================================================


@lru_cache(maxsize=256)
def polygon_layout(degrees: tuple[int, ...]):
    """The sides of labeled polygons: (nxt, poly_of, offsets), as tuples.

    Polygon i owns the 2*degrees[i] consecutive sides from offsets[i]; nxt
    (phi) steps counterclockwise along its boundary.
    """
    nxt, poly_of, offsets = [], [], []
    base = 0
    for i, l in enumerate(degrees):
        k = 2 * l
        offsets.append(base)
        nxt += range(base + 1, base + k)
        nxt.append(base)
        poly_of += [i] * k
        base += k
    return tuple(nxt), tuple(poly_of), tuple(offsets)


class HalfEdgeMap:
    """A polygon gluing assembled into a rotation system."""

    def __init__(self, degrees, matching):
        degrees = tuple(degrees)
        nxt, poly_of, offsets = polygon_layout(degrees)
        S = len(nxt)
        if matching and isinstance(matching[0], (list, tuple)):
            partner = [-1] * S
            for a, c in matching:
                if not (0 <= a < S and 0 <= c < S and partner[a] == partner[c] == -1):
                    partner = []      # not a matching: refused below
                    break
                partner[a] = c
                partner[c] = a
        else:
            partner = list(matching)
        # an involution of the sides without fixed points
        if len(partner) != S or not all(0 <= p < S and p != d and partner[p] == d
                                        for d, p in enumerate(partner)):
            raise OracleError("matching is not a perfect matching of the sides")
        self.degrees, self.S, self.nxt, self.poly_of = degrees, S, nxt, poly_of
        self.partner = partner

        # vertices = orbits of sigma = phi o alpha
        vertex_of = [-1] * S
        vertices: list[tuple[int, ...]] = []
        for s in range(S):
            if vertex_of[s] != -1:
                continue
            orbit = []
            cur = s
            while vertex_of[cur] == -1:
                vertex_of[cur] = len(vertices)
                orbit.append(cur)
                cur = nxt[partner[cur]]
            vertices.append(tuple(orbit))
        self.vertices = vertices
        self.vertex_of = vertex_of

        self.nedges = S // 2
        chi = len(vertices) - self.nedges + len(degrees)
        if chi % 2:
            raise ConsistencyError("odd Euler characteristic from an oriented gluing")
        self.genus = (2 - chi) // 2

    @property
    def connected(self) -> bool:
        """Whether the gluing joins every polygon (the search knows it already)."""
        offsets = polygon_layout(self.degrees)[2]
        order = [0]
        for p in order:                       # grows while it is walked
            for d in range(offsets[p], offsets[p] + 2 * self.degrees[p]):
                q = self.poly_of[self.partner[d]]
                if q not in order:
                    order.append(q)
        return len(order) == len(self.degrees)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)


# ============================================================
# Simple cycle enumeration
# ============================================================


# No leaf check calls this: it stays for the CoverBall routes of the tests
# and as a patch site of perfbench/layertrace.py.
def simple_cycles_up_to(graph, L: int, through: int | None = None) -> list[frozenset]:
    """All vertex-simple cycles of edge-length <= L, as edge-id sets.

    ``graph`` is a CoverBall or a (num vertices, adjacency) pair as produced
    by ``CoverBall.cycle_graph``.  A simple cycle is determined by
    its edge set, so each one is reported once regardless of traversal
    direction or starting point.  ``through`` restricts the search to
    cycles passing through the given vertex.
    """
    if hasattr(graph, "cycle_graph"):
        graph = graph.cycle_graph()
    nv, adj = graph
    if L < 1 or nv == 0:
        return []
    found: set[frozenset] = set()
    starts = [through] if through is not None else range(nv)

    dist = None
    if through is not None:
        # lower bound on the edges needed to come back: prune far excursions
        dist = [L + 1] * nv
        dist[through] = 0
        queue = deque([through])
        while queue:
            u = queue.popleft()
            if dist[u] >= L:
                continue
            for (w, _) in adj[u]:
                if dist[w] > dist[u] + 1:
                    dist[w] = dist[u] + 1
                    queue.append(w)

    for s in starts:
        on_path = [False] * nv
        on_path[s] = True
        path_edges: list[int] = []
        used: set[int] = set()

        def dfs(u: int, depth: int):
            for (w, eid) in adj[u]:
                if eid in used:
                    continue
                if w == s:
                    # closing edge; loops (u == s, depth 0) count as 1-cycles
                    found.add(frozenset(path_edges + [eid]))
                    continue
                if depth + 1 >= L or on_path[w]:
                    continue
                if dist is not None and depth + 1 + dist[w] > L:
                    continue
                if through is None and w < s:
                    continue  # canonical: each cycle is rooted at its least vertex
                on_path[w] = True
                used.add(eid)
                path_edges.append(eid)
                dfs(w, depth + 1)
                path_edges.pop()
                used.discard(eid)
                on_path[w] = False

        dfs(s, 0)
    return sorted(found, key=lambda f: (len(f), sorted(f)))


# ============================================================
# The leaf check: cycles of the universal cover, lifts compared by words
# ============================================================


def _reduce(word) -> list[int]:
    """Free reduction of a sequence of letters (+-i stands for a_i^{+-1})."""
    out: list[int] = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return out


def _inverse(word) -> list[int]:
    return [-x for x in reversed(word)]


class Pi1Words:
    """Words in generators of the fundamental group on the darts of a map.

    A breadth-first spanning tree T of the vertices and a spanning tree C of
    the dual on the edges outside T leave 2g edges, the generators: edge i
    carries a_i on its smaller dart and a_i^-1 on the other.  Tree darts
    carry the empty word, and cotree darts are solved leaves first so that
    every face but the root face (face 0) reads the empty word after free
    reduction.  The root face then reads, up to conjugation, the relator r
    of the one-vertex, one-face map left by contracting T and deleting C, so
    pi_1 = <a_1..a_2g | r> with r of length 4g using each letter once with
    each sign.  A walk lifts to a closed walk of the universal cover exactly
    when it is closed and its word is trivial.
    """

    def __init__(self, hmap: HalfEdgeMap):
        if hmap.genus < 1:
            raise OracleError("fundamental group words are for genus >= 1 maps")
        S, nxt, partner, vertex_of = hmap.S, hmap.nxt, hmap.partner, hmap.vertex_of
        degrees, poly_of, offsets = hmap.degrees, hmap.poly_of, polygon_layout(hmap.degrees)[2]
        self.genus = g = hmap.genus
        self._hmap = hmap

        word: list = [None] * S               # None until a dart has its word
        reached = [False] * hmap.num_vertices
        reached[0] = True
        queue = [0]
        for v in queue:                       # grows while it is walked
            for d in hmap.vertices[v]:
                w = vertex_of[partner[d]]
                if not reached[w]:
                    reached[w] = True
                    word[d] = word[partner[d]] = ()
                    queue.append(w)

        up = [-1] * len(degrees)              # a face's dart on its cotree edge
        order = [0]
        for p in order:
            for d in range(offsets[p], offsets[p] + 2 * degrees[p]):
                q = poly_of[partner[d]]
                if word[d] is None and q and up[q] == -1:
                    up[q] = partner[d]
                    word[d] = word[partner[d]] = ()   # no letter; solved below
                    order.append(q)
        letters = 0
        for d in range(S):
            if word[d] is None and d < partner[d]:
                letters += 1
                word[d], word[partner[d]] = (letters,), (-letters,)
        if letters != 2 * g:
            raise ConsistencyError(f"{letters} generators for a genus-{g} map")
        # each cotree dart, leaves first, takes the inverse of the rest of its
        # face, and the root face, from dart 0, is left to read the relator
        for e in [up[q] for q in reversed(order[1:])] + [0]:
            rest = []                         # the face word after e, reduced
            d = nxt[e]
            while d != e:
                for x in word[d]:
                    if rest and rest[-1] == -x:
                        rest.pop()
                    else:
                        rest.append(x)
                d = nxt[d]
            if e:
                word[partner[e]] = tuple(rest)
                word[e] = tuple([-x for x in reversed(rest)])
        r = _reduce(word[0] + tuple(rest))
        while len(r) > 1 and r[0] == -r[-1]:
            r = r[1:-1]
        if sorted(r) != [x for x in range(-2 * g, 2 * g + 1) if x]:
            raise ConsistencyError(f"root face relator {r} of a genus-{g} map")
        self.word = word
        self.relator = tuple(r)
        self._succ = None                     # Dehn's algorithm builds it

    def steps(self, length: int) -> list[int]:
        """Each dart's step in the homology cover, for walks of <= ``length`` darts.

        The exponent-sum vector h of a word is packed into the integer
        H(h) = sum_i h_i B^i, with B more than twice the largest exponent sum
        such a walk can reach, so H is injective on them.  A walk from base
        vertex v0 then ends at vertex v with homology h exactly when
        v0 + (sum of its steps) = H(h) V + v, V the number of vertices.
        """
        hmap = self._hmap
        vertex_of, partner, V = hmap.vertex_of, hmap.partner, hmap.num_vertices
        B = 2 * length * max(map(len, self.word)) + 1
        power = [B ** i for i in range(2 * self.genus)]
        out = []
        for d, w in enumerate(self.word):
            h = 0
            for x in w:
                h += power[x - 1] if x > 0 else -power[-x - 1]
            out.append(h * V + vertex_of[partner[d]] - vertex_of[d])
        return out

    def is_trivial(self, word) -> bool:
        """Whether a word in the generators is the identity of pi_1.

        Genus 1: pi_1 is Z^2, so the exponent sums decide.  Genus >= 2: the
        face word r of a one-vertex map of degree 4g > 2 never holds both xy
        and y^-1 x^-1, so its pieces have length 1 and <a | r> is C'(1/6).
        Dehn's algorithm then decides: a nonempty freely reduced word is
        trivial only if it holds more than half (2g + 1 letters) of a cyclic
        conjugate u v of r^+-1, and replacing u by v^-1 shortens it.
        """
        w = _reduce(word)
        g = self.genus
        if g == 1:
            return all(sum(1 if x == a else -1 for x in w if abs(x) == a) == 0
                       for a in (1, 2))
        if self._succ is None:
            # the letter after x in r and in r^-1, read cyclically
            r, n = self.relator, 4 * g
            at = {x: i for i, x in enumerate(r)}
            self._succ = ({x: r[(i + 1) % n] for x, i in at.items()},
                          {x: -r[(at[-x] - 1) % n] for x in at})
        half = 2 * g
        while w:
            if len(w) <= half:
                return False
            for succ in self._succ:
                run = 1
                for i in range(1, len(w)):
                    run = run + 1 if succ[w[i - 1]] == w[i] else 1
                    if run > half:
                        v = [succ[w[i]]]
                        while len(v) < half - 1:
                            v.append(succ[v[-1]])
                        w = _reduce(w[:i - half] + _inverse(v) + w[i + 1:])
                        break
                else:
                    continue
                break
            else:
                return False
        return True


def _follows_face(walk, nxt, partner) -> bool:
    """Whether a closed walk goes once around a face, either way round."""
    return (all(nxt[walk[i - 1]] == walk[i] for i in range(len(walk)))
            or all(nxt[partner[walk[i]]] == partner[walk[i - 1]]
                   for i in range(len(walk))))


def check_irreducible(hmap: HalfEdgeMap, b: int, girth_only: bool = False) -> bool:
    """Essential 2b-irreducibility (or just essential girth >= 2b).

    No simple cycle of the universal cover is shorter than 2b, and each of
    length 2b goes once around a face, either way round (not asked with
    ``girth_only``).  Each cover cycle of length <= 2b is walked once up to
    deck transformations, from its least dart d0 (d0 < partner[d0], every
    later dart and its partner at least d0).  Two prefixes end at one cover
    vertex when they end at one homology-cover vertex (``Pi1Words.steps``;
    a planar dart steps from tail to head) and, at genus >= 2, the word
    between them is trivial (``Pi1Words.is_trivial``).  A step back along
    the last edge is refused before any lookup, one onto another earlier
    lift unless it closes the cycle at the start.

    The j-th step, to a vertex at homology-cover distance dist from the
    start (a lower bound of the universal cover's), is pruned once
    j + dist > 2b.  The distances are tabled to radius b - 1 only, and a
    vertex outside the table reads as b: the j-th step ends within distance
    j, so for j <= b the test never fires, with the table or without it,
    and for j > b it asks whether dist > 2b - j, a bound below b, which the
    table answers exactly.  Every pruning decision, and so every verdict,
    is that of a table without bound.
    """
    if b == 0:
        return True
    two_b = 2 * b
    nxt, partner, out, vertex_of = hmap.nxt, hmap.partner, hmap.vertices, hmap.vertex_of
    exact = hmap.genus <= 1
    if hmap.genus:
        words = Pi1Words(hmap)
        step = words.steps(two_b)
        word, is_trivial = words.word, words.is_trivial
    else:   # no words: each dart steps from its tail to its head
        step = [vertex_of[partner[d]] - vertex_of[d] for d in range(hmap.S)]
    V = hmap.num_vertices
    path: list[int] = []
    keys: list[int] = []   # keys[i]: the homology-cover vertex after path[:i]

    def walk(key: int, darts, d0: int, dist: dict[int, int]) -> bool:
        """Extend the path from the lift ``key`` along each of ``darts``;
        False as soon as a cycle fails."""
        j = len(path) + 1
        back = partner[path[-1]] if path else -1
        for d in darts:
            if d < d0 or partner[d] < d0 or d == back:
                continue
            nk = key + step[d]
            if nk in keys:
                # the earliest prefix whose lift the step lands on, if any
                for i, k in enumerate(keys):
                    if k == nk and (exact or is_trivial(
                            [x for e in path[i:] + [d] for x in word[e]])):
                        break
                else:
                    i = -1
                if i >= 0:
                    # back at the start lift: a simple cycle of length j
                    if i == 0 and (j < two_b or not (
                            girth_only or _follows_face(path + [d], nxt, partner))):
                        return False
                    continue
            if j >= two_b or j > b and j + dist.get(nk, b) > two_b:
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
            for r in range(1, b):
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


# ============================================================
# Universal-cover balls
# ============================================================


class CoverBall:
    """A simply connected ball of the universal cover of a genus >= 1 map.

    Built by attaching lifts of base faces along the boundary.  Cover darts
    live in a union-find: when two growth fronts wrap around a vertex they
    may have created two lifts of one cover face, and the rotation-closing
    gluing (zip) then forces a dart identification, which propagates around
    the face cycles and through existing gluings.  All zips and
    identifications are facts of the cover, so running them to a fixpoint is
    order-independent.

    Settling works from a worklist: every gluing and identification pushes
    the darts whose sigma-chain it changed, a new face pushes its darts over
    degree-1 base vertices (each already a full rotation), and only the
    chains through pushed darts are walked again.  Each development round
    attaches faces at the open chains found by a breadth-first search from
    the base lift that stops at ``radius``; the rest of the ball is never
    visited.  On return, every cover vertex within graph distance
    ``radius`` of the base lift is complete (full rotation, all incident
    face lifts present).
    """

    def __init__(self, base: HalfEdgeMap, base_vertex: int, radius: int,
                 max_faces: int = COVER_FACE_GUARD):
        if radius < 0:
            raise OracleError("radius must be nonnegative")
        if base.genus < 1:
            raise OracleError("cover balls are for genus >= 1 maps")
        self.base = base
        self.radius = radius
        self.max_faces = max_faces
        self._base_deg = [len(base.vertices[base.vertex_of[s]]) for s in range(base.S)]

        self.proj: list[int] = []
        self.cnxt: list[int] = []
        self.cprv: list[int] = []
        self.part: list[int] = []   # alpha on class representatives, -1 if unglued
        self.rep: list[int] = []    # union-find parent
        self._dirty: list[int] = []  # darts whose sigma-chain may owe a rule
        self.nfaces_created = 0

        self._seed = self._new_face_over(base.vertices[base_vertex][0])
        self._develop()
        self._finalize()

    # ----- union-find -----

    def _find(self, d: int) -> int:
        r = self.rep
        while r[d] != d:
            r[d] = r[r[d]]
            d = r[d]
        return d

    # ----- construction -----

    def _new_face_over(self, anchor_side: int) -> int:
        """Create the lift of the base polygon containing anchor_side."""
        if self.nfaces_created >= self.max_faces:
            raise SizeError("cover ball exceeded the face guard")
        self.nfaces_created += 1
        base = self.base
        k = 2 * base.degrees[base.poly_of[anchor_side]]
        first = len(self.proj)
        last = first + k - 1
        side = anchor_side
        for _ in range(k):
            self.proj.append(side)
            side = base.nxt[side]
        self.cnxt += range(first + 1, last + 1)
        self.cnxt.append(first)
        self.cprv.append(last)
        self.cprv += range(first, last)
        self.part += [-1] * k
        self.rep += range(first, last + 1)
        # every fresh dart is a chain of its own, which owes a rule only when
        # it is already a full rotation: the zip around a degree-1 vertex
        deg = self._base_deg
        self._dirty.extend(d for d in range(first, first + k) if deg[self.proj[d]] == 1)
        return first

    def _glue(self, x: int, y: int) -> None:
        """Record alpha(x) = y, identifying darts when partners collide."""
        self._force([("glue", x, y)])

    def _identify(self, x: int, y: int) -> None:
        self._force([("ident", x, y)])

    def _force(self, ops) -> None:
        queue = list(ops)
        dirty = self._dirty
        while queue:
            op, x, y = queue.pop()
            x, y = self._find(x), self._find(y)
            if op == "glue":
                if x == y:
                    raise ConsistencyError("cover dart glued to itself")
                px, py = self.part[x], self.part[y]
                if px == -1 and py == -1:
                    if self.base.partner[self.proj[x]] != self.proj[y]:
                        raise ConsistencyError(
                            "cover gluing does not project to a base edge")
                    self.part[x] = y
                    self.part[y] = x
                    dirty.append(x)
                    dirty.append(y)
                elif px != -1:
                    queue.append(("ident", y, px))
                else:
                    queue.append(("ident", x, py))
            else:  # ident
                if x == y:
                    continue
                if self.proj[x] != self.proj[y]:
                    raise ConsistencyError("identified darts project differently")
                self.rep[y] = x
                dirty.append(x)
                py = self.part[y]
                if py != -1:
                    py = self._find(py)
                    px = self.part[x]
                    if px == -1:
                        self.part[x] = py
                        self.part[py] = x
                    else:
                        queue.append(("ident", self._find(px), py))
                # identifying one dart identifies the whole face lift
                queue.append(("ident", self._find(self.cnxt[x]),
                              self._find(self.cnxt[y])))

    def _chain(self, x: int) -> tuple[list[int], bool]:
        """The maximal sigma-path through class x: (classes, closed flag).

        Walks back with pred(y) = alpha(phi^-1(y)) to the start of the path,
        or once around when the path is a closed rotation, then forward.
        """
        find, part, cnxt, cprv = self._find, self.part, self.cnxt, self.cprv
        start = x
        while True:
            p = part[find(cprv[start])]
            if p == -1:
                break
            p = find(p)
            if p == x:
                break
            start = p
        run = [start]
        cur = start
        while True:
            p = part[cur]
            if p == -1:
                return run, False
            cur = find(cnxt[find(p)])
            if cur == start:
                return run, True
            run.append(cur)

    def _settle(self) -> None:
        """Run all forced zips and identifications to a fixpoint.

        Facts read off a valid partial development stay true after more
        gluings, so the chain through each dirty dart is checked on its own:
        a chain longer than the base degree means a growth front wrapped
        around the vertex, making its rotation periodic (run[0] and
        run[need] are the same cover dart); a full open chain zips shut.
        """
        dirty = self._dirty
        while dirty:
            run, closed = self._chain(self._find(dirty.pop()))
            need = self._base_deg[self.proj[run[0]]]
            if len(run) > need:
                if closed and len(run) % need:
                    raise ConsistencyError("cover rotation of the wrong degree")
                self._identify(run[0], run[need])
            elif closed and len(run) != need:
                raise ConsistencyError("cover rotation closed too early")
            elif not closed and len(run) == need:
                self._glue(run[-1], self.cprv[run[0]])

    def _chains_within_radius(self) -> list[tuple[list[int], bool]]:
        """The chains (cover vertices) within distance ``radius`` of the base
        lift, by a breadth-first search that stops there.

        A shortest path to a vertex stays within its distance, so the
        distances found are those of the whole ball.  The neighbours of a
        chain are the chains through the face-adjacent darts of its own.
        """
        find, cnxt, cprv = self._find, self.cnxt, self.cprv
        root = self._chain(find(self._seed))
        seen = set(root[0])
        found = [root]
        layer = [root]
        for _ in range(self.radius):
            ring = []
            for run, _ in layer:
                for x in run:
                    for y in (find(cnxt[x]), find(cprv[x])):
                        if y not in seen:
                            chain = self._chain(y)
                            seen.update(chain[0])
                            ring.append(chain)
            found += ring
            layer = ring
        return found

    def _develop(self) -> None:
        while True:
            self._settle()
            targets = [run[-1] for run, closed in self._chains_within_radius()
                       if not closed]
            if not targets:
                return
            for end in targets:
                e = self._find(end)
                if self.part[e] != -1:
                    continue  # settled by a cascade from an earlier attach
                nd = self._new_face_over(self.base.partner[self.proj[e]])
                self._glue(e, nd)

    def _finalize(self) -> None:
        find = self._find
        vert_of = [-1] * len(self.proj)
        chains = []
        for d in range(len(self.proj)):
            if vert_of[d] == -1 and find(d) == d:
                run, closed = self._chain(d)
                for x in run:
                    vert_of[x] = len(chains)
                chains.append((run, closed))
        self._chain_list = chains
        self._vert_of = vert_of
        self.num_vertices = len(chains)
        self.base_lift = vert_of[find(self._seed)]

    # ----- queries -----

    def _edge_id(self, x: int) -> int:
        p = self.part[x]
        return x if p == -1 else min(x, self._find(p))

    def cycle_graph(self):
        find, part, cnxt, vert_of = self._find, self.part, self.cnxt, self._vert_of
        adj = [[] for _ in range(self.num_vertices)]
        for u, (run, _) in enumerate(self._chain_list):
            for x in run:
                p = part[x]
                if p != -1 and find(p) < x:
                    continue  # the edge is listed from its partner class
                w = vert_of[find(cnxt[x])]
                adj[u].append((w, x))
                if w != u:
                    adj[w].append((u, x))
        return self.num_vertices, adj

    def face_contours(self):
        find, cnxt = self._find, self.cnxt
        out = []
        walked = set()
        for run, _ in self._chain_list:
            for x in run:
                if x in walked:
                    continue
                ids = []
                cur = x
                while True:
                    walked.add(cur)
                    ids.append(self._edge_id(cur))
                    cur = find(cnxt[cur])
                    if cur == x:
                        break
                edges = frozenset(ids)
                out.append((len(ids), edges if len(edges) == len(ids) else None))
        return out

    def complete_within_radius(self) -> bool:
        return all(closed for _, closed in self._chains_within_radius())

    def validate_local_isomorphism(self) -> bool:
        """Closed cover rotations must project bijectively onto base rotations."""
        base = self.base
        for run, closed in self._chain_list:
            if not closed:
                continue
            seq = [self.proj[x] for x in run]
            bv = base.vertex_of[seq[0]]
            orbit = base.vertices[bv]
            if len(seq) != len(orbit):
                return False
            k = orbit.index(seq[0])
            if seq != [orbit[(k + j) % len(orbit)] for j in range(len(orbit))]:
                return False
        return True


# ============================================================
# The pruned counting engine
# ============================================================


def _leaf_passes(spec: GluingSpec, partner) -> bool:
    hmap = HalfEdgeMap(spec.degrees, partner)
    return check_irreducible(hmap, spec.b, girth_only=(spec.constraint == "girth"))


def _rotation_code(degrees: tuple[int, ...], partner) -> tuple[int, ...]:
    """The least partner list among the rotations of a connected gluing.

    It starts from each side of polygon 0 the search may pin at side 0
    (glued to the least other polygon next to it, or, with one polygon, of
    least chord); the module docstring shows every rotation has one code.
    """
    nxt, poly_of, offsets = polygon_layout(degrees)
    S = len(partner)
    n0 = 2 * degrees[0]
    if len(degrees) == 1:
        key = [(partner[d] - d) % S for d in range(S)]
    else:   # a self-glued side of polygon 0 ranks after every neighbour
        key = [poly_of[partner[d]] or S for d in range(n0)]
    least = min(key)
    best = None
    for r0 in (d for d in range(n0) if key[d] == least):
        first = [-1] * len(degrees)   # the side that becomes each polygon's side 0
        first[0] = r0
        new = [0] * S
        order = [0]
        for p in order:               # grows while it is walked
            d = first[p]
            for label in range(offsets[p], offsets[p] + 2 * degrees[p]):
                new[d] = label
                e = partner[d]
                q = poly_of[e]
                if first[q] == -1:
                    first[q] = e
                    order.append(q)
                d = nxt[d]
        code = [0] * S
        for d in range(S):
            code[new[d]] = new[partner[d]]
        code = tuple(code)
        if best is None or code < best:
            best = code
    return best


def _search(spec: GluingSpec) -> int:
    """Count accepted matchings of the degrees sorted in descending order,
    entering each class of untouched polygons once, pinning polygon 0 to a
    class when n >= 2 and the one polygon by its least chord when n = 1,
    and checking each rotation orbit of leaves once.

    At each node the boundary circle of the smallest unmatched dart is
    walked once, keeping each dart's offset from it, and the four rules of
    the module docstring refuse candidates before any state changes; the
    others refuse in ``glue``, which closes vertices through ``link``.
    """
    spec = replace(spec, degrees=sorted(spec.degrees, reverse=True))
    degrees = spec.degrees
    n = len(degrees)
    S = sum(2 * l for l in degrees)
    E = S // 2
    g_target = spec.genus
    V_target = E - n + 2 - 2 * g_target
    if V_target < 1:
        return 0
    mindeg2 = not spec.allow_degree_one
    # the 2-cycle rule: planar, b >= 1, but not in girth mode at b = 1,
    # which asks for no cycle shorter than 2
    doubles = g_target == 0 and spec.b >= 1 and not (
        spec.constraint == "girth" and spec.b == 1)

    nxt, poly_of, offsets = polygon_layout(degrees)
    prv = [0] * S
    for d in range(S):
        prv[nxt[d]] = d
    partner = [-1] * S
    cstart = list(range(S))   # valid at chain ends
    cend = list(range(S))     # valid at chain starts
    clen = [1] * S            # valid at chain starts
    proot = list(range(n))
    end = [sum(m >= l for m in degrees) for l in degrees]  # one past q's class
    popen = [2 * l for l in degrees]

    closedV = 0
    singles = S
    genus_acc = 0
    ncomp = n
    n0 = 2 * degrees[0]
    by_k: dict[int, int] = {}  # accepted weight per count k of anchor sides
    verdicts: dict[tuple[int, ...], bool] = {}  # rotation code -> leaf verdict

    def find(x: int) -> int:
        while proot[x] != x:
            x = proot[x]
        return x

    def simple_vertex(v: int) -> bool:
        """Whether no two edges of the vertex just closed at v end in one
        chain, unless they are the two sides of a 2-gon."""
        ends: dict[int, list[int]] = {}   # chain name -> darts of v into it
        d = v
        while True:
            x = y = least = partner[d]
            while partner[y] != -1:   # to the chain's end, or once round
                y = nxt[partner[y]]
                if y == x:
                    y = least
                    break
                if y < least:
                    least = y
            same = ends.get(y)
            if same is None:
                ends[y] = [d]
            else:
                for e in same:
                    # the 2-cycle of d and e is a face only if one 2-gon
                    # has a side in each of their edges
                    if not any(degrees[poly_of[s]] == 1 and nxt[s] in (d, partner[d])
                               for s in (e, partner[e])):
                        return False
                same.append(d)
            d = nxt[x]
            if d == v:
                return True

    def link(u: int, v: int, trail) -> bool:
        """Join the chain ending at u to the chain starting at v; False when
        this closes a vertex the 2-cycle rule refuses."""
        nonlocal closedV, singles
        su = cstart[u]
        if su == v:
            length = clen[v]
            closedV += 1
            if length == 1:
                singles -= 1
            trail.append((1, length, 0, 0, 0))
            return not doubles or simple_vertex(v)
        ev = cend[v]
        lu, lv = clen[su], clen[v]
        clen[su] = lu + lv
        cend[su] = ev
        cstart[ev] = su
        d = (1 if lu == 1 else 0) + (1 if lv == 1 else 0)
        singles -= d
        trail.append((2, su, ev, (u, v, lu), d))
        return True

    def glue(a: int, c: int, remaining: int, same_circle: bool):
        """Apply the gluing; return (trail, ok).  ``same_circle``: whether a
        and c lie on one boundary circle."""
        nonlocal closedV, singles, genus_acc, ncomp
        trail = []
        partner[a] = c
        partner[c] = a

        # components and boundary circles
        ra = find(poly_of[a])
        rc = find(poly_of[c])
        if ra == rc:
            handle = 0 if same_circle else 1
            genus_acc += handle
            trail.append((3, ra, popen[ra], handle, 0))
            popen[ra] -= 2
        else:
            trail.append((5, rc, ra, popen[ra], popen[rc]))
            proot[rc] = ra
            popen[ra] = popen[ra] + popen[rc] - 2
            ncomp -= 1
        # a sealed component can never connect to the rest
        ok = (popen[ra] != 0 or ncomp == 1) and link(a, nxt[c], trail) \
            and link(c, nxt[a], trail)
        if ok:
            chains = 2 * remaining
            vmax = closedV + (chains - singles) + singles // 2 if mindeg2 \
                else closedV + chains
            ok = closedV <= V_target <= vmax
        return trail, ok

    def unglue(a: int, c: int, trail):
        nonlocal closedV, singles, genus_acc, ncomp
        for rec in reversed(trail):
            tag = rec[0]
            if tag == 1:
                closedV -= 1
                if rec[1] == 1:
                    singles += 1
            elif tag == 2:
                _, su, ev, (u, v, lu), d = rec
                clen[su] = lu
                cend[su] = u
                cstart[ev] = v
                singles += d
            elif tag == 3:
                popen[rec[1]] = rec[2]
                genus_acc -= rec[3]
            else:
                _, rc, ra, oa, oc = rec
                proot[rc] = rc
                popen[ra] = oa
                popen[rc] = oc
                ncomp += 1
        partner[a] = -1
        partner[c] = -1

    def rec(lo: int, matched: int, weight: int):
        if matched == E:
            if ncomp == 1 and closedV == V_target:
                if genus_acc != g_target:
                    raise ConsistencyError("handle count disagrees with Euler count")
                if spec.b:  # with b = 0 every leaf passes
                    code = _rotation_code(degrees, partner)
                    ok = verdicts.get(code)
                    if ok is None:
                        ok = verdicts[code] = _leaf_passes(spec, partner)
                    if not ok:
                        return
                if n > 1:
                    anchor = poly_of[partner[0]]
                    k = sum(anchor <= poly_of[partner[d]] < end[anchor] for d in range(n0))
                else:
                    k = sum((partner[d] - d) % S == partner[0] for d in range(S))
                by_k[k] = by_k.get(k, 0) + weight
            return
        while partner[lo] != -1:
            lo += 1
        p = poly_of[lo]
        if n == 1:
            # pin the one polygon: side 0 carries a least chord, the chord
            # of side d being (partner[d] - d) mod S, so the new chord may be
            # no shorter than side 0's from either end
            if lo:
                cands = range(lo + partner[0], min(S, lo + S - partner[0] + 1))
            else:
                cands = range(1, S // 2 + 1)
        elif p:
            cands = range(lo + 1, S)
        else:
            # pin polygon 0: side 0 goes to a class's first polygon, the
            # anchor, and no side of polygon 0 to a class below it
            anchor = poly_of[partner[0]] if lo else 1
            cands = chain(range(lo + 1 if lo else n0, n0), range(offsets[anchor], S))
        circle = {}               # lo's boundary circle: side -> offset from lo
        cur = cend[nxt[lo]]
        while cur != lo:
            circle[cur] = len(circle) + 1
            cur = cend[nxt[cur]]
        root = find(p)
        no_handle = genus_acc == g_target
        remaining = E - matched - 1
        for c in cands:
            if partner[c] != -1:
                continue
            w = weight
            q = poly_of[c]
            if q != p and partner[offsets[q]] == -1:
                # every rotation of q, and each untouched polygon of its
                # class (always the class's last ones), counts the same:
                # enter only the least of them, at its first side
                if c != offsets[q] or not (degrees[q - 1] != degrees[q]
                                           or partner[offsets[q - 1]] != -1
                                           or q - 1 == p):
                    continue
                w *= 2 * degrees[q] * (end[q] - q)
            if mindeg2 and (c == nxt[lo] or lo == nxt[c]):
                continue  # a degree-one vertex
            if doubles and degrees[p] != 1 and degrees[q] != 1 and (
                    partner[nxt[c]] == nxt[lo] or partner[prv[c]] == prv[lo]):
                continue  # a second edge between the vertices of lo and c
            offset = circle.get(c, 0)
            if no_handle:
                if not offset and find(q) == root:
                    continue  # one handle too many
                if offset and offset % 2 == 0:
                    continue  # two odd circles, which no handle is left to mend
            trail, ok = glue(lo, c, remaining, offset > 0)
            if ok:
                rec(lo + 1, matched + 1, w)
            unglue(lo, c, trail)

    rec(0, 0, 1)
    # a rotation orbit of polygon 0 whose gluings s turns fix holds k / s
    # leaves with side 0 in the anchor's class (with one polygon, with a
    # least chord at side 0), each counting n0 / k: n0 / s, the orbit's size
    total = sum(Fraction(acc * n0, k) for k, acc in by_k.items())
    if total.denominator != 1:
        raise ConsistencyError(f"pinned leaf total {total} is not an integer")
    return int(total)


def brute_count(spec: GluingSpec, parallel: bool | None = None) -> Fraction:
    """Automorphism-weighted count of accepted maps: matchings / prod(2 l_i).

    Accepts matchings whose map is connected, has the target genus, respects
    the degree-one setting, and passes the irreducibility (or girth) test.
    The search is serial; ``parallel`` is accepted for old callers and has
    no effect.
    """
    spec.validate()
    weight = 1
    for l in spec.degrees:
        weight *= 2 * l
    return Fraction(_search(spec), weight)
