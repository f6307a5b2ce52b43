"""The oracle search before polygon 0 was pinned, kept as a test reference.

``reference_search`` is the glue/unglue search as it stood when only
untouched polygons other than polygon 0 were entered at their first side:
it reaches every map once per rotation of polygon 0, tests the handle
budget and the degree-one rule after a gluing is applied, and keys its leaf
verdicts by ``reference_rotation_code``, which tries every rotation of
polygon 0.  It also keeps each boundary circle as a linked list
(``bnx``/``bpv``) spliced at every gluing, and a count of glued sides per
polygon, where ``_search`` reads both off its vertex chains and its
matching.  ``oracle._search`` must count exactly the same matchings.

``enumerate_matchings`` visits every perfect matching of the polygon sides
with no pruning at all, and ``assemble_map`` keeps the connected gluings of
the spec's genus: with a leaf verdict that shares no code with the oracle,
they are the naive filter the other oracle tests compare the search with.
"""

from dataclasses import replace
from itertools import permutations, product

from hypothesis import example, given, settings
from hypothesis import strategies as st

from irrmaps.families import ConsistencyError
from irrmaps.oracle import (DEFAULT_GUARD_SIDES, GluingSpec, HalfEdgeMap, OracleError,
                            _leaf_passes, _search, check_sides, polygon_layout)
from irrmaps.verify import sweep_tuples


def enumerate_matchings(degrees, visitor=None,
                        guard_sides: int = DEFAULT_GUARD_SIDES) -> int:
    """Visit every perfect matching of the polygon sides exactly once.

    Canonical order: repeatedly pair the smallest unmatched side with each
    larger unmatched side.  Returns the number of matchings visited; if
    ``visitor`` is given it is called with each matching (tuple of pairs).
    """
    S = sum(2 * l for l in degrees)
    if S % 2:
        raise OracleError("odd number of sides")
    check_sides(S, guard_sides)
    partner = [-1] * S
    pairs: list[tuple[int, int]] = []
    count = 0

    def rec(lo: int):
        nonlocal count
        while lo < S and partner[lo] != -1:
            lo += 1
        if lo >= S:
            count += 1
            if visitor is not None:
                visitor(tuple(pairs))
            return
        for c in range(lo + 1, S):
            if partner[c] != -1:
                continue
            partner[lo] = c
            partner[c] = lo
            pairs.append((lo, c))
            rec(lo + 1)
            pairs.pop()
            partner[lo] = -1
            partner[c] = -1

    rec(0)
    return count


def assemble_map(spec: GluingSpec, matching) -> HalfEdgeMap | None:
    """Assemble a matching; reject (None) if disconnected or the wrong genus."""
    hmap = HalfEdgeMap(spec.degrees, matching)
    if not hmap.connected or hmap.genus != spec.genus:
        return None
    return hmap


def reference_rotation_code(degrees: tuple[int, ...], partner) -> tuple[int, ...]:
    """The least partner list among the rotations of a connected gluing.

    For each rotation of polygon 0, the polygons are walked breadth-first
    from it, each newly reached one rotated so that the side the walk enters
    first becomes its side 0, and ``partner`` is relabeled under those
    rotations.  Rotating any polygon of the input changes no walk, so the
    least relabeling is the same for every rotation of the gluing.
    """
    nxt, poly_of, offsets = polygon_layout(degrees)
    S = len(partner)
    best = None
    for r0 in range(2 * degrees[0]):
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


def reference_search(spec: GluingSpec) -> int:
    """Count accepted matchings, entering each untouched polygon at its first
    dart and checking each rotation orbit of leaves once."""
    degrees = spec.degrees
    n = len(degrees)
    S = sum(2 * l for l in degrees)
    E = S // 2
    g_target = spec.genus
    V_target = E - n + 2 - 2 * g_target
    if V_target < 1:
        return 0
    mindeg2 = not spec.allow_degree_one

    nxt, poly_of, offsets = polygon_layout(degrees)
    prv = [0] * S
    for d in range(S):
        prv[nxt[d]] = d
    partner = [-1] * S
    used = [0] * n            # matched darts per polygon
    bnx = list(nxt)
    bpv = list(prv)
    cstart = list(range(S))   # valid at chain ends
    cend = list(range(S))     # valid at chain starts
    clen = [1] * S            # valid at chain starts
    proot = list(range(n))
    popen = [2 * l for l in degrees]

    closedV = 0
    singles = S
    genus_acc = 0
    ncomp = n
    accepted = 0
    verdicts: dict[tuple[int, ...], bool] = {}  # rotation code -> leaf verdict

    def find(x: int) -> int:
        while proot[x] != x:
            x = proot[x]
        return x

    def link(u: int, v: int, trail) -> bool:
        nonlocal closedV, singles
        su = cstart[u]
        if su == v:
            length = clen[v]
            if length == 1 and mindeg2:
                return False
            closedV += 1
            if length == 1:
                singles -= 1
            trail.append((1, length, 0, 0, 0))
            return True
        ev = cend[v]
        lu, lv = clen[su], clen[v]
        clen[su] = lu + lv
        cend[su] = ev
        cstart[ev] = su
        d = (1 if lu == 1 else 0) + (1 if lv == 1 else 0)
        singles -= d
        trail.append((2, su, ev, (u, v, lu), d))
        return True

    def glue(a: int, c: int, remaining: int):
        """Apply the gluing; return (trail, ok)."""
        nonlocal closedV, singles, genus_acc, ncomp
        trail = []
        partner[a] = c
        partner[c] = a
        used[poly_of[a]] += 1
        used[poly_of[c]] += 1

        # components and boundary circles
        ra = find(poly_of[a])
        rc = find(poly_of[c])
        cur = bnx[a]
        while cur != a and cur != c:
            cur = bnx[cur]
        same_circle = cur == c
        ok = True
        if same_circle:
            trail.append((3, ra, popen[ra], 0, 0))
            popen[ra] -= 2
            root = ra
        elif ra == rc:
            genus_acc += 1
            trail.append((4, ra, popen[ra], 0, 0))
            popen[ra] -= 2
            root = ra
            if genus_acc > g_target:
                ok = False
        else:
            trail.append((5, rc, ra, popen[ra], popen[rc]))
            proot[rc] = ra
            popen[ra] = popen[ra] + popen[rc] - 2
            ncomp -= 1
            root = ra
        if ok and popen[root] == 0 and ncomp > 1:
            ok = False  # sealed component can never connect to the rest

        if ok:
            na, pa = bnx[a], bpv[a]
            nc, pc = bnx[c], bpv[c]
            if same_circle:
                if na != c:
                    trail.append((6, pc, bnx[pc], na, bpv[na]))
                    bnx[pc] = na
                    bpv[na] = pc
                if nc != a:
                    trail.append((6, pa, bnx[pa], nc, bpv[nc]))
                    bnx[pa] = nc
                    bpv[nc] = pa
            else:
                if na == a and nc == c:
                    pass
                elif na == a:
                    trail.append((6, pc, bnx[pc], nc, bpv[nc]))
                    bnx[pc] = nc
                    bpv[nc] = pc
                elif nc == c:
                    trail.append((6, pa, bnx[pa], na, bpv[na]))
                    bnx[pa] = na
                    bpv[na] = pa
                else:
                    trail.append((6, pa, bnx[pa], nc, bpv[nc]))
                    bnx[pa] = nc
                    bpv[nc] = pa
                    trail.append((6, pc, bnx[pc], na, bpv[na]))
                    bnx[pc] = na
                    bpv[na] = pc

        if ok:
            ok = link(a, nxt[c], trail)
        if ok:
            ok = link(c, nxt[a], trail)

        if ok:
            if closedV > V_target:
                ok = False
            else:
                chains = 2 * remaining
                vmax = closedV + (chains - singles) + singles // 2 if mindeg2 \
                    else closedV + chains
                if vmax < V_target:
                    ok = False
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
            elif tag == 4:
                popen[rec[1]] = rec[2]
                genus_acc -= 1
            elif tag == 5:
                _, rc, ra, oa, oc = rec
                proot[rc] = rc
                popen[ra] = oa
                popen[rc] = oc
                ncomp += 1
            elif tag == 6:
                _, i, oldn, j, oldp = rec
                bnx[i] = oldn
                bpv[j] = oldp
        partner[a] = -1
        partner[c] = -1
        used[poly_of[a]] -= 1
        used[poly_of[c]] -= 1

    def rec(lo: int, matched: int, weight: int):
        nonlocal accepted
        if matched == E:
            if ncomp == 1 and closedV == V_target:
                if genus_acc != g_target:
                    raise ConsistencyError("handle count disagrees with Euler count")
                if spec.b:  # with b = 0 every leaf passes
                    code = reference_rotation_code(degrees, partner)
                    ok = verdicts.get(code)
                    if ok is None:
                        ok = verdicts[code] = _leaf_passes(spec, partner)
                    if not ok:
                        return
                accepted += weight
            return
        while partner[lo] != -1:
            lo += 1
        p = poly_of[lo]
        remaining = E - matched - 1
        for c in range(lo + 1, S):
            if partner[c] != -1:
                continue
            w = weight
            q = poly_of[c]
            if q != p and not used[q]:
                # every rotation of q counts the same: enter at its first dart
                if c != offsets[q]:
                    continue
                w *= 2 * degrees[q]
            trail, ok = glue(lo, c, remaining)
            if ok:
                rec(lo + 1, matched + 1, w)
            unglue(lo, c, trail)

    rec(0, 0, 1)
    return accepted


# the specs of the benchmark's oracle-planar and oracle-cover workloads,
# then criterion 10 (essential girth >= 4 at (3,3,3,3))
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
    GluingSpec(0, (3, 3, 3, 3), 2, constraint="girth", guard_sides=24),
]


def test_search_equals_reference_on_benchmark_specs_and_criterion_10():
    for spec in BENCHMARK_SPECS:
        assert _search(spec) == reference_search(spec), spec


@st.composite
def _specs(draw):
    """Admissible specs of at most 12 sides and 2-5 faces, genus 0-2."""
    genus = draw(st.integers(0, 2))
    constraint = draw(st.sampled_from(["irreducible", "girth"]))
    b = draw(st.integers(1 if constraint == "girth" else 0, 2))
    lo = max(b, 1)
    n = draw(st.integers(3 if genus == 0 else 2, min(5, 6 // lo)))
    budget = 6 - lo * n
    degs = []
    for _ in range(n):
        extra = draw(st.integers(0, budget))
        budget -= extra
        degs.append(lo + extra)
    return GluingSpec(genus, tuple(degs), b, allow_degree_one=draw(st.booleans()),
                      constraint=constraint)


@settings(max_examples=80, deadline=None)
@given(_specs())
def test_search_equals_reference_on_random_specs(spec):
    assert _search(spec) == reference_search(spec)


@st.composite
def _planar_specs(draw):
    """Admissible genus-0 specs of 3-7 faces and at most 14 sides, b = 1-2,
    both constraints, with or without degree-one vertices; at b = 1 a
    uniform share of the faces, all or none included, are 2-gons."""
    constraint = draw(st.sampled_from(["irreducible", "girth"]))
    b = draw(st.integers(1, 2))
    n = draw(st.integers(3, 7 // b))
    twogons = draw(st.integers(0, n)) if b == 1 else 0
    budget = 7 - b * n
    degs = [1] * twogons
    for _ in range(n - twogons):
        extra = draw(st.integers(0, budget))
        budget -= extra
        degs.append(b + extra)
    return GluingSpec(0, tuple(draw(st.permutations(degs))), b,
                      allow_degree_one=draw(st.booleans()), constraint=constraint)


# three faces at b = 3 already need 18 sides
@settings(max_examples=100, deadline=None)
@given(_planar_specs())
@example(GluingSpec(0, (3, 3, 3), 3))
@example(GluingSpec(0, (3, 3, 3), 3, allow_degree_one=True, constraint="girth"))
def test_search_equals_reference_on_random_planar_specs(spec):
    # the 2-cycle rule prunes genus-0 searches at b >= 1 only
    assert _search(spec) == reference_search(spec)


def test_search_is_the_same_for_every_order_of_the_degrees():
    for spec in BENCHMARK_SPECS:
        want = _search(spec)
        for degrees in set(permutations(spec.degrees)):
            assert _search(replace(spec, degrees=degrees)) == want, (spec, degrees)


@st.composite
def _repeated_degree_specs(draw):
    """Admissible specs of 3-6 faces and at most 12 sides, genus 0-2, in
    which some half-degree is held by two faces or more, in any order."""
    genus = draw(st.integers(0, 2))
    constraint = draw(st.sampled_from(["irreducible", "girth"]))
    n = draw(st.integers(3, 6))
    b = draw(st.integers(1 if constraint == "girth" else 0, 6 // n))
    lo = max(b, 1)
    r = draw(st.integers(2, n))                  # faces of the repeated degree
    l = draw(st.integers(lo, (6 - lo * (n - r)) // r))
    budget = 6 - r * l - lo * (n - r)
    degs = [l] * r
    for _ in range(n - r):
        extra = draw(st.integers(0, budget))
        budget -= extra
        degs.append(lo + extra)
    return GluingSpec(genus, tuple(draw(st.permutations(degs))), b,
                      allow_degree_one=draw(st.booleans()), constraint=constraint)


@settings(max_examples=80, deadline=None)
@given(_repeated_degree_specs())
def test_search_equals_reference_on_repeated_degrees(spec):
    assert _search(spec) == reference_search(spec)


def _one_face_specs(max_sides: int):
    """Every admissible one-face spec of at most ``max_sides`` sides, genus
    1-2, b 0-3, both constraints, with and without degree-one vertices."""
    for l in range(1, max_sides // 2 + 1):
        for genus, b, constraint, allow in product(
                (1, 2), range(4), ("irreducible", "girth"), (False, True)):
            if b <= l and (b or constraint == "irreducible"):
                yield GluingSpec(genus, (l,), b, allow_degree_one=allow,
                                 constraint=constraint)


def test_search_equals_reference_on_every_one_face_spec():
    # the one polygon is pinned by its least chord, which the reference
    # search does not do; neither strategy above draws a single face
    specs = list(_one_face_specs(10))
    assert len(specs) == 116
    for spec in specs:
        assert _search(spec) == reference_search(spec), spec


def _sweep_specs():
    """Every tuple of ``sweep_tuples(12, 0)`` and ``sweep_tuples(10, 2)``,
    with and without degree-one vertices, and in girth mode where b >= 1."""
    for max_sides, b_max in ((12, 0), (10, 2)):
        for genus, _, b, degrees in sweep_tuples(max_sides, b_max):
            for allow, constraint in product(
                    (False, True), ("irreducible", "girth") if b else ("irreducible",)):
                yield GluingSpec(genus, degrees, b, allow_degree_one=allow,
                                 constraint=constraint)


def test_search_equals_reference_on_every_sweep_spec():
    specs = list(_sweep_specs())
    assert len(specs) == 450
    for spec in specs:
        assert _search(spec) == reference_search(spec), spec
