"""The benchmark's workloads: what one pass runs and how each answer is checked.

A workload is a list of jobs.  A job is a call into the public API of
``irrmaps`` (``run``) plus a check of its answer (``check``) that runs
after the timed pass; a job whose answer is checked in a separate process
(``crosscheck``) or not at all has no ``check``.  Every callable is looked
up through its module at call time, so the traced run sees the wrappers it
installs.

This module imports no part of ``irrmaps`` at import time: the pass that
uses it times ``import irrmaps`` as part of set-up.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

GOLDEN_PATH = Path(__file__).with_name("golden.json")

#: the counts workload's golden answers were recorded for this seed
SEED_OF_RECORD = 1

#: counts tuples with at most this many polygon sides, by genus, are
#: cross-checked against the brute-force oracle when the seed is not the seed
#: of record (degree-one counts are checked against golden.json instead).
#: Higher genus stops earlier, and at b <= 2, because cover balls get
#: expensive: one genus-2, 12-side tuple at b = 2 takes 20-40 s.
CROSSCHECK_MAX_SIDES = {0: 12, 1: 10, 2: 8}
CROSSCHECK_MAX_B_COVER = 2

WORKLOADS = ("symbolic", "oracle-planar", "oracle-cover", "counts")

SYMBOLIC_GRID = [(0, n) for n in range(3, 9)] + [(1, n) for n in range(1, 5)] \
    + [(2, n) for n in range(1, 4)]
SYMBOLIC_SMOKE_GRID = [(0, 3), (0, 4), (0, 5), (1, 1), (1, 2)]

COUNTS_GRID = [(0, n) for n in range(3, 7)] + [(1, n) for n in range(1, 4)] \
    + [(2, n) for n in range(1, 3)]
COUNTS_SMOKE_GRID = [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]

#: per face count, the grid extents (d_i - b + 1) of the degree-one counts
D1_EXTENTS = {1: (13,), 2: (7, 6), 3: (5, 5, 4), 4: (4, 4, 3, 3),
              5: (3, 3, 3, 3, 2), 6: (3, 3, 2, 2, 2, 2)}
#: b of a degree-one count is drawn from this range, bounds included
D1_B_RANGE = (0, 2)
D1_ANCHOR = ("exact-d1", 0, 5, 0, (6,) * 5)
#: point counts per (genus, faces) and mode in a full pass
COUNTS_PER_MODE = 10

# (genus, half-degrees, b, constraint, allow_degree_one, guard) -> answer
ORACLE_PLANAR = [
    ((0, (3, 3, 2, 2), 2, "girth", False, 20), Fraction(19)),
    ((0, (3, 2, 2, 2), 1, "irreducible", False, 18), Fraction(14)),
    ((0, (2, 2, 2, 1), 1, "irreducible", True, 18), Fraction(6)),
    ((0, (2, 2, 2, 1, 1), 1, "irreducible", False, 18), Fraction(30)),
]
ORACLE_COVER = [
    ((1, (2, 2, 2), 2, "irreducible", False, 18), Fraction(6)),
    ((1, (3, 3), 2, "girth", False, 18), Fraction(34, 3)),
    ((1, (4, 2), 2, "irreducible", False, 18), Fraction(53, 4)),
    ((2, (5,), 2, "irreducible", False, 18), Fraction(273, 10)),
    ((2, (3, 2), 2, "irreducible", False, 18), Fraction(13, 2)),
]
ORACLE_PLANAR_SMOKE = [((0, (2, 2, 1), 1, "irreducible", True, 18), Fraction(1))]
ORACLE_COVER_SMOKE = [((1, (3, 2), 2, "irreducible", False, 18), Fraction(9, 2))]


@dataclass
class Job:
    """One call into irrmaps; ``check`` maps its result to a list of failures.

    ``cold_spans``: span names the traced run must see inside this job when
    the pass is cold, that is when no cache handed the job its answer.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]] | None = None
    crosscheck: Callable[[], list[str]] | None = None
    cold_spans: tuple[str, ...] = ()


def load_golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ============================================================
# symbolic
# ============================================================


def _verdict(name: str, report) -> list[str]:
    return [f"{name}: {c.description}" for c in report.cases if not c.passed]


def symbolic_jobs(smoke: bool) -> list[Job]:
    from irrmaps import pipeline, serialize, verify

    golden = load_golden()["symbolic_sha256"]
    jobs = []
    for g, n in (SYMBOLIC_SMOKE_GRID if smoke else SYMBOLIC_GRID):
        def run(g=g, n=n):
            count = pipeline.nhat(g, n)
            return serialize.emit_polynomial_json(count), count.m_basis()

        def check(result, g=g, n=n):
            text, basis = result
            if sha256(text) != golden[f"{g},{n}"]:
                return [f"nhat({g},{n}): canonical JSON differs from the recorded digest"]
            if len(basis) != len(json.loads(text)["mlambda"]):
                return [f"nhat({g},{n}): m-basis disagrees with the JSON"]
            return []

        cold = "pipeline.nhat_genus0" if g == 0 else "pipeline.solve_R_hat"
        jobs.append(Job(f"nhat {g} {n}", run, check, cold_spans=(cold,)))
    if smoke:
        suites = [("verify_string", (0, 3)), ("verify_dilaton", (0, 3)),
                  ("verify_moments", (2,))]
    else:
        suites = [("verify_table1", ()), ("verify_string", ()),
                  ("verify_dilaton", ()), ("verify_moments", ())]
    for name, args in suites:
        jobs.append(Job(name, lambda name=name, args=args: getattr(verify, name)(*args),
                        lambda report, name=name: _verdict(name, report)))
    return jobs


# ============================================================
# oracle
# ============================================================


def _spec(fields):
    from irrmaps import GluingSpec

    genus, degrees, b, constraint, allow, guard = fields
    return GluingSpec(genus, degrees, b, allow_degree_one=allow,
                      constraint=constraint, guard_sides=guard)


def oracle_jobs(table) -> list[Job]:
    from irrmaps import oracle

    jobs = []
    for fields, want in table:
        spec = _spec(fields)

        def check(got, spec=spec, want=want):
            return [] if got == want else [f"brute_count({spec}) = {got}, expected {want}"]

        run = lambda spec=spec: oracle.brute_count(spec, parallel=False)
        jobs.append(Job(f"brute {fields}", run, check))
    return jobs


# ============================================================
# counts
# ============================================================


def counts_tuples(seed: int, smoke: bool) -> list[tuple]:
    """The counts workload's inputs: (kind, genus, n, b, half-degrees) tuples.

    The seed draws every tuple.  Degree-one counts keep the grid extent of
    each face fixed per face count and draw b and the order of the faces,
    so every seed costs about the same; the anchor is the same in every
    full pass.
    """
    rng = random.Random(seed)
    grid = COUNTS_SMOKE_GRID if smoke else COUNTS_GRID
    per_mode = 2 if smoke else COUNTS_PER_MODE
    out = [] if smoke else [D1_ANCHOR]
    for g, n in grid:
        for _ in range(per_mode):
            b = rng.randint(0, 3)
            lo = max(b, 1)
            out.append(("exact", g, n, b, tuple(rng.randint(lo, lo + 5) for _ in range(n))))
        for _ in range(per_mode):
            b = rng.randint(1, 3)
            out.append(("girth-at-least", g, n, b,
                        tuple(rng.randint(b, b + 5) for _ in range(n))))
        for _ in range(per_mode):
            b = rng.randint(1, 3)
            out.append(("girth-exactly", g, n, b,
                        tuple(rng.randint(b + 1, b + 6) for _ in range(n))))
        extents = d1_extents(n, smoke)
        rng.shuffle(extents)
        b = rng.randint(*D1_B_RANGE)
        out.append(("exact-d1", g, n, b, tuple(b + e - 1 for e in extents)))
    return out


def d1_extents(n: int, smoke: bool) -> list[int]:
    return [min(e, 2) for e in D1_EXTENTS[n]] if smoke else list(D1_EXTENTS[n])


def d1_key(g: int, b: int, degrees) -> str:
    """golden.json key of a degree-one count.  The count is symmetric in the
    half-degrees, so the key sorts them."""
    return f"{g} {b} " + ",".join(map(str, sorted(degrees)))


def d1_tuples() -> list[tuple]:
    """Every degree-one tuple any seed can draw, up to the order of the faces,
    smoke configuration included."""
    out = [D1_ANCHOR]
    for smoke, grid in ((False, COUNTS_GRID), (True, COUNTS_SMOKE_GRID)):
        for g, n in grid:
            for b in range(D1_B_RANGE[0], D1_B_RANGE[1] + 1):
                out.append(("exact-d1", g, n, b,
                            tuple(b + e - 1 for e in d1_extents(n, smoke))))
    return out


def count_call(kind: str, g: int, n: int, b: int, degrees) -> Fraction:
    from irrmaps import pipeline

    if kind == "exact":
        return pipeline.count_exact(g, n, b, degrees)
    if kind == "exact-d1":
        return pipeline.count_exact(g, n, b, degrees, allow_degree_one=True)
    return pipeline.girth_count(g, n, b, degrees, mode=kind[len("girth-"):])


def _brute_value(kind: str, g: int, b: int, degrees) -> Fraction:
    """The same count from the brute-force oracle, serial."""
    from irrmaps import GluingSpec, oracle

    def brute(bb, constraint="irreducible", allow=False):
        return oracle.brute_count(GluingSpec(g, degrees, bb, allow_degree_one=allow,
                                             constraint=constraint), parallel=False)

    if kind == "exact":
        return brute(b)
    if kind == "exact-d1":
        return brute(b, allow=True)
    if kind == "girth-at-least":
        return brute(b, "girth")
    return brute(b, "girth") - brute(b + 1, "girth")


def _brute_affordable(kind: str, g: int, b: int, degrees) -> bool:
    top_b = b + 1 if kind == "girth-exactly" else b
    return 2 * sum(degrees) <= CROSSCHECK_MAX_SIDES[g] \
        and (g == 0 or top_b <= CROSSCHECK_MAX_B_COVER)


def _crosscheck(t: tuple, label: str) -> list[str]:
    kind, g, _, b, degrees = t
    got, want = count_call(*t), _brute_value(kind, g, b, degrees)
    return [] if got == want else [f"{label}: {got}, brute force {want}"]


def counts_setup(smoke: bool) -> None:
    """Build every polynomial the counts workload evaluates."""
    from irrmaps import pipeline

    for g, n in (COUNTS_SMOKE_GRID if smoke else COUNTS_GRID):
        pipeline.nhat(g, n)


def _equals_recorded(want: str, label: str) -> Callable[[object], list[str]]:
    return lambda got: [] if str(got) == want else [f"{label}: {got}, recorded {want}"]


def counts_jobs(seed: int, smoke: bool) -> list[Job]:
    """Answers are compared with golden.json for the seed of record.  For any
    other seed the degree-one counts are compared with golden.json too, and
    the affordable other tuples are cross-checked by brute force; the rest go
    unchecked."""
    golden = load_golden()
    recorded = golden["counts_seed_of_record"] \
        if seed == SEED_OF_RECORD and not smoke else None
    jobs = []
    for idx, t in enumerate(counts_tuples(seed, smoke)):
        kind, g, _, b, degrees = t
        label = f"{kind} g={g} b={b} {degrees}"
        job = Job(label, lambda t=t: count_call(*t))
        if recorded is not None:
            job.check = _equals_recorded(recorded[idx], label)
        elif kind == "exact-d1":
            job.check = _equals_recorded(golden["counts_degree_one"][d1_key(g, b, degrees)],
                                         label)
        elif _brute_affordable(kind, g, b, degrees):
            job.crosscheck = lambda t=t, label=label: _crosscheck(t, label)
        jobs.append(job)
    return jobs


# ============================================================
# dispatch
# ============================================================


def setup(workload: str, smoke: bool) -> None:
    """Lazy set-up a user pays before the first answer: the Q table, and the
    polynomials the counts workload evaluates."""
    from irrmaps import families

    families.qpoly_table()
    if workload == "counts":
        counts_setup(smoke)


def make_jobs(workload: str, seed: int, smoke: bool) -> list[Job]:
    if workload == "symbolic":
        return symbolic_jobs(smoke)
    if workload == "oracle-planar":
        return oracle_jobs(ORACLE_PLANAR_SMOKE if smoke else ORACLE_PLANAR)
    if workload == "oracle-cover":
        return oracle_jobs(ORACLE_COVER_SMOKE if smoke else ORACLE_COVER)
    if workload == "counts":
        return counts_jobs(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
