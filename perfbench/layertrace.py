"""Spans around the calls into each layer of ``irrmaps``, for the traced run.

The tracer replaces public callables with wrappers that record one span per
call: (name, start, end, parent span, job).  Functions are patched under the
name their caller looks them up by (``pipeline.series_J_inverse``,
``oracle.CoverBall``, ...); the kernel operators are patched as class
attributes.  ``restore`` puts every original object back.

Spans stay in memory until the pass ends.  A span's self time is its
duration minus the durations of its direct children, which cover disjoint
parts of it because the program is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import Counter


def _mul_pairs(args, result):
    a, b = args
    if result is NotImplemented:
        return 0
    return len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1)


def _out_terms(args, result):
    return sum(len(c.terms) for c in result.terms.values())


def _json_bytes(args, result):
    return len(result.encode())


def _accepted(args, result):
    weight = 1
    for half_degree in args[0].degrees:
        weight *= 2 * half_degree
    return int(result * weight)


# (module, class or None, attribute, span name, counter, measure): the
# counter, if any, adds up measure(args, result) over the calls
PATCHES = [
    ("ring", "MultiPoly", "__mul__", "ring.MultiPoly.mul",
     "ring.MultiPoly.mul.term_pairs", _mul_pairs),
    ("ring", "MultiPoly", "__rmul__", "ring.MultiPoly.mul",
     "ring.MultiPoly.mul.term_pairs", _mul_pairs),
    ("ring", "MultiPoly", "evaluate", "ring.MultiPoly.evaluate", None, None),
    ("ring", "GradedSeries", "__mul__", "ring.GradedSeries.mul", None, None),
    ("ring", "GradedSeries", "__rmul__", "ring.GradedSeries.mul", None, None),
    ("ring", "Series", "compose", "ring.Series.compose", None, None),
    ("families", None, "qpoly_table", "families.qpoly_table", None, None),
    ("pipeline", None, "qpoly_table", "families.qpoly_table", None, None),
    ("pipeline", None, "series_J_inverse", "families.series_J_inverse", None, None),
    ("pipeline", None, "series_I", "families.series_I", None, None),
    ("pipeline", None, "solve_R_hat", "pipeline.solve_R_hat",
     "pipeline.solve_R_hat.out_terms", _out_terms),
    ("verify", None, "solve_R_hat", "pipeline.solve_R_hat",
     "pipeline.solve_R_hat.out_terms", _out_terms),
    ("pipeline", None, "moment_hat", "pipeline.moment_hat", None, None),
    ("verify", None, "moment_hat", "pipeline.moment_hat", None, None),
    ("verify", None, "moment_hat_via_T", "pipeline.moment_hat_via_T", None, None),
    ("pipeline", None, "free_energy", "pipeline.free_energy", None, None),
    ("pipeline", None, "nhat_genus0", "pipeline.nhat_genus0", None, None),
    ("pipeline", None, "to_m_basis", "pipeline.to_m_basis", None, None),
    ("serialize", None, "to_m_basis", "pipeline.to_m_basis", None, None),
    ("verify", None, "to_m_basis", "pipeline.to_m_basis", None, None),
    ("pipeline", None, "count_exact", "pipeline.count_exact", None, None),
    ("pipeline", None, "girth_count", "pipeline.girth_count", None, None),
    ("serialize", None, "emit_polynomial_json", "serialize.emit_polynomial_json",
     "serialize.emit_polynomial_json.bytes", _json_bytes),
    ("verify", None, "verify_table1", "verify.verify_table1", None, None),
    ("verify", None, "verify_string", "verify.verify_string", None, None),
    ("verify", None, "verify_dilaton", "verify.verify_dilaton", None, None),
    ("verify", None, "verify_moments", "verify.verify_moments", None, None),
    ("oracle", None, "brute_count", "oracle.brute_count", "oracle.accepted",
     _accepted),
    ("oracle", None, "HalfEdgeMap", "oracle.HalfEdgeMap", None, None),
    ("oracle", None, "check_irreducible", "oracle.check_irreducible", None, None),
    ("oracle", None, "CoverBall", "oracle.CoverBall", None, None),
    ("oracle", None, "simple_cycles_up_to", "oracle.simple_cycles_up_to", None, None),
]

JOB_SPAN = "bench.job"


class Tracer:
    """Records spans for the wrapped callables while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # (name id, start, end, parent index or -1, job)
        self.spans: list[tuple | None] = []
        self.extra: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, counter: str | None = None, measure=None):
        nid = self._name_id(name)
        spans, stack, extra = self.spans, self._stack, self.extra
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.job)
            if measure is not None:
                extra[counter] += measure(args, result)
            return result

        return wrapper

    def install(self, modules: dict) -> None:
        """Patch every entry of PATCHES; ``modules`` maps short names to modules."""
        for mod, cls, attr, name, counter, measure in PATCHES:
            owner = getattr(modules[mod], cls) if cls else modules[mod]
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, counter, measure))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def run_job(self, job: int, fn):
        self.job = job
        try:
            return self.wrap(JOB_SPAN, fn)()
        finally:
            self.job = -1

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total time and self time.  Spans of one name
        never nest in this program, so their total time counts nothing twice."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {name: {"calls": 0, "self_s": 0.0, "s": 0.0} for name in self.names}
        for i, (nid, start, end, _, _) in enumerate(self.spans):
            row = out[self.names[nid]]
            row["calls"] += 1
            row["s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def jobs_with(self, names) -> set[int]:
        """Indices of the jobs that hold a span of one of these names."""
        ids = {self._ids[name] for name in names if name in self._ids}
        return {job for nid, _, _, _, job in self.spans if nid in ids}

    def write(self, path, jobs: list[str]) -> None:
        """Spans as JSON lines: a header with the span names and job labels
        the spans index into, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"names": self.names, "jobs": jobs,
                                 "fields": ["name", "start", "end", "parent", "job"]}) + "\n")
            for nid, start, end, parent, job in self.spans:
                fh.write(f"[{nid},{start:.9f},{end:.9f},{parent},{job}]\n")


def patched_objects(modules: dict) -> dict[str, object]:
    """The objects currently bound at every patch site, by dotted site name."""
    out = {}
    for mod, cls, attr, _, _, _ in PATCHES:
        owner = getattr(modules[mod], cls) if cls else modules[mod]
        out[".".join(filter(None, (mod, cls, attr)))] = vars(owner)[attr]
    return out


# (span name, fields) reported from span totals; "s" is the spans' total
# time, "self_s" the part of it not covered by child spans
SPAN_FIELDS = [
    ("ring.MultiPoly.mul", ("calls", "self_s")),
    ("ring.GradedSeries.mul", ("calls", "self_s")),
    ("ring.Series.compose", ("calls", "self_s")),
    ("ring.MultiPoly.evaluate", ("calls", "self_s")),
    ("families.qpoly_table", ("s",)),
    ("families.series_J_inverse", ("calls", "self_s")),
    ("families.series_I", ("self_s",)),
    ("pipeline.solve_R_hat", ("calls", "self_s")),
    ("pipeline.moment_hat", ("self_s",)),
    ("pipeline.moment_hat_via_T", ("self_s",)),
    ("pipeline.free_energy", ("self_s",)),
    ("pipeline.nhat_genus0", ("self_s",)),
    ("pipeline.to_m_basis", ("self_s",)),
    ("pipeline.count_exact", ("calls", "self_s")),
    ("pipeline.girth_count", ("self_s",)),
    ("serialize.emit_polynomial_json", ("self_s",)),
    ("verify.verify_table1", ("s",)),
    ("verify.verify_string", ("s",)),
    ("verify.verify_dilaton", ("s",)),
    ("verify.verify_moments", ("s",)),
    ("oracle.CoverBall", ("calls", "s")),
    ("oracle.HalfEdgeMap", ("calls", "s")),
    ("oracle.check_irreducible", ("calls", "self_s")),
    ("oracle.simple_cycles_up_to", ("calls", "self_s")),
    ("oracle.brute_count", ("calls", "s")),
]
COUNTERS = ["ring.MultiPoly.mul.term_pairs", "pipeline.solve_R_hat.out_terms",
            "serialize.emit_polynomial_json.bytes", "oracle.accepted"]
UNITS = {"calls": "count", "self_s": "s", "s": "s", "term_pairs": "count",
         "out_terms": "count", "bytes": "B", "accepted": "count", "accept_ratio": "ratio",
         "trace_overhead_pct": "%"}
HIGHER_IS_BETTER = {"accepted", "accept_ratio"}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass; layers a workload does not
    touch report 0."""
    totals = tracer.totals()
    out = {}
    for span, fields in SPAN_FIELDS:
        for f in fields:
            out[f"{span}.{f}"] = totals.get(span, {}).get(f, 0)
    for metric in COUNTERS:
        out[metric] = tracer.extra.get(metric, 0)
    out["oracle.search.self_s"] = totals.get("oracle.brute_count", {}).get("self_s", 0.0)
    checks = out["oracle.check_irreducible.calls"]
    out["oracle.accept_ratio"] = out["oracle.accepted"] / checks if checks else 0.0
    return out


def is_count(metric: str) -> bool:
    """Counts repeat exactly from run to run; times do not."""
    last = metric.rsplit(".", 1)[-1]
    return UNITS.get(last) in ("count", "B")


def per_layer_catalogue() -> list[dict]:
    """Name, unit and direction of every per-layer metric, in report order."""
    names = [f"{span}.{f}" for span, fields in SPAN_FIELDS for f in fields]
    names += COUNTERS + ["oracle.search.self_s", "oracle.accept_ratio", "trace_overhead_pct"]
    out = []
    for name in names:
        last = name.rsplit(".", 1)[-1]
        out.append({"name": name, "unit": UNITS[last],
                    "better": "higher" if last in HIGHER_IS_BETTER else "lower"})
    return out
