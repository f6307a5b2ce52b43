"""Benchmark of irrmaps: end-to-end and per-layer metrics of one workload.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from ``src/``.  All
four workloads, stopping at the first failed check:

    for w in symbolic oracle-planar oracle-cover counts; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0 || break
    done

Each pass runs cold in a fresh interpreter (``passrun.py``), so no cache of
the package carries over from one pass to the next.  Passes run one after
another, closed loop, one process at a time.  A run makes as many passes as
fit in ``--seconds`` at the pass budget of its workload, at least one.
The count does not depend on how fast the passes turn out: a rule like "start
another pass if it still fits" makes runs on a slow machine keep their one
slow pass and runs on a fast machine average two fast ones, which widens the
spread between runs.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (one pass over
the workload's jobs) and ``peak_rss_mb`` (the pass process's
``ru_maxrss``) as medians over the passes, and ``setup_s`` (``import
irrmaps`` plus the lazy set-up before the pass) as the first decile of a
fixed number of samples, taken in the passes and in set-up-only processes.
Set-up lasts 0.07-0.5 s.  On a 2-vCPU Xeon VM the symbolic samples of one
run range over 0.064-0.12 s, and their median moved by 37% (IQR over
median) across ten runs where the first decile moved by 16%.

``--trace 1`` runs traced and untraced passes in turn, starting and ending
with a traced one, so a run holds at least two traced passes and the
untraced ones sit between them.  It reports the per-layer metrics of the
traced passes and the tracing overhead; spans go to ``.perfbench_out/``.
Counts must repeat exactly across the traced passes, and each job that
computes from scratch in a cold pass must show the spans that prove it
(``workloads.Job.cold_spans``), so a cache that outlives a pass fails the
run.

Every check runs outside the timed region, and ``attempted`` counts only
checked operations.  The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same metrics for a reader, with ``ops_failed_share``.  Exit status: 0 when every check passed, 1 when a
check failed or a pass crashed, 2 when the package is not found.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"

#: set-up samples in one untraced run, the passes' own included; one
#: sample costs about 0.16 s, or 0.55 s on counts
SETUP_SAMPLES = {"symbolic": 30, "oracle-planar": 30, "oracle-cover": 30, "counts": 8}

#: seconds of a run budgeted per pass: the wall time of one pass on a 2-vCPU
#: Xeon VM with Python 3.11 in its slow spells (its speed drifts by up to 40%
#: over minutes), and for counts room for its set-up samples and brute-force
#: cross-check as well; a 20 s run then ends within about 30 s
PASS_BUDGET_S = {"symbolic": 18.0, "oracle-planar": 16.0, "oracle-cover": 15.0,
                 "counts": 9.0}
#: every child is stopped once the whole run has taken this long
HARD_LIMIT_S = 170.0

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


class PassError(RuntimeError):
    """A pass process crashed, timed out or printed no result."""


def _child(args: list[str], deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    timeout = max(1.0, deadline - time.perf_counter())
    try:
        proc = subprocess.run([sys.executable, str(HERE / "passrun.py"), *args], cwd=ROOT,
                              env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {args} exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"pass {args} exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def environment() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "python": platform.python_version()}


def pass_count(workload: str, seconds: float, trace: bool) -> int:
    """Passes in one run; a traced run needs two traced passes to compare
    counts and an untraced pass between them to compare times."""
    return max(3 if trace else 1, int(seconds // PASS_BUDGET_S[workload]))


def setup_estimate(samples: list[float]) -> float:
    return statistics.quantiles(samples, n=10)[0]


def measure(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    deadline = time.perf_counter() + HARD_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)] + (["--smoke"] if smoke else [])
    runs: dict[str, list[dict]] = {"plain": [], "traced": []} if trace else {"plain": []}
    setups = []
    passes = pass_count(workload, seconds, trace)
    setup_only = 0 if trace else max(0, SETUP_SAMPLES[workload] - passes)

    def sample_setups(slot: int) -> None:
        # set-up-only samples go before every pass and after the last one,
        # so that a slow spell of the host does not catch them all
        for _ in range(setup_only * (slot + 1) // (passes + 1)
                       - setup_only * slot // (passes + 1)):
            setups.append(_child(common + ["--setup-only"], deadline)["setup_s"])

    for i in range(passes):
        sample_setups(i)
        if trace and i % 2 == 0:
            OUT_DIR.mkdir(exist_ok=True)
            spans = OUT_DIR / f"{workload}-trace{len(runs['traced'])}.jsonl"
            runs["traced"].append(_child(common + ["--trace", "1", "--spans", str(spans)],
                                         deadline))
        else:
            runs["plain"].append(_child(common + ["--trace", "0"], deadline))
    sample_setups(passes)
    setups += [r["setup_s"] for r in runs["plain"]]

    crosscheck = None
    if workload == "counts" and (smoke or seed != workloads.SEED_OF_RECORD):
        crosscheck = _child(common + ["--crosscheck-only"], deadline)
    return {"runs": runs, "setups": setups, "crosscheck": crosscheck}


def trace_failures(traced: list[dict]) -> list[str]:
    """Counts must repeat exactly across traced passes, and no job may run
    warm (a cache leaking across passes would hand it its answer)."""
    problems = []
    if len(traced) < 2:
        problems.append(f"{len(traced)} traced pass(es): counts cannot be compared")
    first = traced[0]["layers"]
    for r in traced[1:]:
        for name, value in r["layers"].items():
            if layertrace.is_count(name) and value != first[name]:
                problems.append(f"{name} differs between traced passes: "
                                f"{first[name]} vs {value}")
    for i, r in enumerate(traced):
        problems += [f"traced pass {i}: job {label!r} ran warm, not from scratch"
                     for label in r["warm_jobs"]]
    return problems


def summarize(workload: str, seed: int, trace: bool, measured: dict) -> tuple[dict, list[str]]:
    runs = measured["runs"]
    every = [r for kind in runs.values() for r in kind]
    if measured["crosscheck"]:
        every.append(measured["crosscheck"])
    attempted = sum(r["attempted"] for r in every)
    failed = sum(r["failed"] for r in every)
    failures = [f for r in every for f in r["failures"]]
    plain = runs["plain"]
    metrics = {}
    if trace:
        traced = runs["traced"]
        problems = trace_failures(traced)
        failed += len(problems)
        failures += problems
        for entry in layertrace.per_layer_catalogue():
            name = entry["name"]
            if name == "trace_overhead_pct":
                # the untraced passes sit between traced ones, so a steady
                # drift of the host's speed cancels out
                untraced = statistics.median(r["wall_s"] for r in plain)
                value = 100.0 * (statistics.median(r["wall_s"] for r in traced) / untraced - 1)
            elif layertrace.is_count(name):
                value = traced[0]["layers"][name]
            else:
                value = statistics.median(r["layers"][name] for r in traced)
            metrics[name] = {"value": value, "unit": entry["unit"]}
    else:
        metrics["wall_s"] = statistics.median(r["wall_s"] for r in plain)
        metrics["setup_s"] = setup_estimate(measured["setups"])
        metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}

    env = environment()
    lines = [f"workload {workload}  seed {seed}  trace {int(trace)}  "
             f"passes {len(plain)} untraced"
             + (f", {len(runs['traced'])} traced" if trace else
                f", set-up samples {len(measured['setups'])}")
             + f"  nproc {env['nproc']}  cpu_count {env['cpu_count']}  python {env['python']}"]
    for name, m in metrics.items():
        lines.append(f"  {name:<40} {m['value']:>16.6g} {m['unit']}")
    lines.append(f"  {'ops_failed_share':<40} {failed / attempted:>16.6g} share"
                 f"  ({failed} of {attempted} operations)")
    lines += [f"  FAILED: {f}" for f in failures]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    return result, lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="irrmaps benchmark (see module docstring)")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny configuration of the workload, for the benchmark's own tests")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "irrmaps" / "__init__.py").is_file():
        print(f"run.py: no irrmaps package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    try:
        measured = measure(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    except PassError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    result, lines = summarize(args.workload, args.seed, bool(args.trace), measured)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
