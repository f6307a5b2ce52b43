"""One cold pass of a benchmark workload, meant to run in a fresh interpreter.

    PYTHONPATH=src python3 perfbench/passrun.py --workload symbolic --seed 1 --trace 0

Times set-up (``import irrmaps`` plus the lazy set-up a user pays before
the first answer) and then one pass over the workload's jobs.  Every
answer that has a check is checked after the timed pass.  Prints one JSON
object.

``--trace 1`` installs the layer wrappers after the import, so set-up and
the pass are traced; the wrappers are removed before the answers are
checked.  A traced pass also lists the jobs that ran warm (see
``workloads.Job.cold_spans``).  ``--setup-only`` stops after set-up;
``--crosscheck-only`` skips the timing and runs the brute-force
cross-checks of the counts workload.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import layertrace
import workloads


def _modules() -> dict:
    from irrmaps import families, oracle, pipeline, ring, serialize, verify

    return {"ring": ring, "families": families, "pipeline": pipeline,
            "serialize": serialize, "verify": verify, "oracle": oracle}


def run_pass(workload: str, seed: int, trace: bool = False, smoke: bool = False,
             spans_path: str | None = None, setup_only: bool = False) -> dict:
    start = time.perf_counter()
    import irrmaps  # noqa: F401  (timed: part of set-up)

    modules = _modules()
    tracer = layertrace.Tracer() if trace else None
    if tracer:
        tracer.install(modules)
    try:
        workloads.setup(workload, smoke)
        setup_s = time.perf_counter() - start
        if setup_only:
            return {"setup_s": setup_s}
        joblist = workloads.make_jobs(workload, seed, smoke)
        results = []
        start = time.perf_counter()
        for i, job in enumerate(joblist):
            results.append(tracer.run_job(i, job.run) if tracer else job.run())
        wall_s = time.perf_counter() - start
    finally:
        if tracer:
            tracer.restore()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    out = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           **_tally([job.check(result) for job, result in zip(joblist, results)
                     if job.check is not None])}
    if tracer:
        out["layers"] = layertrace.layer_metrics(tracer)
        out["warm_jobs"] = [job.label for i, job in enumerate(joblist)
                            if job.cold_spans and i not in tracer.jobs_with(job.cold_spans)]
        if spans_path:
            tracer.write(spans_path, [job.label for job in joblist])
    return out


def _tally(problem_lists: list[list[str]]) -> dict:
    """One list of failure messages per operation -> the counts run.py sums."""
    failures = [p for problems in problem_lists for p in problems]
    return {"attempted": len(problem_lists), "failed": sum(map(bool, problem_lists)),
            "failures": failures[:20]}


def run_crosscheck(workload: str, seed: int, smoke: bool) -> dict:
    workloads.setup(workload, smoke)
    return _tally([job.crosscheck() for job in workloads.make_jobs(workload, seed, smoke)
                   if job.crosscheck is not None])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--spans", help="write the traced pass's spans here")
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--setup-only", action="store_true")
    mode.add_argument("--crosscheck-only", action="store_true")
    args = ap.parse_args(argv)
    if args.crosscheck_only:
        out = run_crosscheck(args.workload, args.seed, args.smoke)
    else:
        out = run_pass(args.workload, args.seed, bool(args.trace), args.smoke, args.spans,
                       args.setup_only)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
