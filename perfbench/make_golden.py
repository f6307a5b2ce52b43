"""Record the answers the benchmark checks against, from the current code.

    PYTHONPATH=src python3 perfbench/make_golden.py

Writes ``golden.json``: the SHA-256 of the canonical JSON of every (genus,
faces) pair of the symbolic workload (smoke pairs included), every answer
of the counts workload for the seed of record, and every degree-one count
any seed can draw.  Run it only on a
commit whose outputs are known to be right; the benchmark exists to catch
changes to these values.
"""

from __future__ import annotations

import json

import workloads


def main() -> None:
    from irrmaps import nhat
    from irrmaps.serialize import emit_polynomial_json

    pairs = sorted(set(workloads.SYMBOLIC_GRID) | set(workloads.SYMBOLIC_SMOKE_GRID))
    digests = {f"{g},{n}": workloads.sha256(emit_polynomial_json(nhat(g, n)))
               for g, n in pairs}
    counts = [str(workloads.count_call(*t))
              for t in workloads.counts_tuples(workloads.SEED_OF_RECORD, smoke=False)]
    degree_one = {workloads.d1_key(g, b, degrees): str(workloads.count_call(kind, g, n, b,
                                                                            degrees))
                  for kind, g, n, b, degrees in workloads.d1_tuples()}
    doc = {"seed_of_record": workloads.SEED_OF_RECORD, "symbolic_sha256": digests,
           "counts_seed_of_record": counts, "counts_degree_one": degree_one}
    workloads.GOLDEN_PATH.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
