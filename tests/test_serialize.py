import importlib.util
import json
import sys
from pathlib import Path

import pytest

from irrmaps.pipeline import nhat
from irrmaps.serialize import (CSV_HEADER, count_csv_rows, emit_polynomial_json,
                               parse_polynomial_json)
from fractions import Fraction


def test_json_for_the_constant_polynomial():
    doc = json.loads(emit_polynomial_json(nhat(0, 3)))
    assert doc["genus"] == 0 and doc["n"] == 3
    assert doc["generators"] == ["b", "l1", "l2", "l3"]
    assert doc["monomials"] == [{"exps": [0, 0, 0, 0], "num": "1", "den": "1"}]


def test_json_for_the_one_hole_torus():
    doc = json.loads(emit_polynomial_json(nhat(1, 1)))
    nums = sorted(m["num"] for m in doc["monomials"])
    dens = {m["den"] for m in doc["monomials"]}
    assert nums == ["-1", "1"] and dens == {"12"}


def test_json_round_trip_and_stability():
    for g, n in [(0, 3), (0, 4), (1, 1), (1, 2), (2, 1)]:
        cp = nhat(g, n)
        text = emit_polynomial_json(cp)
        back = parse_polynomial_json(text)
        assert back.poly == cp.poly
        assert (back.genus, back.nfaces) == (g, n)
        assert emit_polynomial_json(back) == text  # byte-stable


def test_json_monomials_graded_lex():
    doc = json.loads(emit_polynomial_json(nhat(0, 4)))
    keys = [(sum(m["exps"]), tuple(m["exps"])) for m in doc["monomials"]]
    assert keys == sorted(keys)


def test_csv_rows():
    text = count_csv_rows([(0, 4, 1, (2, 2, 2, 2), Fraction(9), "formula"),
                           (2, 1, 1, (4,), Fraction(21, 8), "brute")])
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert lines[1] == "0,4,1,2 2 2 2,9,1,formula"
    assert lines[2] == "2,1,1,4,21,8,brute"


def _load_workloads():
    # the benchmark's workload module, read from its file: it imports no part
    # of irrmaps at import time and is not changed here
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_workloads()
GOLDEN = WORKLOADS.load_golden()["symbolic_sha256"]


@pytest.mark.parametrize("genus,n", WORKLOADS.SYMBOLIC_GRID)
def test_canonical_json_matches_the_recorded_digest(genus, n):
    text = emit_polynomial_json(nhat(genus, n))
    assert WORKLOADS.sha256(text) == GOLDEN[f"{genus},{n}"]


def test_every_symbolic_grid_entry_has_a_recorded_digest():
    assert len(WORKLOADS.SYMBOLIC_GRID) == 13
    assert sorted(GOLDEN) == sorted(f"{g},{n}" for g, n in WORKLOADS.SYMBOLIC_GRID)
