import importlib.util
import json
import sys
from pathlib import Path

import pytest

from irrmaps import pipeline, serialize
from irrmaps.pipeline import MAX_FACES, SUPPORTED_GENERA, count_exact, girth_count, nhat
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


@pytest.mark.parametrize("change,message", [
    ({"genus": 3}, "genus 3 is not supported"),
    ({"n": 0}, "need at least one"),
    ({"generators": ["b", "l2", "l1"]}, "unexpected generator list"),
    ({"mlambda": [{"lambda": [1, 2], "coeff_in_b": [{"exp": 0, "num": "1", "den": "1"}]}]},
     "not a new partition"),
    ({"genus": 0, "n": 1}, "planar family needs at least 3"),
    ({"n": "2"}, "need at least one"),
    ({"mlambda": [{"lambda": ["1"], "coeff_in_b": [{"exp": 0, "num": "1", "den": "1"}]}]},
     "not a new partition"),
])
def test_parse_refuses_an_inconsistent_document(change, message):
    doc = json.loads(emit_polynomial_json(nhat(1, 2)))
    with pytest.raises(ValueError, match=message):
        parse_polynomial_json(json.dumps(dict(doc, **change)))


def _zero_denominator(doc):
    row = dict(doc["monomials"][0], den="0")
    return dict(doc, monomials=[row] + doc["monomials"][1:])


@pytest.mark.parametrize("mangle,message", [
    (lambda doc: {k: v for k, v in doc.items() if k != "mlambda"}, "KeyError"),
    (lambda doc: [doc], "TypeError"),
    (_zero_denominator, "ZeroDivisionError"),
], ids=["no-mlambda", "top-level-list", "zero-denominator"])
def test_parse_raises_value_error_for_a_malformed_document(mangle, message):
    # these used to raise KeyError, TypeError and ZeroDivisionError
    doc = json.loads(emit_polynomial_json(nhat(1, 2)))
    with pytest.raises(ValueError, match=message):
        parse_polynomial_json(json.dumps(mangle(doc)))


def test_parse_lets_an_internal_error_through(monkeypatch):
    # only reading the document is guarded: a fault in the package's own
    # constructors is not reported as a malformed document
    def broken(*args):
        raise TypeError("internal fault")

    text = emit_polynomial_json(nhat(1, 2))
    monkeypatch.setattr(serialize, "CountPolynomial", broken)
    with pytest.raises(TypeError, match="internal fault"):
        parse_polynomial_json(text)


def test_json_and_counts_leave_the_expansion_unbuilt(monkeypatch):
    # the canonical JSON and the counts read the m-basis alone: the expanded
    # monomials are built on the first read of ``poly``, and not before
    monkeypatch.setattr(pipeline, "_NHAT_CACHE", {})
    emit_polynomial_json(nhat(1, 3))
    count_exact(0, 4, 1, (2, 2, 3, 3))
    count_exact(2, 2, 0, (3, 4), allow_degree_one=True)
    girth_count(1, 2, 1, (2, 3), mode="exactly")
    assert sorted(pipeline._NHAT_CACHE) == [(0, 4), (1, 2), (1, 3), (2, 2)]
    for count in pipeline._NHAT_CACHE.values():
        assert "poly" not in vars(count)
    assert not count.poly.is_zero() and "poly" in vars(count)


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


GOLDEN_NHAT = json.loads(Path(__file__).with_name("golden_nhat.json").read_text())
GUARDED = [(g, n) for g in SUPPORTED_GENERA for n in range(3 if g == 0 else 1, MAX_FACES[g] + 1)]
#: (1,10) and (2,8) take 1.4-2 s in-process: their digests are checked by
#: running ``irrmaps nhat --format json``, not in the test suite
SLOW = [(1, 10), (2, 8)]


def test_golden_digests_cover_the_guarded_grid():
    assert len(GUARDED) == 27
    assert sorted(GOLDEN_NHAT) == sorted(f"{g},{n}" for g, n in GUARDED)


@pytest.mark.parametrize("genus,n", [pair for pair in GUARDED if pair not in SLOW])
def test_canonical_json_matches_the_golden_digest(genus, n):
    text = emit_polynomial_json(nhat(genus, n))
    assert WORKLOADS.sha256(text) == GOLDEN_NHAT[f"{genus},{n}"]
