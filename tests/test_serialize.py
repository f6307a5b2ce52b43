import ast
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import irrmaps
from irrmaps import serialize
from irrmaps.pipeline import B_ONLY, MAX_FACES, SUPPORTED_GENERA, CountPolynomial, nhat
from irrmaps.ring import MultiPoly
from irrmaps.serialize import CSV_HEADER, count_csv_rows, emit_polynomial_json, format_monomials
from fractions import Fraction

import test_reference_json
from test_reference_json import parse_polynomial_json
from test_reference_mbasis import expand


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
        assert expand(back) == expand(cp)
        assert (back.genus, back.nfaces) == (g, n)
        assert emit_polynomial_json(back) == text  # byte-stable



def test_a_zero_m_basis_coefficient_is_dropped_and_round_trips():
    # a zero c_lambda is no term of the count: it compares equal to the
    # count without it and emits a document the parser takes back
    real = nhat(1, 1)
    padded = CountPolynomial(1, 1, {**real.mlambda, (2,): MultiPoly.constant(B_ONLY, 0)})
    assert padded == real and (2,) not in padded.mlambda
    text = emit_polynomial_json(padded)
    assert text == emit_polynomial_json(real)
    assert parse_polynomial_json(text) == real

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


def _mirrored_b_exponent(doc, exp):
    """The document with the b-exponent 0 of the constant m-basis term set
    to ``exp``, and the same in its monomial, so that the two still agree."""
    mlambda = [dict(e, coeff_in_b=[dict(c, exp=exp) for c in e["coeff_in_b"]])
               if e["lambda"] == [] else e for e in doc["mlambda"]]
    monomials = [dict(m, exps=[exp] + m["exps"][1:]) if not any(m["exps"]) else m
                 for m in doc["monomials"]]
    return dict(doc, mlambda=mlambda, monomials=monomials)


def _with_b_term(doc, term):
    """The document with ``term`` appended to its first ``coeff_in_b``."""
    first = dict(doc["mlambda"][0], coeff_in_b=doc["mlambda"][0]["coeff_in_b"] + [term])
    return dict(doc, mlambda=[first] + doc["mlambda"][1:])


@pytest.mark.parametrize("mangle,message", [
    (lambda doc: dict(doc, genus=True), "genus True is not supported"),
    (lambda doc: dict(doc, genus=1.0), "genus 1.0 is not supported"),
    (lambda doc: _mirrored_b_exponent(doc, -1), "not nonnegative integers"),
    (lambda doc: _mirrored_b_exponent(doc, 0.0), "not nonnegative integers"),
    (lambda doc: _mirrored_b_exponent(doc, False), "not nonnegative integers"),
    (lambda doc: _with_b_term(doc, {"exp": 3, "num": "0", "den": "1"}),
     r"m-basis entry \(\) has a zero coefficient or none"),
    (lambda doc: dict(doc, mlambda=doc["mlambda"] + [{"lambda": [2], "coeff_in_b": []}]),
     r"m-basis entry \(2,\) has a zero coefficient or none"),
], ids=["bool-genus", "float-genus", "negative-exp", "float-exp", "bool-exp",
        "zero-coeff", "empty-coeffs"])
def test_parse_refuses_what_nhat_never_emits(mangle, message):
    # each of these used to parse, and compare equal to nhat(1, 1) or fail
    # only on evaluation; the empty coefficient list parsed to a count that
    # holds a zero c_(2), which nhat never does
    doc = json.loads(emit_polynomial_json(nhat(1, 1)))
    with pytest.raises(ValueError, match=message):
        parse_polynomial_json(json.dumps(mangle(doc)))


def _with_monomial(doc, row):
    return dict(doc, monomials=doc["monomials"] + [row])


@pytest.mark.parametrize("genus,n,mangle,message", [
    (0, 4, lambda doc: dict(doc, mlambda=doc["mlambda"] + [
        {"lambda": [1, 1, 1, 1, 1], "coeff_in_b": [{"exp": 0, "num": "1", "den": "1"}]}]),
     r"partition \(1, 1, 1, 1, 1\) has more parts than the 4 faces"),
    (1, 1, lambda doc: _with_monomial(doc, {"exps": [0, 0, 0], "num": "1", "den": "1"}),
     "the monomials differ from the expansion of the m-basis"),
    (1, 1, lambda doc: _with_monomial(doc, {"exps": [1, 2], "num": "0", "den": "1"}),
     "the monomials differ from the expansion of the m-basis"),
], ids=["too-many-parts", "wide-exps", "zero-row"])
def test_parse_refuses_what_the_expansion_never_holds(genus, n, mangle, message):
    # the first used to fail in m_lambda_exponents with DomainError, the
    # second in MultiPoly with ContextError, and the third parsed, because
    # MultiPoly drops a zero term
    doc = json.loads(emit_polynomial_json(nhat(genus, n)))
    with pytest.raises(ValueError, match=message):
        parse_polynomial_json(json.dumps(mangle(doc)))


def _zero_denominator(doc):
    row = dict(doc["monomials"][0], den="0")
    return dict(doc, monomials=[row] + doc["monomials"][1:])


@pytest.mark.parametrize("mangle,message", [
    (lambda doc: {k: v for k, v in doc.items() if k != "mlambda"}, "KeyError"),
    (lambda doc: [doc], "TypeError"),
    (_zero_denominator, "over '0' is not a decimal string over a positive denominator"),
], ids=["no-mlambda", "top-level-list", "zero-denominator"])
def test_parse_raises_value_error_for_a_malformed_document(mangle, message):
    # these used to raise KeyError, TypeError and ZeroDivisionError
    doc = json.loads(emit_polynomial_json(nhat(1, 2)))
    with pytest.raises(ValueError, match=message):
        parse_polynomial_json(json.dumps(mangle(doc)))


def _renumbered(doc, key, old, new):
    """The document with ``key`` set to ``new`` in every number entry where
    it reads ``old``, in the m-basis and the monomials alike."""
    def fix(row):
        return dict(row, **{key: new}) if row[key] == old else row

    mlambda = [dict(e, coeff_in_b=[fix(c) for c in e["coeff_in_b"]]) for e in doc["mlambda"]]
    return dict(doc, mlambda=mlambda, monomials=[fix(m) for m in doc["monomials"]])


def _bogus_first(rows):
    """``rows`` behind a copy of its first entry with another number: a
    later entry that silently replaces an earlier one hides the copy."""
    return [dict(rows[0], num="5")] + rows


@pytest.mark.parametrize("mangle,message", [
    (lambda doc: _renumbered(doc, "num", "1", 1), "1 over '12' is not"),
    (lambda doc: _renumbered(doc, "num", "1", 1.5), "1.5 over '12' is not"),
    (lambda doc: _renumbered(doc, "num", "-1", " -1 "), "' -1 ' over '12' is not"),
    (lambda doc: _renumbered(doc, "den", "12", "1_2"), "over '1_2' is not"),
    (lambda doc: _renumbered(doc, "den", "12", "-12"), "over '-12' is not"),
    (lambda doc: dict(doc, mlambda=[dict(doc["mlambda"][0], coeff_in_b=_bogus_first(
        doc["mlambda"][0]["coeff_in_b"]))] + doc["mlambda"][1:]),
     r"exponents \[0\] appear twice"),
    (lambda doc: dict(doc, monomials=_bogus_first(doc["monomials"])),
     r"exponents \[0, 0\] appear twice"),
], ids=["int-num", "float-num", "padded-num", "underscore-den", "negative-den",
        "repeated-exp", "repeated-exps"])
def test_parse_refuses_a_number_or_key_emit_never_writes(mangle, message):
    # each of these used to parse, and all but the negative denominator (which
    # flipped the signs) to a polynomial equal to nhat(1, 1)
    doc = json.loads(emit_polynomial_json(nhat(1, 1)))
    with pytest.raises(ValueError, match=message):
        parse_polynomial_json(json.dumps(mangle(doc)))


def test_parse_lets_an_internal_error_through(monkeypatch):
    # only reading the document is guarded: a fault in the package's own
    # constructors is not reported as a malformed document
    def broken(*args):
        raise TypeError("internal fault")

    text = emit_polynomial_json(nhat(1, 2))
    monkeypatch.setattr(test_reference_json, "CountPolynomial", broken)
    with pytest.raises(TypeError, match="internal fault"):
        parse_polynomial_json(text)


def test_json_and_counts_leave_the_expansion_unbuilt():
    # the package never expands a count into monomials: the JSON rows and
    # the monomial printer are written from the m-basis
    assert not hasattr(CountPolynomial, "poly")


def test_json_reads_each_m_basis_coefficient_once(monkeypatch):
    # the terms view builds its Fractions on every read, so the rows and
    # the mlambda block share one read of each c_lambda
    count = nhat(1, 3)
    reads = []
    terms = MultiPoly.terms

    def counted(self):
        reads.append(self)
        return terms.fget(self)

    monkeypatch.setattr(MultiPoly, "terms", property(counted))
    emit_polynomial_json(count)
    assert len(reads) == len(count.mlambda) == len({id(c) for c in reads})


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


def _load_perfbench(name):
    # a module of the benchmark, read from its file: it imports no part of
    # irrmaps at import time and is not changed here
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look themselves up here
    spec.loader.exec_module(module)
    return module


WORKLOADS = _load_perfbench("workloads")
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
#: running ``irrmaps nhat --format json`` and ``--format monomials``, not
#: in the test suite
SLOW = [(1, 10), (2, 8)]


def test_golden_digests_cover_the_guarded_grid():
    assert len(GUARDED) == 27
    assert sorted(GOLDEN_NHAT) == sorted(f"{g},{n}" for g, n in GUARDED)


@pytest.mark.parametrize("genus,n", [pair for pair in GUARDED if pair not in SLOW])
def test_canonical_json_matches_the_golden_digest(genus, n):
    text = emit_polynomial_json(nhat(genus, n))
    assert WORKLOADS.sha256(text) == GOLDEN_NHAT[f"{genus},{n}"]


GOLDEN_MONOMIALS = json.loads(Path(__file__).with_name("golden_monomials.json").read_text())


def test_golden_monomial_digests_cover_the_guarded_grid():
    assert sorted(GOLDEN_MONOMIALS) == sorted(f"{g},{n}" for g, n in GUARDED)


@pytest.mark.parametrize("genus,n", [pair for pair in GUARDED if pair not in SLOW])
def test_monomial_printer_matches_the_golden_digest(genus, n):
    # the digest is of ``irrmaps nhat --format monomials`` stdout
    text = format_monomials(nhat(genus, n)) + "\n"
    assert WORKLOADS.sha256(text) == GOLDEN_MONOMIALS[f"{genus},{n}"]


def test_every_unused_import_is_a_benchmark_patch_site():
    # a name bound in a module only so that the tracer can patch it there
    # must be one of the tracer's patch sites, or it binds nothing of use
    sites = {(mod, attr) for mod, cls, attr, *_ in _load_perfbench("layertrace").PATCHES
             if cls is None}
    found = []
    for path in sorted((Path(serialize.__file__).parent).glob("*.py")):
        for line in path.read_text().splitlines():
            if "noqa: F401" in line:
                names = line.split(" import ", 1)[1].split("#")[0].strip(" ()")
                found += [(path.stem, name.strip()) for name in names.split(",")]
    assert found, "no unused import left"
    assert [site for site in found if site not in sites] == []


def _names_read(path: Path, by_string: bool) -> set[str]:
    """The identifiers a module reads: names, attributes and the modules it
    imports from, and with ``by_string`` also imported names and string
    constants, which is how the benchmark looks up what it patches."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module:
            names.update(node.module.split("."))
        elif by_string and isinstance(node, ast.alias):
            names.add(node.name)
        elif by_string and isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.add(node.value)
    return names


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a name the package exports is run by a command or read by the
    # benchmark; code only the tests read belongs in the tests
    package = Path(irrmaps.__file__).parent
    read = set()
    for path in package.glob("*.py"):
        if path.name != "__init__.py":
            read |= _names_read(path, by_string=False)
    for path in (package.parents[1] / "perfbench").glob("*.py"):
        read |= _names_read(path, by_string=True)
    unread = sorted(set(irrmaps.__all__) - read)
    assert unread == []
