"""The reference reader of the canonical JSON that ``emit_polynomial_json``
writes.

No command reads a document back, so the reader lives here, with the
tests that take a document round trip and the refusals of documents the
emitter could not have written (``tests/test_serialize.py`` and
``tests/test_pipeline.py``).  It reads the ``mlambda`` section and checks
the ``monomials`` rows against the expansion of that m-basis, written by
``serialize.monomial_rows`` as the emitter writes its own rows.
"""

import json
import re
from fractions import Fraction

from irrmaps.pipeline import B_ONLY, SUPPORTED_GENERA, CountPolynomial
from irrmaps.ring import MultiPoly, face_generators
from irrmaps.serialize import monomial_rows

_NUM = re.compile("-?[0-9]+")
_DEN = re.compile("[1-9][0-9]*")


def _fraction(entry) -> Fraction:
    num, den = entry["num"], entry["den"]
    if not (type(num) is str and _NUM.fullmatch(num)
            and type(den) is str and _DEN.fullmatch(den)):
        raise ValueError(f"{num!r} over {den!r} is not a decimal string "
                         "over a positive denominator")
    return Fraction(int(num), int(den))


def _unique(pairs) -> dict:
    """The dict of the (exponents, value) pairs; a repeated key is an error."""
    out = {}
    for exps, value in pairs:
        if exps in out:
            raise ValueError(f"exponents {list(exps)} appear twice")
        out[exps] = value
    return out


def _exponents(exps) -> tuple:
    exps = tuple(exps)
    if any(type(e) is not int or e < 0 for e in exps):
        raise ValueError(f"exponents {list(exps)} are not nonnegative integers")
    return exps


def parse_polynomial_json(text: str) -> CountPolynomial:
    """The polynomial of a canonical JSON document, read from its
    ``mlambda`` section.  Raises ValueError for a document that is not a
    JSON object or lacks a key, a number that is not written as
    ``emit_polynomial_json`` writes it (a string matching ``-?[0-9]+``
    over a string matching ``[1-9][0-9]*``: no JSON number, whitespace,
    underscore, zero or negative denominator), a repeated ``exp`` in one
    ``coeff_in_b`` or ``exps`` among the monomials, a genus that is not an
    integer of ``SUPPORTED_GENERA`` (a bool or a float such as 1.0 is not),
    a face count that is not an integer of at least 1 (3 at genus 0),
    generators other than ``face_generators(n)``, an exponent of b in
    ``coeff_in_b`` or of a monomial in ``exps`` that is not a nonnegative
    integer, an m-basis key that is not a new partition of positive
    integers or has more parts than faces, an m-basis entry with an empty
    or zero-valued ``coeff_in_b`` entry, or monomials other than the
    expansion of the m-basis, such as a row of value zero."""
    try:  # every key lookup and number read of the document
        doc = json.loads(text)
        genus, n, gens = doc["genus"], doc["n"], tuple(doc["generators"])
        rows = [(tuple(e["lambda"]),
                 _unique((_exponents([c["exp"]]), _fraction(c)) for c in e["coeff_in_b"]))
                for e in doc["mlambda"]]
        monomials = _unique((_exponents(m["exps"]), _fraction(m)) for m in doc["monomials"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed polynomial document: {exc!r}") from None
    if type(genus) is not int or genus not in SUPPORTED_GENERA:
        raise ValueError(f"genus {genus!r} is not supported")
    if type(n) is not int or n < 1:
        raise ValueError(f"{n!r} faces: need at least one")
    if genus == 0 and n < 3:
        raise ValueError(f"{n} faces: the planar family needs at least 3")
    if gens != face_generators(n):
        raise ValueError(f"unexpected generator list {gens}")
    mlambda = {}
    for lam, coeffs in rows:
        if any(type(p) is not int or p < 1 for p in lam) or lam in mlambda \
                or lam != tuple(sorted(lam, reverse=True)):
            raise ValueError(f"m-basis key {lam} is not a new partition")
        if len(lam) > n:
            raise ValueError(f"partition {lam} has more parts than the {n} faces")
        if not coeffs or 0 in coeffs.values():
            raise ValueError(f"m-basis entry {lam} has a zero coefficient or none")
        mlambda[lam] = MultiPoly(B_ONLY, coeffs)
    count = CountPolynomial(genus, n, mlambda)
    # each row the tuple (k, *e, c) of the monomial c b^k l^e
    expansion = monomial_rows(count, lambda lexps: lexps, lambda k, c, lam: ((k,), (c,)))
    if monomials != {row[:-1]: row[-1] for row in expansion}:
        raise ValueError("the monomials differ from the expansion of the m-basis")
    return count
