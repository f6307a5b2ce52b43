"""Canonical JSON, monomial text and CSV emission for counting polynomials.

The JSON layout is byte-stable across runs: monomials in graded
lexicographic order, the symmetric-basis view sorted by partition, all
numbers as decimal strings (arbitrary precision), fixed separators.
:func:`monomial_rows` writes the JSON rows, the monomial text and the
rows the parse checks a document against.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from operator import itemgetter

from .pipeline import (B_ONLY, SUPPORTED_GENERA, CountPolynomial, face_generators,
                       m_lambda_exponents, to_m_basis)
from .ring import MultiPoly, join_terms, monomial_text, term_head

CSV_HEADER = "genus,n,b,degrees,value_num,value_den,method"


def monomial_rows(count: CountPolynomial, text, ends) -> list:
    """Every monomial b^k l^e of ``count`` as the row ``head + text(e) +
    tail``, in graded lexicographic order: total degree, then k, then e.
    ``text`` is called once per monomial l^e of each m_lambda, and
    ``ends(k, c, lam)`` gives (head, tail) for the coefficient c of b^k in
    c_lambda once per (lambda, k), so a row costs one concatenation."""
    groups: dict[tuple[int, int], list] = {}
    for lam, coeff in count.mlambda.items():
        orbit = m_lambda_exponents(lam, count.nfaces)
        texts = [text(lexps) for lexps in orbit]
        weight = 2 * sum(lam)
        for (k,), c in coeff.terms.items():
            head, tail = ends(k, c, lam)
            groups.setdefault((k + weight, k), []).extend(
                zip(orbit, [head + t + tail for t in texts]))
    return [row for key in sorted(groups) for _, row in sorted(groups[key], key=itemgetter(0))]


def format_monomials(count: CountPolynomial) -> str:
    """The text ``MultiPoly`` prints for the expansion of ``count``."""
    lgens = count.gens[1:]

    def ends(k, c, lam):
        bpart = monomial_text(B_ONLY, (k,))
        return term_head(c, not (bpart or lam)) + bpart + ("*" if bpart and lam else ""), ""

    return join_terms(monomial_rows(count, lambda lexps: monomial_text(lgens, lexps), ends))


def emit_polynomial_json(count: CountPolynomial) -> str:
    """The canonical JSON of ``count``."""
    monomials = monomial_rows(
        count, lambda lexps: ",".join(map(str, lexps)),
        lambda k, c, lam: (f'{{"exps":[{k},', f'],"num":"{c.numerator}","den":"{c.denominator}"}}'))
    basis = to_m_basis(count)
    mlambda = [{"lambda": list(lam),
                "coeff_in_b": [{"exp": exps[0], "num": str(c.numerator), "den": str(c.denominator)}
                               for exps, c in coeff.sorted_terms()]}
               for lam, coeff in sorted(basis.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
    head = {"genus": count.genus, "n": count.nfaces, "generators": list(count.gens)}
    return (json.dumps(head, separators=(",", ":"))[:-1] + ',"monomials":['
            + ",".join(monomials) + '],"mlambda":'
            + json.dumps(mlambda, separators=(",", ":")) + "}")


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


def count_csv_rows(rows) -> str:
    """Rows of (genus, n, b, degrees, value: Fraction, method) as CSV text."""
    out = [CSV_HEADER]
    for genus, n, b, degrees, value, method in rows:
        degs = " ".join(str(d) for d in degrees)
        out.append(f"{genus},{n},{b},{degs},{value.numerator},{value.denominator},{method}")
    return "\n".join(out) + "\n"
