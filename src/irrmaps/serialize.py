"""Canonical JSON and CSV emission for counting polynomials.

The JSON layout is byte-stable across runs: monomials in graded
lexicographic order, the symmetric-basis view sorted by partition, all
numbers as decimal strings (arbitrary precision), fixed separators.
"""

from __future__ import annotations

import json
from fractions import Fraction
from operator import itemgetter

from .pipeline import (B_ONLY, SUPPORTED_GENERA, CountPolynomial, face_generators,
                       m_lambda_exponents, to_m_basis)
from .ring import MultiPoly

CSV_HEADER = "genus,n,b,degrees,value_num,value_den,method"


def emit_polynomial_json(count: CountPolynomial) -> str:
    """The canonical JSON of ``count``.  Each monomial row is written as
    text from the m-basis, with one pair of number strings per power of b
    in each c_lambda."""
    basis = to_m_basis(count)
    groups: dict[tuple[int, int], list] = {}
    for lam, coeff in basis.items():
        orbit = m_lambda_exponents(lam, count.nfaces)
        texts = [",".join(map(str, lexps)) for lexps in orbit]
        weight = 2 * sum(lam)
        for (k,), c in coeff.terms.items():
            head = f'{{"exps":[{k},'
            tail = f'],"num":"{c.numerator}","den":"{c.denominator}"}}'
            groups.setdefault((k + weight, k), []).extend(
                zip(orbit, [head + text + tail for text in texts]))
    monomials = []
    for key in sorted(groups):
        monomials.extend(row for _, row in sorted(groups[key], key=itemgetter(0)))
    mlambda = []
    for lam, coeff in sorted(basis.items(), key=lambda kv: (sum(kv[0]), kv[0])):
        entry = {
            "lambda": list(lam),
            "coeff_in_b": [
                {"exp": exps[0], "num": str(c.numerator), "den": str(c.denominator)}
                for exps, c in coeff.sorted_terms()
            ],
        }
        mlambda.append(entry)
    head = {"genus": count.genus, "n": count.nfaces, "generators": list(count.gens)}
    return (json.dumps(head, separators=(",", ":"))[:-1] + ',"monomials":['
            + ",".join(monomials) + '],"mlambda":'
            + json.dumps(mlambda, separators=(",", ":")) + "}")


def _fraction(entry) -> Fraction:
    return Fraction(int(entry["num"]), int(entry["den"]))


def parse_polynomial_json(text: str) -> CountPolynomial:
    """The polynomial of a canonical JSON document, read from its
    ``mlambda`` section.  Raises ValueError for a genus outside
    ``SUPPORTED_GENERA``, no faces, generators other than
    ``face_generators(n)``, an m-basis key that is not a new partition, or
    monomials other than the expansion of the m-basis."""
    doc = json.loads(text)
    genus, n = doc["genus"], doc["n"]
    if genus not in SUPPORTED_GENERA:
        raise ValueError(f"genus {genus} is not supported")
    if n < 1:
        raise ValueError(f"{n} faces: need at least one")
    gens = tuple(doc["generators"])
    if gens != face_generators(n):
        raise ValueError(f"unexpected generator list {gens}")
    mlambda = {}
    for entry in doc["mlambda"]:
        lam = tuple(entry["lambda"])
        if lam in mlambda or lam != tuple(sorted(lam, reverse=True)) or min(lam, default=1) < 1:
            raise ValueError(f"m-basis key {lam} is not a new partition")
        mlambda[lam] = MultiPoly(B_ONLY, {(c["exp"],): _fraction(c) for c in entry["coeff_in_b"]})
    count = CountPolynomial(genus, n, mlambda)
    monomials = MultiPoly(gens, {tuple(m["exps"]): _fraction(m) for m in doc["monomials"]})
    if monomials != count.poly:
        raise ValueError("the monomials differ from the expansion of the m-basis")
    return count


def count_csv_rows(rows) -> str:
    """Rows of (genus, n, b, degrees, value: Fraction, method) as CSV text."""
    out = [CSV_HEADER]
    for genus, n, b, degrees, value, method in rows:
        degs = " ".join(str(d) for d in degrees)
        out.append(f"{genus},{n},{b},{degs},{value.numerator},{value.denominator},{method}")
    return "\n".join(out) + "\n"
