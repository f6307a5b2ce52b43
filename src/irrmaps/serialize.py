"""Canonical JSON, monomial text and CSV emission for counting polynomials.

The JSON layout is byte-stable across runs: monomials in graded
lexicographic order, the symmetric-basis view sorted by partition, all
numbers as decimal strings (arbitrary precision), fixed separators.
:func:`monomial_rows` writes the JSON rows and the monomial text.
"""

from __future__ import annotations

import json
from operator import itemgetter

from .pipeline import B_ONLY, CountPolynomial, m_lambda_exponents, to_m_basis
from .ring import join_terms, monomial_text, term_head

CSV_HEADER = "genus,n,b,degrees,value_num,value_den,method"


def monomial_rows(count: CountPolynomial, text, ends, basis=None) -> list:
    """Every monomial b^k l^e of ``count`` as the row ``head + text(e) +
    tail``, in graded lexicographic order: total degree, then k, then e.
    ``text`` is called once per monomial l^e of each m_lambda, and
    ``ends(k, c, lam)`` gives (head, tail) for the coefficient c of b^k in
    c_lambda once per (lambda, k), so a row costs one concatenation.
    ``basis`` maps each lambda to the terms of c_lambda, read from
    ``count.mlambda`` when not given."""
    if basis is None:
        basis = {lam: coeff.terms for lam, coeff in count.mlambda.items()}
    groups: dict[tuple[int, int], list] = {}
    for lam, terms in basis.items():
        orbit = m_lambda_exponents(lam, count.nfaces)
        texts = [text(lexps) for lexps in orbit]
        weight = 2 * sum(lam)
        for (k,), c in terms.items():
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
    """The canonical JSON of ``count``, reading each c_lambda's terms once."""
    basis = {lam: coeff.terms for lam, coeff in to_m_basis(count).items()}
    monomials = monomial_rows(
        count, lambda lexps: ",".join(map(str, lexps)),
        lambda k, c, lam: (f'{{"exps":[{k},', f'],"num":"{c.numerator}","den":"{c.denominator}"}}'),
        basis)
    mlambda = [{"lambda": list(lam),
                "coeff_in_b": [{"exp": k, "num": str(c.numerator), "den": str(c.denominator)}
                               for (k,), c in sorted(terms.items())]}
               for lam, terms in sorted(basis.items(), key=lambda kv: (sum(kv[0]), kv[0]))]
    head = {"genus": count.genus, "n": count.nfaces, "generators": list(count.gens)}
    return (json.dumps(head, separators=(",", ":"))[:-1] + ',"monomials":['
            + ",".join(monomials) + '],"mlambda":'
            + json.dumps(mlambda, separators=(",", ":")) + "}")


def count_csv_rows(rows) -> str:
    """Rows of (genus, n, b, degrees, value: Fraction, method) as CSV text."""
    out = [CSV_HEADER]
    for genus, n, b, degrees, value, method in rows:
        degs = " ".join(str(d) for d in degrees)
        out.append(f"{genus},{n},{b},{degs},{value.numerator},{value.denominator},{method}")
    return "\n".join(out) + "\n"
