"""The m-basis form of a counting polynomial against the expanded monomials
it replaced.

``graded_nhat`` is the graded series a ``nhat`` route reads its m-basis
from, and ``expanded_nhat`` expands its e_1...e_n coefficient into
monomials through the earlier ``GradedSeries.coefficient``, as every
``nhat`` did before the package kept the m-basis alone.  ``expand`` is the
earlier ``CountPolynomial.poly``, the monomials expanded from the m-basis,
which the monomial printer and the JSON parse check read before they
wrote their rows from the m-basis directly.  ``regroup`` is the
earlier ``to_m_basis`` on an expanded polynomial, with its evenness and
orbit checks, and ``reference_json`` is the earlier canonical JSON emitter,
which wrote one row per expanded monomial.  All of them are kept here only
as references.
"""

import json
from functools import cache
from math import factorial, lcm, prod
from unittest import mock

import pytest

from irrmaps import pipeline
from irrmaps.pipeline import B_ONLY, InvariantViolation, m_lambda_exponents, nhat
from irrmaps.ring import MultiPoly
from irrmaps.serialize import emit_polynomial_json, format_monomials

from test_reference_graded import coefficient


def graded_nhat(genus, n):
    """The graded series whose e_1...e_n coefficient is N-hat_{genus,n}."""
    with mock.patch.object(pipeline, "_graded_m_basis",
                           wraps=pipeline._graded_m_basis) as read:
        if genus == 0:
            pipeline.nhat_genus0(n)
        else:
            pipeline.nhat_higher_genus(genus, n)
    return read.call_args.args[0]


@cache
def expanded_nhat(genus, n):
    return coefficient(graded_nhat(genus, n), range(1, n + 1))


@cache
def expand(count):
    """The polynomial over ``count.gens`` that the m-basis of ``count``
    stands for, one monomial per exponent tuple of each m_lambda."""
    den = lcm(*(c.den for c in count.mlambda.values()))
    num = {}
    for lam, c in count.mlambda.items():
        scale = den // c.den
        for lexps in m_lambda_exponents(lam, count.nfaces):
            for bexps, bc in c.num.items():
                num[bexps + lexps] = bc * scale
    return MultiPoly.from_numerators(count.gens, num, den)


def regroup(poly, n):
    """Decompose a polynomial over (b, l1..ln) into the monomial symmetric
    basis of squared half-degrees; InvariantViolation if it is not even and
    symmetric in the face generators."""
    by_l = {}
    for exps, c in poly.terms.items():
        lexps = exps[1:]
        if any(e % 2 for e in lexps):
            raise InvariantViolation(f"odd power of a face generator in {exps}")
        by_l.setdefault(lexps, {})[exps[:1]] = c
    groups = {}
    for lexps, bterms in by_l.items():
        lam = tuple(sorted((e // 2 for e in lexps if e), reverse=True))
        groups.setdefault(lam, []).append(MultiPoly(B_ONLY, bterms))
    out = {}
    for lam, coeffs in groups.items():
        # the orbit is complete when it has as many rearrangements as the
        # multinomial n! / prod(mult!)
        padded = lam + (0,) * (n - len(lam))
        orbit = factorial(n) // prod(factorial(padded.count(e)) for e in set(padded))
        if len(coeffs) != orbit:
            raise InvariantViolation(f"partition {lam}: orbit incomplete, not symmetric")
        if any(c != coeffs[0] for c in coeffs):
            raise InvariantViolation(f"partition {lam}: coefficients differ across the orbit")
        out[lam] = coeffs[0]
    return out


def reference_json(genus, n):
    """The canonical JSON, one row per expanded monomial."""
    poly = expanded_nhat(genus, n)
    monomials = [{"exps": list(exps), "num": str(c.numerator), "den": str(c.denominator)}
                 for exps, c in poly.sorted_terms()]
    mlambda = []
    for lam, coeff in sorted(regroup(poly, n).items(), key=lambda kv: (sum(kv[0]), kv[0])):
        mlambda.append({
            "lambda": list(lam),
            "coeff_in_b": [
                {"exp": exps[0], "num": str(c.numerator), "den": str(c.denominator)}
                for exps, c in coeff.sorted_terms()
            ],
        })
    doc = {"genus": genus, "n": n, "generators": list(poly.gens),
           "monomials": monomials, "mlambda": mlambda}
    return json.dumps(doc, separators=(",", ":"))


# the benchmark's symbolic grid and the large end of the face guard
M_BASIS_GRID = ([(0, n) for n in range(3, 10)] + [(1, n) for n in range(1, 8)]
                + [(2, n) for n in range(1, 7)])


@pytest.mark.parametrize("genus,n", M_BASIS_GRID)
def test_json_from_the_m_basis_matches_the_reference_emitter(genus, n):
    assert emit_polynomial_json(nhat(genus, n)) == reference_json(genus, n)


@pytest.mark.parametrize("genus,n", M_BASIS_GRID)
def test_monomial_printer_matches_the_expanded_polynomial(genus, n):
    count = nhat(genus, n)
    assert format_monomials(count) == str(expand(count))


@pytest.mark.parametrize("genus,n", [(0, 5), (1, 3), (2, 2)])
def test_expansion_of_the_m_basis_is_the_graded_coefficient(genus, n):
    assert expand(nhat(genus, n)) == expanded_nhat(genus, n)


def test_regroup_rejects_what_is_not_even_and_symmetric():
    gens = ("b", "l1", "l2")
    l1 = MultiPoly.variable(gens, "l1")
    with pytest.raises(InvariantViolation):
        regroup(l1 * l1, 2)
    with pytest.raises(InvariantViolation):
        regroup(l1, 2)
    l2 = MultiPoly.variable(gens, "l2")
    with pytest.raises(InvariantViolation):
        regroup(l1 * l1 + l2 * l2 * 2, 2)
