"""The string and dilaton equations on expanded polynomials, the route the
m-basis checks in ``irrmaps.verify`` replaced.

``power_sum_poly`` and ``faulhaber_closed_sum`` are the Faulhaber
polynomials as ``MultiPoly``; ``expanded_string_sides`` and
``expanded_dilaton_delta`` read both counting polynomials as monomials in
(b, l1..ln), evaluate the last half-degree and sum each face in closed
form.  All of them are kept here only as references.
"""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps import ring, verify
from irrmaps.pipeline import B_ONLY, CountPolynomial, nhat
from irrmaps.ring import MultiPoly, power_sum_coeffs

from test_reference_mbasis import expand


def power_sum_poly(m, gens, name):
    """The Faulhaber polynomial S_m in the named generator."""
    gens = tuple(gens)
    i = gens.index(name)
    terms = {}
    for k, c in enumerate(power_sum_coeffs(m)):
        if c != 0:
            exps = [0] * len(gens)
            exps[i] = k
            terms[tuple(exps)] = c
    return MultiPoly(gens, terms)


def faulhaber_closed_sum(m, gens, lower, upper):
    """Closed form of sum_{k=lower+1}^{upper} k^m as a polynomial, exact for
    all integers 0 <= lower <= upper; m must be >= 1."""
    if m < 1:
        raise ValueError("m must be a positive integer")
    return power_sum_poly(m, gens, upper) - power_sum_poly(m, gens, lower)


def expanded_string_sides(small, big):
    """LHS and RHS of the string equation over (b, l1..ln): the (n+1)-face
    polynomial at l_(n+1) = 1, and sum_j of 2 sum_{k=b+1}^{l_j} k (the
    l_j-coefficients at l_j = k) minus l_j times the n-face polynomial."""
    n, gens = small.nfaces, small.gens
    lhs = expand(big).evaluate({f"l{n + 1}": 1}).with_context(gens)
    rhs = MultiPoly(gens)
    for j in range(1, n + 1):
        lj = f"l{j}"
        for e, coeff in expand(small).coefficients_in(lj).items():
            rhs = rhs + coeff * faulhaber_closed_sum(e + 1, gens, "b", lj) * 2
        rhs = rhs - MultiPoly.variable(gens, lj) * expand(small)
    return lhs, rhs


def even_in_faces(poly):
    # generator 0 is b; the face generators follow
    return not any(e % 2 for exps in poly.terms for e in exps[1:])


def expanded_dilaton_delta(small, big):
    n, gens = small.nfaces, small.gens
    extra = f"l{n + 1}"
    at1 = expand(big).evaluate({extra: 1}).with_context(gens)
    at0 = expand(big).evaluate({extra: 0}).with_context(gens)
    return at1 - at0 - expand(small) * (n + 2 * small.genus - 2)


def test_faulhaber_examples():
    gens = ("b", "l")
    s1 = faulhaber_closed_sum(1, gens, "b", "l")
    b, l = MultiPoly.variable(gens, "b"), MultiPoly.variable(gens, "l")
    assert s1 == (l * l + l - b * b - b) * Fraction(1, 2)
    # classical closed form for the cube sum
    s3 = power_sum_poly(3, ("x",), "x")
    x = MultiPoly.variable(("x",), "x")
    assert s3 == x * x * (x + 1) * (x + 1) * Fraction(1, 4)
    # sum_{k=b+1}^{l} 2k at (b, l) = (1, 3) is 4 + 6
    twice = faulhaber_closed_sum(1, gens, "b", "l") * 2
    assert twice.evaluate({"b": 1, "l": 3}).as_fraction() == 10
    with pytest.raises(ValueError):
        faulhaber_closed_sum(0, gens, "b", "l")


def test_faulhaber_matches_direct_sums():
    gens = ("b", "l")
    for m in range(1, 10):
        closed = faulhaber_closed_sum(m, gens, "b", "l")
        for lo in range(0, 21, 4):
            for hi in range(lo, 21, 5):
                direct = sum(k ** m for k in range(lo + 1, hi + 1))
                assert closed.evaluate({"b": lo, "l": hi}).as_fraction() == direct


def routes_agree(genus, n, small, big):
    """The m-basis checks on (small, big) give the expanded deltas and the
    expanded evenness verdict."""
    table = {(genus, n): small, (genus, n + 1): big}
    with mock.patch.object(verify, "nhat", lambda g, m: table[(g, m)]):
        delta, even = verify.string_check(genus, n)
        dilaton = verify.dilaton_equation_delta(genus, n)
    lhs, rhs = expanded_string_sides(small, big)
    assert delta == lhs - rhs
    assert str(delta) == str(lhs - rhs)
    assert even == even_in_faces(rhs)
    assert dilaton == expanded_dilaton_delta(small, big)
    return delta, even, dilaton


PAIRS = [(0, 3), (0, 4), (1, 1), (1, 2), (1, 3), (2, 1), (2, 2)]


@st.composite
def perturbed_pairs(draw):
    """A small (genus, n) with N-hat_{g,n} and N-hat_{g,n+1} after adding
    random b-polynomials to a few c_lambda, old partitions or new ones."""
    genus, n = draw(st.sampled_from(PAIRS))
    pair = []
    for m in (n, n + 1):
        mlambda = dict(nhat(genus, m).mlambda)
        keys = sorted(mlambda) + [(), (1,) * m, (m + 2,), (2, 1)[:m]]
        for _ in range(draw(st.integers(0, 3))):
            lam = draw(st.sampled_from(keys))
            bump = MultiPoly(B_ONLY, {(draw(st.integers(0, 3)),):
                                      Fraction(draw(st.integers(-5, 5)),
                                               draw(st.integers(1, 4)))})
            c = mlambda.get(lam, MultiPoly(B_ONLY)) + bump
            if c.is_zero():
                mlambda.pop(lam, None)
            else:
                mlambda[lam] = c
        pair.append(CountPolynomial(genus, m, mlambda))
    return genus, n, pair[0], pair[1]


@settings(max_examples=40, deadline=None)
@given(perturbed_pairs())
def test_m_basis_route_matches_the_expanded_route(case):
    genus, n, small, big = case
    routes_agree(genus, n, small, big)


@pytest.mark.parametrize("genus,n", PAIRS)
def test_routes_agree_on_the_real_polynomials(genus, n):
    delta, even, dilaton = routes_agree(genus, n, nhat(genus, n), nhat(genus, n + 1))
    assert delta.is_zero() and even and dilaton.is_zero()


def test_routes_agree_with_the_other_bernoulli_sign(monkeypatch):
    # with B_1 = -1/2 the power sums run over k = 0..x-1, each face's RHS
    # keeps -2 l^(2a+1), and both routes give the same odd witness
    plus = {k: ring.bernoulli_plus(k) for k in range(16)}
    monkeypatch.setattr(ring, "bernoulli_plus", lambda k: -plus[k] if k == 1 else plus[k])
    power_sum_coeffs.cache_clear()
    try:
        delta, even, _ = routes_agree(1, 2, nhat(1, 2), nhat(1, 3))
    finally:
        power_sum_coeffs.cache_clear()
    assert not even
    assert any(e % 2 for exps in delta.terms for e in exps[1:])
