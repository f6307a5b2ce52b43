from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.families import series_J, series_J_inverse
from irrmaps.ring import (B_ONLY, ContextError, GradedSeries, MultiPoly, Series,
                          TruncationError, bernoulli_plus, inverse_unit, log_unit)

from test_reference_graded import coefficient

G = ("b", "j")


def var(name, gens=G):
    return MultiPoly.variable(gens, name)


def marker(cap, a=0):
    """E_a = sum_i e_i l_i^a."""
    return GradedSeries(cap, {(a,): MultiPoly.constant(B_ONLY, 1)})


def test_poly_basics():
    b, j = var("b"), var("j")
    assert (b + j) * (b - j) == b * b - j * j
    p = (b + j) ** 3
    assert p * 0 == MultiPoly(G)
    cube = (var("b") ** 2 - var("j") ** 2) ** 3
    # binomial expansion of (x - y)^3 in the squared generators
    assert len(cube.terms) == 4
    assert sorted(cube.terms.values()) == [Fraction(-3), Fraction(-1), Fraction(1), Fraction(3)]


def test_poly_context_mismatch():
    p = var("b")
    q = MultiPoly.variable(("b", "l1"), "b")
    with pytest.raises(ContextError):
        _ = p + q
    with pytest.raises(ContextError):
        MultiPoly.variable(G, "nope")


def test_poly_evaluate():
    gens = ("b", "l1", "l2", "l3", "l4")
    ls = [MultiPoly.variable(gens, f"l{i}") for i in range(1, 5)]
    b = MultiPoly.variable(gens, "b")
    poly = sum((l * l for l in ls), MultiPoly(gens)) - (b * b * 3 + b * 3 + 1)
    value = poly.evaluate({"b": 1, "l1": 2, "l2": 2, "l3": 2, "l4": 2})
    assert value.as_fraction() == 9
    # empty assignment is the identity
    assert poly.evaluate({}) == poly
    # Q_0 = b + j vanishes at j = -b
    q0 = var("b") + var("j")
    assert q0.substitute("j", -var("b")).is_zero()


def test_poly_pow_and_degree():
    b = var("b")
    assert (b ** 0) == MultiPoly.constant(G, 1)
    assert (b ** 5).degree_in("b") == 5
    assert MultiPoly(G).degree_in("b") == -1


@st.composite
def polys(draw):
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        e = (draw(st.integers(0, 3)), draw(st.integers(0, 3)))
        terms[e] = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
    return MultiPoly(G, terms)


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_ring_laws(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


def assert_canonical(p):
    assert p.den > 0
    assert 0 not in p.num.values()
    assert gcd(p.den, *p.num.values()) == 1
    assert len(p.terms) == len(p.num)
    assert all(p.terms[e] == Fraction(c, p.den) for e, c in p.num.items())


def test_cancelling_routes_land_in_one_canonical_form():
    x = MultiPoly.variable(("x",), "x")
    half = (x * Fraction(1, 2) + Fraction(1, 2)) * 2 - 1
    assert half == x and hash(half) == hash(x)
    assert (half.num, half.den) == (x.num, x.den) == ({(1,): 1}, 1)
    # sums over different denominators reduce: 1/6 x + 1/3 x = 1/2 x
    sixth = x * Fraction(1, 6) + x * Fraction(1, 3)
    assert (sixth.num, sixth.den) == ({(1,): 1}, 2)
    # the numerators carry the content the denominator cannot cancel
    p = x * Fraction(2, 3) + Fraction(4, 3)
    assert (p.num, p.den) == ({(1,): 2, (0,): 4}, 3)
    for q in (half, sixth, p, p * p, p.evaluate({"x": Fraction(3, 2)})):
        assert_canonical(q)


def test_zero_and_constants_are_canonical():
    x = MultiPoly.variable(G, "b")
    p = x * Fraction(3, 7) - Fraction(5, 11)
    for zero in (p - p, p * 0, p + (-p), MultiPoly(G), MultiPoly(G, {(1, 0): 0})):
        assert zero.is_zero() and zero.num == {} and zero.den == 1
        assert zero == MultiPoly(G) and zero == 0 and hash(zero) == hash(0)
        assert len(zero.terms) == 0
    c = MultiPoly.constant(G, Fraction(-6, 4))
    assert (c.num, c.den) == ({(0, 0): -3}, 2)
    assert c == Fraction(-3, 2) and hash(c) == hash(Fraction(-3, 2))
    assert MultiPoly.constant(G, 4) == 4 and hash(MultiPoly.constant(G, 4)) == hash(4)


def test_terms_is_a_read_only_view():
    p = var("b") * Fraction(1, 2)
    assert p.terms == {(1, 0): Fraction(1, 2)}
    with pytest.raises(TypeError):
        p.terms[(0, 0)] = Fraction(1)
    with pytest.raises(AttributeError):
        p.terms = {}


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(0, 3))
def test_every_result_is_canonical(p, q, k):
    assert_canonical(p)
    for r in (p + q, p - q, p * q, -p, p ** k, p * Fraction(-4, 6), p - p,
              p.evaluate({"j": Fraction(2, 3)}), p.substitute("b", q),
              p.with_context(("j", "b", "x")), *p.coefficients_in("j").values()):
        assert_canonical(r)


def scalar_series(coeffs, order):
    return Series([Fraction(c) for c in coeffs], order, Fraction(0))


@pytest.mark.parametrize("x", [
    MultiPoly.variable(G, "b") * 2 - 1,
    scalar_series([0, 1, -2], 5),
    GradedSeries(4, {(0,): MultiPoly.constant(B_ONLY, 1), (2,): MultiPoly.variable(B_ONLY, "b")}),
], ids=["MultiPoly", "Series", "GradedSeries"])
def test_one_power_routine_for_every_ring(x):
    assert x ** 0 == x * 0 + 1
    want = x * 0 + 1
    for n in range(1, 6):
        want = want * x
        assert x ** n == want
    for n in (-1, 1.0, Fraction(2)):
        with pytest.raises(ValueError):
            x ** n


def test_power_keeps_the_base_on_the_right(monkeypatch):
    # a sparse base is multiplied into the power, never squared
    seen = []
    mul = GradedSeries.__mul__

    def recorded(self, other):
        seen.append(other)
        return mul(self, other)

    x = GradedSeries(5, {(0,): MultiPoly.constant(B_ONLY, 1)})
    monkeypatch.setattr(GradedSeries, "__mul__", recorded)
    x ** 4
    assert len(seen) == 3 and all(other is x for other in seen)


def test_series_multiply_inverse():
    one_plus = scalar_series([1, 1], 6)
    geo = scalar_series([1, -1, 1, -1, 1, -1, 1], 6)
    assert (one_plus * geo) == scalar_series([1], 6)
    assert inverse_unit(one_plus, 6) == geo


def test_series_product_skips_zero_operands(monkeypatch):
    # J and the partial inverses behind J^-1 are full of zero coefficients;
    # products with a zero operand are not formed (9,912 when they were)
    calls = 0
    mul = MultiPoly.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counted)
    jinv = series_J_inverse(15)
    assert jinv[1] == 1 and jinv.order == 15
    assert calls <= 4500


def test_series_log_exp():
    log1p = log_unit(scalar_series([1, 1], 5), 5)
    assert [log1p[k] for k in range(6)] == [
        0, 1, Fraction(-1, 2), Fraction(1, 3), Fraction(-1, 4), Fraction(1, 5)]
    assert log_unit(scalar_series([1], 4), 4) == scalar_series([0], 4)
    # log(u w) = log u + log w
    u = scalar_series([1, 2, -1, 3], 5)
    w = scalar_series([1, -1, 0, 4, 1, -2], 5)
    assert log_unit(u * w, 5) == log_unit(u, 5) + log_unit(w, 5)
    with pytest.raises(ValueError):
        log_unit(scalar_series([2, 1], 3), 3)


def test_series_truncation_commutes():
    f = scalar_series([1, 2, 3, 4, 5], 4)
    g = scalar_series([0, 1, -1, 2, -2], 4)
    assert (f * g).truncate(2) == f.truncate(2) * g.truncate(2)
    with pytest.raises(TruncationError):
        f.truncate(9)


def test_graded_nilpotent_markers():
    cap = 2
    e = marker(cap)  # e1 + e2
    el = marker(cap, 1)  # e1 l1 + e2 l2
    prod = (e + 1) * (el + 1)
    expanded = ("b", "l1", "l2")
    l1, l2 = MultiPoly.variable(expanded, "l1"), MultiPoly.variable(expanded, "l2")
    assert coefficient(prod, ()) == MultiPoly.constant(expanded, 1)
    assert coefficient(prod, (1,)) == l1 + 1
    assert coefficient(prod, (2,)) == l2 + 1
    # (e1 + e2)(e1 l1 + e2 l2) = e1 e2 (l1 + l2): e1^2 = e2^2 = 0
    assert coefficient(prod, (1, 2)) == l1 + l2
    assert coefficient(e * e, (1, 2)) == MultiPoly.constant(expanded, 2)
    one = marker(1)  # a single face: e1^2 = 0
    assert (one * one).is_zero()
    with pytest.raises(ValueError):
        coefficient(prod, (3,))


def test_graded_markers_past_the_face_count_vanish():
    gens = ("b",)
    one = marker(1)
    assert (one * one).is_zero()
    two = marker(2, 2)
    assert (two * two).terms == {(2, 2): MultiPoly.constant(gens, 1)}
    assert (two * two * two).is_zero()
    # the coefficients are polynomials in b alone
    with pytest.raises(ContextError):
        GradedSeries(2, {(2,): MultiPoly.constant(("b", "c"), 1)})
    with pytest.raises(ContextError):
        _ = two + MultiPoly.variable(("b", "c"), "c")
    with pytest.raises(TruncationError):
        _ = one + two


def test_graded_constructor_adds_terms_whose_sorted_keys_agree():
    gens = ("b",)
    one, two = MultiPoly.constant(gens, 1), MultiPoly.constant(gens, 2)
    gs = GradedSeries(2, {(2, 0): one, (0, 2): two, (1,): one, (1, 0, 0): one})
    assert gs.terms == {(0, 2): MultiPoly.constant(gens, 3), (1,): one}
    assert GradedSeries(2, {(1, 0): one, (0, 1): -one}).is_zero()
    # three marked faces out of two vanish
    assert GradedSeries(2, {(0, 0, 0): one}).is_zero()


def test_graded_equality_with_a_polynomial_over_another_context_is_false():
    two = MultiPoly.constant(("b", "l"), 2)
    assert not GradedSeries.constant(2, 2) == two
    assert GradedSeries.constant(2, 2) != two
    # as MultiPoly answers a context mismatch
    assert not MultiPoly.constant(B_ONLY, 2) == two
    assert GradedSeries.constant(2, 2) == MultiPoly.constant(B_ONLY, 2)
    with pytest.raises(ContextError):
        _ = GradedSeries.constant(2, 2) + two


def test_graded_cap_mismatch():
    with pytest.raises(TruncationError):
        _ = marker(2) + marker(3)


def test_graded_equality_across_caps_is_false():
    assert GradedSeries(2) != GradedSeries(3)
    assert not marker(2) == marker(3)
    assert marker(3).truncate(2) == marker(2)


def test_constant_poly_hashes_like_its_value():
    three = MultiPoly.constant(("b",), 3)
    assert three == 3 and hash(three) == hash(3) == hash(Fraction(3))
    assert len({three, 3}) == 1
    assert len({MultiPoly(("b",)), 0}) == 1
    half = MultiPoly.constant(("b", "l1"), Fraction(1, 2))
    assert hash(half) == hash(Fraction(1, 2))
    b = MultiPoly.variable(("b",), "b")
    assert len({b, b + 0, 3}) == 2


def test_graded_truncation_commutes():
    a = marker(4, 1) + marker(4) + 1
    b = marker(4, 1) * 2 + marker(4, 2)
    hi = (a * b).truncate(2)
    lo = a.truncate(2) * b.truncate(2)
    assert hi == lo


def test_t_derivative_of_the_inverse_series():
    # with no faces R = J^{-1}(b; t) is a series in t, and the moment route
    # through T differentiates it: J'(R) dR/dt = 1
    gens = ("b",)
    R = series_J_inverse(6)
    dR = R.derivative()
    assert dR.order == 5
    assert dR[0] == MultiPoly.constant(gens, 1)
    product = series_J(6).derivative().compose(R.truncate(5)) * dR
    assert product == Series([MultiPoly.constant(gens, 1)], 5, MultiPoly(gens))


def test_bernoulli_convention():
    assert bernoulli_plus(1) == Fraction(1, 2)
    assert bernoulli_plus(2) == Fraction(1, 6)
    assert bernoulli_plus(3) == 0
    assert bernoulli_plus(12) == Fraction(-691, 2730)


def test_compose_requires_zero_constant():
    f = scalar_series([1, 1], 3)
    g = scalar_series([1, 1], 3)
    with pytest.raises(ValueError):
        f.compose(g)


def test_evaluate_unknown_generator():
    p = var("b")
    with pytest.raises(ContextError):
        p.evaluate({"zz": 1})


@settings(max_examples=25, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4),
       st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_graded_ring_laws(a0, a1, a2, b0, b1, b2):
    gens = ("b",)
    el = marker(3, 1)
    e1 = marker(3)
    e2 = marker(3, 2)
    bvar = MultiPoly.variable(gens, "b")
    p = el * a0 + e1 * a1 + el * el * (bvar * a2)
    q = el * b0 + e2 * (bvar * b1) + b2
    r = el * e1 * a1 + b0
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r
