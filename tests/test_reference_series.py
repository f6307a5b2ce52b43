"""The series product, evaluation and inverse against the routes they replaced.

``horner_compose`` is the earlier ``Series.compose``: Horner's rule, one
multiplication of a dense accumulator per coefficient.  ``dense_mul`` is the
earlier ``Series.__mul__``, which formed every product a_j * b_(k-j), zero
operands included.  ``loop_log_unit`` and ``loop_inv_unit`` are the earlier
power loops behind the free energies for log u and 1/u.  ``reverse`` is the
earlier ``Series.reverse``, the general compositional inverse that built
J^{-1} term by term before ``series_J_inverse`` solved it as a fixed point.
All five are kept here only as references.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.families import series_J, series_J_inverse
from irrmaps.pipeline import moment_hat, solve_R_hat
from irrmaps.ring import (GradedSeries, MultiPoly, Series, _is_zero_elem,
                          _require_no_constant, inverse_unit, log_unit)


def horner_compose(self, inner):
    _require_no_constant(inner)
    acc = inner * 0
    for k in range(self.order, -1, -1):
        acc = acc * inner + self.coeffs[k]
    return acc


def dense_mul(self, other):
    n = min(self.order, other.order)
    out = []
    for k in range(n + 1):
        acc = self.zero
        for j in range(k + 1):
            acc = acc + self.coeffs[j] * other.coeffs[k - j]
        out.append(acc)
    return Series(out, n, self.zero)


def loop_log_unit(u, cap):
    v = u - 1
    acc = v * 0
    pk = v ** 0
    for k in range(1, cap + 1):
        pk = pk * v
        acc = acc + pk * Fraction((-1) ** (k + 1), k)
    return acc


def invert_unit(c):
    if isinstance(c, MultiPoly):
        if not c.is_constant() or c.constant_term() == 0:
            raise ValueError("leading coefficient must be an invertible constant")
        return MultiPoly.constant(c.gens, 1 / c.constant_term())
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"expected an exact scalar, got {type(c).__name__}")
    if c == 0:
        raise ValueError("leading coefficient must be invertible")
    return 1 / Fraction(c)


def reverse(self):
    """Compositional inverse of a series ``c1*x + O(x**2)``, to its order.

    Solved term by term; ``c1`` must be invertible (a nonzero Fraction or a
    constant polynomial).  Returns g with self(g(z)) = z.
    """
    c0 = self.coeffs[0]
    if not _is_zero_elem(c0):
        raise ValueError("series must have zero constant term")
    c1inv = invert_unit(self.coeffs[1])
    g = [self.zero, c1inv]
    for k in range(2, self.order + 1):
        partial = Series(g + [self.zero], k, self.zero)
        resid = self.truncate(k).compose(partial)
        g.append(-(resid.coeffs[k] * c1inv))
    return Series(g, self.order, self.zero)


def loop_inv_unit(u, cap):
    v = (u - 1) * Fraction(-1)
    acc = v ** 0
    pk = v ** 0
    for _ in range(1, cap + 1):
        pk = pk * v
        acc = acc + pk
    return acc


GENS = ("b",)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def outer_series(draw):
    order = draw(st.integers(0, 6))
    return Series(draw(st.lists(fractions, min_size=order + 1, max_size=order + 1)),
                  order, Fraction(0))


@st.composite
def series_inners(draw):
    order = draw(st.integers(0, 6))
    coeffs = draw(st.lists(fractions, min_size=order, max_size=order))
    return Series([Fraction(0)] + coeffs, order, Fraction(0))


@st.composite
def graded_inners(draw):
    cap = draw(st.integers(0, 4))
    keys = [lam for lam in ((0,), (2,), (0, 2), (2, 2), (0, 0, 2), (0, 2, 2, 2))
            if len(lam) <= cap]
    bvar = MultiPoly.variable(GENS, "b")
    terms = {}
    for key in draw(st.lists(st.sampled_from(keys), unique=True)) if keys else ():
        terms[key] = bvar * draw(fractions) + draw(fractions)
    return GradedSeries(cap, terms)


def assert_same(got, want):
    assert type(got) is type(want)
    if isinstance(want, Series):
        assert got.order == want.order
        assert got.coeffs == want.coeffs
    else:
        assert got.cap == want.cap
        assert got.terms == want.terms


@st.composite
def sparse_poly_series(draw):
    """A Series over MultiPoly in b, about half its coefficients zero."""
    order = draw(st.integers(0, 7))
    bvar = MultiPoly.variable(GENS, "b")
    zero = MultiPoly(GENS)
    coeffs = [draw(st.sampled_from([zero, bvar * draw(fractions) + draw(fractions)]))
              for _ in range(order + 1)]
    return Series(coeffs, order, zero)


@settings(max_examples=80, deadline=None)
@given(sparse_poly_series(), sparse_poly_series())
def test_product_matches_the_dense_loop(left, right):
    got = left * right
    want = dense_mul(left, right)
    assert_same(got, want)
    assert all(type(c) is MultiPoly and c.gens == GENS for c in got.coeffs)


@settings(max_examples=80, deadline=None)
@given(outer_series(), series_inners() | graded_inners())
def test_compose_matches_horner(outer, inner):
    assert_same(outer.compose(inner), horner_compose(outer, inner))


@settings(max_examples=60, deadline=None)
@given(series_inners() | graded_inners())
def test_unit_log_and_inverse_match_the_loops(inner):
    u = inner + 1
    order = inner.order if isinstance(inner, Series) else inner.cap
    assert_same(log_unit(u, order), loop_log_unit(u, order))
    assert_same(inverse_unit(u, order), loop_inv_unit(u, order))


def test_jinv_matches_under_horner(monkeypatch):
    got = series_J_inverse(12)
    monkeypatch.setattr(Series, "compose", horner_compose)
    want = series_J_inverse(12)
    assert got.order == want.order == 12
    for k in range(13):
        assert got[k] == want[k]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_free_energy_units_match_the_loops(n):
    m0 = moment_hat(0, solve_R_hat(n))
    assert_same(log_unit(m0, n), loop_log_unit(m0, n))
    assert_same(inverse_unit(m0, n), loop_inv_unit(m0, n))


def scalar_series(coeffs, order):
    return Series([Fraction(c) for c in coeffs], order, Fraction(0))


def test_reverse_catalan():
    f = scalar_series([0, 1, -1], 6)  # z - z^2
    g = reverse(f)
    # Catalan numbers
    assert [g[k] for k in range(7)] == [0, 1, 1, 2, 5, 14, 42]
    assert reverse(scalar_series([0, 1], 4)) == scalar_series([0, 1], 4)
    z = f.compose(g)
    assert z == scalar_series([0, 1], 6)


def test_reverse_two_sided():
    f = scalar_series([0, 1, 3, -2, 7, 1, -5], 6)
    g = reverse(f)
    assert f.compose(g) == scalar_series([0, 1], 6)
    assert g.compose(f) == scalar_series([0, 1], 6)


def test_reverse_rejects_zero_linear():
    with pytest.raises(ValueError):
        reverse(scalar_series([0, 0, 1], 4))
    with pytest.raises(ValueError):
        reverse(scalar_series([1, 1], 4))


@pytest.mark.parametrize("order", range(16))
def test_jinv_fixed_point_matches_the_reverse(order):
    if order == 0:
        # J, and with it its inverse, starts at order 1
        with pytest.raises(ValueError):
            series_J(order)
        with pytest.raises(ValueError):
            series_J_inverse(order)
        return
    assert_same(series_J_inverse(order), reverse(series_J(order)))
