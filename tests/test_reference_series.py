"""The series product, evaluation and inverse against the routes they replaced.

``horner_compose`` is the earlier ``Series.compose``: Horner's rule, one
multiplication of a dense accumulator per coefficient.  ``dense_mul`` is the
earlier ``Series.__mul__``, which formed every product a_j * b_(k-j), zero
operands included.  ``sparse_mul`` and ``accumulating_compose`` are the
product and composition before ``ring.sum_of_products``: zero operands
skipped, each product formed, reduced and added to an accumulator one by
one.  ``loop_log_unit`` and ``loop_inv_unit`` are the earlier power loops
behind the free energies for log u and 1/u.  ``reverse`` is the earlier
``Series.reverse``, the general compositional inverse that built J^{-1}
term by term before ``series_J_inverse`` solved it as a fixed point.  All
seven are kept here only as references.  The kernel is also checked with
no package arithmetic at all: against ``FractionPoly`` for polynomials, and
for the graded ring against products of Fractions at integer b.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.families import series_J, series_J_inverse
from irrmaps.pipeline import moment_hat, solve_R_hat
from irrmaps.ring import (B_ONLY, ContextError, GradedSeries, MultiPoly, Series,
                          TruncationError, _is_zero_elem, _require_no_constant, inverse_unit,
                          log_unit, sum_of_products)

from test_reference_ring import FractionPoly


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


def sparse_mul(self, other):
    if not isinstance(other, Series):
        return Series([c * other for c in self.coeffs], self.order, self.zero)
    n = min(self.order, other.order)
    a, b = self.coeffs, other.coeffs
    # products with a zero operand add nothing: form only the others
    a_nonzero = [j for j in range(n + 1) if not _is_zero_elem(a[j])]
    b_zero = [_is_zero_elem(b[k]) for k in range(n + 1)]
    out = []
    for k in range(n + 1):
        acc = self.zero
        for j in a_nonzero:
            if j > k:
                break
            if not b_zero[k - j]:
                acc = acc + a[j] * b[k - j]
        out.append(acc)
    return Series(out, n, self.zero)


def accumulating_compose(self, inner, powers=None):
    _require_no_constant(inner)
    powers = [] if powers is None else powers
    acc = inner * 0 + self.coeffs[0]
    for k, c in enumerate(self.coeffs[1:]):
        if k == len(powers):
            powers.append(powers[-1] * inner if powers else inner)
        if _is_zero_elem(powers[k]):
            break
        acc = acc + powers[k] * c
    return acc


def fold(pairs, zero):
    acc = zero
    for x, y in pairs:
        acc = acc + x * y
    return acc


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


# ---------- the sum-of-products kernel ----------

mixed = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12))
KEYS = [(), (0,), (2,), (4,), (0, 2), (2, 2), (0, 0, 2), (0, 2, 4), (2, 2, 2, 4)]


@st.composite
def polys(draw, gens, zeros=True):
    """A MultiPoly in ``gens`` with coefficients over mixed denominators."""
    exps = st.tuples(*[st.integers(0, 3)] * len(gens))
    terms = draw(st.dictionaries(exps, mixed, min_size=0 if zeros else 1, max_size=4))
    return MultiPoly(gens, terms)


@st.composite
def graded(draw, cap):
    keys = [lam for lam in KEYS if len(lam) <= cap]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=4))
    return GradedSeries(cap, {lam: draw(polys(B_ONLY)) for lam in chosen})


def scalars():
    return mixed | st.integers(-5, 5)


def graded_factors(cap):
    return graded(cap) | polys(B_ONLY) | scalars()


def series_over(draw, element, zero, max_order=5):
    order = draw(st.integers(0, max_order))
    return Series([draw(element) for _ in range(order + 1)], order, zero)


def as_fraction_poly(x):
    return FractionPoly(x.gens, dict(x.terms)) if isinstance(x, MultiPoly) else x


def at(x, b: int, cap: int) -> dict:
    """A graded factor at the integer b, as {key: Fraction}, no package
    arithmetic: rows evaluated by hand, keys past ``cap`` dropped."""
    if isinstance(x, GradedSeries):
        rows = {lam: Fraction(sum(c * b ** k for k, c in enumerate(row)), x.den)
                for lam, row in x.num.items()}
    elif isinstance(x, MultiPoly):
        rows = {(): sum((c * b ** k for (k,), c in x.terms.items()), Fraction(0))}
    else:
        rows = {(): Fraction(x)}
    return {lam: c for lam, c in rows.items() if c and len(lam) <= cap}


def sum_at(pairs, b: int, cap: int) -> dict:
    """sum x * y at b with Fraction dicts: keys merge by sorted concatenation."""
    out = {}
    for x, y in pairs:
        for l1, c1 in at(x, b, cap).items():
            for l2, c2 in at(y, b, cap).items():
                if len(l1) + len(l2) <= cap:
                    key = tuple(sorted(l1 + l2))
                    out[key] = out.get(key, 0) + c1 * c2
    return {lam: c for lam, c in out.items() if c}


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 4))
def test_graded_kernel_matches_fractions_at_integer_b(data, cap):
    factor = graded_factors(cap)
    pairs = data.draw(st.lists(st.tuples(factor, factor), max_size=5))
    before = repr(pairs)
    got = sum_of_products(pairs, GradedSeries(cap))
    assert type(got) is GradedSeries and got.cap == cap
    assert got == fold(pairs, GradedSeries(cap))
    assert repr(pairs) == before, "a factor's lists changed"
    for b in range(-2, 5):
        assert at(got, b, cap) == sum_at(pairs, b, cap)


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([("b",), ("b", "l")]))
def test_poly_kernel_matches_the_fraction_poly(data, gens):
    factor = polys(gens) | scalars()
    pairs = data.draw(st.lists(st.tuples(factor, factor), max_size=5))
    got = sum_of_products(pairs, MultiPoly(gens))
    assert type(got) is MultiPoly and got.gens == gens
    want = fold([(as_fraction_poly(x), as_fraction_poly(y)) for x, y in pairs],
                FractionPoly(gens))
    assert dict(got.terms) == want.terms
    assert got == fold(pairs, MultiPoly(gens))


@settings(max_examples=60, deadline=None)
@given(st.data(), st.sampled_from([("b",), ("b", "l")]))
def test_poly_series_product_and_compose_match_the_accumulators(data, gens):
    zero = MultiPoly(gens)
    left = series_over(data.draw, polys(gens) | st.just(zero), zero)
    right = series_over(data.draw, polys(gens) | st.just(zero), zero)
    assert_same(left * right, sparse_mul(left, right))
    assert_same(left * right, dense_mul(left, right))
    inner = series_over(data.draw, polys(gens) | st.just(zero), zero)
    inner = Series([zero] + inner.coeffs[1:], inner.order, zero)
    assert_same(left.compose(inner), accumulating_compose(left, inner))
    # no package arithmetic: the same product over FractionPoly, which
    # the kernel does not handle, folds the reference's own operators
    ref = Series([as_fraction_poly(c) for c in left.coeffs], left.order, FractionPoly(gens)) \
        * Series([as_fraction_poly(c) for c in right.coeffs], right.order, FractionPoly(gens))
    assert [dict(c.terms) for c in (left * right).coeffs] == [c.terms for c in ref.coeffs]


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 4))
def test_graded_series_product_and_compose_match_the_accumulators(data, cap):
    zero = GradedSeries(cap)
    left = series_over(data.draw, graded_factors(cap), zero, 4)
    right = series_over(data.draw, graded_factors(cap), zero, 4)
    assert_same(left * right, sparse_mul(left, right))
    inner = data.draw(graded(cap))
    inner = inner - GradedSeries(cap, {(): c for lam, c in inner.terms.items() if not lam})
    outer = series_over(data.draw, graded_factors(cap) | polys(B_ONLY), MultiPoly(B_ONLY))
    assert_same(outer.compose(inner), accumulating_compose(outer, inner))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fraction_series_product_and_compose_match_the_accumulators(data):
    left = series_over(data.draw, fractions, Fraction(0), 6)
    right = series_over(data.draw, fractions, Fraction(0), 6)
    assert_same(left * right, sparse_mul(left, right))
    inner = data.draw(series_inners())
    assert_same(left.compose(inner), accumulating_compose(left, inner))


def test_the_kernel_leaves_its_factors_unchanged():
    # the pair times 1 lends its lists to the sum, and the pair times b adds
    # into the same keys: it must not add into the lent lists
    b = MultiPoly.variable(B_ONLY, "b")
    g = GradedSeries(2, {(): 1 + b, (0,): b, (0, 2): 2 + b * b})
    before = repr(g)
    assert sum_of_products([(g, 1), (g, b)], GradedSeries(2)) == g + g * b
    assert repr(g) == before


# ---------- the kernel keeps the refusals of the operators ----------


def test_the_kernel_refuses_mixed_caps():
    one = MultiPoly.constant(B_ONLY, 1)
    two, three = GradedSeries(2, {(0,): one}), GradedSeries(3, {(2,): one})
    for run in (lambda: sum_of_products([(two, 1), (three, 1)], GradedSeries(2)),
                lambda: sum_of_products([(two, two)], GradedSeries(3)),
                lambda: sum_of_products([(1, three)], two),
                lambda: two + three,
                lambda: two * three,
                lambda: Series([two], 0, GradedSeries(2)) * Series([three], 0, GradedSeries(3)),
                lambda: Series([0, three], 1, GradedSeries(3)).compose(two),
                lambda: Series([1, 1], 1, Fraction(0)).compose(
                    Series([GradedSeries(2), two * 0 + three], 1, GradedSeries(2)))):
        with pytest.raises(TruncationError):
            run()


def test_the_kernel_refuses_mixed_contexts():
    b = MultiPoly.variable(B_ONLY, "b")
    bl = MultiPoly.variable(("b", "l"), "l")
    marked = GradedSeries(2, {(0,): b})
    for run in (lambda: sum_of_products([(b, 1), (bl, 1)], MultiPoly(B_ONLY)),
                lambda: sum_of_products([(b, b)], MultiPoly(("b", "l"))),
                lambda: sum_of_products([(marked, bl)], GradedSeries(2)),
                lambda: sum_of_products([(marked, 1)], MultiPoly(("b", "l"))),
                lambda: b + bl,
                lambda: b * bl,
                lambda: marked * bl,
                lambda: marked + bl,
                lambda: Series([b], 0, MultiPoly(B_ONLY)) * Series([bl], 0, MultiPoly(B_ONLY)),
                lambda: Series([b, bl], 1, MultiPoly(B_ONLY)) * Series([b, b], 1, b * 0),
                lambda: Series([0, bl], 1, MultiPoly(("b", "l"))).compose(marked),
                lambda: Series([0, b], 1, Fraction(0)).compose(
                    Series([MultiPoly(("b", "l")), bl], 1, MultiPoly(("b", "l"))))):
        with pytest.raises(ContextError):
            run()


def test_series_product_hands_the_kernel_no_zero_operand(monkeypatch):
    # J and the partial sums of compositions are full of zero coefficients
    from irrmaps import ring
    seen = []
    summer = ring._summer

    def recorded(zero, factors):
        total = summer(zero, factors)

        def run(pairs):
            seen.extend(pairs)
            return total(pairs)
        return run

    monkeypatch.setattr(ring, "_summer", recorded)
    b, zero = MultiPoly.variable(B_ONLY, "b"), MultiPoly(B_ONLY)
    odd = Series([b ** k if k % 2 else zero for k in range(11)], 10, zero)
    assert odd * odd == dense_mul(odd, odd)
    # (j, k) odd with j + k <= 10, of the 66 pairs j + k <= 10
    assert len(seen) == 15
    assert not any(_is_zero_elem(x) or _is_zero_elem(y) for x, y in seen)
