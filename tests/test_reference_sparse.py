"""The graded ring with sparse b-coefficients and the per-p moment route,
kept as references for the dense ring and the one-pass moments.

``SparseGradedSeries`` is the earlier ``ring.GradedSeries``: one
``MultiPoly`` over ``B_ONLY`` per key, each product a ``MultiPoly``
product, each sum a ``MultiPoly`` sum.  ``apply_q_operator`` and
``q_moment`` are the earlier Q-operator route: Q_p(b, (1+r) d/dr) applied
to one r-series per p, each derivative a ``derivative()`` times the series
1 + r.  ``moment_per_p`` and ``moment_per_p_via_Q`` run that route once per
moment index over the sparse ring and over series in t, as ``moment_hat``
and ``moment_hat_via_Q`` did before the moments shared one Z, one chain of
derivatives and one list of powers of R.  The tests compare the package's
dense ring with the sparse one on random series, and the package's
moments with the per-p route.
"""

from fractions import Fraction
from math import gcd
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.families import power_one_plus_r, qpoly_table, series_J, series_J_inverse
from irrmaps.pipeline import (DomainError, _zhat_series, moment_hats, moment_hats_via_Q,
                              solve_R_hat)
from irrmaps.ring import (B_ONLY, ContextError, GradedSeries, MultiPoly, Series,
                          TruncationError, _power, join_terms)


class SparseGradedSeries:
    """The graded ring with one MultiPoly coefficient over B_ONLY per key:
    the same keys, grading and truncation as ``ring.GradedSeries``."""

    __slots__ = ("cap", "terms")

    def __init__(self, cap: int, terms: Mapping[tuple, MultiPoly] | None = None):
        if cap < 0:
            raise TruncationError("cap must be nonnegative")
        self.cap = cap
        clean: dict[tuple, MultiPoly] = {}
        if terms:
            for lam, coeff in terms.items():
                if len(lam) > cap:
                    continue
                if coeff.gens != B_ONLY:
                    raise ContextError(f"coefficient over {coeff.gens}, not {B_ONLY}")
                key = tuple(sorted(lam))
                if key in clean:
                    coeff = clean[key] + coeff
                if coeff.is_zero():
                    clean.pop(key, None)
                else:
                    clean[key] = coeff
        self.terms = clean

    # ---------- constructors ----------

    @classmethod
    def constant(cls, cap: int, value) -> "SparseGradedSeries":
        if isinstance(value, (int, Fraction)):
            value = MultiPoly.constant(B_ONLY, value)
        return cls(cap, {(): value})

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, cap: int) -> "SparseGradedSeries":
        if cap > self.cap:
            raise TruncationError(f"cannot extend truncated series ({self.cap} -> {cap})")
        return SparseGradedSeries(cap, self.terms)

    # ---------- ring operations ----------

    def _coerce(self, other) -> "SparseGradedSeries | None":
        if isinstance(other, SparseGradedSeries):
            if other.cap != self.cap:
                raise TruncationError(f"cap mismatch: {self.cap} vs {other.cap}")
            return other
        if isinstance(other, (int, Fraction, MultiPoly)):
            return SparseGradedSeries.constant(self.cap, other)
        return None

    def _empty(self) -> "SparseGradedSeries":
        return SparseGradedSeries(self.cap)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, c in other.terms.items():
            s = terms.get(key)
            s = c if s is None else s + c
            if s.is_zero():
                terms.pop(key, None)
            else:
                terms[key] = s
        out = self._empty()
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = self._empty()
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return -(self - other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, MultiPoly)):
            out = self._empty()
            for k, v in self.terms.items():
                p = v * other
                if not p.is_zero():
                    out.terms[k] = p
            return out
        if not isinstance(other, SparseGradedSeries):
            return NotImplemented
        other = self._coerce(other)
        cap = self.cap
        prod_terms: dict[tuple, MultiPoly] = {}
        for l1, c1 in self.terms.items():
            k1 = len(l1)
            for l2, c2 in other.terms.items():
                if k1 + len(l2) > cap:
                    continue
                key = tuple(sorted(l1 + l2))
                c = c1 * c2
                s = prod_terms.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    prod_terms.pop(key, None)
                else:
                    prod_terms[key] = s
        out = self._empty()
        out.terms = prod_terms
        return out

    __rmul__ = __mul__

    __pow__ = _power

    def __eq__(self, other):
        if isinstance(other, SparseGradedSeries) and other.cap != self.cap:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def valuation_positive(self) -> bool:
        return () not in self.terms

    def __str__(self):
        bits = []
        for lam, c in sorted(self.terms.items(), key=lambda kv: (len(kv[0]), kv[0])):
            mark = f"*M{lam}" if lam else ""
            bits.append(f"({c}){mark}")
        return join_terms(bits)

    __repr__ = __str__


def sparse(gs: GradedSeries) -> SparseGradedSeries:
    return SparseGradedSeries(gs.cap, gs.terms)


def dense(ss: SparseGradedSeries) -> GradedSeries:
    return GradedSeries(ss.cap, ss.terms)


def apply_q_operator(by_j: dict, w: Series, one_plus: Series) -> Series:
    """Apply Q_p(b, (1+r) d/dr) to the r-series ``w``.

    ``by_j`` maps each power of j to its nonzero coefficient in Q_p(b, j)
    and ``one_plus`` is the series 1 + r, both in the ring of the
    coefficients of ``w``.
    """
    acc = None
    cur = w
    for e in range(max(by_j) + 1):
        if e > 0:
            cur = cur.derivative() * one_plus.truncate(cur.order - 1)
        if e in by_j:
            term = cur * by_j[e]
            acc = term if acc is None else acc + term
    return acc


def q_moment(p: int, f: Series) -> Series:
    """Q_p(b, (1+r) d/dr) (1+r)^(-b) f(r) for an r-series ``f`` whose
    coefficient ring absorbs b-only polynomials; exact to f.order - p - 1."""
    table = qpoly_table()
    if p >= len(table):
        raise DomainError(f"moment index {p} beyond the available Q table")
    w = f * power_one_plus_r(0, -1, f.order)
    by_j = {e: c.with_context(B_ONLY) for e, c in table[p].coefficients_in("j").items()}
    return apply_q_operator(by_j, w, power_one_plus_r(1, 0, f.order))


def moment_per_p(p: int, rhat: GradedSeries) -> SparseGradedSeries:
    """The moment of index p at R, from its own Z, over the sparse ring."""
    cap = rhat.cap
    Z = _zhat_series(cap, cap + p + 1)
    Z = Series([sparse(c) for c in Z.coeffs], Z.order, SparseGradedSeries(cap))
    return q_moment(p, Z).compose(sparse(rhat))


def moment_per_p_via_Q(p: int, R: Series, order: int) -> Series:
    """The moment of index p with no faces, in t, from its own J."""
    return q_moment(p, series_J(order + p + 1)).compose(R.truncate(order))


# ============================================================
# the dense ring against the sparse one
# ============================================================

fractions = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4, 6, 9]))
KEYS = [(), (0,), (2,), (0, 0), (0, 2), (2, 4), (0, 0, 2), (0, 2, 2), (2, 2, 4), (0, 0, 2, 4)]


@st.composite
def b_polys(draw, max_degree=3):
    """A polynomial in b with small rational coefficients, often zero or
    with a zero top coefficient."""
    cs = draw(st.lists(st.one_of(st.just(Fraction(0)), fractions), max_size=max_degree + 1))
    return MultiPoly(B_ONLY, {(k,): c for k, c in enumerate(cs)})


@st.composite
def graded(draw, cap, valuation_positive=False):
    keys = [k for k in KEYS if len(k) <= cap and (k or not valuation_positive)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=6)) if keys else []
    return GradedSeries(cap, {k: draw(b_polys()) for k in chosen})


@st.composite
def graded_pairs(draw):
    cap = draw(st.integers(0, 4))
    left = draw(graded(cap))
    # a share of pairs cancel on shared keys
    right = draw(st.one_of(graded(cap), st.just(-left), st.just(left * Fraction(-3, 2))))
    return left, right


def assert_canonical(gs: GradedSeries):
    assert gs.den > 0
    assert all(row and row[-1] for row in gs.num.values())
    assert all(len(k) <= gs.cap and list(k) == sorted(k) for k in gs.num)
    assert gcd(gs.den, *(x for row in gs.num.values() for x in row)) == 1
    assert gs.num or gs.den == 1


def same(got: GradedSeries, want: SparseGradedSeries):
    assert_canonical(got)
    assert got.cap == want.cap
    assert got.terms == want.terms
    assert got == dense(want)


@settings(max_examples=150, deadline=None)
@given(graded_pairs(), fractions, b_polys())
def test_dense_ring_matches_the_sparse_ring(pair, scalar, poly):
    left, right = pair
    sl, sr = sparse(left), sparse(right)
    same(left, sl)
    same(left + right, sl + sr)
    same(left - right, sl - sr)
    same(-left, -sl)
    same(left * right, sl * sr)
    same(right * left, sl * sr)
    same(left * scalar, sl * scalar)
    same(scalar * left, sl * scalar)
    same(left * 3, sl * 3)
    same(left * poly, sl * poly)
    same(left + poly - scalar, sl + poly - scalar)
    for cap in range(left.cap + 1):
        same(left.truncate(cap), sl.truncate(cap))
    assert (left == right) == (sl == sr)
    assert (left == poly) == (sl == poly)
    assert (left == scalar) == (sl == scalar)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 4).flatmap(lambda cap: st.tuples(
    st.lists(st.one_of(graded(cap), b_polys()), min_size=1, max_size=5),
    graded(cap, valuation_positive=True))))
def test_compose_in_the_dense_ring_matches_the_sparse_ring(case):
    coeffs, inner = case
    cap = inner.cap
    outer = Series(coeffs, len(coeffs) - 1, GradedSeries(cap))
    sparse_outer = Series([sparse(c) if isinstance(c, GradedSeries) else c for c in coeffs],
                          len(coeffs) - 1, SparseGradedSeries(cap))
    same(outer.compose(inner), sparse_outer.compose(sparse(inner)))
    # one list of powers serves several series
    powers = []
    for s in (outer, outer * 2, outer.truncate(0)):
        assert s.compose(inner, powers) == s.compose(inner)


def test_dense_form_is_canonical_after_cancellation():
    b = MultiPoly.variable(B_ONLY, "b")
    x = GradedSeries(2, {(0,): b * Fraction(1, 6) + Fraction(1, 3), (2,): b ** 2 * Fraction(1, 2)})
    y = GradedSeries(2, {(2,): b ** 2 * Fraction(1, 2) - Fraction(1, 2)})
    diff = x - y
    assert_canonical(diff)
    assert diff.num == {(0,): [2, 1], (2,): [3]} and diff.den == 6
    assert (x - x).num == {} and (x - x).den == 1
    assert_canonical(x * 6)
    assert (x * 6).den == 1


# ============================================================
# the moments of one pass against the per-p route
# ============================================================


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("cap", range(7))
def test_chain_moments_match_the_per_p_route(genus, cap):
    R = solve_R_hat(cap)
    ps = range(3 * genus - 2)
    got = moment_hats(ps, R)
    assert len(got) == len(ps)
    for p, m in zip(ps, got):
        same(m, moment_per_p(p, R))


@pytest.mark.parametrize("genus", [1, 2])
@pytest.mark.parametrize("order", range(7))
def test_chain_moments_via_Q_match_the_per_p_route(genus, order):
    R = series_J_inverse(order + 3 * genus - 2)
    ps = range(3 * genus - 2)
    for p, m in zip(ps, moment_hats_via_Q(ps, R, order)):
        want = moment_per_p_via_Q(p, R, order)
        assert m.order == want.order == order
        assert m.coeffs == want.coeffs
