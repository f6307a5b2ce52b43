"""The face-symmetric graded ring against the marker-indexed ring it replaced.

``MarkerGradedSeries`` is the earlier ``ring.GradedSeries``: one MultiPoly
coefficient over (b, l1..ln) per t-exponent and subset of nilpotent
markers.  It keeps the deformation variable t, which the package's ring no
longer has: the package solves at t = 0, and with no faces it works on
plain series in t.  ``marker_solve_R``, ``marker_zhat``, ``marker_moment``
and ``marker_moment_via_T`` are the earlier solve and moment routes over
it, with t, and ``product_genus0`` is the earlier genus-0 route, which
multiplied the series I(b, l_i; r) face by face over (b, l1..ln).  All of
them are kept here only as references.  ``expand`` maps the face-symmetric
ring into the t^0 part of the marker ring through
``GradedSeries.coefficient``; ``t0_part`` and ``at_no_faces`` read the
marker results the package's routes stand for.
"""

import dataclasses
from fractions import Fraction
from itertools import combinations, permutations
from math import factorial
from typing import Iterable, Mapping, Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from irrmaps.families import (ConsistencyError, power_one_plus_r, qpoly_table,
                              series_I, series_J, series_J_inverse)
from irrmaps.pipeline import (B_ONLY, _apply_q_operator, face_generators,
                              free_energy, make_context, moment_hat,
                              moment_hat_via_Q, moment_hat_via_T, nhat_genus0,
                              solve_R_hat, t_weight)
from irrmaps.ring import (ContextError, GradedSeries, MultiPoly, Series,
                          TruncationError, distinct_permutations)


class MarkerGradedSeries:
    """Truncated element of Q[b, l1..ln][t, e1..en] / (e_i^2, degree > cap).

    Keys are ``(t_exponent, frozenset of marker indices)`` with total degree
    ``t_exponent + len(markers) <= cap``; values are MultiPoly coefficients
    over the shared generator context.  Marker nilpotency is enforced
    structurally: products of overlapping marker subsets vanish.
    """

    __slots__ = ("gens", "cap", "terms")

    def __init__(self, gens: Sequence[str], cap: int,
                 terms: Mapping[tuple[int, frozenset], MultiPoly] | None = None):
        if cap < 0:
            raise TruncationError("cap must be nonnegative")
        self.gens = tuple(gens)
        self.cap = cap
        clean: dict[tuple[int, frozenset], MultiPoly] = {}
        if terms:
            for (te, eps), coeff in terms.items():
                if te + len(eps) > cap:
                    continue
                if coeff.gens != self.gens:
                    raise ContextError("coefficient context mismatch")
                if not coeff.is_zero():
                    clean[(te, frozenset(eps))] = coeff
        self.terms = clean

    # ---------- constructors ----------

    @classmethod
    def constant(cls, gens: Sequence[str], cap: int, value) -> "MarkerGradedSeries":
        gens = tuple(gens)
        if isinstance(value, (int, Fraction)):
            value = MultiPoly.constant(gens, value)
        return cls(gens, cap, {(0, frozenset()): value})

    @classmethod
    def t_var(cls, gens: Sequence[str], cap: int) -> "MarkerGradedSeries":
        one = MultiPoly.constant(gens, 1)
        return cls(gens, cap, {(1, frozenset()): one})

    @classmethod
    def marker(cls, gens: Sequence[str], cap: int, i: int) -> "MarkerGradedSeries":
        one = MultiPoly.constant(gens, 1)
        return cls(gens, cap, {(0, frozenset([i])): one})

    # ---------- views ----------

    def coefficient(self, t_exp: int, markers: Iterable[int]) -> MultiPoly:
        return self.terms.get((t_exp, frozenset(markers)), MultiPoly(self.gens))

    def is_zero(self) -> bool:
        return not self.terms

    def truncate(self, cap: int) -> "MarkerGradedSeries":
        if cap > self.cap:
            raise TruncationError(f"cannot extend truncated series ({self.cap} -> {cap})")
        return MarkerGradedSeries(self.gens, cap,
                            {k: v for k, v in self.terms.items() if k[0] + len(k[1]) <= cap})

    # ---------- ring operations ----------

    def _coerce(self, other) -> "MarkerGradedSeries | None":
        if isinstance(other, MarkerGradedSeries):
            if other.gens != self.gens:
                raise ContextError("context mismatch")
            if other.cap != self.cap:
                raise TruncationError(f"cap mismatch: {self.cap} vs {other.cap}")
            return other
        if isinstance(other, (int, Fraction, MultiPoly)):
            return MarkerGradedSeries.constant(self.gens, self.cap, other)
        return None

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
        out = MarkerGradedSeries(self.gens, self.cap)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MarkerGradedSeries(self.gens, self.cap)
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
            if isinstance(other, (int, Fraction)) and other == 0:
                return MarkerGradedSeries(self.gens, self.cap)
            out = MarkerGradedSeries(self.gens, self.cap)
            out.terms = {}
            for k, v in self.terms.items():
                p = v * other
                if not p.is_zero():
                    out.terms[k] = p
            return out
        if not isinstance(other, MarkerGradedSeries):
            return NotImplemented
        other = self._coerce(other)
        cap = self.cap
        prod: dict[tuple[int, frozenset], MultiPoly] = {}
        for (t1, e1), c1 in self.terms.items():
            d1 = t1 + len(e1)
            for (t2, e2), c2 in other.terms.items():
                if d1 + t2 + len(e2) > cap:
                    continue
                if e1 & e2:
                    continue  # marker nilpotency
                key = (t1 + t2, e1 | e2)
                c = c1 * c2
                s = prod.get(key)
                s = c if s is None else s + c
                if s.is_zero():
                    prod.pop(key, None)
                else:
                    prod[key] = s
        out = MarkerGradedSeries(self.gens, cap)
        out.terms = prod
        return out

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = MarkerGradedSeries.constant(self.gens, self.cap, 1)
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        if isinstance(other, MarkerGradedSeries) and other.cap != self.cap:
            return False
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    # ---------- calculus ----------

    def t_derivative(self) -> "MarkerGradedSeries":
        """Formal d/dt; exact one grading degree lower."""
        out = MarkerGradedSeries(self.gens, max(self.cap - 1, 0))
        terms: dict[tuple[int, frozenset], MultiPoly] = {}
        for (te, eps), c in self.terms.items():
            if te >= 1:
                terms[(te - 1, eps)] = c * te
        out.terms = terms
        return out

    def valuation_positive(self) -> bool:
        return (0, frozenset()) not in self.terms

    def __str__(self):
        if not self.terms:
            return "0"
        bits = []
        for (te, eps), c in sorted(self.terms.items(),
                                   key=lambda kv: (kv[0][0] + len(kv[0][1]), kv[0][0],
                                                   tuple(sorted(kv[0][1])))):
            mark = "".join(f"*e{i}" for i in sorted(eps))
            tpart = f"*t^{te}" if te else ""
            bits.append(f"({c}){tpart}{mark}")
        return " + ".join(bits)

    __repr__ = __str__


# ============================================================
# the earlier routes over the marker ring
# ============================================================


def marker_solve_R(n, cap):
    gens = face_generators(n)
    jinv = series_J_inverse(max(cap, 1), gens)
    eyes = [series_I(max(cap - 1, 0), gens, ell=f"l{i}") for i in range(1, n + 1)]
    R = MarkerGradedSeries(gens, 0)
    for k in range(1, cap + 1):
        X = MarkerGradedSeries.t_var(gens, k)
        for i, I_i in enumerate(eyes, start=1):
            free = MarkerGradedSeries(gens, k - 1,
                                      {key: c for key, c in R.terms.items() if i not in key[1]})
            I_R = I_i.truncate(k - 1).compose(free)
            X = X + MarkerGradedSeries(gens, k, {(te, eps | {i}): c
                                                 for (te, eps), c in I_R.terms.items()})
        R_next = jinv.truncate(k).compose(X)
        if R_next.truncate(k - 1) != R:
            raise ConsistencyError(f"round {k} of the solve for R changed lower degrees")
        R = R_next
    return R


def marker_zhat(n, cap, order):
    gens = face_generators(n)
    jser = series_J(max(order, 1), gens)
    eyes = [series_I(order, gens, ell=f"l{i}") for i in range(1, n + 1)]
    t = MarkerGradedSeries.t_var(gens, cap)
    eps = [MarkerGradedSeries.marker(gens, cap, i) for i in range(1, n + 1)]
    coeffs = []
    for k in range(order + 1):
        c = MarkerGradedSeries.constant(gens, cap, jser[k])
        if k == 0:
            c = c - t
        for e_i, I_i in zip(eps, eyes):
            c = c - e_i * I_i[k]
        coeffs.append(c)
    return Series(coeffs, order, MarkerGradedSeries(gens, cap))


def marker_moment(n, cap, p, R):
    gens = face_generators(n)
    order = cap + p + 1
    w = marker_zhat(n, cap, order) * power_one_plus_r(0, -1, order, gens)
    by_j = {e: c.with_context(gens) for e, c in qpoly_table()[p].coefficients_in("j").items()}
    return _apply_q_operator(by_j, w, power_one_plus_r(1, 0, order, gens)).compose(R)


def marker_moment_via_T(n, cap, p):
    gens = face_generators(n)
    R = marker_solve_R(n, cap + p + 1)
    derivs = [R]
    for _ in range(p + 1):
        derivs.append(derivs[-1].t_derivative())
    rs = [(derivs[0] + 1).truncate(cap)] + [d.truncate(cap) for d in derivs[1:]]
    T = t_weight(p, MultiPoly.variable(gens, "b"), rs)
    pref = power_one_plus_r(1, -1, cap, gens).compose(derivs[0].truncate(cap))
    dinv = power_one_plus_r(-(2 * p + 1), 0, cap, gens).compose(rs[1] - 1)
    return pref * dinv * T


def product_genus0(n):
    gens = face_generators(n)
    order = n - 3
    integrand = power_one_plus_r(-1, -2, order, gens)
    for i in range(1, n + 1):
        integrand = integrand * series_I(order, gens, ell=f"l{i}")
    anti = integrand.antiderivative()
    jinv = series_J_inverse(n - 2, gens)
    power = jinv
    poly = anti[1] * jinv[n - 2]
    for k in range(2, n - 1):
        power = power * jinv
        poly = poly + anti[k] * power[n - 2]
    return poly * factorial(n - 2)


def expand(gs, n=None):
    """The marker-ring element, in n >= cap faces (cap by default), that a
    face-symmetric one stands for: the same keys read at cap n, where
    ``coefficient`` expands over all n faces, truncated back to the cap."""
    n = gs.cap if n is None else n
    lifted = GradedSeries(gs.gens, n, gs.terms)
    terms = {}
    for lam in gs.terms:
        for faces in combinations(range(1, n + 1), len(lam)):
            terms[0, frozenset(faces)] = lifted.coefficient(faces)
    return MarkerGradedSeries(face_generators(n), gs.cap, terms)


def t0_part(ms, cap=None):
    """The t^0 part of a marker-ring element, truncated at ``cap``."""
    cap = ms.cap if cap is None else cap
    return MarkerGradedSeries(ms.gens, cap, {k: c for k, c in ms.terms.items() if k[0] == 0})


def at_no_faces(ms):
    """A marker-ring element with no faces as the series in t it is."""
    return Series([ms.coefficient(k, ()) for k in range(ms.cap + 1)], ms.cap, MultiPoly(B_ONLY))


def same_series(got, want):
    return got.order == want.order and got.coeffs == want.coeffs


def graded_context(genus, nfaces, cap):
    """``make_context``, with the grading cap lowered to ``cap`` if given."""
    ctx = make_context(genus, nfaces)
    assert cap is None or cap <= nfaces
    return ctx if cap is None else dataclasses.replace(ctx, cap=cap)


def assignment_sum(gs):
    """The same element straight from the definition of M_lam: a sum over
    the injective assignments of the entries of lam to faces."""
    gens = face_generators(gs.cap)
    width = len(gens)
    out = MarkerGradedSeries(gens, gs.cap)
    for lam, c in gs.terms.items():
        for faces in permutations(range(1, gs.cap + 1), len(lam)):
            exps = [0] * width
            for i, e in zip(faces, lam):
                exps[i] = e
            mono = MultiPoly(gens, {tuple(exps): 1}) * c.with_context(gens)
            out = out + MarkerGradedSeries(gens, gs.cap, {(0, frozenset(faces)): mono})
    return out


# ============================================================
# the expansion
# ============================================================

B = ("b",)
fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def symmetric_series(draw, cap):
    keys = [lam for k in range(cap + 1) for lam in {tuple(sorted(x)) for x in _tuples(k)}]
    bvar = MultiPoly.variable(B, "b")
    terms = {key: bvar * draw(fractions) + draw(fractions)
             for key in draw(st.lists(st.sampled_from(keys), unique=True, max_size=8))}
    return GradedSeries(B, cap, terms)


def _tuples(k):
    return [()] if k == 0 else [t + (e,) for t in _tuples(k - 1) for e in range(3)]


@st.composite
def symmetric_pairs(draw):
    cap = draw(st.integers(0, 4))
    return draw(symmetric_series(cap)), draw(symmetric_series(cap))


@settings(max_examples=80, deadline=None)
@given(symmetric_pairs())
def test_expansion_of_a_product_is_the_marker_product(pair):
    left, right = pair
    assert expand(left * right) == expand(left) * expand(right)
    assert expand(left + right) == expand(left) + expand(right)
    # below the face count the same keys stand for the truncated element
    if left.cap:
        low = left.truncate(left.cap - 1)
        assert expand(low, left.cap) == expand(left).truncate(left.cap - 1)


@settings(max_examples=60, deadline=None)
@given(symmetric_pairs())
def test_coefficient_expands_by_injective_assignments(pair):
    left, _ = pair
    assert expand(left) == assignment_sum(left)


def test_distinct_permutations_match_the_set_of_permutations():
    for items in [(), (0,), (1, 1), (0, 1, 1), (2, 0, 2, 1), (1, 1, 1, 0, 0), (3, 1, 2, 0)]:
        got = list(distinct_permutations(items))
        assert got == sorted(set(permutations(items)))


# ============================================================
# R, the moments and F against the marker-ring routes
# ============================================================

CASES = [(1, 1, None), (1, 2, None), (1, 3, None), (2, 1, None), (2, 2, None),
         (1, 0, 5), (2, 0, 9), (1, 0, 0), (1, 2, 0)]


@pytest.mark.parametrize("genus,nfaces,cap", CASES)
def test_R_moments_and_free_energy_match_the_marker_ring(genus, nfaces, cap):
    if nfaces == 0:
        # with no faces R = J^{-1}(b; t) is a plain series in t, and the
        # moments come from the Q route on series
        marker_R = marker_solve_R(0, cap)
        R = series_J_inverse(max(cap, 1), B_ONLY).truncate(cap)
        assert same_series(R, at_no_faces(marker_R))
        moments = [moment_hat_via_Q(p, R, cap) for p in range(3 * genus - 2)]
        marker_moments = [marker_moment(0, cap, p, marker_R) for p in range(3 * genus - 2)]
        assert all(same_series(m, at_no_faces(mm)) for m, mm in zip(moments, marker_moments))
        F = free_energy(genus, moments, cap)
        assert same_series(F, at_no_faces(free_energy(genus, marker_moments, cap)))
        return
    ctx = graded_context(genus, nfaces, cap)
    R, marker_R = solve_R_hat(ctx), marker_solve_R(nfaces, ctx.cap)
    assert expand(R, nfaces) == t0_part(marker_R)
    moments = [moment_hat(ctx, p, R) for p in range(3 * genus - 2)]
    marker_moments = [marker_moment(nfaces, ctx.cap, p, marker_R) for p in range(3 * genus - 2)]
    assert [expand(m, nfaces) for m in moments] == [t0_part(m) for m in marker_moments]
    F = free_energy(genus, moments, ctx.cap)
    assert expand(F, nfaces) == t0_part(free_energy(genus, marker_moments, ctx.cap))


@pytest.mark.parametrize("nfaces,cap,p", [(1, 1, 1), (2, 2, 0), (0, 5, 3), (1, 3, 2)])
def test_moments_via_T_match_the_marker_ring(nfaces, cap, p):
    marker = marker_moment_via_T(nfaces, cap, p)
    if nfaces == 0:
        R = series_J_inverse(cap + p + 1, B_ONLY)
        assert same_series(moment_hat_via_T(p, R, cap), at_no_faces(marker))
    else:
        # the graded ring has no t to differentiate in: its moment is the
        # t^0 part of the T route, read at the face count
        ctx = make_context(1, nfaces)
        assert expand(moment_hat(ctx, p, solve_R_hat(ctx))) == t0_part(marker, nfaces)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 6), st.integers(0, 3))
def test_series_routes_match_the_marker_ring_without_faces(order, p):
    marker_R = marker_solve_R(0, order)
    R = series_J_inverse(order + p + 1, B_ONLY)
    assert same_series(R.truncate(order), at_no_faces(marker_R))
    want = at_no_faces(marker_moment(0, order, p, marker_R))
    assert same_series(moment_hat_via_Q(p, R, order), want)
    assert same_series(moment_hat_via_T(p, R, order), want)


@pytest.mark.parametrize("n", range(3, 9))
def test_genus0_matches_the_face_by_face_product(n):
    assert nhat_genus0(n).poly == product_genus0(n)
