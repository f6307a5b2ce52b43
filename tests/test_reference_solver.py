"""The degree-by-degree solvers against the full-cap routes they replaced.

``jinv_rounds_R_hat`` is the earlier degree-by-degree solve for R: every
round forms X = sum_a E_a I_a(R) and composes J^{-1}(b; X), one compose
per power of l and one more for J^{-1}, where ``solve_R_hat`` composes Z
once per round.  ``full_cap_R_hat`` is the fixed-point loop before it, in
the face-symmetric ring at t = 0: every round recomposes the whole graded
series at the context cap until a round changes nothing.
``full_cap_R_no_faces`` is the same kind of loop with no faces, where R
solves J(b; R) = t as a plain series in t.  ``horner_genus0`` composes the
whole antiderivative with J^{-1} and reads off one coefficient.
``t_ful_nhat`` is the higher-genus route with t kept symbolic through the
solve and the moments, in the marker ring, where ``nhat`` solves at t = 0.
All five are kept here only as references.
"""

from math import factorial

import pytest

from irrmaps import families, pipeline
from irrmaps.families import (ConsistencyError, power_one_plus_r, series_I,
                              series_J, series_J_inverse)
from irrmaps.pipeline import (B_ONLY, free_energy, nhat, nhat_genus0,
                              nhat_higher_genus, solve_R_hat)
from irrmaps.ring import GradedSeries, MultiPoly, Series

from test_reference_graded import (antiderivative, face_I, marker_moment, marker_solve_R,
                                   widen)
from test_reference_mbasis import expand


def face_parts(order):
    """I(b, l; r) split by powers of l: a -> the b-only series I_a with
    I(b, l; r) = sum_a l^a I_a(b; r)."""
    zero = MultiPoly(B_ONLY)
    parts = {}
    for k, c in enumerate(series_I(order).coeffs):
        for a, ca in c.coefficients_in("l").items():
            parts.setdefault(a, [zero] * (order + 1))[k] = ca.with_context(B_ONLY)
    return {a: Series(cs, order, zero) for a, cs in sorted(parts.items())}


def jinv_rounds_R_hat(cap):
    """R = J^{-1}(b; X), X = sum_a E_a I_a(R), degree by degree: X at cap k
    reads R only through degree k - 1, so round k settles degree k."""
    jinv = series_J_inverse(max(cap, 1))
    parts = face_parts(max(cap - 1, 0))
    R = GradedSeries(0)
    for k in range(1, cap + 1):
        X = GradedSeries(k)
        for a, I_a in parts.items():
            I_R = I_a.truncate(k - 1).compose(R)
            X = X + GradedSeries(k, {lam + (a,): c for lam, c in I_R.terms.items()})
        R_next = jinv.truncate(k).compose(X)
        if R_next.truncate(k - 1) != R:
            raise ConsistencyError(f"round {k} of the solve for R changed lower degrees")
        R = R_next
    return R


def full_cap_R_hat(cap):
    jinv = series_J_inverse(max(cap, 1))
    parts = face_parts(cap)
    eps = {a: GradedSeries(cap, {(a,): MultiPoly.constant(B_ONLY, 1)}) for a in parts}
    R = GradedSeries(cap)
    for _ in range(cap + 3):
        X = GradedSeries(cap)
        for a, I_a in parts.items():
            X = X + eps[a] * I_a.compose(R)
        R_next = jinv.compose(X)
        if R_next == R:
            return R
        R = R_next
    raise ConsistencyError("fixed point for R did not stabilize")


def full_cap_R_no_faces(cap):
    """R with J(b; R) = t, iterated as R <- t + R - J(b; R) on the whole
    series; J(b; r) = r + O(r^2), so each round settles one more order."""
    zero, one = MultiPoly(B_ONLY), MultiPoly.constant(B_ONLY, 1)
    jser = series_J(max(cap, 1)).truncate(cap)
    t = Series([zero, one], cap, zero)
    R = Series([zero], cap, zero)
    for _ in range(cap + 3):
        R_next = t + R - jser.compose(R)
        if R_next == R:
            return R
        R = R_next
    raise ConsistencyError("fixed point for R did not stabilize")


def horner_genus0(n):
    integrand = widen(power_one_plus_r(-1, -2, n - 3), n)
    for I_i in face_I(n - 3, n):
        integrand = integrand * I_i
    composed = antiderivative(integrand).compose(widen(series_J_inverse(n - 2), n))
    return composed[n - 2] * factorial(n - 2)


def t_ful_nhat(genus, n):
    R = marker_solve_R(n, n)
    moments = [marker_moment(n, n, p, R) for p in range(3 * genus - 2)]
    F = free_energy(genus, moments, n)
    return F.coefficient(0, range(1, n + 1))


@pytest.mark.parametrize("genus,nfaces,cap", [
    (1, 1, None), (1, 2, None), (1, 3, None), (2, 1, None), (2, 2, None),
    (1, 0, 5), (2, 0, 9), (1, 0, 0), (1, 2, 0),
])
def test_solve_R_hat_matches_full_cap_loop(genus, nfaces, cap):
    if nfaces == 0:
        # no faces: the graded solve at t = 0 is zero, and R = J^{-1}(b; t)
        # is the series the moment-route check starts from
        assert solve_R_hat(0).is_zero()
        got = series_J_inverse(max(cap, 1)).truncate(cap)
        want = full_cap_R_no_faces(cap)
        assert got.order == want.order == cap
        assert got.coeffs == want.coeffs
        return
    cap = nfaces if cap is None else cap
    got = solve_R_hat(cap)
    want = full_cap_R_hat(cap)
    assert got.cap == want.cap == cap
    assert got.terms == want.terms


@pytest.mark.parametrize("n", range(3, 8))
def test_nhat_genus0_matches_horner_composition(n):
    assert expand(nhat_genus0(n)) == horner_genus0(n)


@pytest.mark.parametrize("genus,n", [(1, n) for n in range(1, 6)] + [(2, n) for n in range(1, 5)])
def test_nhat_at_t_zero_matches_the_t_ful_route(genus, n):
    assert expand(nhat(genus, n)) == t_ful_nhat(genus, n)


@pytest.mark.parametrize("cap", range(11))
def test_solve_R_hat_matches_the_jinv_rounds(cap):
    got, want = solve_R_hat(cap), jinv_rounds_R_hat(cap)
    assert got.cap == want.cap == cap
    assert got.terms == want.terms


def test_solve_R_hat_composes_once_per_round(monkeypatch):
    composes = []
    compose = Series.compose

    def counted(self, inner):
        composes.append(inner)
        return compose(self, inner)

    def refuse(*args):
        raise AssertionError("the solve reached J^{-1}")

    monkeypatch.setattr(Series, "compose", counted)
    monkeypatch.setattr(families, "series_J_inverse", refuse)
    monkeypatch.setattr(pipeline, "series_J_inverse", refuse)
    for cap in (0, 1, 6, 10):
        composes.clear()
        solve_R_hat(cap)
        assert len(composes) == cap


@pytest.mark.parametrize("genus,n", [(1, 5), (2, 4)])
def test_nhat_higher_genus_never_reaches_j_inverse(monkeypatch, genus, n):
    # the solve takes R as the root of Z, the moments compose into it; J^{-1}
    # is built only by families.series_J_inverse, which pipeline also binds
    def refuse(*args):
        raise AssertionError("nhat reached J^{-1}")

    want = nhat(genus, n)
    monkeypatch.setattr(families, "series_J_inverse", refuse)
    monkeypatch.setattr(pipeline, "series_J_inverse", refuse)
    assert nhat_higher_genus(genus, n) == want
