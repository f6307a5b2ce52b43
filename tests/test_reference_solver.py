"""The degree-by-degree solvers against the full-cap routes they replaced.

``full_cap_R_hat`` is the earlier fixed-point loop for R, here in the
face-symmetric ring at t = 0: every round recomposes the whole graded
series at the context cap until a round changes nothing.
``full_cap_R_no_faces`` is the same kind of loop with no faces, where R
solves J(b; R) = t as a plain series in t.  ``horner_genus0`` composes the
whole antiderivative with J^{-1} and reads off one coefficient.
``t_ful_nhat`` is the higher-genus route with t kept symbolic through the
solve and the moments, in the marker ring, where ``nhat`` solves at t = 0.
All four are kept here only as references.
"""

from math import factorial

import pytest

from irrmaps.families import (ConsistencyError, power_one_plus_r, series_I,
                              series_J, series_J_inverse)
from irrmaps.pipeline import (B_ONLY, _face_parts, face_generators, free_energy,
                              nhat, nhat_genus0, solve_R_hat)
from irrmaps.ring import GradedSeries, MultiPoly, Series

from test_reference_graded import antiderivative, marker_moment, marker_solve_R


def full_cap_R_hat(cap):
    jinv = series_J_inverse(max(cap, 1), B_ONLY)
    parts = _face_parts(cap)
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
    jser = series_J(max(cap, 1), B_ONLY).truncate(cap)
    t = Series([zero, one], cap, zero)
    R = Series([zero], cap, zero)
    for _ in range(cap + 3):
        R_next = t + R - jser.compose(R)
        if R_next == R:
            return R
        R = R_next
    raise ConsistencyError("fixed point for R did not stabilize")


def horner_genus0(n):
    gens = face_generators(n)
    integrand = power_one_plus_r(-1, -2, n - 3, gens)
    for i in range(1, n + 1):
        integrand = integrand * series_I(n - 3, gens, ell=f"l{i}")
    composed = antiderivative(integrand).compose(series_J_inverse(n - 2, gens))
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
        got = series_J_inverse(max(cap, 1), B_ONLY).truncate(cap)
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
    assert nhat_genus0(n).poly == horner_genus0(n)


@pytest.mark.parametrize("genus,n", [(1, n) for n in range(1, 6)] + [(2, n) for n in range(1, 5)])
def test_nhat_at_t_zero_matches_the_t_ful_route(genus, n):
    assert nhat(genus, n).poly == t_ful_nhat(genus, n)
