import dataclasses
from fractions import Fraction
from itertools import permutations

import pytest

from irrmaps.families import series_J_inverse
from irrmaps.pipeline import (B_ONLY, CountPolynomial, DomainError, _q_moment,
                              InvariantViolation, UnsupportedGenusError,
                              a_transform_coeff, b_transform_coeff, count_exact,
                              girth_count, m_lambda_poly, make_context,
                              moment_hat, moment_hat_via_Q, moment_hat_via_T,
                              nhat, planar_correction, solve_R_hat, to_m_basis)
from irrmaps.ring import MultiPoly, Series, TruncationError, log_unit

from test_reference_graded import (expand, marker_moment, marker_moment_via_T,
                                   marker_solve_R, t0_part)

F = Fraction


def test_solve_R_collapses_without_markers():
    # with no markers the t^0 solve is zero: R is the compositional inverse
    # series in t, J^{-1}(b; t), which has no constant term
    assert solve_R_hat(make_context(1, 0)).is_zero()
    inv = series_J_inverse(5, B_ONLY)
    assert inv[0].is_zero() and inv[1] == MultiPoly.constant(B_ONLY, 1)
    # specializing b = 0 gives R = t
    for k in range(2, 6):
        assert inv[k].evaluate({"b": 0}).as_fraction() == 0


def test_solve_R_first_order_marker():
    ctx = make_context(1, 2)
    R = solve_R_hat(ctx)
    one = MultiPoly.constant(ctx.gens, 1)
    assert R.coefficient((1,)) == one
    assert R.coefficient((2,)) == one
    assert R.coefficient(()).is_zero()
    # the t part lives in the series at no faces: R = t + O(t^2)
    assert series_J_inverse(3, B_ONLY)[1] == MultiPoly.constant(B_ONLY, 1)


def test_moment_constant_terms():
    ctx = make_context(1, 1)
    R = solve_R_hat(ctx)
    m0 = moment_hat(ctx, 0, R)
    m1 = moment_hat(ctx, 1, R)
    assert m0.coefficient(()) == MultiPoly.constant(ctx.gens, 1)
    assert m1.coefficient(()).is_zero()


def test_moment_at_b_one_is_trivial():
    m0 = moment_hat_via_Q(0, series_J_inverse(4, B_ONLY), 4)
    # at b = 1 the fundamental series is t and the zeroth moment is 1
    assert m0.order == 4
    for k, coeff in enumerate(m0.coeffs):
        assert coeff.evaluate({"b": 1}).as_fraction() == (1 if k == 0 else 0)


def test_the_t_term_of_Z_adds_nothing_to_a_moment():
    # (1+r) d/dr (1+r)^(-b) = -b (1+r)^(-b), and Q_p(b, j) has the factor
    # b + j, so the Q route with no faces may drop Z's -t term
    one, zero = MultiPoly.constant(B_ONLY, 1), MultiPoly(B_ONLY)
    for p in range(4):
        w = _q_moment(p, Series([one], 8, zero))
        assert w.order == 8 - p - 1
        assert all(c.is_zero() for c in w.coeffs)


def raised_R(order, p):
    """R = J^{-1}(b; t) at the order the T route needs for moment p."""
    return series_J_inverse(order + p + 1, B_ONLY)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_moment_routes_agree_symbolic(p):
    R = series_J_inverse(5, B_ONLY)
    via_q, via_t = moment_hat_via_Q(p, R, 5), moment_hat_via_T(p, raised_R(5, p), 5)
    assert via_q.order == via_t.order == 5
    assert via_q == via_t


def test_moment_routes_agree_with_marker():
    # with a face the graded moment is the t^0 part of the T route, which
    # the marker ring keeps t for
    ctx = make_context(1, 1)
    R = solve_R_hat(ctx)
    for p in range(3):
        assert expand(moment_hat(ctx, p, R)) == t0_part(marker_moment_via_T(1, 3, p), 1)
    # an R shorter than the T route needs is refused, not silently truncated
    with pytest.raises(TruncationError):
        moment_hat_via_T(2, raised_R(3, 1), 3)


def test_moments_at_t_zero_are_the_t0_part():
    # setting t = 0 commutes with the solve and the moment series
    for genus, nfaces in [(1, 2), (2, 2)]:
        ctx = make_context(genus, nfaces)
        R, marker_R = solve_R_hat(ctx), marker_solve_R(nfaces, nfaces)
        assert expand(R) == t0_part(marker_R)
        for p in range(3 * genus - 2):
            full = marker_moment(nfaces, nfaces, p, marker_R)
            assert expand(moment_hat(ctx, p, R)) == t0_part(full)


def test_nhat_special_values():
    assert nhat(0, 3).poly == MultiPoly.constant(nhat(0, 3).gens, 1)
    p11 = nhat(1, 1)
    l1 = MultiPoly.variable(p11.gens, "l1")
    assert p11.poly == (l1 * l1 - 1) * F(1, 12)


def test_nhat_degree_bounds_and_symmetry():
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 1), (2, 2)]:
        cp = nhat(g, n)
        # even and of l^2-degree exactly n + 3g - 3
        lsq_deg = max(sum(e for e in exps[1:]) for exps in cp.poly.terms) // 2
        assert lsq_deg == n + 3 * g - 3
        # total degree bound 2n + 6g - 6, attained
        assert cp.poly.total_degree() == 2 * n + 6 * g - 6
        # symmetric under permuting the face generators: regrouping the
        # expanded monomials raises InvariantViolation if not
        basis = to_m_basis(dataclasses.replace(cp, mlambda=None))
        assert basis
    # one-face polynomials do not depend on b
    for g in (1, 2):
        assert nhat(g, 1).poly.degree_in("b") <= 0


# the benchmark's symbolic grid and the large end of the face guard
M_BASIS_GRID = ([(0, n) for n in range(3, 10)] + [(1, n) for n in range(1, 8)]
                + [(2, n) for n in range(1, 7)])


@pytest.mark.parametrize("genus,n", M_BASIS_GRID)
def test_carried_m_basis_equals_the_regrouped_monomials(genus, n):
    cp = nhat(genus, n)
    assert cp.mlambda is not None
    carried = to_m_basis(cp)
    assert carried == to_m_basis(dataclasses.replace(cp, mlambda=None))
    carried.clear()  # callers get a copy
    assert to_m_basis(cp) == cp.mlambda and cp.mlambda


def test_m_basis_examples():
    gens = ("b", "l1", "l2", "l3")
    m11 = m_lambda_poly((1, 1), 3, gens)
    l1, l2, l3 = (MultiPoly.variable(gens, f"l{i}") for i in (1, 2, 3))
    assert m11 == l1 * l1 * l2 * l2 + l1 * l1 * l3 * l3 + l2 * l2 * l3 * l3
    # decomposition of N(0,4)
    basis = to_m_basis(nhat(0, 4))
    b = MultiPoly.variable(("b",), "b")
    assert basis[(1,)] == MultiPoly.constant(("b",), 1)
    assert basis[()] == -(b * b * 3 + b * 3 + 1)


def test_m_basis_rejects_asymmetry():
    gens = ("b", "l1", "l2")
    l1 = MultiPoly.variable(gens, "l1")
    bad = CountPolynomial(0, 2, gens, l1 * l1)
    with pytest.raises(InvariantViolation):
        to_m_basis(bad)
    odd = CountPolynomial(0, 2, gens, l1)
    with pytest.raises(InvariantViolation):
        to_m_basis(odd)


def test_transform_coefficients():
    assert a_transform_coeff(1, 1, 1) == 1
    assert a_transform_coeff(1, 2, 2) == 1
    assert a_transform_coeff(1, 2, 1) == 0  # strict p > b
    assert a_transform_coeff(0, 3, 1) == F(1 * 15, 3)
    assert b_transform_coeff(1, 2, 2) == 1
    assert b_transform_coeff(1, 3, 2) == -4


def test_count_exact_values():
    assert count_exact(0, 4, 1, (2, 2, 2, 2)) == 9
    assert count_exact(0, 4, 2, (2, 2, 2, 2)) == 0  # correction +3 in play
    assert planar_correction(0, 4, 2, (2, 2, 2, 2)) == 3
    assert count_exact(1, 1, 1, (2,)) == F(1, 4)
    assert count_exact(2, 1, 1, (4,)) == F(21, 8)
    assert count_exact(1, 2, 1, (2, 2)) == F(7, 4)
    # the tree transform at work
    assert count_exact(0, 3, 1, (2, 1, 1), allow_degree_one=True) == 1
    assert count_exact(1, 1, 0, (2,), allow_degree_one=True) == F(1, 4)


def test_count_exact_domain_errors():
    with pytest.raises(DomainError):
        count_exact(0, 2, 0, (2, 2))
    with pytest.raises(DomainError):
        count_exact(0, 3, 2, (1, 2, 2))
    with pytest.raises(UnsupportedGenusError):
        count_exact(3, 1, 0, (5,))


def test_girth_counts():
    assert girth_count(0, 4, 1, (2, 2, 2, 2)) == 15  # b=1 equals the plain count
    assert girth_count(0, 4, 2, (3, 3, 3, 3)) == 29
    exactly = girth_count(0, 4, 2, (3, 3, 3, 3), mode="exactly")
    assert exactly == 29 - count_exact(0, 4, 2, (3, 3, 3, 3))
    with pytest.raises(DomainError):
        girth_count(0, 4, 0, (2, 2, 2, 2))
    with pytest.raises(DomainError):
        girth_count(0, 4, 2, (2, 2, 2, 2), mode="exactly")


def test_unsupported_genus_paths():
    from irrmaps.pipeline import nhat_higher_genus, UnsupportedGenusError
    with pytest.raises(UnsupportedGenusError):
        nhat_higher_genus(3, 1)
    with pytest.raises(UnsupportedGenusError):
        nhat_higher_genus(0, 3)
    with pytest.raises(DomainError):
        from irrmaps.pipeline import nhat_genus0
        nhat_genus0(2)


def test_free_energy_log_form():
    # the genus-1 free energy equals -1/12 log of the zeroth moment computed
    # through the derivative route as well: with no faces on series in t,
    # with a face against the t^0 part of the marker ring's T route
    R = raised_R(5, 0)
    via_q = log_unit(moment_hat_via_Q(0, R, 5), 5) * Fraction(-1, 12)
    via_t = log_unit(moment_hat_via_T(0, R, 5), 5) * Fraction(-1, 12)
    assert via_q == via_t
    ctx = make_context(1, 1)
    via_q = log_unit(moment_hat(ctx, 0, solve_R_hat(ctx)), ctx.cap) * Fraction(-1, 12)
    via_t = log_unit(marker_moment_via_T(1, 1, 0), 1) * Fraction(-1, 12)
    assert expand(via_q) == t0_part(via_t)


def test_girth_exactly_worked_value():
    # 29 maps of essential girth >= 4 split into 12 of girth exactly 4 and
    # 17 of girth at least 6
    assert girth_count(0, 4, 2, (3, 3, 3, 3), mode="exactly") == 12
    assert nhat(0, 4).evaluate(2, (3, 3, 3, 3)) == 17


def test_higher_genus_builds_one_q_table():
    # the moments look up the same cached table as the rest of the pipeline
    from irrmaps.families import qpoly_table
    from irrmaps.pipeline import nhat_higher_genus
    qpoly_table.cache_clear()
    nhat_higher_genus(2, 1)
    assert qpoly_table.cache_info().currsize == 1
