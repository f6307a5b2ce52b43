import dataclasses
from fractions import Fraction
from itertools import permutations

import pytest

from irrmaps.pipeline import (CountPolynomial, DomainError, InvariantViolation,
                              UnsupportedGenusError, a_transform_coeff,
                              b_transform_coeff, count_exact, girth_count,
                              m_lambda_poly, make_context, moment_hat,
                              moment_hat_via_T, nhat, numeric_defining_residual,
                              numeric_series_crosscheck, planar_correction,
                              solve_R_hat, to_m_basis)
from irrmaps.ring import GradedSeries, MultiPoly, TruncationError

F = Fraction


def test_solve_R_collapses_without_markers():
    ctx = make_context(1, 0, cap=5)
    R = solve_R_hat(ctx)
    # with no markers, R is the compositional inverse series in t
    from irrmaps.families import series_J_inverse
    inv = series_J_inverse(5, ctx.gens)
    for k in range(6):
        assert R.coefficient(k, ()) == inv[k]
    # specializing b = 0 gives R = t
    for k in range(2, 6):
        assert R.coefficient(k, ()).evaluate({"b": 0}).as_fraction() == 0


def test_solve_R_first_order_marker():
    ctx = make_context(1, 2)
    R = solve_R_hat(ctx)
    one = MultiPoly.constant(ctx.gens, 1)
    assert R.coefficient(0, (1,)) == one
    assert R.coefficient(0, (2,)) == one
    assert R.coefficient(0, ()).is_zero()
    assert R.coefficient(1, ()) == one


def test_moment_constant_terms():
    ctx = make_context(1, 1)
    R = solve_R_hat(ctx)
    m0 = moment_hat(ctx, 0, R)
    m1 = moment_hat(ctx, 1, R)
    assert m0.coefficient(0, ()) == MultiPoly.constant(ctx.gens, 1)
    assert m1.coefficient(0, ()).is_zero()


def test_moment_at_b_one_is_trivial():
    ctx = make_context(1, 0, cap=4)
    R = solve_R_hat(ctx)
    m0 = moment_hat(ctx, 0, R)
    # at b = 1 the fundamental series is t and the zeroth moment is 1
    for (te, lam), coeff in m0.terms.items():
        want = 1 if (te, lam) == (0, ()) else 0
        assert coeff.evaluate({"b": 1}).as_fraction() == want


def raised_R(ctx, p):
    """R solved with t at the cap the T route needs for moment p."""
    return solve_R_hat(make_context(ctx.genus, ctx.nfaces, ctx.cap + p + 1))


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_moment_routes_agree_symbolic(p):
    ctx = make_context(1, 0, cap=5)
    R = solve_R_hat(ctx)
    assert moment_hat(ctx, p, R) == moment_hat_via_T(ctx, p, raised_R(ctx, p))


def test_moment_routes_agree_with_marker():
    ctx = make_context(1, 1, cap=3)
    R = solve_R_hat(ctx)
    for p in range(3):
        assert moment_hat(ctx, p, R) == moment_hat_via_T(ctx, p, raised_R(ctx, p))
    # an R solved below the raised cap is refused, not silently truncated
    with pytest.raises(TruncationError):
        moment_hat_via_T(ctx, 2, raised_R(ctx, 1))


def test_moments_at_t_zero_are_the_t0_part():
    # setting t = 0 commutes with the solve and the moment series
    for genus, nfaces in [(1, 2), (2, 2)]:
        ctx = make_context(genus, nfaces)
        R, R0 = solve_R_hat(ctx), solve_R_hat(ctx, keep_t=False)
        assert R0.terms == {key: c for key, c in R.terms.items() if key[0] == 0}
        for p in range(3 * genus - 2):
            full, at0 = moment_hat(ctx, p, R), moment_hat(ctx, p, R0, keep_t=False)
            assert at0.terms == {key: c for key, c in full.terms.items() if key[0] == 0}


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


def test_numeric_crosscheck_matches_formula():
    cases = [
        (1, 1, 1, (2,)),
        (0, 3, 1, (1, 1, 1)),
        (0, 4, 1, (2, 2, 2, 2)),
        (0, 4, 0, (2, 3, 2, 2)),
        (2, 1, 1, (4,)),
        (1, 2, 2, (2, 2)),
        (2, 2, 1, (3, 2)),
        (1, 2, 0, (2, 2)),
    ]
    for g, n, b, degs in cases:
        via_series = numeric_series_crosscheck(g, n, b, degs)
        direct = nhat(g, n).evaluate(b, degs)
        assert via_series == direct, (g, n, b, degs)


def test_numeric_defining_residual_vanishes():
    assert numeric_defining_residual(1, 2, 3, 3).poly.is_zero()
    assert numeric_defining_residual(2, 3, 4, 3).poly.is_zero()


def test_numeric_crosscheck_errors():
    with pytest.raises(DomainError):
        numeric_series_crosscheck(1, 1, 1, (3,), max_degree=2)
    with pytest.raises(DomainError):
        numeric_defining_residual(0, 2, 3, 3)


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
    # through the derivative route as well
    from irrmaps.ring import log_unit
    ctx = make_context(1, 1)
    R = solve_R_hat(ctx)
    via_q = log_unit(moment_hat(ctx, 0, R), ctx.cap) * Fraction(-1, 12)
    via_t = log_unit(moment_hat_via_T(ctx, 0, raised_R(ctx, 0)), ctx.cap) * Fraction(-1, 12)
    assert via_q == via_t


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
