import json
import time
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import irrmaps.pipeline as pipeline
from irrmaps.families import series_J_inverse
from irrmaps.pipeline import (B_ONLY, CountPolynomial, DomainError, _degree_one_weights,
                              _moments, UnsupportedGenusError,
                              a_transform_coeff, b_transform_coeff, count_exact,
                              girth_count, moment_hat, moment_hats, moment_hats_via_Q,
                              moment_hat_via_T, nhat,
                              planar_correction, solve_R_hat, to_m_basis)
from irrmaps.ring import MultiPoly, Series, TruncationError, face_generators, log_unit
from irrmaps.serialize import emit_polynomial_json, parse_polynomial_json

from test_reference_graded import (coefficient, expand, marker_moment, marker_moment_via_T,
                                   marker_solve_R, t0_part)
from test_reference_mbasis import M_BASIS_GRID, expanded_nhat, regroup
from test_reference_mbasis import expand as expand_count

F = Fraction


def test_solve_R_collapses_without_markers():
    # with no markers the t^0 solve is zero: R is the compositional inverse
    # series in t, J^{-1}(b; t), which has no constant term
    assert solve_R_hat(0).is_zero()
    inv = series_J_inverse(5)
    assert inv[0].is_zero() and inv[1] == MultiPoly.constant(B_ONLY, 1)
    # specializing b = 0 gives R = t
    for k in range(2, 6):
        assert inv[k].evaluate({"b": 0}).as_fraction() == 0


def test_solve_R_first_order_marker():
    R = solve_R_hat(2)
    one = MultiPoly.constant(face_generators(2), 1)
    assert coefficient(R, (1,)) == one
    assert coefficient(R, (2,)) == one
    assert coefficient(R, ()).is_zero()
    # the t part lives in the series at no faces: R = t + O(t^2)
    assert series_J_inverse(3)[1] == MultiPoly.constant(B_ONLY, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_solve_R_hat_at_a_lower_cap_is_the_truncated_solve(n):
    full = solve_R_hat(n)
    for cap in range(n + 1):
        assert solve_R_hat(cap) == full.truncate(cap)


def test_solve_R_hat_refuses_a_negative_face_count():
    with pytest.raises(DomainError):
        solve_R_hat(-1)


def test_moment_constant_terms():
    R = solve_R_hat(1)
    m0 = moment_hat(0, R)
    m1 = moment_hat(1, R)
    assert coefficient(m0, ()) == MultiPoly.constant(face_generators(1), 1)
    assert coefficient(m1, ()).is_zero()


def test_moment_at_b_one_is_trivial():
    m0 = moment_hats_via_Q((0,), series_J_inverse(4), 4)[0]
    # at b = 1 the fundamental series is t and the zeroth moment is 1
    assert m0.order == 4
    for k, coeff in enumerate(m0.coeffs):
        assert coeff.evaluate({"b": 1}).as_fraction() == (1 if k == 0 else 0)


def test_the_t_term_of_Z_adds_nothing_to_a_moment():
    # (1+r) d/dr (1+r)^(-b) = -b (1+r)^(-b), and Q_p(b, j) has the factor
    # b + j, so the Q route with no faces may drop Z's -t term
    # (the outer series composed into the identity series r is itself)
    one, zero = MultiPoly.constant(B_ONLY, 1), MultiPoly(B_ONLY)
    for p in range(4):
        identity = Series([zero, one], 8 - p - 1, zero)
        w, = _moments((p,), lambda order: Series([one], order, zero), identity)
        assert w.order == 8 - p - 1
        assert all(c.is_zero() for c in w.coeffs)


def raised_R(order, p):
    """R = J^{-1}(b; t) at the order the T route needs for moment p."""
    return series_J_inverse(order + p + 1)


@pytest.mark.parametrize("p", [0, 1, 2, 3])
def test_moment_routes_agree_symbolic(p):
    R = series_J_inverse(5)
    via_q, via_t = moment_hats_via_Q((p,), R, 5)[0], moment_hat_via_T(p, raised_R(5, p), 5)
    assert via_q.order == via_t.order == 5
    assert via_q == via_t


def test_moment_routes_agree_with_marker():
    # with a face the graded moment is the t^0 part of the T route, which
    # the marker ring keeps t for
    R = solve_R_hat(1)
    for p in range(3):
        assert expand(moment_hat(p, R)) == t0_part(marker_moment_via_T(1, 3, p), 1)
    # an R shorter than the T route needs is refused, not silently truncated
    with pytest.raises(TruncationError):
        moment_hat_via_T(2, raised_R(3, 1), 3)


def test_moments_at_t_zero_are_the_t0_part():
    # setting t = 0 commutes with the solve and the moment series
    for genus, nfaces in [(1, 2), (2, 2)]:
        R, marker_R = solve_R_hat(nfaces), marker_solve_R(nfaces, nfaces)
        assert expand(R) == t0_part(marker_R)
        for p in range(3 * genus - 2):
            full = marker_moment(nfaces, nfaces, p, marker_R)
            assert expand(moment_hat(p, R)) == t0_part(full)


def test_nhat_special_values():
    assert expand_count(nhat(0, 3)) == MultiPoly.constant(nhat(0, 3).gens, 1)
    p11 = nhat(1, 1)
    l1 = MultiPoly.variable(p11.gens, "l1")
    assert expand_count(p11) == (l1 * l1 - 1) * F(1, 12)


def test_nhat_degree_bounds_and_symmetry():
    for g, n in [(0, 4), (0, 5), (1, 1), (1, 2), (2, 1), (2, 2)]:
        cp = nhat(g, n)
        poly = expand_count(cp)
        # even and of l^2-degree exactly n + 3g - 3
        lsq_deg = max(sum(e for e in exps[1:]) for exps in poly.terms) // 2
        assert lsq_deg == n + 3 * g - 3
        # total degree bound 2n + 6g - 6, attained
        assert max(sum(exps) for exps in poly.terms) == 2 * n + 6 * g - 6
        # even and symmetric under permuting the face generators: regrouping
        # the expanded monomials raises InvariantViolation if not
        assert regroup(poly, n) == cp.mlambda
    # one-face polynomials do not depend on b
    for g in (1, 2):
        assert expand_count(nhat(g, 1)).degree_in("b") <= 0


@pytest.mark.parametrize("genus,n", M_BASIS_GRID)
def test_carried_m_basis_equals_the_regrouped_monomials(genus, n):
    # the m-basis read off the graded keys against the regrouped monomials
    # of the e_1...e_n coefficient, expanded by the reference
    cp = nhat(genus, n)
    carried = to_m_basis(cp)
    assert carried == regroup(expanded_nhat(genus, n), n)
    carried.clear()  # callers get a copy
    assert to_m_basis(cp) == cp.mlambda and cp.mlambda


def test_m_basis_examples():
    gens = ("b", "l1", "l2", "l3")
    m11 = expand_count(CountPolynomial(0, 3, {(1, 1): MultiPoly.constant(B_ONLY, 1)}))
    l1, l2, l3 = (MultiPoly.variable(gens, f"l{i}") for i in (1, 2, 3))
    assert m11 == l1 * l1 * l2 * l2 + l1 * l1 * l3 * l3 + l2 * l2 * l3 * l3
    # decomposition of N(0,4)
    basis = to_m_basis(nhat(0, 4))
    b = MultiPoly.variable(("b",), "b")
    assert basis[(1,)] == MultiPoly.constant(("b",), 1)
    assert basis[()] == -(b * b * 3 + b * 3 + 1)


def test_m_basis_rejects_asymmetry():
    # a document whose monomials are not even and symmetric, or disagree
    # with its m-basis, does not parse
    doc = json.loads(emit_polynomial_json(nhat(1, 2)))
    row = next(m for m in doc["monomials"] if m["exps"] == [0, 2, 0])
    for exps in ([0, 2, 0], [0, 1, 0]):
        bad = dict(doc, monomials=[m for m in doc["monomials"] if m is not row]
                   + [dict(row, exps=exps, num="2")])
        with pytest.raises(ValueError, match="monomials differ"):
            parse_polynomial_json(json.dumps(bad))
    entry = next(e for e in doc["mlambda"] if e["lambda"] == [1])
    bad = dict(doc, mlambda=[e for e in doc["mlambda"] if e is not entry]
               + [dict(entry, coeff_in_b=[{"exp": 0, "num": "1", "den": "7"}])])
    with pytest.raises(ValueError, match="monomials differ"):
        parse_polynomial_json(json.dumps(bad))


def test_transform_coefficients():
    assert a_transform_coeff(1, 1, 1) == 1
    assert a_transform_coeff(1, 2, 2) == 1
    assert a_transform_coeff(1, 2, 1) == 0  # strict p > b
    assert a_transform_coeff(0, 3, 1) == F(1 * 15, 3)
    assert b_transform_coeff(1, 2, 2) == 1
    assert b_transform_coeff(1, 3, 2) == -4


@st.composite
def weight_args(draw):
    b = draw(st.integers(0, 6))
    return b, draw(st.integers(max(b, 1), 300))


@settings(max_examples=200, deadline=None)
@given(weight_args())
@example((1, 1))
@example((3, 3))
@example((6, 6))
@example((0, 1))
def test_degree_one_weights_are_the_scaled_transform_coefficients(args):
    b, d = args
    want = [(p, d * a_transform_coeff(b, d, p)) for p in range(b, d + 1)
            if a_transform_coeff(b, d, p)]
    got = _degree_one_weights(b, d)
    assert sorted(got) == want
    assert all(type(w) is int for _, w in got)


def test_the_evaluation_plan_is_built_on_the_first_evaluation(monkeypatch):
    builds = []
    plan = CountPolynomial._plan
    real = plan.func

    def counted(self):
        builds.append(self)
        return real(self)

    monkeypatch.setattr(plan, "func", counted)
    monkeypatch.setattr(pipeline, "_NHAT_CACHE", {})
    count = nhat(1, 3)
    # building the polynomial does no evaluation work
    assert builds == [] and "_plan" not in vars(count)
    first = count.evaluate(2, (3, 4, 5))
    assert count_exact(1, 3, 1, (2, 3, 2), allow_degree_one=True) > 0
    assert builds == [count]
    assert count.evaluate(2, (3, 4, 5)) == first
    assert len(builds) == 1


@pytest.mark.parametrize("genus,n,b,degrees", [(0, 3, 0, (3998, 1, 1)),
                                               (1, 1, 1, (4000,)),
                                               (2, 1, 0, (4000,))])
def test_degree_one_counts_at_the_guard_answer_and_print(genus, n, b, degrees):
    assert sum(degrees) == pipeline.MAX_DEGREE_ONE_SUM
    start = time.perf_counter()
    value = count_exact(genus, n, b, degrees, allow_degree_one=True)
    elapsed = time.perf_counter() - start
    text = str(value)
    assert value > 0
    assert max(len(str(value.numerator)), len(str(value.denominator))) < 4300
    assert 2300 < len(text) < 2600
    # about 0.05 s on a 2-vCPU VM; a binomial per point took about 4 s
    assert elapsed < 2.0


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
    via_q = log_unit(moment_hats_via_Q((0,), R, 5)[0], 5) * Fraction(-1, 12)
    via_t = log_unit(moment_hat_via_T(0, R, 5), 5) * Fraction(-1, 12)
    assert via_q == via_t
    via_q = log_unit(moment_hat(0, solve_R_hat(1)), 1) * Fraction(-1, 12)
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


def test_every_moment_route_refuses_p_4():
    # genus <= 2 reads the moments p = 0..3 only: the Q table holds Q_0..Q_3
    # and the T route has the weights T_0..T_3
    from irrmaps.families import qpoly_table
    assert len(qpoly_table()) == 4
    R = series_J_inverse(9)
    for route in (lambda: moment_hats_via_Q((4,), R, 4)[0], lambda: moment_hat_via_T(4, R, 4),
                  lambda: moment_hat(4, solve_R_hat(2))):
        with pytest.raises(DomainError, match="moment index 4 beyond"):
            route()


def test_the_all_moments_routes_refuse_p_4_before_building_a_series(monkeypatch):
    import irrmaps.pipeline as pl

    def refused(*args):
        raise AssertionError("a series was built for a refused moment index")

    R, Rt = solve_R_hat(2), series_J_inverse(9)
    monkeypatch.setattr(pl, "_zhat_series", refused)
    monkeypatch.setattr(pl, "series_J", refused)
    for route in (lambda: moment_hats(range(5), R), lambda: moment_hats((4, 0), R),
                  lambda: moment_hats_via_Q(range(5), Rt, 4)):
        with pytest.raises(DomainError, match="moment index 4 beyond"):
            route()


def test_higher_genus_builds_Z_once_for_the_solve_and_once_for_the_moments(monkeypatch):
    # every moment reads one Z, one chain of derivatives and one list of
    # the powers of R; the solve builds its own Z at a lower order
    import irrmaps.pipeline as pl
    calls = []
    zhat = pl._zhat_series

    def counted(cap, order):
        calls.append((cap, order))
        return zhat(cap, order)

    monkeypatch.setattr(pl, "_zhat_series", counted)
    pl.nhat_higher_genus(2, 3)
    assert calls == [(3, 3), (3, 7)]


def test_the_q_table_evaluates_no_binomial_sum(monkeypatch):
    # the table is data: its check against the sums is the qpoly suite's
    import irrmaps.families as fam

    def refused(*args):
        raise AssertionError("a binomial sum evaluated while building the Q table")

    monkeypatch.setattr(fam, "qpoly_direct_sum", refused)
    fam.qpoly_table.cache_clear()
    assert len(fam.qpoly_table()) == 4
