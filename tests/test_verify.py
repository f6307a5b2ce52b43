import time
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

import irrmaps.pipeline as pipeline
import irrmaps.ring as ring
from irrmaps.pipeline import CountPolynomial, face_generators, nhat
from irrmaps.ring import MultiPoly
from irrmaps.verify import (cross_verify_counts, dilaton_equation_delta,
                            harer_zagier_numbers, string_check,
                            sweep_tuples, verify_ab_inverse,
                            verify_dilaton, verify_harer_zagier, verify_moments,
                            verify_qpoly, verify_string, verify_table1)


def test_table1_suite_passes():
    report = verify_table1()
    assert report.passed, report.render()
    assert len(report.cases) == 9


def test_string_suite_passes():
    report = verify_string()
    assert report.passed, report.render()


def test_dilaton_suite_passes():
    report = verify_dilaton()
    assert report.passed, report.render()


def test_string_hand_checks():
    # genus 0, three faces: both sides equal sum l_j^2 - 3b^2 - 3b
    delta, even = string_check(0, 3)
    assert delta.is_zero()
    assert even
    assert dilaton_equation_delta(1, 1).is_zero()


@pytest.mark.parametrize("suite", [verify_string, verify_dilaton])
@pytest.mark.parametrize("kwargs", [{"genus": 2}, {"n": 7}])
def test_equation_suites_refuse_a_lone_genus_or_face_count(suite, kwargs):
    # one of the two is refused, not read as the default pairs
    with pytest.raises(ValueError):
        suite(**kwargs)


def test_equation_suites_leave_the_expanded_polynomials_unbuilt(monkeypatch):
    monkeypatch.setattr(pipeline, "_NHAT_CACHE", {})
    assert verify_string().passed and verify_dilaton().passed
    read = pipeline._NHAT_CACHE
    assert len(read) == 9
    # each count holds its m-basis and nothing expanded from it
    assert all(vars(count).keys() == {"genus", "nfaces", "mlambda"} for count in read.values())


def test_string_dilaton_at_the_top_of_the_face_guard():
    # the largest pairs whose (n+1)-face polynomial MAX_FACES admits
    for g, n in ((0, 10), (1, 9), (2, 7)):
        assert n + 1 == pipeline.MAX_FACES[g]
        delta, even = string_check(g, n)
        assert delta.is_zero(), (g, n)
        assert even, (g, n)
        assert dilaton_equation_delta(g, n).is_zero(), (g, n)


def test_other_bernoulli_sign_fails_the_evenness_case(monkeypatch):
    # negative control: with B_1 = -1/2 the face sums run over k = b..l-1
    # and the string RHS keeps odd powers of every l_j
    plus = {k: ring.bernoulli_plus(k) for k in range(16)}
    monkeypatch.setattr(ring, "bernoulli_plus", lambda k: -plus[k] if k == 1 else plus[k])
    ring.power_sum_coeffs.cache_clear()
    try:
        report = verify_string(1, 2)
    finally:
        ring.power_sum_coeffs.cache_clear()
    even = [c for c in report.cases if c.description.startswith("string RHS even")]
    assert len(even) == 1 and not even[0].passed
    assert even[0].witness == "odd powers survive"


def test_perturbed_polynomial_fails_string(monkeypatch):
    # negative control: adding 1 to the large polynomial leaves witness 1
    real = nhat(0, 4)
    bumped = CountPolynomial(0, 4, {**real.mlambda, (): real.mlambda[()] + 1})
    cache = dict(pipeline._NHAT_CACHE)
    cache[(0, 4)] = bumped
    monkeypatch.setattr(pipeline, "_NHAT_CACHE", cache)
    delta = string_check(0, 3)[0]
    assert delta == MultiPoly.constant(face_generators(3), 1)
    report = verify_string(0, 3)
    assert not report.passed


def test_perturbed_polynomial_fails_dilaton(monkeypatch):
    # a constant bump cancels in the two evaluations, so perturb the n-face
    # side, which enters the equation linearly
    real = nhat(1, 1)
    bumped = CountPolynomial(1, 1, {**real.mlambda, (): real.mlambda[()] + 1})
    cache = dict(pipeline._NHAT_CACHE)
    cache[(1, 1)] = bumped
    monkeypatch.setattr(pipeline, "_NHAT_CACHE", cache)
    assert not verify_dilaton(1, 1).passed


def test_qpoly_suite_passes():
    report = verify_qpoly()
    assert report.passed, report.render()


def test_qpoly_suite_checks_five_kinds_for_each_entry():
    # what construction used to certify, check by check, for Q_0..Q_3
    assert [c.description for c in verify_qpoly().cases] == [
        line.format(p=p, b=2 * p + 1, j=p + 1, nodes=(2 * p + 2) * (p + 2), top=p + 3)
        for p in range(4) for line in (
            "Q_{p} equals the binomial sum at its {nodes} interpolation nodes "
            "and 30 more points",
            "Q_{p} satisfies the alternating-sum identity for b = 1..{top}",
            "Q_{p} vanishes at j = -b",
            "Q_{p} degrees are ({b}, {j})",
            "Q_{p} four-term contiguous relation")]


def test_moment_suite_passes():
    report = verify_moments(5)
    assert report.passed, report.render()


def test_ab_inverse_suite_passes():
    report = verify_ab_inverse()
    assert report.passed, report.render()


def test_harer_zagier_suite_passes():
    # epsilon_1 and epsilon_2 up to a 12-gon, as tabulated by Harer and Zagier
    assert harer_zagier_numbers(1, 6) == [0, 0, 1, 10, 70, 420, 2310]
    assert harer_zagier_numbers(2, 6) == [0, 0, 0, 0, 21, 483, 6468]
    report = verify_harer_zagier()
    assert report.passed, report.render()
    assert len(report.cases) == 60


def test_oracle_crosscheck_small():
    report = cross_verify_counts(max_sides=6)
    assert report.passed, report.render()
    assert len(report.cases) >= 20


def test_oracle_suite_checks_every_sweep_tuple():
    assert len(list(sweep_tuples(8, 3))) == 62
    report = cross_verify_counts(max_sides=6)
    assert len(report.cases) == 2 * len(list(sweep_tuples(6, 3))) == 2 * 32


@pytest.mark.parametrize("max_sides", [-2, 0, 1])
def test_oracle_suite_refuses_a_bound_that_admits_no_tuple(max_sides):
    # no tuple has fewer than 2 sides, and 2 admit the one-face torus
    assert list(sweep_tuples(max_sides, 3)) == []
    assert list(sweep_tuples(2, 3))[0] == (1, 1, 0, (1,))
    with pytest.raises(pipeline.DomainError, match="at least 2 sides"):
        cross_verify_counts(max_sides=max_sides)


def filtered_sweep_tuples(max_sides, b_max):
    """The earlier enumerator, kept as a reference: every multiset of
    half-degrees up to max_sides // 2, filtered by the side count."""
    for genus in (0, 1, 2):
        nmin = 3 if genus == 0 else 1
        for n in range(nmin, max_sides // 2 + 1):
            for b in range(0, b_max + 1):
                for degs in combinations_with_replacement(
                        range(max(b, 1), max_sides // 2 + 1), n):
                    if sum(2 * d for d in degs) <= max_sides:
                        yield genus, n, b, degs


def test_sweep_tuples_match_the_filtered_multisets():
    for max_sides in range(19):
        for b_max in range(4):
            assert list(sweep_tuples(max_sides, b_max)) == \
                list(filtered_sweep_tuples(max_sides, b_max)), (max_sides, b_max)


def test_sweep_tuples_generate_only_what_they_yield():
    # the filtered enumerator built 22 million multisets for these 1,798
    start = time.perf_counter()
    assert len(list(sweep_tuples(24, 3))) == 1798
    assert time.perf_counter() - start < 0.5
    # a b above half the side bound admits no tuple and costs nothing
    assert list(sweep_tuples(6, 10 ** 9)) == list(sweep_tuples(6, 3))


def test_oracle_suite_skips_tuples_beyond_the_face_guard(monkeypatch):
    # genus 2 with three faces of half-degree 1, at b = 0 and b = 1, with
    # and without degree-one vertices: four cases the guard refuses
    monkeypatch.setitem(pipeline.MAX_FACES, 2, 2)
    report = cross_verify_counts(max_sides=6)
    skipped = [c for c in report.cases if c.skipped]
    assert len(skipped) == 4
    assert all("genus 2 degrees (1, 1, 1)" in c.description for c in skipped)
    assert all(c.witness == "3 faces exceed the genus-2 guard of 2" for c in skipped)
    assert report.passed


def test_report_rendering():
    report = verify_table1()
    text = report.render()
    assert text.startswith("suite table1: PASS")
    assert text.count("[PASS]") == 9


def test_string_dilaton_one_level_deeper():
    # beyond the default pairs: the genus-2 two-face identity needs the
    # three-face genus-2 polynomial
    assert string_check(2, 2)[0].is_zero()
    assert dilaton_equation_delta(2, 2).is_zero()
    assert string_check(1, 3)[0].is_zero()
    assert dilaton_equation_delta(0, 6).is_zero()
