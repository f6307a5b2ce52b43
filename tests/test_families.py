from fractions import Fraction

import pytest

from irrmaps.families import (ConsistencyError, power_one_plus_r, qpoly_alternating_sum,
                              qpoly_direct_sum, qpoly_direct_sum_oracle, qpoly_table,
                              series_I, series_J, series_J_inverse)
from irrmaps.ring import B_ONLY, GradedSeries, MultiPoly, Series

G = ("b", "l")
BJ = ("b", "j")


def test_series_I_low_coefficients():
    ser = series_I(3)
    b = MultiPoly.variable(G, "b")
    l = MultiPoly.variable(G, "l")
    assert ser[0] == MultiPoly.constant(G, 1)
    assert ser[1] == l * l - b * b
    # at (b, l) = (0, 1) the series is 1 + r
    vals = [c.evaluate({"b": 0, "l": 1}).as_fraction() for c in ser.coeffs]
    assert vals == [1, 1, 0, 0]


def test_series_I_specializes_to_one_at_l_equals_b():
    ser = series_I(5)
    for k in range(1, 6):
        spec = ser[k].substitute("l", MultiPoly.variable(G, "b"))
        assert spec.is_zero()
    # coefficient of r^p is even in l and of degree exactly p in l^2
    for p in range(1, 6):
        assert all(e[1] % 2 == 0 for e in ser[p].terms)
        assert ser[p].degree_in("l") == 2 * p


def test_series_J_coefficients():
    ser = series_J(4)
    b = MultiPoly.variable(("b",), "b")
    assert ser[1] == MultiPoly.constant(("b",), 1)
    assert ser[2] == b * (b - 1) * Fraction(-1, 2)
    # at b = 1 the series is exactly r
    for k in range(2, 5):
        assert ser[k].evaluate({"b": 1}).as_fraction() == 0


def test_series_J_inverse_reference_coefficients():
    inv = series_J_inverse(3)
    b = MultiPoly.variable(("b",), "b")
    assert inv[2] == b * (b - 1) * Fraction(1, 2)
    assert inv[3] == b * (b - 1) ** 2 * (b * 5 + 2) * Fraction(1, 12)
    # compositional inverse property to order 8
    J = series_J(8)
    z = J.compose(series_J_inverse(8))
    assert [z[k] for k in range(9)] == [MultiPoly(("b",))] + [
        MultiPoly.constant(("b",), 1)] + [MultiPoly(("b",))] * 7
    # degree of the z^k coefficient is 2k - 2
    inv8 = series_J_inverse(8)
    for k in range(1, 9):
        assert inv8[k].degree_in("b") == max(2 * k - 2, 0)
    # specializing b = 0 gives the identity series
    for k in range(2, 9):
        assert inv8[k].evaluate({"b": 0}).as_fraction() == 0


def test_power_one_plus_r():
    gens = ("b",)
    b = MultiPoly.variable(gens, "b")
    sq = power_one_plus_r(2, 0, 4)
    assert [sq[k] for k in range(5)] == [
        MultiPoly.constant(gens, 1), MultiPoly.constant(gens, 2),
        MultiPoly.constant(gens, 1), MultiPoly(gens), MultiPoly(gens)]
    neg = power_one_plus_r(-1, -2, 2)  # (1+r)^(-2b-1)
    assert neg[1] == -(b * 2 + 1)
    minus_b = power_one_plus_r(0, -1, 2)  # (1+r)^(-b)
    assert minus_b[2] == b * (b + 1) * Fraction(1, 2)


def test_qpoly_direct_sums():
    # worked binomial sums
    assert qpoly_direct_sum(0, 0, 2) == 6
    assert qpoly_direct_sum_oracle(0, 0, 2) == 2  # 6 / C(3,2)
    assert qpoly_direct_sum(0, 1, 2) == 3
    assert qpoly_direct_sum_oracle(0, 1, 2) == 3  # 3 / C(3,3)
    with pytest.raises(ValueError):
        qpoly_direct_sum(0, 2, 2)
    with pytest.raises(ValueError):
        qpoly_alternating_sum(1, 1, 1)


def test_qpoly_reference_forms():
    table = qpoly_table()
    b = MultiPoly.variable(BJ, "b")
    j = MultiPoly.variable(BJ, "j")
    assert table[0] == b + j
    assert table[1] == (b + j) * (b * b + j - 1) * Fraction(2, 3)
    q2 = (b + j) * (b ** 4 * 4 + b * b * (j * 8 - 15) + (j - 1) * (j * 8 - 11))
    assert table[2] == q2 * Fraction(1, 30)
    q3 = (b + j) * (b ** 6 * 4 + b ** 4 * (j * 12 - 35)
                    + b * b * (j * j * 24 - j * 90 + 91)
                    + (j - 1) * (j - 2) * (j * 4 - 5) * 6)
    assert table[3] == q3 * Fraction(1, 315)
    # evaluation example: Q_2(0, 2) = 1/3
    assert table[2].evaluate({"b": 0, "j": 2}).as_fraction() == Fraction(1, 3)


def test_qpoly_interpolation_agrees_off_grid():
    for p, q in enumerate(qpoly_table()):
        for b0, j0 in [(0, 9), (3, 11), (6, 13), (1, 8)]:
            assert q.evaluate({"b": b0, "j": j0}).as_fraction() == \
                qpoly_direct_sum_oracle(p, b0, j0)


def test_qpoly_degrees_and_vanishing():
    for p, q in enumerate(qpoly_table()):
        assert q.degree_in("b") == 2 * p + 1
        assert q.degree_in("j") == p + 1
        minus_b = -MultiPoly.variable(BJ, "b")
        assert q.substitute("j", minus_b).is_zero()


def test_qpoly_certification_catches_corruption(monkeypatch):
    # adding 1 to any one coefficient of the degree box of any entry fails
    # the qpoly suite, and the grid case names its first disagreeing point:
    # b^eb j^ej is nonzero at (0, 1) for eb = 0, else first at (1, 2)
    import irrmaps.verify as ver
    table = qpoly_table()
    for p, q in enumerate(table):
        for eb in range(2 * p + 2):
            for ej in range(p + 2):
                bumped = q + MultiPoly(BJ, {(eb, ej): 1})
                monkeypatch.setattr(ver, "qpoly_table",
                                    lambda: table[:p] + (bumped,) + table[p + 1:])
                report = ver.verify_qpoly()
                assert not report.passed
                grid, = [c for c in report.cases
                         if c.description.startswith(f"Q_{p} equals the binomial sum")]
                first = "(0, 1)" if eb == 0 else "(1, 2)"
                assert not grid.passed and grid.witness == f"(b, j) = {first}"
    # a wrong definition fails it too, at the corrupted point
    monkeypatch.undo()
    real = ver.qpoly_direct_sum_oracle

    def corrupted(p, b, j):
        val = real(p, b, j)
        return val + 1 if (p, b, j) == (1, 0, 2) else val

    monkeypatch.setattr(ver, "qpoly_direct_sum_oracle", corrupted)
    failed = [(c.description, c.witness) for c in ver.verify_qpoly().cases if not c.passed]
    assert failed == [("Q_1 equals the binomial sum at its 12 interpolation nodes "
                       "and 30 more points", "(b, j) = (0, 2)")]


def test_families_have_fixed_contexts():
    assert {c.gens for c in series_I(3).coeffs} == {G}
    for ser in (series_J(3), series_J_inverse(3), power_one_plus_r(1, -1, 3)):
        assert {c.gens for c in ser.coeffs} == {("b",)}
    assert {q.gens for q in qpoly_table()} == {BJ}


def test_series_J_inverse_composes_once_per_round(monkeypatch):
    # round k = 1..order composes Z(r) = J(b; r) - E_0 once, at cap k, into
    # the round k - 1 result; no other series is evaluated
    composes = []
    compose = Series.compose

    def counted(self, inner):
        composes.append(inner.cap)
        return compose(self, inner)

    monkeypatch.setattr(Series, "compose", counted)
    for order in (1, 2, 7, 15):
        composes.clear()
        series_J_inverse(order)
        assert composes == list(range(1, order + 1))


def test_series_J_inverse_refuses_a_round_that_changes_lower_orders(monkeypatch):
    # a compose that disturbs the z^1 coefficient, the key (0,) of E_0,
    # must stop the solve
    compose = Series.compose

    def disturbed(self, inner):
        out = compose(self, inner)
        if out.cap >= 3:
            out = out + GradedSeries(out.cap, {(0,): MultiPoly.constant(B_ONLY, 1)})
        return out

    monkeypatch.setattr(Series, "compose", disturbed)
    with pytest.raises(ConsistencyError, match="round 3"):
        series_J_inverse(5)
