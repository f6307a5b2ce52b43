"""The derivative route of the moments against the per-p route it replaced.

``per_p_moment_via_T`` is the earlier ``pipeline.moment_hat_via_T``: for each
p it rebuilt the t-derivatives of R, the prefactor (1+R)^(1-b) and
(dR/dt)^(-(2p+1)), that last as the binomial series (1+x)^(-(2p+1))
composed at R' - 1.  ``expanded_t_weight`` is the earlier ``t_weight``, each
monomial of T_p written out with its own powers of r_0 and r_1.  Both are
kept here only as references.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest

import irrmaps.pipeline as pipeline
from irrmaps.families import power_one_plus_r, series_J_inverse
from irrmaps.pipeline import (B_ONLY, DomainError, moment_hat_via_T, moment_hats_via_T,
                              t_weight)
from irrmaps.ring import MultiPoly, Series, TruncationError


def expanded_t_weight(p: int, b, r: list):
    """Evaluate T_p(b, r_0, ..., r_{p+1}) in any commutative ring."""
    one = r[0] ** 0
    if p == 0:
        return one
    r0, r1 = r[0], r[1]
    if p == 1:
        r2 = r[2]
        return r1 * r1 * (b * (b - 1)) * Fraction(2, 3) - r0 * r2 * Fraction(2, 3)
    if p == 2:
        r2, r3 = r[2], r[3]
        return (r1 ** 4) * ((2 * b + 1) * b * (b - 1) * (2 * b - 3)) * Fraction(1, 30) \
            - (r0 * r1 * r1 * r2) * (8 * b * b - 16 * b + 5) * Fraction(1, 30) \
            + (r0 * r0 * r2 * r2) * Fraction(4, 5) \
            - (r0 * r0 * r1 * r3) * Fraction(4, 15)
    if p == 3:
        r2, r3, r4 = r[2], r[3], r[4]
        return (r1 ** 6) * ((b - 2) * (b - 1) * b * (b + 1) * (2 * b - 3) * (2 * b + 1)) \
            * Fraction(1, 315) \
            - (r0 * r2 * r1 ** 4) * ((b - 2) * b * (2 * b * b - 4 * b + 1)) * Fraction(2, 105) \
            + (r0 ** 2 * r1 ** 2 * r2 ** 2) * (4 * b * b - 12 * b + 7) * Fraction(2, 35) \
            - (r0 ** 2 * r1 ** 3 * r3) * (4 * b * b - 12 * b + 7) * Fraction(2, 105) \
            - (r0 ** 3 * r2 ** 3) * Fraction(8, 7) \
            + (r0 ** 3 * r1 * r2 * r3) * Fraction(16, 21) \
            - (r0 ** 3 * r1 ** 2 * r4) * Fraction(8, 105)
    raise DomainError(f"T_{p} is not available (moment weights stop at p = 3)")


def per_p_moment_via_T(p: int, R: Series, order: int) -> Series:
    """(1+R)^(1-b) (dR/dt)^(-(2p+1)) T_p(b, 1+R, dR/dt, ..., d^{p+1}R/dt^{p+1})
    exact to ``order`` in t, for ``R`` exact to order + p + 1."""
    if p > 3:
        raise DomainError(f"moment index {p} beyond the available T weights")
    derivs = [R.truncate(order + p + 1)]
    for _ in range(p + 1):
        derivs.append(derivs[-1].derivative())
    rs = [(derivs[0] + 1).truncate(order)] + [d.truncate(order) for d in derivs[1:]]
    bpol = MultiPoly.variable(B_ONLY, "b")
    T = expanded_t_weight(p, bpol, rs)
    pref = power_one_plus_r(1, -1, order).compose(derivs[0].truncate(order))
    dinv = power_one_plus_r(-(2 * p + 1), 0, order).compose(rs[1] - 1)
    return pref * dinv * T


@pytest.mark.parametrize("order", range(8))
def test_the_one_pass_equals_the_per_p_route(order):
    R = series_J_inverse(order + 4)
    want = [per_p_moment_via_T(p, R, order) for p in range(4)]
    got = moment_hats_via_T(range(4), R, order)
    assert [m.order for m in got] == [order] * 4
    assert got == want
    for p in range(4):
        assert moment_hats_via_T((p,), R, order) == [want[p]]
        # the least R each index needs gives the same series
        assert moment_hat_via_T(p, series_J_inverse(order + p + 1), order) == want[p]
    assert moment_hats_via_T((3, 0, 3), R, order) == [want[3], want[0], want[3]]


def test_the_one_pass_needs_R_to_order_plus_max_p_plus_one():
    R = series_J_inverse(7)
    assert moment_hats_via_T(range(3), R, 4) == [per_p_moment_via_T(p, R, 4) for p in range(3)]
    with pytest.raises(TruncationError):
        moment_hats_via_T(range(4), R, 4)


@pytest.mark.parametrize("p", range(4))
def test_horner_t_weight_equals_the_expanded_one(p):
    gens = ("b", "r0", "r1", "r2", "r3", "r4")
    b, *r = (MultiPoly.variable(gens, g) for g in gens)
    got = t_weight(p, b, r)
    assert got == expanded_t_weight(p, b, r)
    # homogeneous of degree 2p in r_0..r_(p+1), of degree 2p in b
    assert {sum(e[1:]) for e in got.terms} == {2 * p}
    assert not any(any(e[p + 3:]) for e in got.terms)
    assert got.degree_in("b") == 2 * p


def test_t_weight_refuses_p_4():
    r = [Fraction(k + 1) for k in range(6)]
    with pytest.raises(DomainError, match="T_4"):
        t_weight(4, 2, r)


def test_the_one_pass_differentiates_once_per_order_and_builds_one_prefactor(monkeypatch):
    # one chain of max(ps) + 1 derivatives, one (1+R)^(1-b) and one 1/R'
    # serve every index
    R = series_J_inverse(9)
    derivatives, powers, inverses = [], [], []
    derivative = Series.derivative
    power, inverse = pipeline.power_one_plus_r, pipeline.inverse_unit

    def counted_derivative(self):
        derivatives.append(self.order)
        return derivative(self)

    def counted_power(*args):
        powers.append(args)
        return power(*args)

    def counted_inverse(*args):
        inverses.append(args)
        return inverse(*args)

    monkeypatch.setattr(Series, "derivative", counted_derivative)
    monkeypatch.setattr(pipeline, "power_one_plus_r", counted_power)
    monkeypatch.setattr(pipeline, "inverse_unit", counted_inverse)
    for ps in (range(4), (0,), (2,), (3, 1)):
        for seen in (derivatives, powers, inverses):
            seen.clear()
        moment_hats_via_T(ps, R, 5)
        top = max(ps) + 1
        assert derivatives == [5 + top - k for k in range(top)]
        assert powers == [(1, -1, 5)]
        assert len(inverses) == 1


def test_no_binomial_series_serves_as_an_inverse_in_the_package():
    # (1+x)^c0 with c1 = 0 composed at u - 1 is a second inverse of a unit;
    # ring.inverse_unit is the one
    package = Path(pipeline.__file__).parent
    calls = [node for path in package.glob("*.py")
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "power_one_plus_r"]
    assert calls
    assert all(not (isinstance(c.args[1], ast.Constant) and c.args[1].value == 0) for c in calls)
