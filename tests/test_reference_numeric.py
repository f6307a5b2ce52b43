"""The finite-variable numeric route, kept as an independent check.

``numeric_series_crosscheck`` evaluates a counting polynomial from scratch
at numeric b: one variable x_l per face half-degree replaces the nilpotent
face markers of the pipeline's graded ring, and the solve for R, the moment
series and the coefficient extraction are its own.  It shares the series
families and ``free_energy`` with the pipeline, and applies each Q operator
by the earlier per-p route, ``test_reference_sparse.apply_q_operator``.
``numeric_defining_residual`` checks the defining identity of R in the same
ring.  Both settled the genus-1 oracle disagreement at b = 1, where the
oracle was at fault; they live here as references, not in the package.
"""

from fractions import Fraction
from math import factorial

import pytest

from irrmaps.families import (ConsistencyError, power_one_plus_r, qpoly_table,
                              series_I, series_J, series_J_inverse)
from irrmaps.pipeline import (DomainError, _check_admissible,
                              free_energy, nhat)
from irrmaps.ring import MultiPoly, Series

from test_reference_graded import antiderivative
from test_reference_sparse import apply_q_operator


class TruncatedPoly:
    """Multivariate series in x_lo..x_D truncated by total degree."""

    __slots__ = ("poly", "cap")

    def __init__(self, poly: MultiPoly, cap: int):
        self.poly = MultiPoly.from_numerators(
            poly.gens, {e: c for e, c in poly.num.items() if sum(e) <= cap}, poly.den)
        self.cap = cap

    def _wrap(self, poly: MultiPoly) -> "TruncatedPoly":
        return TruncatedPoly(poly, self.cap)

    def _coerce(self, other):
        if isinstance(other, TruncatedPoly):
            return other.poly
        if isinstance(other, (int, Fraction)):
            return MultiPoly.constant(self.poly.gens, other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.poly + o)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self._wrap(self.poly - o)

    def __rsub__(self, other):
        return (self - other) * Fraction(-1)

    def __neg__(self):
        return self._wrap(-self.poly)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._wrap(self.poly * other)
        if isinstance(other, TruncatedPoly):
            return self._wrap(self.poly * other.poly)
        return NotImplemented

    __rmul__ = __mul__

    def __pow__(self, k: int):
        acc = TruncatedPoly(MultiPoly.constant(self.poly.gens, 1), self.cap)
        for _ in range(k):
            acc = acc * self
        return acc

    def __eq__(self, other):
        if isinstance(other, (TruncatedPoly, int, Fraction)):
            return self.poly == self._coerce(other)
        return NotImplemented

    __hash__ = None

    def coefficient(self, exps) -> Fraction:
        return self.poly.terms.get(tuple(exps), Fraction(0))

    def parts(self) -> list["TruncatedPoly"]:
        """The homogeneous parts by total degree 0..cap, at the same cap."""
        groups = [{} for _ in range(self.cap + 1)]
        for e, c in self.poly.num.items():
            groups[sum(e)][e] = c
        return [self._wrap(MultiPoly.from_numerators(self.poly.gens, g, self.poly.den))
                for g in groups]

    def valuation_positive(self) -> bool:
        return (0,) * len(self.poly.gens) not in self.poly.num

    def derivative_in(self, name: str) -> "TruncatedPoly":
        i = self.poly.gens.index(name)
        num = {}
        for exps, c in self.poly.num.items():
            if exps[i]:
                key = list(exps)
                key[i] -= 1
                num[tuple(key)] = c * exps[i]
        p = MultiPoly.from_numerators(self.poly.gens, num, self.poly.den)
        return TruncatedPoly(p, self.cap - 1)


def _numeric_series(sym: Series, assign) -> Series:
    return Series([c.evaluate(assign).as_fraction() for c in sym.coeffs],
                  sym.order, Fraction(0))


def _numeric_setup(b: int, max_degree: int, cap: int):
    lo = max(b, 1)
    gens = tuple(f"x{l}" for l in range(lo, max_degree + 1))
    zero = TruncatedPoly(MultiPoly(gens), cap)
    xs = {l: TruncatedPoly(MultiPoly.variable(gens, f"x{l}"), cap)
          for l in range(lo, max_degree + 1)}
    return lo, gens, zero, xs


def _numeric_R(b: int, max_degree: int, cap: int):
    """Solve the defining equation in the truncated finite-variable ring."""
    lo, gens, zero, xs = _numeric_setup(b, max_degree, cap)
    jinv = _numeric_series(series_J_inverse(max(cap, 1)), {"b": b})
    eyes = {l: _numeric_series(series_I(cap), {"b": b, "l": l})
            for l in range(lo, max_degree + 1)}
    R = zero
    for _ in range(cap + 3):
        X = zero
        for l in range(lo, max_degree + 1):
            X = X + eyes[l].compose(R) * xs[l]
        R_next = jinv.compose(X)
        if R_next == R:
            return R, xs, eyes
        R = R_next
    raise ConsistencyError("numeric fixed point did not stabilize")


def numeric_defining_residual(b: int, ell: int, max_degree: int, cap: int) -> TruncatedPoly:
    """Residual dR/dx_ell - I(b, ell; R) dR/dx_b of the defining identity."""
    if b < 1:
        raise DomainError("the residual check needs b >= 1")
    if ell > max_degree:
        raise DomainError("ell exceeds the variable range")
    R, xs, eyes = _numeric_R(b, max_degree, cap)
    lhs = R.derivative_in(f"x{ell}")
    rhs = eyes[ell].compose(R) * R.derivative_in(f"x{b}")
    return lhs - rhs


def numeric_series_crosscheck(genus: int, n: int, b: int, degrees,
                              max_degree: int | None = None,
                              order: int | None = None) -> Fraction:
    """Evaluate the counting polynomial from scratch in a finite-variable ring.

    Solves the defining equation over x_max(b,1)..x_D with numeric b,
    assembles the free energy (genus >= 1) or the two-face integral formula
    (genus 0), and reads off the coefficient of the requested face monomial.
    It shares the series families, the Q-operator application and
    ``free_energy`` with the pipeline, but not the face-symmetric graded
    ring: one variable per face degree replaces the face markers and their
    exponent multisets, and the solve, the moment series and the
    coefficient extraction are its own, so agreement with ``count_exact``
    (minus the planar correction) checks the graded-ring route.
    """
    degrees = tuple(degrees)
    _check_admissible(genus, n, b, degrees, max(b, 1))
    D = max_degree if max_degree is not None else max(degrees)
    if D < max(degrees):
        raise DomainError("max_degree too small for the requested degrees")

    if genus == 0:
        cap = n - 2 if order is None else order
        lo, gens, zero, xs = _numeric_setup(b, D, cap)
        R, _, _ = _numeric_R(b, D, cap)
        rest = sorted(degrees)[:-2] if n > 2 else []
        l1, l2 = sorted(degrees)[-2:]
        rod = max(cap, n - 3 + 1, 1)
        integrand = _numeric_series(power_one_plus_r(-1, -2, rod), {"b": b})
        integrand = integrand * _numeric_series(series_I(rod), {"b": b, "l": l1})
        integrand = integrand * _numeric_series(series_I(rod), {"b": b, "l": l2})
        cylinder = antiderivative(integrand).truncate(rod).compose(R)
        exps = [0] * len(gens)
        for d in rest:
            exps[gens.index(f"x{d}")] += 1
        mults = {d: rest.count(d) for d in set(rest)}
        scale = 1
        for m in mults.values():
            scale *= factorial(m)
        return cylinder.coefficient(exps) * scale

    cap = n if order is None else order
    lo, gens, zero, xs = _numeric_setup(b, D, cap)
    R, _, eyes = _numeric_R(b, D, cap)
    qt = qpoly_table()
    moments = []
    for p in range(3 * genus - 2):
        rod = cap + p + 1
        jser = _numeric_series(series_J(max(rod, 1)), {"b": b})
        pw = _numeric_series(power_one_plus_r(0, -1, rod), {"b": b})
        eyes_hi = {l: _numeric_series(series_I(rod), {"b": b, "l": l})
                   for l in range(lo, D + 1)}
        coeffs = []
        for k in range(rod + 1):
            c = zero + (jser[k] if k <= jser.order else Fraction(0))
            for l in range(lo, D + 1):
                c = c - xs[l] * eyes_hi[l][k]
            coeffs.append(c)
        w = Series(coeffs, rod, zero) * pw
        qp = qt[p].evaluate({"b": b})
        by_j = {e: c.as_fraction() for e, c in qp.coefficients_in("j").items()}
        one_plus = _numeric_series(power_one_plus_r(1, 0, rod), {"b": b})
        moments.append(apply_q_operator(by_j, w, one_plus).compose(R))
    F = free_energy(genus, moments, cap)
    exps = [0] * len(gens)
    for d in degrees:
        exps[gens.index(f"x{d}")] += 1
    mults = {d: degrees.count(d) for d in set(degrees)}
    scale = 1
    for m in mults.values():
        scale *= factorial(m)
    return F.coefficient(exps) * scale


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
