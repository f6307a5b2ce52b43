"""Counting polynomials for essentially irreducible maps with even face degrees.

In a graded ring (one nilpotent marker e_i per labeled face) the fundamental
series R is the root of Z(r) = J(b; r) - t - sum_i e_i I(b, l_i; r), the
moment series are Q operators applied to Z at R, the genus-1 and genus-2
free energies are built from them, and the counting polynomial is the
coefficient of e_1 ... e_n.  The paper's equations carry a deformation
variable t, the weight of the smallest admissible face degree, and the
polynomial is the t^0 part; setting t = 0 is a ring map that commutes with
composition, the unit log and inverse and the Q operator, so the solve and
the moments run at t = 0 and the ring has no t.  Only the moment-route
check at no faces keeps t: there R is J^{-1}(b; t), a plain series in t
(``moment_hat_via_Q`` and ``moment_hat_via_T``).  Genus 0 has a closed
formula: by Lagrange-Buermann inversion, N_{0,n} = (n-3)! [r^(n-3)]
prod_i I(b, l_i; r) (1+r)^(-2b-1) (r / J(b; r))^(n-2), the product over
the faces formed in the same ring.

R, the moments and the free energy are symmetric under permuting the faces,
so the ring keeps one coefficient per multiset of face exponents, a
polynomial in b alone (see ``ring.GradedSeries``).  The only index data is
the face count n, which is also the grading cap: no coefficient read marks
more faces.  I enters split by powers of l as b-only series,
I(b, l; r) = sum_a l^a I_a(r), and the face markers as
E_a = sum_i e_i l_i^a: ``_marked_faces`` is sum_a E_a I_a(b; r), for Z
and the genus-0 product alike.  The graded keys of the final e_1...e_n
coefficient are the monomial symmetric basis m_lambda(l_1^2, ..., l_n^2),
and a ``CountPolynomial`` is that basis alone: the explicit monomials in
l1..ln are expanded from it only when read.

Everything is symbolic in the irreducibility parameter b and the face
half-degrees l1..ln, with exact rational coefficients.  Numeric evaluations
(exact counts, girth counts) sit on top of the symbolic polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, lcm, prod

from .families import ConsistencyError, power_one_plus_r, qpoly_table, series_I, series_J
# unused here, but perfbench/layertrace.py patches pipeline.series_J_inverse
# by name, so it stays bound in this module
from .families import series_J_inverse  # noqa: F401
from .oracle import SizeError
from .ring import (B_ONLY, GradedSeries, MultiPoly, Series, distinct_permutations,
                   face_generators, inverse_unit, log_unit)

SUPPORTED_GENERA = (0, 1, 2)

#: largest face count per genus that ``nhat`` computes.  With canonical
#: JSON, in a fresh process on a 2-vCPU Xeon VM with Python 3.11.7,
#: (0, 11) takes 0.5-0.9 s and 80 MB, (1, 10) 1.6-2.2 s and 195 MB and
#: (2, 8) 1.1-1.8 s and 102 MB, all within a 5 s budget.  One face more
#: takes 6.7 s and 712 MB at genus 1, past it, but only 2.4-3.0 s and 273 MB
#: at genus 0 and 3.2-3.4 s and 350 MB at genus 2: those two bounds stay so
#: that every guarded command and the 20-side formula sweep, which skips
#: the genus-2 tuples of 9 and 10 faces, answer as before
MAX_FACES = {0: 11, 1: 10, 2: 8}

#: largest sum of half-degrees for a count with degree-one vertices: the
#: answer has about 0.6 digits per unit of the sum (2,420 digits at 4000,
#: inside Python's 4,300-digit limit on printing an int), and one face of
#: half-degree 4000 takes 3.4-3.9 s on the VM above, the cost growing with
#: the square of the largest half-degree
MAX_DEGREE_ONE_SUM = 4000


class DomainError(ValueError):
    """Inadmissible (genus, faces, b, degrees) combination."""


class UnsupportedGenusError(DomainError):
    """Genus outside the range covered by the implemented free energies."""


class InvariantViolation(RuntimeError):
    """A structural invariant (symmetry, evenness) failed to hold."""


# ============================================================
# The fundamental series R and the moment series
# ============================================================


def _marked_faces(cap: int, order: int) -> Series:
    """The series sum_i e_i I(b, l_i; r) = sum_a E_a I_a(b; r) in r, graded
    coefficients at ``cap``: the l^a-part of each coefficient of I goes to
    the key (a,) of E_a."""
    coeffs = [GradedSeries(cap, {(a,): ca.with_context(B_ONLY)
                                 for a, ca in c.coefficients_in("l").items()})
              for c in series_I(order, ("b", "l")).coeffs]
    return Series(coeffs, order, GradedSeries(cap))


def _zhat_series(cap: int, order: int) -> Series:
    """The series Z(r) = J(b; r) - sum_a E_a I_a(b; r) in r, graded
    coefficients at ``cap``: Z = J(b; r) - t - sum_i e_i I(b, l_i; r) at
    t = 0, for ``order`` >= 1.  Its root is R (see :func:`solve_R_hat`), and
    the moments are Q operators applied to it (see :func:`moment_hat`)."""
    return -_marked_faces(cap, order) + series_J(order, B_ONLY)


def solve_R_hat(cap: int) -> GradedSeries:
    """Solve J(b; R) = sum_i e_i I(b, l_i; R) for R in the graded ring with
    ``cap`` faces: the t^0 part of the solution of
    J(b; R) = t + sum_i e_i I(b, l_i; R), that is the root of Z(R) = 0 for
    the series Z of :func:`_zhat_series`.  A cap below the face count gives
    the same keys truncated to that cap.

    Degree by degree, by the fixed point R <- R - Z(R): Z is built once,
    and round k = 1..cap composes it, truncated to order and cap k, into
    the round k - 1 result lifted to cap k, which settles exactly grading
    degree k of R.  R - Z(R) is sum_a E_a I_a(R) - (J(b; R) - R); each
    E_a has degree 1 and J(b; r) - r = O(r^2), so degree k of it reads R
    only below degree k.  Each round must reproduce the previous one below
    its top degree; a mismatch is an internal error.
    """
    if cap < 0:
        raise DomainError("number of faces must be nonnegative")
    Z = _zhat_series(cap, max(cap, 1))
    R = GradedSeries(0)
    for k in range(1, cap + 1):
        lift = GradedSeries(k, R.terms)
        Z_k = Series([c.truncate(k) for c in Z.coeffs[:k + 1]], k, GradedSeries(k))
        R_next = lift - Z_k.compose(lift)
        if R_next.truncate(k - 1) != R:
            raise ConsistencyError(f"round {k} of the solve for R changed lower degrees")
        R = R_next
    return R


def _apply_q_operator(by_j: dict, w: Series, one_plus: Series) -> Series:
    """Apply Q_p(b, (1+r) d/dr) to the r-series ``w``.

    ``by_j`` maps each power of j to its nonzero coefficient in Q_p(b, j)
    and ``one_plus`` is the series 1 + r, both in the ring of the
    coefficients of ``w``.
    """
    acc = None
    cur = w
    for e in range(max(by_j) + 1):
        if e > 0:
            cur = cur.derivative() * one_plus.truncate(cur.order - 1)
        if e in by_j:
            term = cur * by_j[e]
            acc = term if acc is None else acc + term
    return acc


def _q_moment(p: int, f: Series) -> Series:
    """Q_p(b, (1+r) d/dr) (1+r)^(-b) f(r) for an r-series ``f`` whose
    coefficient ring absorbs b-only polynomials; exact to f.order - p - 1,
    because each application of (1+r) d/dr consumes one order."""
    table = qpoly_table()
    if p > table.p_max:
        raise DomainError(f"moment index {p} beyond the available Q table")
    w = f * power_one_plus_r(0, -1, f.order, B_ONLY)
    by_j = {e: c.with_context(B_ONLY) for e, c in table[p].coefficients_in("j").items()}
    return _apply_q_operator(by_j, w, power_one_plus_r(1, 0, f.order, B_ONLY))


def moment_hat(p: int, rhat: GradedSeries) -> GradedSeries:
    """Moment series: Q_p(b, (1+r) d/dr) (1+r)^(-b) Z(r), evaluated at r = R.

    ``rhat`` is R from :func:`solve_R_hat` and Z is taken at t = 0, so the
    result is the t^0 part of the moment, exact to the cap of ``rhat``.
    """
    cap = rhat.cap
    return _q_moment(p, _zhat_series(cap, cap + p + 1)).compose(rhat)


def moment_hat_via_Q(p: int, R: Series, order: int) -> Series:
    """The moment series with no faces, in t, by the Q-operator route.

    With no faces Z = J(b; r) - t, and the -t term adds nothing:
    (1+r) d/dr (1+r)^(-b) = -b (1+r)^(-b), and Q_p(b, j) has the factor
    b + j.  So the moment is Q_p(b, (1+r) d/dr) (1+r)^(-b) J(b; r), a
    b-only series in r, evaluated at r = R.  ``R`` is J^{-1}(b; t) exact to
    at least ``order``; the result is exact to ``order``.
    """
    return _q_moment(p, series_J(order + p + 1, B_ONLY)).compose(R.truncate(order))


# Moment weights T_p: fixed data, homogeneous of degree 2p in
# (r_0, ..., r_{p+1}) with polynomial coefficients in b.  The tests certify
# every coefficient against an independent derivation (operator commutation,
# Stirling expansion of ((1+r) d/dr)^k, inverse-function derivatives).


def t_weight(p: int, b, r: list):
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
        return (r1 ** 6) * ((b - 2) * (b - 1) * b * (b + 1) * (2 * b - 3) * (2 * b + 1)) * Fraction(1, 315) \
            - (r0 * r2 * r1 ** 4) * ((b - 2) * b * (2 * b * b - 4 * b + 1)) * Fraction(2, 105) \
            + (r0 ** 2 * r1 ** 2 * r2 ** 2) * (4 * b * b - 12 * b + 7) * Fraction(2, 35) \
            - (r0 ** 2 * r1 ** 3 * r3) * (4 * b * b - 12 * b + 7) * Fraction(2, 105) \
            - (r0 ** 3 * r2 ** 3) * Fraction(8, 7) \
            + (r0 ** 3 * r1 * r2 * r3) * Fraction(16, 21) \
            - (r0 ** 3 * r1 ** 2 * r4) * Fraction(8, 105)
    raise DomainError(f"T_{p} is not available (moment weights stop at p = 3)")


def moment_hat_via_T(p: int, R: Series, order: int) -> Series:
    """Independent route to the moment series with no faces, via
    t-derivatives of R = J^{-1}(b; t).

    Computes (1+R)^(1-b) (dR/dt)^(-(2p+1)) T_p(b, 1+R, dR/dt, ..., d^{p+1}R/dt^{p+1})
    exact to ``order`` in t.  Each derivative consumes one order, so ``R``
    must be exact to order + p + 1; one R at the largest such order serves
    every p.
    """
    if p > 3:
        raise DomainError(f"moment index {p} beyond the available T weights")
    derivs = [R.truncate(order + p + 1)]
    for _ in range(p + 1):
        derivs.append(derivs[-1].derivative())
    rs = [(derivs[0] + 1).truncate(order)] + [d.truncate(order) for d in derivs[1:]]
    bpol = MultiPoly.variable(B_ONLY, "b")
    T = t_weight(p, bpol, rs)
    pref = power_one_plus_r(1, -1, order, B_ONLY).compose(derivs[0].truncate(order))
    dinv = power_one_plus_r(-(2 * p + 1), 0, order, B_ONLY).compose(rs[1] - 1)
    return pref * dinv * T


# ============================================================
# Free energies and counting polynomials
# ============================================================


def genus2_combination(inv0, m1, m2, m3):
    """The universal genus-2 free energy in terms of moment ratios."""
    inner = (m1 ** 3) * 2016 + (m1 * m1) * 1086 - (m2 * m1) * 3480 \
        + m1 * 407 - m2 * 860 + m3 * 1400 + 128
    return inv0 * inv0 * inner * Fraction(-1, 30720) + Fraction(1, 240)


def free_energy(genus: int, moments: list, cap: int):
    """Assemble the genus-1 or genus-2 free energy from moment series."""
    m0 = moments[0]
    if genus == 1:
        return log_unit(m0, cap) * Fraction(-1, 12)
    if genus == 2:
        inv0 = inverse_unit(m0, cap)
        m1, m2, m3 = (m * inv0 for m in moments[1:4])
        return genus2_combination(inv0, m1, m2, m3)
    raise UnsupportedGenusError(f"no free energy available for genus {genus}")


@dataclass(frozen=True)
class CountPolynomial:
    """A finished counting polynomial, sum_lambda c_lambda(b)
    m_lambda(l_1^2, ..., l_n^2): ``mlambda`` maps each partition lambda
    (weakly decreasing, no zeros) to c_lambda over ``B_ONLY``.  The hash
    reads (genus, nfaces) alone, and ``poly`` is expanded on first read.
    """

    genus: int
    nfaces: int
    mlambda: dict[tuple[int, ...], MultiPoly] = field(hash=False)

    @property
    def gens(self) -> tuple[str, ...]:
        return face_generators(self.nfaces)

    @cached_property
    def poly(self) -> MultiPoly:
        """The expanded polynomial over ``gens``."""
        den = lcm(*(c.den for c in self.mlambda.values()))
        num = {}
        for lam, c in self.mlambda.items():
            scale = den // c.den
            for lexps in m_lambda_exponents(lam, self.nfaces):
                for bexps, bc in c.num.items():
                    num[bexps + lexps] = bc * scale
        return MultiPoly.from_numerators(self.gens, num, den)

    def evaluate(self, b, degrees) -> Fraction:
        return self.weighted_sum(b, [((d, 1),) for d in degrees])

    def weighted_sum(self, b, faces) -> Fraction:
        """Sum of w_1 ... w_n N(b; p_1, ..., p_n) over one weighted point
        (p_i, w_i) from each ``faces[i]``, read off the m-basis.

        With the moment m_i[e] = sum over (p, w) in faces[i] of w p^e, the
        sum is sum_lambda c_lambda(b) V_n(lambda), where V_i(mu) sums
        prod_j m_j[2 beta_j] over the ways beta to put the parts of mu on
        distinct faces among 1..i.  Face i takes no part or one of the
        distinct parts a of mu: V_0(()) = 1 and
        V_i(mu) = V_{i-1}(mu) m_i[0] + sum_a V_{i-1}(mu - a) m_i[2a] over
        every sub-multiset mu of the partitions.  Plain evaluation is the
        case of one point of weight 1 per face.
        """
        if len(faces) != self.nfaces:
            raise DomainError(f"expected {self.nfaces} degrees, got {len(faces)}")
        # each sub-multiset with its (2a, mu - a) for the distinct parts a
        steps = {}
        level = set(self.mlambda)
        while level:
            for mu in level:
                steps[mu] = [(2 * a, mu[:j] + mu[j + 1:])
                             for j, a in enumerate(mu) if j == 0 or mu[j - 1] != a]
            level = {rest for mu in level for _, rest in steps[mu]} - steps.keys()
        exps = {0} | {e for s in steps.values() for e, _ in s}
        # longest first, so that V(mu - a) still holds the previous face
        order = sorted(steps, key=len, reverse=True)
        V = dict.fromkeys(order, 0)
        V[()] = 1
        for face in faces:
            m = {e: sum(w * p ** e for p, w in face) for e in exps}
            for mu in order:
                V[mu] = V[mu] * m[0] + sum(V[rest] * m[e] for e, rest in steps[mu])
        den = lcm(*(c.den for c in self.mlambda.values()))
        total = sum(sum(bc * b ** k for (k,), bc in c.num.items()) * (den // c.den) * V[lam]
                    for lam, c in self.mlambda.items())
        return Fraction(total, den)

    def m_basis(self) -> dict[tuple[int, ...], MultiPoly]:
        return to_m_basis(self)


def nhat_genus0(n: int) -> CountPolynomial:
    """Planar counting polynomial from the closed formula.

    The integral formula (n-2)! [z^(n-2)] A(J^{-1}(b; z)), A the
    antiderivative of f(r) = prod_i I(b, l_i; r) (1+r)^(-2b-1), reads
    (n-3)! [r^(n-3)] f(r) (r / J(b; r))^(n-2) by Lagrange-Buermann
    inversion.  The product over the faces is the e_1...e_n coefficient of
    (sum_a E_a I_a(b; r))^n / n!, the n-th power of ``_marked_faces`` in
    the graded ring with b-only coefficients; the rest of f (r / J)^(n-2)
    is a b-only series.
    """
    if n < 3:
        raise DomainError("the planar family needs at least 3 faces")
    order = n - 3
    faces = _marked_faces(n, order) ** n
    j_over_r = Series(series_J(order + 1, B_ONLY).coeffs[1:], order, MultiPoly(B_ONLY))
    rest = power_one_plus_r(-1, -2, order, B_ONLY) \
        * inverse_unit(j_over_r, order) ** (n - 2) * Fraction(factorial(n - 3), factorial(n))
    # only [r^(n-3)] of faces * rest is needed
    total = sum((faces[k] * rest[order - k] for k in range(order + 1)), GradedSeries(n))
    return CountPolynomial(0, n, _graded_m_basis(total))


def nhat_higher_genus(genus: int, n: int) -> CountPolynomial:
    """Counting polynomial for genus 1 or 2 from the graded-ring pipeline."""
    if genus not in (1, 2):
        raise UnsupportedGenusError(f"genus {genus} is not supported here")
    if n < 1:
        raise DomainError("need at least one face")
    R = solve_R_hat(n)
    moments = [moment_hat(p, R) for p in range(3 * genus - 2)]
    F = free_energy(genus, moments, n)
    return CountPolynomial(genus, n, _graded_m_basis(F))


_NHAT_CACHE: dict[tuple[int, int], CountPolynomial] = {}


def nhat(genus: int, n: int) -> CountPolynomial:
    """The counting polynomial for (genus, n), cached."""
    if genus not in SUPPORTED_GENERA:
        raise UnsupportedGenusError(f"genus {genus} is not supported")
    if n > MAX_FACES[genus]:
        raise SizeError(f"{n} faces exceed the genus-{genus} guard of {MAX_FACES[genus]}")
    key = (genus, n)
    if key not in _NHAT_CACHE:
        _NHAT_CACHE[key] = nhat_genus0(n) if genus == 0 else nhat_higher_genus(genus, n)
    return _NHAT_CACHE[key]


# ============================================================
# Monomial symmetric basis
# ============================================================


def m_lambda_exponents(partition, n: int) -> list[tuple[int, ...]]:
    """The l-exponents of the monomials of m_lambda(l_1^2, ..., l_n^2), in
    lexicographic order."""
    partition = tuple(partition)
    if len(partition) > n:
        raise DomainError(f"partition {partition} has more parts than faces")
    return list(distinct_permutations([2 * e for e in partition] + [0] * (n - len(partition))))


def _graded_m_basis(series: GradedSeries) -> dict[tuple[int, ...], MultiPoly]:
    """The m-basis of the e_1...e_n coefficient of ``series``, n its cap,
    read off its keys.

    M_lam with len(lam) = n puts c_lam on every rearrangement of lam over
    the n faces, prod(mult!) times each, so it is c_lam prod(mult!)
    m_lambda, lambda the sorted nonzero halves of lam.  Distinct keys give
    distinct partitions.  An odd entry of lam raises InvariantViolation.
    """
    n = series.cap
    out = {}
    for lam, c in series.terms.items():
        if len(lam) != n:
            continue
        if any(e % 2 for e in lam):
            raise InvariantViolation(f"odd power of a face generator in key {lam}")
        part = tuple(sorted((e // 2 for e in lam if e), reverse=True))
        out[part] = c * prod(factorial(lam.count(e)) for e in set(lam))
    return out


def to_m_basis(count: CountPolynomial) -> dict[tuple[int, ...], MultiPoly]:
    """The polynomial in the monomial symmetric basis of squared
    half-degrees: a copy of ``count.mlambda``, partitions (weakly
    decreasing, no zeros) to coefficient polynomials in b alone."""
    return dict(count.mlambda)


# ============================================================
# Exact counts, the tree transform, and girth counts
# ============================================================


def a_transform_coeff(b: int, ell: int, p: int) -> Fraction:
    """Weight for regrowing trees in the corners: face of degree 2p -> 2ell."""
    val = Fraction(0)
    if ell == p == b:
        val += 1
    if ell >= p > b:
        val += Fraction(p * comb(2 * ell, ell - p), ell)
    return val

def b_transform_coeff(b: int, p: int, ell: int) -> Fraction:
    """Inverse weight of the tree transform."""
    val = Fraction(0)
    if p == ell == b:
        val += 1
    if p >= ell > b:
        val += Fraction((-1) ** (p - ell) * comb(p + ell - 1, p - ell))
    return val


def planar_correction(genus: int, n: int, b: int, degrees) -> Fraction:
    """Correction to the polynomial count when all planar faces have degree 2b."""
    if genus == 0 and n >= 4 and all(d == b for d in degrees):
        return Fraction(factorial(n - 1) * (-1) ** n, 2)
    return Fraction(0)


def _check_admissible(genus: int, n: int, b: int, degrees, minimum: int) -> None:
    if genus not in SUPPORTED_GENERA:
        raise UnsupportedGenusError(f"genus {genus} is not supported")
    if b < 0:
        raise DomainError("b must be nonnegative")
    if genus == 0 and n < 3:
        raise DomainError("planar counts need at least 3 faces")
    if n < 1 or len(degrees) != n:
        raise DomainError(f"expected {n} face degrees, got {len(degrees)}")
    if any(d < minimum for d in degrees):
        raise DomainError(f"face half-degrees must all be at least {minimum}")


def count_exact(genus: int, n: int, b: int, degrees,
                allow_degree_one: bool = False) -> Fraction:
    """Exact weighted count of essentially 2b-irreducible maps.

    Without degree-one vertices this is the counting polynomial plus the
    planar all-degrees-equal correction.  With them it is the tree
    transform: the sum over p_i = b..d_i of prod_i a(b, d_i, p_i) times the
    count at p.  The weight of face i depends on (d_i, p_i) alone, so the
    transform is applied face by face: ``CountPolynomial.weighted_sum``
    replaces each power l_i^e by the moment sum_p a(b, d_i, p) p^e and
    reads the m-basis once.  The cost is about n x (sub-multisets of the
    partitions of N-hat) x (their distinct parts) multiplications plus
    sum_i d_i table entries per moment, where evaluating at every point of
    the grid cost prod_i (d_i - b + 1) full evaluations.  Half-degrees
    summing past ``MAX_DEGREE_ONE_SUM`` raise SizeError before any work.
    """
    degrees = tuple(degrees)
    _check_admissible(genus, n, b, degrees, max(b, 1))
    if allow_degree_one:
        if sum(degrees) > MAX_DEGREE_ONE_SUM:
            raise SizeError(f"half-degrees summing to {sum(degrees)} exceed the "
                            f"degree-one guard of {MAX_DEGREE_ONE_SUM}")
        # d a(b, d, p) is an integer, so with the weights scaled by d the
        # moments stay integers; the sum is divided by prod(d) at the end
        faces = [[(p, int(d * w)) for p in range(b, d + 1)
                  if (w := a_transform_coeff(b, d, p))] for d in degrees]
        scale = prod(degrees)
    else:
        faces = [((d, 1),) for d in degrees]
        scale = 1
    # the planar correction lives at the single point p = (b, ..., b); its
    # transform weight prod_i a(b, d_i, b) is 1 when every d_i = b and 0
    # otherwise, which is exactly when the correction at the degrees applies
    return nhat(genus, n).weighted_sum(b, faces) / scale \
        + planar_correction(genus, n, b, degrees)


def girth_count(genus: int, n: int, b: int, degrees, mode: str = "at-least") -> Fraction:
    """Count of maps (no degree-one vertices) by essential girth.

    mode "at-least": essential girth >= 2b (requires half-degrees >= b);
    mode "exactly": essential girth exactly 2b (requires half-degrees > b).
    """
    degrees = tuple(degrees)
    if b < 1:
        raise DomainError("girth counts need b >= 1")
    if mode == "at-least":
        _check_admissible(genus, n, b, degrees, max(b, 1))
        return nhat(genus, n).evaluate(b - 1, degrees)
    if mode == "exactly":
        _check_admissible(genus, n, b, degrees, b + 1)
        return nhat(genus, n).evaluate(b - 1, degrees) - nhat(genus, n).evaluate(b, degrees)
    raise DomainError(f"unknown girth mode {mode!r}")
