"""Counting polynomials for essentially irreducible maps with even face degrees.

In a graded ring (one nilpotent marker e_i per labeled face) the fundamental
series R is the root of Z(r) = J(b; r) - t - sum_i e_i I(b, l_i; r), the
moment M_p is Q_p(b, (1+r) d/dr) (1+r)^(-b) Z(r) at r = R, the genus-1 and
genus-2 free energies are built from M_0..M_(3g-3), and the counting
polynomial is the coefficient of e_1 ... e_n.  All moments of a genus come
from one pass (``moment_hats``): one Z, one chain of (1+r) d/dr steps taken
on the coefficients, and one list of powers of R.  The paper's equations
carry a deformation variable t, the weight of the smallest admissible face
degree, and the polynomial is the t^0 part; setting t = 0 is a ring map that
commutes with composition, the unit log and inverse and the Q operator, so
the solve and the moments run at t = 0 and the ring has no t.  Only the
moment-route check at no faces keeps t: there R is J^{-1}(b; t), a plain
series in t (``moment_hats_via_Q``, the same pass, and ``moment_hats_via_T``).
Genus 0 has a closed formula: by Lagrange-Buermann inversion,
N_{0,n} = (n-3)! [r^(n-3)] prod_i I(b, l_i; r) (1+r)^(-2b-1) (r / J(b; r))^(n-2),
the product over the faces formed in the same ring.

R, the moments and the free energy are symmetric under permuting the faces,
so the ring keeps one coefficient per multiset of face exponents, a dense
polynomial in b alone (see ``ring.GradedSeries``).  The only index data is
the face count n, which is also the grading cap: no coefficient read marks
more faces.  I enters split by powers of l, I(b, l; r) = sum_a l^a I_a(b; r),
and the face markers as E_a = sum_i e_i l_i^a: ``_marked_faces`` is
sum_a E_a I_a(b; r), for Z and the genus-0 product alike, read off the int
rows of ``families.series_I_rows``.  Each coefficient of a series product,
composition, (1+r) d/dr step or Q operator is one ``ring.sum_of_products``.
The graded keys of the final e_1...e_n coefficient are the monomial
symmetric basis m_lambda(l_1^2, ..., l_n^2), and a ``CountPolynomial`` is
that basis alone.  Everything is exact and
symbolic in b and the face half-degrees l1..ln; exact and girth counts
evaluate the symbolic polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, reduce
from math import comb, factorial, lcm, prod

from .families import power_one_plus_r, qpoly_table, series_I_rows, series_J, solve_root
# unused here, but perfbench/layertrace.py patches pipeline.series_I and
# pipeline.series_J_inverse by name, so they stay bound in this module
from .families import series_I, series_J_inverse  # noqa: F401
from .oracle import SizeError
from .ring import (B_ONLY, GradedSeries, MultiPoly, Series, _graded, distinct_permutations,
                   face_generators, inverse_unit, log_unit, sum_of_products)

SUPPORTED_GENERA = (0, 1, 2)

#: largest face count per genus that ``nhat`` computes.  In a fresh process
#: on a 2-vCPU Xeon VM with Python 3.11.7 (2026-10-20), with ``--format``
#: mlambda, json and monomials: (0, 11) 0.12 s, 0.35-0.38 s and 79 MB,
#: 0.35 s and 65 MB; (1, 10) 0.16-0.17 s, 0.88-1.01 s and 192 MB,
#: 0.97-1.02 s and 157 MB; (2, 8) 0.20-0.22 s, 0.52-0.57 s and 99 MB,
#: 0.54-0.65 s and 85 MB, all within a 5 s budget.  With json one face
#: more takes 3.7-3.8 s and 667 MB at genus 1, near it, 1.4-1.7 s and
#: 255 MB at genus 0 and 1.6 s and 341 MB at genus 2: the bounds stay so
#: that every guarded command and the 20-side formula sweep, which skips
#: the genus-2 tuples of 9 and 10 faces, answer as before
MAX_FACES = {0: 11, 1: 10, 2: 8}

#: largest sum of half-degrees for a count with degree-one vertices: the
#: answer has about 0.6 digits per unit of the sum (2,405-2,421 characters
#: at 4000), inside Python's 4,300-digit limit on printing an int; at 4000
#: one count takes 0.01-0.06 s on the VM above
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
    the key (a,) of E_a, read straight from :func:`families.series_I_rows`;
    at cap 0 no key is left."""
    coeffs = [_graded(cap, {(2 * i,): row for i, row in enumerate(rows)} if cap else {}, den)
              for rows, den in series_I_rows(order)]
    return Series(coeffs, order, GradedSeries(cap))


def _zhat_series(cap: int, order: int) -> Series:
    """The series Z(r) = J(b; r) - sum_a E_a I_a(b; r) in r, graded
    coefficients at ``cap``: Z = J(b; r) - t - sum_i e_i I(b, l_i; r) at
    t = 0, for ``order`` >= 1.  Its root is R (see :func:`solve_R_hat`), and
    the moments are Q operators applied to it (see :func:`moment_hats`)."""
    J, marked = series_J(order), _marked_faces(cap, order)
    return Series([sum_of_products(((J[k], 1), (e, -1)), e) for k, e in enumerate(marked.coeffs)],
                  order, marked.zero)


def solve_R_hat(cap: int) -> GradedSeries:
    """Solve J(b; R) = sum_i e_i I(b, l_i; R) for R in the graded ring with
    ``cap`` faces: the t^0 part of the solution of
    J(b; R) = t + sum_i e_i I(b, l_i; R), that is the root of Z(R) = 0 for
    the series Z of :func:`_zhat_series`, by :func:`families.solve_root`.
    Z qualifies: each E_a has grading degree 1 and J(b; r) - r = O(r^2).
    A cap below the face count gives the same keys truncated to that cap.
    """
    if cap < 0:
        raise DomainError("number of faces must be nonnegative")
    return solve_root(_zhat_series(cap, max(cap, 1)), cap)


def _moments(ps, build, inner) -> list:
    """Q_p(b, D) (1+r)^(-b) f(r) at r = ``inner``, D = (1+r) d/dr, for each
    p in ``ps``, exact to the order (Series) or cap (GradedSeries) of
    ``inner``; f = build(k) is an r-series exact to k over a ring absorbing
    b-only polynomials.  Q_p has degree p + 1 in j, so with top = max(ps) + 1
    one f and one chain w, Dw, ..., D^top w of w = (1+r)^(-b) f serve every
    p: (Dw)_k = (k+1) w_(k+1) + k w_k, each step exact one order lower.  The
    outer series sum_e [j^e] Q_p(b, j) D^e w share one list of the powers of
    ``inner``.  An index past the Q table raises DomainError first."""
    table = qpoly_table()
    if max(ps) >= len(table):
        raise DomainError(f"moment index {max(ps)} beyond the available Q table")
    order = inner.order if isinstance(inner, Series) else inner.cap
    top = max(ps) + 1
    chain = [build(order + top) * power_one_plus_r(0, -1, order + top)]
    zero = chain[0].zero
    for _ in range(top):
        w = chain[-1].coeffs
        chain.append(Series([sum_of_products(((w[k + 1], k + 1), (w[k], k)), zero)
                             for k in range(len(w) - 1)], len(w) - 2, zero))
    powers, out = [], []
    for p in ps:
        q = [(e, c.with_context(B_ONLY)) for e, c in table[p].coefficients_in("j").items()]
        outer = [sum_of_products([(chain[e][k], c) for e, c in q], zero) for k in range(order + 1)]
        out.append(Series(outer, order, zero).compose(inner, powers))
    return out


def moment_hats(ps, rhat: GradedSeries) -> list[GradedSeries]:
    """The moment series Q_p(b, (1+r) d/dr) (1+r)^(-b) Z(r) at r = R for each
    p in ``ps``: with ``rhat`` = R from :func:`solve_R_hat` and Z at t = 0,
    the t^0 part of each moment, exact to the cap of ``rhat``."""
    return _moments(ps, lambda order: _zhat_series(rhat.cap, order), rhat)


def moment_hat(p: int, rhat: GradedSeries) -> GradedSeries:
    """The moment series of index p alone (see :func:`moment_hats`)."""
    return moment_hats((p,), rhat)[0]


def moment_hats_via_Q(ps, R: Series, order: int) -> list[Series]:
    """The moment series with no faces, in t, by the Q-operator route, for
    each p in ``ps``, exact to ``order``; ``R`` is J^{-1}(b; t) exact to at
    least ``order``.  With no faces Z = J(b; r) - t, and the -t term adds
    nothing: (1+r) d/dr (1+r)^(-b) = -b (1+r)^(-b), and Q_p(b, j) has the
    factor b + j, so the moment is Q_p(b, (1+r) d/dr) (1+r)^(-b) J(b; r) at R."""
    return _moments(ps, series_J, R.truncate(order))


# Moment weights T_p: fixed data, homogeneous of degree 2p in
# (r_0, ..., r_{p+1}) with polynomial coefficients in b, checked through the
# moments: the T route agrees with the Q route (``verify --suite tpoly``).


def t_weight(p: int, b, r: list):
    """Evaluate T_p(b, r_0, ..., r_{p+1}) in any commutative ring."""
    if p == 0:
        return r[0] ** 0
    # Horner form in r_0, with s = r_1^2: each power of r_0 and r_1 is formed once
    r0, r1, s = r[0], r[1], r[1] * r[1]
    if p == 1:
        return (s * (b * (b - 1)) - r0 * r[2]) * Fraction(2, 3)
    if p == 2:
        r2, r3 = r[2], r[3]
        return (s * s * ((2 * b + 1) * b * (b - 1) * (2 * b - 3))
                + r0 * (r0 * (r2 * r2 * 24 - r1 * r3 * 8)
                        - s * r2 * (8 * b * b - 16 * b + 5))) * Fraction(1, 30)
    if p == 3:
        r2, r3, r4 = r[2], r[3], r[4]
        s2, q, r13 = s * s, r2 * r2, r1 * r3
        inner = s * (q * 3 - r13) * ((4 * b * b - 12 * b + 7) * 6) \
            + r0 * (r2 * (r13 * 10 - q * 15) - s * r4) * 24
        return (s2 * s * ((b - 2) * (b - 1) * b * (b + 1) * (2 * b - 3) * (2 * b + 1))
                + r0 * (r0 * inner - s2 * r2 * ((b - 2) * b * (2 * b * b - 4 * b + 1) * 6))) \
            * Fraction(1, 315)
    raise DomainError(f"T_{p} is not available (moment weights stop at p = 3)")


def moment_hats_via_T(ps, R: Series, order: int) -> list[Series]:
    """Independent route to the moment series with no faces, via
    t-derivatives of R = J^{-1}(b; t), for each p in ``ps``.

    Computes (1+R)^(1-b) (dR/dt)^(-(2p+1)) T_p(b, 1+R, dR/dt, ..., d^{p+1}R/dt^{p+1})
    exact to ``order`` in t.  Each derivative consumes one order, so ``R``
    must be exact to order + max(ps) + 1.  One chain of derivatives, one
    prefactor and one 1/R' serve every p: the odd powers of 1/R' come by
    repeated multiplication.  An index past the T weights raises
    DomainError first.
    """
    top = max(ps) + 1
    if top > 4:
        raise DomainError(f"moment index {top - 1} beyond the available T weights")
    derivs = [R.truncate(order + top)]
    for _ in range(top):
        derivs.append(derivs[-1].derivative())
    rs = [(derivs[0] + 1).truncate(order)] + [d.truncate(order) for d in derivs[1:]]
    inv = inverse_unit(rs[1], order)
    inv2 = inv * inv
    weights = [power_one_plus_r(1, -1, order).compose(rs[0] - 1) * inv]
    for _ in range(top - 1):
        weights.append(weights[-1] * inv2)
    bpol = MultiPoly.variable(B_ONLY, "b")
    return [weights[p] * t_weight(p, bpol, rs) for p in ps]


def moment_hat_via_T(p: int, R: Series, order: int) -> Series:
    """The T-route moment series of index p alone (see :func:`moment_hats_via_T`)."""
    return moment_hats_via_T((p,), R, order)[0]


# ============================================================
# Free energies and counting polynomials
# ============================================================


def genus2_combination(inv0, m1, m2, m3):
    """The universal genus-2 free energy in terms of moment ratios."""
    # Horner form in m1: two graded products
    inner = m1 * (m1 * (m1 * 2016 + 1086) - m2 * 3480 + 407) - m2 * 860 + m3 * 1400 + 128
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
    (weakly decreasing, no zeros) to c_lambda over ``B_ONLY``; a zero
    c_lambda is dropped, so equal polynomials have equal ``mlambda``.  The
    hash reads (genus, nfaces) alone.
    """

    genus: int
    nfaces: int
    mlambda: dict[tuple[int, ...], MultiPoly] = field(hash=False)

    def __post_init__(self):
        object.__setattr__(self, "mlambda", {lam: c for lam, c in self.mlambda.items()
                                             if not c.is_zero()})

    @property
    def gens(self) -> tuple[str, ...]:
        return face_generators(self.nfaces)

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
        return self._weighted_sums((b,), faces)[0]

    def _weighted_sums(self, bs, faces) -> list[Fraction]:
        """:meth:`weighted_sum` at each b in ``bs`` from one walk."""
        nums, den = self._numerators(bs, faces)
        return [Fraction(x, den) for x in nums]

    def _numerators(self, bs, faces) -> tuple[list[int], int]:
        """The numerators of :meth:`_weighted_sums` over the plan's
        denominator: V does not depend on b, and the sums over lambda per
        power of b are read by Horner, in integers for integer b and weights."""
        if len(faces) != self.nfaces:
            raise DomainError(f"expected {self.nfaces} degrees, got {len(faces)}")
        steps, exps, rows, den = self._plan
        V = [0] * (len(steps) - 1) + [1]
        for face in faces:
            m = [sum([w * p ** e for p, w in face]) for e in exps] if len(face) > 1 \
                else [face[0][1] * face[0][0] ** e for e in exps]
            for i, step in enumerate(steps):
                v = V[i] * m[0]
                for e, rest in step:
                    v += V[rest] * m[e]
                V[i] = v
        sums = [sum([a * V[i] for i, a in row]) for row in rows]
        return [reduce(lambda total, s: total * b + s, sums, 0) for b in bs], den

    @cached_property
    def _plan(self):
        """What :meth:`weighted_sum` reads, built on its first call: the
        sub-multisets mu, longest first so that V(mu - a) still holds the
        previous face, each with its (index of 2a in the exponents, index of
        mu - a) for the distinct parts a; the exponents, 0 first; and per
        power of b, top first, the (index of lambda, numerator) over ``den``."""
        steps, level = {}, set(self.mlambda) | {()}
        while level:
            for mu in level:
                steps[mu] = [(2 * a, mu[:j] + mu[j + 1:])
                             for j, a in enumerate(mu) if j == 0 or mu[j - 1] != a]
            level = {rest for mu in level for _, rest in steps[mu]} - steps.keys()
        at = {mu: i for i, mu in enumerate(sorted(steps, key=len, reverse=True))}
        exps = sorted({0} | {e for s in steps.values() for e, _ in s})
        den = lcm(*(c.den for c in self.mlambda.values()))
        top = max((k for c in self.mlambda.values() for (k,) in c.num), default=0)
        rows = [[(at[lam], c.num[(k,)] * (den // c.den)) for lam, c in self.mlambda.items()
                 if (k,) in c.num] for k in range(top, -1, -1)]
        return [[(exps.index(e), at[rest]) for e, rest in steps[mu]] for mu in at], exps, rows, den

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
    j_over_r = Series(series_J(order + 1).coeffs[1:], order, MultiPoly(B_ONLY))
    rest = power_one_plus_r(-1, -2, order) \
        * inverse_unit(j_over_r, order) ** (n - 2) * Fraction(factorial(n - 3), factorial(n))
    # only [r^(n-3)] of faces * rest is needed
    total = sum_of_products([(faces[k], rest[order - k]) for k in range(order + 1)],
                            GradedSeries(n))
    return CountPolynomial(0, n, _graded_m_basis(total))


def nhat_higher_genus(genus: int, n: int) -> CountPolynomial:
    """Counting polynomial for genus 1 or 2 from the graded-ring pipeline."""
    if genus not in (1, 2):
        raise UnsupportedGenusError(f"genus {genus} is not supported here")
    if n < 1:
        raise DomainError("need at least one face")
    F = free_energy(genus, moment_hats(range(3 * genus - 2), solve_R_hat(n)), n)
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


def _degree_one_weights(b: int, d: int) -> list[tuple[int, int]]:
    """The points (p, d a(b, d, p)) of a face of half-degree d with a nonzero
    weight: p C(2d, d - p) for d >= p > b, each binomial from the one before
    by C(2d, d - p + 1) = C(2d, d - p) (d + p) / (d - p + 1), and d at
    p = d = b."""
    points, c = [(d, d)] if d == b else [], 1
    for p in range(d, b, -1):
        points.append((p, p * c))
        c = c * (d + p) // (d - p + 1)
    return points


def b_transform_coeff(b: int, p: int, ell: int) -> Fraction:
    """Inverse weight of the tree transform."""
    val = Fraction(0)
    if p == ell == b:
        val += 1
    if p >= ell > b:
        val += Fraction((-1) ** (p - ell) * comb(p + ell - 1, p - ell))
    return val


def planar_correction(genus: int, n: int, b: int, degrees) -> Fraction | int:
    """Correction to the polynomial count when all planar faces have degree
    2b, and the int 0 where it does not apply."""
    if genus == 0 and n >= 4 and all(d == b for d in degrees):
        return Fraction(factorial(n - 1) * (-1) ** n, 2)
    return 0


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
    reads the m-basis once.  The weights of a face take one product and one
    exact division per point, each of its moments d_i - b terms, and the
    walk costs about one evaluation; evaluating at every point of the grid
    cost prod_i (d_i - b + 1) of them.  A plain count builds one
    ``Fraction``; a count with degree-one vertices divides it once by
    prod(d_i), and only the planar all-degrees-equal case adds the
    correction.  Half-degrees summing past ``MAX_DEGREE_ONE_SUM`` raise
    SizeError before any work.
    """
    degrees = tuple(degrees)
    _check_admissible(genus, n, b, degrees, max(b, 1))
    if allow_degree_one:
        if sum(degrees) > MAX_DEGREE_ONE_SUM:
            raise SizeError(f"half-degrees summing to {sum(degrees)} exceed the "
                            f"degree-one guard of {MAX_DEGREE_ONE_SUM}")
        # d a(b, d, p) is an integer, so with the weights scaled by d the
        # moments stay integers; the sum is divided by prod(d) at the end
        count = nhat(genus, n).weighted_sum(b, [_degree_one_weights(b, d) for d in degrees])
        count /= prod(degrees)
    else:
        count = nhat(genus, n).weighted_sum(b, [((d, 1),) for d in degrees])
    # the planar correction lives at the single point p = (b, ..., b); its
    # transform weight prod_i a(b, d_i, b) is 1 when every d_i = b and 0
    # otherwise, which is exactly when the correction at the degrees applies
    correction = planar_correction(genus, n, b, degrees)
    if correction:
        count += correction
    return count


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
        (below, at), den = nhat(genus, n)._numerators((b - 1, b), [((d, 1),) for d in degrees])
        return Fraction(below - at, den)
    raise DomainError(f"unknown girth mode {mode!r}")
