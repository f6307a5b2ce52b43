"""Counting polynomials for essentially irreducible maps with even face degrees.

The pipeline solves a fixed-point equation for a fundamental series R in a
graded ring (one nilpotent marker per labeled face), builds moment series
out of it, assembles the genus-1 and genus-2 free energies, and extracts the
counting polynomial as the coefficient of e_1 ... e_n.  The paper's
equations carry a deformation variable t, the weight of the smallest
admissible face degree, and the polynomial is the t^0 part; setting t = 0
is a ring map that commutes with composition, the unit log and inverse and
the Q operator, so the solve and the moments run at t = 0 and the ring has
no t.  Only the moment-route check at no faces keeps t: there R is
J^{-1}(b; t), a plain series in t (``moment_hat_via_Q`` and
``moment_hat_via_T``).  Genus 0 has a closed integral formula; it forms the
product over the faces in the same ring.

R, the moments and the free energy are symmetric under permuting the faces,
so the ring keeps one coefficient per multiset of face exponents, a
polynomial in b alone (see ``ring.GradedSeries``): the series families
enter split by powers of l as b-only series, I(b, l; r) = sum_a l^a I_a(r),
and each face marker e_i comes as E_a = sum_i e_i l_i^a.  The explicit
monomials in l1..ln appear only when the final coefficient is expanded.
The graded keys of that coefficient already are the monomial symmetric
basis, so each ``CountPolynomial`` from ``nhat`` carries its m-basis.

Everything is symbolic in the irreducibility parameter b and the face
half-degrees l1..ln, with exact rational coefficients.  Numeric evaluations
(exact counts, girth counts) sit on top of the symbolic polynomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, factorial, prod

from .families import (ConsistencyError, power_one_plus_r, qpoly_table, series_I,
                       series_J, series_J_inverse)
from .oracle import SizeError
from .ring import (GradedSeries, MultiPoly, Series, distinct_permutations,
                   inverse_unit, log_unit)

SUPPORTED_GENERA = (0, 1, 2)

#: largest face count per genus that ``nhat`` computes: the largest that
#: takes at most 5 s with canonical JSON and m-basis, in a fresh process on
#: a 2-vCPU Xeon VM with Python 3.11.  (0, 11) takes 1.1 s and 187 MB,
#: (1, 10) 3.6-3.7 s and 486 MB, (2, 8) 1.8 s and 255 MB; one face more
#: takes 4.9-5.0 s and 698 MB at genus 0, which leaves no margin, 16 s
#: and 1.9 GB at genus 1 and 7.6 s and 929 MB at genus 2
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


#: context of the graded coefficients and of the b-only series families
B_ONLY = ("b",)


def face_generators(n: int) -> tuple[str, ...]:
    return B_ONLY + tuple(f"l{i}" for i in range(1, n + 1))


@dataclass(frozen=True)
class PipelineContext:
    """Index data for one symbolic run: genus, labeled faces, grading cap.

    ``gens`` is (b, l1..ln), the context of the expanded coefficients, and
    ``cap`` is the number of faces: no coefficient read marks more.
    """

    genus: int
    nfaces: int
    gens: tuple[str, ...]
    cap: int


def make_context(genus: int, nfaces: int) -> PipelineContext:
    if nfaces < 0:
        raise DomainError("number of faces must be nonnegative")
    return PipelineContext(genus, nfaces, face_generators(nfaces), nfaces)


# ============================================================
# The fundamental series R and the moment series
# ============================================================


def _face_parts(order: int) -> dict[int, Series]:
    """I(b, l; r) split by powers of l: a -> the b-only series I_a with
    I(b, l; r) = sum_a l^a I_a(b; r)."""
    zero = MultiPoly(B_ONLY)
    parts: dict[int, list] = {}
    for k, c in enumerate(series_I(order, ("b", "l")).coeffs):
        for a, ca in c.coefficients_in("l").items():
            parts.setdefault(a, [zero] * (order + 1))[k] = ca.with_context(B_ONLY)
    return {a: Series(cs, order, zero) for a, cs in sorted(parts.items())}


def solve_R_hat(ctx: PipelineContext) -> GradedSeries:
    """Solve J(b; R) = sum_i e_i I(b, l_i; R) for R in the graded ring: the
    t^0 part of the solution of J(b; R) = t + sum_i e_i I(b, l_i; R).

    In face-symmetric form the right-hand side is X = sum_a E_a I_a(R),
    with E_a = sum_i e_i l_i^a and I_a the l^a-part of I (see
    ``_face_parts``); multiplying by E_a appends a to every key, and the
    ring drops what e_i^2 = 0 kills.  Degree by degree, as
    R = J^{-1}(b; X): each E_a has degree 1, so degree k of X depends on R
    only through degree k - 1, and round k = 1..cap builds X at cap k from
    the round k - 1 result and settles exactly grading degree k of R.  Each
    round must reproduce the previous one below its top degree; a mismatch
    is an internal error.
    """
    cap = ctx.cap
    jinv = series_J_inverse(max(cap, 1), B_ONLY)
    parts = _face_parts(max(cap - 1, 0))
    R = GradedSeries(B_ONLY, 0)
    for k in range(1, cap + 1):
        X = GradedSeries(B_ONLY, k)
        for a, I_a in parts.items():
            I_R = I_a.truncate(k - 1).compose(R)
            X = X + GradedSeries(B_ONLY, k, {lam + (a,): c for lam, c in I_R.terms.items()})
        R_next = jinv.truncate(k).compose(X)
        if R_next.truncate(k - 1) != R:
            raise ConsistencyError(f"round {k} of the solve for R changed lower degrees")
        R = R_next
    return R


def _zhat_series(ctx: PipelineContext, order: int) -> Series:
    """The series J(b; r) - sum_a E_a I_a(b; r) in r, graded coefficients:
    Z = J(b; r) - t - sum_a E_a I_a(b; r) at t = 0."""
    cap = ctx.cap
    jser = series_J(max(order, 1), B_ONLY)
    parts = _face_parts(order)
    coeffs = []
    for k in range(order + 1):
        terms = {(a,): -I_a[k] for a, I_a in parts.items()}
        terms[()] = jser[k]
        coeffs.append(GradedSeries(B_ONLY, cap, terms))
    return Series(coeffs, order, GradedSeries(B_ONLY, cap))


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


def moment_hat(ctx: PipelineContext, p: int, rhat: GradedSeries) -> GradedSeries:
    """Moment series: Q_p(b, (1+r) d/dr) (1+r)^(-b) Z(r), evaluated at r = R.

    ``rhat`` is R from :func:`solve_R_hat` and Z is taken at t = 0, so the
    result is the t^0 part of the moment, exact to the context cap.
    """
    return _q_moment(p, _zhat_series(ctx, ctx.cap + p + 1)).compose(rhat)


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


class _Moments(dict):
    """Exponent e -> sum of w p^e over the weighted points (p, w), each
    entry computed on first lookup."""

    __slots__ = ("points",)

    def __init__(self, points):
        super().__init__()
        self.points = points

    def __missing__(self, e):
        value = self[e] = sum(w * p ** e for p, w in self.points)
        return value


@dataclass(frozen=True)
class CountPolynomial:
    """A finished counting polynomial with its index data.

    ``mlambda`` is the polynomial in the monomial symmetric basis, as
    :func:`to_m_basis` returns it, when the producer read it off the graded
    keys (``nhat`` does); None for a polynomial parsed from JSON or built
    by hand.  It takes no part in equality or hashing.
    """

    genus: int
    nfaces: int
    gens: tuple[str, ...]
    poly: MultiPoly
    mlambda: dict[tuple[int, ...], MultiPoly] | None = field(
        default=None, compare=False, repr=False)

    def evaluate(self, b, degrees) -> Fraction:
        return self.weighted_sum(b, [((d, 1),) for d in degrees])

    def weighted_sum(self, b, faces) -> Fraction:
        """Sum of w_1 ... w_n N(b; p_1, ..., p_n) over one weighted point
        (p_i, w_i) from each ``faces[i]``, in one pass over the terms.

        The sum factorizes face by face: a term c b^k prod_i l_i^(e_i)
        contributes c b^k prod_i m_i[e_i] with the moment
        m_i[e] = sum over (p, w) in faces[i] of w p^e.  Each moment (and
        each power of b) is built once, the first time a term needs it.
        Plain evaluation is the case of one point of weight 1 per face.
        """
        if len(faces) != self.nfaces:
            raise DomainError(f"expected {self.nfaces} degrees, got {len(faces)}")
        points = {"b": ((b, 1),)}
        points.update((f"l{i}", face) for i, face in enumerate(faces, start=1))
        tables = [_Moments(points[g]) for g in self.gens]
        total = 0
        for exps, c in self.poly.num.items():
            total += c * prod(t[e] for t, e in zip(tables, exps))
        return Fraction(total, self.poly.den)

    def m_basis(self) -> dict[tuple[int, ...], MultiPoly]:
        return to_m_basis(self)


def nhat_genus0(n: int) -> CountPolynomial:
    """Planar counting polynomial from the closed integral formula.

    (n-2)! [z^(n-2)] of the antiderivative of prod_i I(b, l_i; r) (1+r)^(-2b-1)
    composed with J^{-1}(b; z).  The product over the faces is the
    e_1...e_n coefficient of (sum_a E_a I_a(b; r))^n / n!, formed in the
    graded ring with b-only coefficients.
    """
    if n < 3:
        raise DomainError("the planar family needs at least 3 faces")
    order = n - 3
    parts = _face_parts(order)
    marked = Series([GradedSeries(B_ONLY, n, {(a,): I_a[k] for a, I_a in parts.items()})
                     for k in range(order + 1)], order, GradedSeries(B_ONLY, n))
    integrand = marked ** n * power_one_plus_r(-1, -2, order, B_ONLY) \
        * Fraction(1, factorial(n))
    anti = integrand.antiderivative()
    # only [z^(n-2)] of anti(J^{-1}(z)) is needed; J^{-1} has coefficients in
    # b alone, so its powers are cheap and each anti[k] is used once
    jinv = series_J_inverse(n - 2, B_ONLY)
    power = jinv
    total = anti[1] * jinv[n - 2]
    for k in range(2, n - 1):
        power = power * jinv
        total = total + anti[k] * power[n - 2]
    poly = total.coefficient(range(1, n + 1)) * factorial(n - 2)
    return CountPolynomial(0, n, face_generators(n), poly,
                           _graded_m_basis(total, factorial(n - 2)))


def nhat_higher_genus(genus: int, n: int) -> CountPolynomial:
    """Counting polynomial for genus 1 or 2 from the graded-ring pipeline."""
    if genus not in (1, 2):
        raise UnsupportedGenusError(f"genus {genus} is not supported here")
    if n < 1:
        raise DomainError("need at least one face")
    ctx = make_context(genus, n)
    R = solve_R_hat(ctx)
    moments = [moment_hat(ctx, p, R) for p in range(3 * genus - 2)]
    F = free_energy(genus, moments, ctx.cap)
    return CountPolynomial(genus, n, ctx.gens, F.coefficient(range(1, n + 1)),
                           _graded_m_basis(F))


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


def m_lambda_poly(partition, n: int, gens) -> MultiPoly:
    """The monomial symmetric polynomial m_lambda in the squared generators.

    m_(a1..ap)(l1..ln) = sum over distinct rearrangements beta of the padded
    partition of prod_i l_i^(2 beta_i).
    """
    partition = tuple(partition)
    if len(partition) > n:
        raise DomainError(f"partition {partition} has more parts than faces")
    padded = partition + (0,) * (n - len(partition))
    gens = tuple(gens)
    offset = gens.index("l1")
    terms = {}
    for beta in distinct_permutations(padded):
        exps = [0] * len(gens)
        for i, e in enumerate(beta):
            exps[offset + i] = 2 * e
        terms[tuple(exps)] = Fraction(1)
    return MultiPoly(gens, terms)


def _graded_m_basis(series: GradedSeries, scale: int = 1) -> dict[tuple[int, ...], MultiPoly]:
    """The m-basis of ``scale`` times the e_1...e_n coefficient of
    ``series``, n its cap, read off its keys.

    A key lam with len(lam) = n puts c_lam prod(mult!) on every
    rearrangement of lam over the n faces (see ``GradedSeries.coefficient``),
    so it is c_lam prod(mult!) m_lambda, lambda the sorted nonzero halves of
    lam.  Distinct keys give distinct partitions.  An odd entry of lam
    raises InvariantViolation.
    """
    n = series.cap
    out = {}
    for lam, c in series.terms.items():
        if len(lam) != n:
            continue
        if any(e % 2 for e in lam):
            raise InvariantViolation(f"odd power of a face generator in key {lam}")
        part = tuple(sorted((e // 2 for e in lam if e), reverse=True))
        out[part] = c * (scale * prod(factorial(lam.count(e)) for e in set(lam)))
    return out


def to_m_basis(count: CountPolynomial) -> dict[tuple[int, ...], MultiPoly]:
    """Decompose into the monomial symmetric basis of squared half-degrees.

    Returns a map from partitions (tuples, weakly decreasing, no zeros) to
    coefficient polynomials in b alone: a copy of ``count.mlambda`` when the
    polynomial carries its basis, else regrouped from the expanded
    monomials.  Regrouping raises InvariantViolation if the polynomial is
    not even and symmetric in the face generators.
    """
    if count.mlambda is not None:
        return dict(count.mlambda)
    n, gens, poly = count.nfaces, count.gens, count.poly
    offset = gens.index("l1") if n else len(gens)
    groups: dict[tuple[int, ...], dict[tuple[int, ...], MultiPoly]] = {}
    for exps in poly.num:
        lpart = exps[offset:offset + n]
        if any(e % 2 for e in lpart):
            raise InvariantViolation(f"odd power of a face generator in {count.genus=} {n=}")
    by_l = {}
    for exps, c in poly.num.items():
        lpart = exps[offset:offset + n]
        bexps = exps[:offset]
        by_l.setdefault(lpart, {})[bexps] = c
    bgens = gens[:offset]
    for lpart, bnum in by_l.items():
        halves = tuple(sorted((e // 2 for e in lpart), reverse=True))
        lam = tuple(e for e in halves if e)
        beta = tuple(e // 2 for e in lpart)
        groups.setdefault(lam, {})[beta] = MultiPoly.from_numerators(bgens, bnum, poly.den)
    out: dict[tuple[int, ...], MultiPoly] = {}
    for lam, betas in groups.items():
        # every beta rearranges lam padded with zeros: the orbit is complete
        # when there are as many as the multinomial n! / prod(mult!)
        padded = lam + (0,) * (n - len(lam))
        orbit = factorial(n) // prod(factorial(padded.count(e)) for e in set(padded))
        if len(betas) != orbit:
            raise InvariantViolation(f"partition {lam}: orbit incomplete, not symmetric")
        ref = next(iter(betas.values()))
        if any(v != ref for v in betas.values()):
            raise InvariantViolation(f"partition {lam}: coefficients differ across the orbit")
        out[lam] = ref.with_context(("b",))
    return out


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
    walks the polynomial once.  The cost is about (terms of N-hat) x n
    multiplications plus sum_i d_i table entries per moment, where
    evaluating at every point of the grid cost prod_i (d_i - b + 1) full
    evaluations.  Half-degrees summing past ``MAX_DEGREE_ONE_SUM`` raise
    SizeError before any work.
    """
    degrees = tuple(degrees)
    _check_admissible(genus, n, b, degrees, max(b, 1))
    if allow_degree_one:
        if sum(degrees) > MAX_DEGREE_ONE_SUM:
            raise SizeError(f"half-degrees summing to {sum(degrees)} exceed the "
                            f"degree-one guard of {MAX_DEGREE_ONE_SUM}")
        faces = [[(p, w) for p in range(b, d + 1) if (w := a_transform_coeff(b, d, p))]
                 for d in degrees]
    else:
        faces = [((d, 1),) for d in degrees]
    # the planar correction lives at the single point p = (b, ..., b); its
    # transform weight prod_i a(b, d_i, b) is 1 when every d_i = b and 0
    # otherwise, which is exactly when the correction at the degrees applies
    return nhat(genus, n).weighted_sum(b, faces) + planar_correction(genus, n, b, degrees)


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
