"""Identity suites: the reference polynomial table, string/dilaton equations, the
Q polynomials against their binomial-sum definition, moment-route agreement,
transform inversion, the Harer-Zagier recursion, and the brute-force
cross-check.

All identities are checked as exact polynomial identities (the witness of a
failure is the nonzero difference polynomial); numeric sampling appears only
in the Q-polynomial suite, whose definition is a sum over integers (its grid
holds the interpolation nodes, so with the degree bounds it is a proof), and
in the oracle cross-check, which is a genuinely independent computation.
The string and dilaton equations are read off the m-basis of both counting
polynomials; only a nonzero difference is expanded into monomials.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain
from math import comb, factorial, prod

from .families import (Q_GENS, qpoly_alternating_sum, qpoly_direct_sum_oracle, qpoly_table,
                       series_J_inverse)
from .oracle import GluingSpec, SizeError, brute_count, check_sides
from .pipeline import (B_ONLY, CountPolynomial, DomainError, a_transform_coeff,
                       b_transform_coeff, count_exact, moment_hat_via_T, moment_hats_via_Q,
                       nhat, to_m_basis)
# unused here, but perfbench/layertrace.py patches verify.solve_R_hat and
# verify.moment_hat by name, so both stay bound in this module
from .pipeline import moment_hat, solve_R_hat  # noqa: F401
from .ring import MultiPoly, distinct_permutations, face_generators, power_sum_coeffs

# default (genus, faces) pairs for the equation suites
STRING_DILATON_PAIRS = ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1))


@dataclass
class Case:
    description: str
    passed: bool
    witness: str = ""
    skipped: bool = False  # not checked, ``witness`` says why; not a failure


@dataclass
class VerificationReport:
    suite: str
    cases: list[Case] = field(default_factory=list)

    def add(self, description: str, passed: bool, witness: str = "") -> None:
        self.cases.append(Case(description, passed, witness if not passed else ""))

    def skip(self, description: str, reason: str) -> None:
        self.cases.append(Case(description, True, reason, skipped=True))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cases)

    def render(self) -> str:
        skipped = sum(c.skipped for c in self.cases)
        head = f"suite {self.suite}: {'PASS' if self.passed else 'FAIL'}"
        lines = [head + (f" ({skipped} skipped)" if skipped else "")]
        for c in sorted(self.cases, key=lambda c: c.description):
            if c.skipped:
                lines.append(f"  [SKIP] {c.description}  [{c.witness}]")
                continue
            mark = "PASS" if c.passed else "FAIL"
            extra = f"  [witness: {c.witness}]" if c.witness else ""
            lines.append(f"  [{mark}] {c.description}{extra}")
        return "\n".join(lines)


# ============================================================
# String and dilaton equations
# ============================================================


def _terms(count: CountPolynomial) -> list:
    """The m-basis of ``count`` as terms (kappa, c), kappa = 2 lambda padded
    with zeros to the face count: the sum over the distinct rearrangements
    p of kappa of the monomials l^p, times c, a polynomial in b alone."""
    pad = (0,) * count.nfaces
    return [(tuple(2 * a for a in lam) + pad[len(lam):], c)
            for lam, c in count.mlambda.items()]


def _one_face_out(count: CountPolynomial) -> list:
    """(k, kappa without one k, c) for each term (kappa, c) of ``count`` and
    each distinct entry k of kappa: the terms with one face holding l^k."""
    return [(k, kappa[:i] + kappa[i + 1:], c) for kappa, c in _terms(count)
            for i, k in enumerate(kappa) if kappa.index(k) == i]


def _face_sum(e: int) -> list[MultiPoly]:
    """Coefficients, by power of l, of 2 sum_{k=b+1}^{l} k^(e+1) - l^(e+1),
    the string RHS of one face's l^e."""
    s = power_sum_coeffs(e + 1)
    coeffs = [MultiPoly.constant(B_ONLY, 2 * c) for c in s]
    coeffs[e + 1] = coeffs[e + 1] - 1
    coeffs[0] = coeffs[0] - MultiPoly(B_ONLY, {(k,): 2 * c for k, c in enumerate(s)})
    return coeffs


def _expand(n: int, *groups) -> MultiPoly:
    """The sum of the terms in ``groups`` over ``face_generators(n)``."""
    basis: dict[tuple[int, ...], MultiPoly] = {}
    for kappa, c in chain(*groups):
        basis[kappa] = basis[kappa] + c if kappa in basis else c
    gens = face_generators(n)
    out = MultiPoly(gens)
    for kappa, c in basis.items():
        if not c.is_zero():
            orbit = MultiPoly(gens, {(0,) + p: 1 for p in distinct_permutations(kappa)})
            out = out + c.with_context(gens) * orbit
    return out


def string_check(genus: int, n: int) -> tuple[MultiPoly, bool]:
    """LHS - RHS of the string equation over (b, l1..ln), and whether the
    RHS is even in the face generators: no face sum in use has an odd power
    of l.  LHS is the (n+1)-face polynomial at l_(n+1) = 1.  RHS takes each
    l_j^e in turn to :func:`_face_sum`: on the monomials of kappa the face
    holding e gives l^k times those of kappa - e on the other faces, which
    are the monomials of nu = kappa - e + k, each once per entry k of nu."""
    small, big = nhat(genus, n), nhat(genus, n + 1)
    faces = _one_face_out(small)
    sums = {e: _face_sum(e) for e in {e for e, _, _ in faces}}
    rhs = ((tuple(sorted(rest + (k,), reverse=True)), c * sigma * -(rest.count(k) + 1))
           for e, rest, c in faces for k, sigma in enumerate(sums[e]) if not sigma.is_zero())
    even = all(sigma.is_zero() for face in sums.values() for sigma in face[1::2])
    return _expand(n, [(rest, c) for _, rest, c in _one_face_out(big)], rhs), even


def dilaton_equation_delta(genus: int, n: int) -> MultiPoly:
    """LHS - RHS of the dilaton equation over (b, l1..ln): the (n+1)-face
    polynomial at l_(n+1) = 1 minus its value at 0, where only the terms
    with l_(n+1)^0 are left, is (n + 2g - 2) times the n-face polynomial."""
    small, big = nhat(genus, n), nhat(genus, n + 1)
    scale = -(n + 2 * genus - 2)
    return _expand(n, [(rest, c) for _, rest, c in _one_face_out(big)],
                   [(rest, -c) for k, rest, c in _one_face_out(big) if k == 0],
                   [(kappa, c * scale) for kappa, c in _terms(small)])


def _pairs(genus: int | None, n: int | None):
    if (genus is None) != (n is None):
        raise ValueError("genus and n go together: give both or neither")
    return STRING_DILATON_PAIRS if genus is None else [(genus, n)]


def verify_string(genus: int | None = None, n: int | None = None) -> VerificationReport:
    report = VerificationReport("string")
    for g, m in _pairs(genus, n):
        delta, even = string_check(g, m)
        report.add(f"string equation at genus {g}, {m} faces",
                   delta.is_zero(), str(delta))
        report.add(f"string RHS even in the face degrees at genus {g}, {m} faces",
                   even, "odd powers survive")
    return report


def verify_dilaton(genus: int | None = None, n: int | None = None) -> VerificationReport:
    report = VerificationReport("dilaton")
    for g, m in _pairs(genus, n):
        delta = dilaton_equation_delta(g, m)
        report.add(f"dilaton equation at genus {g}, {m} faces",
                   delta.is_zero(), str(delta))
    return report


# ============================================================
# The reference polynomial table
# ============================================================


def _bpoly(coeffs: dict[int, Fraction]) -> MultiPoly:
    return MultiPoly(("b",), {(e,): c for e, c in coeffs.items()})


F = Fraction

#: the nine reference rows, keyed by (genus, n); each maps a partition of
#: exponents of the squared half-degrees to its coefficient polynomial in b.
TABLE1_ROWS: dict[tuple[int, int], dict[tuple[int, ...], dict[int, Fraction]]] = {
    (0, 3): {(): {0: F(1)}},
    (0, 4): {(1,): {0: F(1)},
             (): {0: F(-1), 1: F(-3), 2: F(-3)}},
    (0, 5): {(2,): {0: F(1, 2)},
             (1, 1): {0: F(2)},
             (1,): {0: F(-5, 2), 1: F(-6), 2: F(-6)},
             (): {0: F(2), 1: F(10), 2: F(20), 3: F(20), 4: F(10)}},
    (0, 6): {(3,): {0: F(1, 6)},
             (2, 1): {0: F(3, 2)},
             (1, 1, 1): {0: F(6)},
             (2,): {0: F(-7, 3), 1: F(-5), 2: F(-5)},
             (1, 1): {0: F(-9), 1: F(-18), 2: F(-18)},
             (1,): {0: F(49, 6), 1: F(35), 2: F(65), 3: F(60), 4: F(30)},
             (): {0: F(-6), 1: F(-40), 2: F(-340, 3), 3: F(-365, 2),
                  4: F(-1085, 6), 5: F(-215, 2), 6: F(-215, 6)}},
    (1, 1): {(1,): {0: F(1, 12)},
             (): {0: F(-1, 12)}},
    (1, 2): {(2,): {0: F(1, 24)},
             (1, 1): {0: F(1, 12)},
             (1,): {0: F(-1, 8)},
             (): {0: F(1, 12), 1: F(1, 12), 2: F(1, 24), 3: F(-1, 12), 4: F(-1, 24)}},
    (1, 3): {(3,): {0: F(1, 72)},
             (2, 1): {0: F(1, 12)},
             (1, 1, 1): {0: F(1, 6)},
             (2,): {0: F(-1, 9), 1: F(-1, 24), 2: F(-1, 24)},
             (1, 1): {0: F(-1, 3)},
             (1,): {0: F(19, 72), 1: F(5, 24), 2: F(1, 8), 3: F(-1, 6), 4: F(-1, 12)},
             (): {0: F(-1, 6), 1: F(-1, 3), 2: F(-5, 18), 3: F(1, 6),
                  4: F(2, 9), 5: F(1, 6), 6: F(1, 18)}},
    (2, 1): {(4,): {0: F(1, 6912)},
             (3,): {0: F(-13, 5760)},
             (2,): {0: F(119, 11520)},
             (1,): {0: F(-143, 8640)},
             (): {0: F(1, 120)}},
    (2, 2): {(5,): {0: F(1, 34560)},
             (3, 2): {0: F(29, 17280)},
             (4, 1): {0: F(1, 2304)},
             (4,): {0: F(-1, 1280)},
             (2, 2): {0: F(-317, 17280)},
             (3, 1): {0: F(-73, 8640)},
             (3,): {0: F(17, 2304)},
             (2, 1): {0: F(61, 1280)},
             (2,): {0: F(-1009, 34560)},
             (1, 1): {0: F(-1543, 17280)},
             (1,): {0: F(137, 2880)},
             (): {0: F(-1, 40), 1: F(-1, 120), 2: F(1, 480), 3: F(143, 8640),
                  4: F(-31, 17280), 5: F(-119, 11520), 6: F(-7, 11520),
                  7: F(13, 5760), 8: F(1, 2880), 9: F(-1, 6912), 10: F(-1, 34560)}},
}


def verify_table1() -> VerificationReport:
    report = VerificationReport("table1")
    for (g, n), rows in sorted(TABLE1_ROWS.items()):
        expected = {lam: _bpoly(c) for lam, c in rows.items()}
        got = to_m_basis(nhat(g, n))
        ok = got == expected
        witness = ""
        if not ok:
            keys = sorted(set(got) | set(expected))
            diffs = [f"{k}: got {got.get(k, 0)} want {expected.get(k, 0)}"
                     for k in keys if got.get(k) != expected.get(k)]
            witness = "; ".join(diffs)
        report.add(f"reference polynomial at genus {g}, {n} faces", ok, witness)
    return report


# ============================================================
# Q polynomials, moments, transform inversion
# ============================================================


def verify_qpoly() -> VerificationReport:
    """Check each Q_p of the table against the binomial-sum definition.

    The sums fix Q_p on its interpolation nodes, b = 0..2p+1 and
    j = b+1..b+p+2, so with the degree bounds (2p+1, p+1) agreement there
    makes the entry the unique Q_p.  A disjoint grid of at least 30 more
    points, the alternating-sum identity at j = -m, the vanishing at
    j = -b and the four-term contiguous relation in b are checked too.  A
    failure on the grid or the alternating sum names its first point."""
    report = VerificationReport("qpoly")
    b = MultiPoly.variable(Q_GENS, "b")
    j = MultiPoly.variable(Q_GENS, "j")
    for p, q in enumerate(qpoly_table()):
        def at(b0, j0):
            return q.evaluate({"b": b0, "j": j0}).as_fraction()

        nodes = [(b0, j0) for b0 in range(2 * p + 2) for j0 in range(b0 + 1, b0 + p + 3)]
        grid = [(b0, j0) for b0 in range(max(2 * p + 3, 10))
                for j0 in range(b0 + p + 3, b0 + p + 6)]
        bad = next((pt for pt in nodes + grid if at(*pt) != qpoly_direct_sum_oracle(p, *pt)),
                   None)
        report.add(f"Q_{p} equals the binomial sum at its {len(nodes)} interpolation "
                   f"nodes and {len(grid)} more points", bad is None, f"(b, j) = {bad}")
        bad = next(((b0, m) for b0 in range(1, p + 4) for m in range(b0)
                    if qpoly_alternating_sum(p, b0, m)
                    != -(-1) ** (b0 + m) * comb(b0 + m, 2 * m) * at(b0, -m)), None)
        report.add(f"Q_{p} satisfies the alternating-sum identity for b = 1..{p + 3}",
                   bad is None, f"(b, m) = {bad}")
        report.add(f"Q_{p} vanishes at j = -b",
                   q.substitute("j", -b).is_zero(), "nonzero")
        report.add(f"Q_{p} degrees are ({2 * p + 1}, {p + 1})",
                   q.degree_in("b") == 2 * p + 1 and q.degree_in("j") == p + 1,
                   f"({q.degree_in('b')}, {q.degree_in('j')})")
        # (j+b+1) Q_p(b, j) - (j-b-1) Q_p(b+1, j) = (j+b+1) C(2b+1+p, 2p+1)
        binom = prod((b * 2 + 1 + p - i for i in range(2 * p + 1)),
                     start=MultiPoly.constant(Q_GENS, F(1, factorial(2 * p + 1))))
        delta = (j + b + 1) * (binom - q) + (j - b - 1) * q.substitute("b", b + 1)
        report.add(f"Q_{p} four-term contiguous relation", delta.is_zero(), str(delta))
    return report


def verify_moments(t_order: int = 5) -> VerificationReport:
    """Cross-check the two moment routes at n = 0, symbolic b: with no faces
    R = J^{-1}(b; t) is a plain series in t."""
    report = VerificationReport("tpoly")
    # one R at the order the T route needs for p = 3 serves every p
    R = series_J_inverse(t_order + 4)
    for p, a in enumerate(moment_hats_via_Q(range(4), R, t_order)):
        report.add(f"moment routes agree for p = {p} at t-order {t_order}",
                   a == moment_hat_via_T(p, R, t_order), "series differ")
        const = a[0]
        want = MultiPoly.constant(B_ONLY, 1 if p == 0 else 0)
        report.add(f"moment p = {p} has constant term {1 if p == 0 else 0}",
                   const == want, str(const))
    return report


#: largest b, half-degree and summation index of the transform inversion suite
AB_INVERSE_LIMIT = 12


def verify_ab_inverse() -> VerificationReport:
    report = VerificationReport("ab-inverse")
    limit = AB_INVERSE_LIMIT
    for b in range(0, limit + 1):
        ok = True
        witness = ""
        for ell in range(b, limit + 1):
            for k in range(b, limit + 1):
                total = sum(a_transform_coeff(b, ell, p) * b_transform_coeff(b, p, k)
                            for p in range(b, limit + 1))
                want = 1 if ell == k else 0
                if total != want:
                    ok = False
                    witness = f"b={b} ell={ell} k={k}: {total}"
                    break
            if not ok:
                break
        report.add(f"transform inversion for b = {b} up to {limit}", ok, witness)
    return report


# ============================================================
# Harer-Zagier numbers
# ============================================================


def harer_zagier_numbers(genus: int, n_max: int) -> list[int]:
    """epsilon_genus(n) for n = 0..n_max: the number of ways to glue the
    sides of a 2n-gon in pairs into a genus-g surface.

    epsilon_0 is the Catalan numbers and, for g >= 1,
    (n+1) eps_g(n) = 2(2n-1) eps_g(n-1) + (n-1)(2n-1)(2n-3) eps_(g-1)(n-2)
    with eps_g(0) = 0 (Harer-Zagier 1986).
    """
    eps = [comb(2 * n, n) // (n + 1) for n in range(n_max + 1)]
    for _ in range(genus):
        lower, eps = eps, [0] * (n_max + 1)
        for n in range(1, n_max + 1):
            total = 2 * (2 * n - 1) * eps[n - 1]
            if n >= 2:
                total += (n - 1) * (2 * n - 1) * (2 * n - 3) * lower[n - 2]
            eps[n] = total // (n + 1)
    return eps


def verify_harer_zagier() -> VerificationReport:
    """One-face counts with degree-one vertices at b = 0, genus 1 and 2, up
    to a 60-gon, against the Harer-Zagier recursion: every gluing of a
    2l-gon is counted, and its 2l rootings cancel the 1/|Aut| weight."""
    report = VerificationReport("harer-zagier")
    ell_max = 30
    for g in (1, 2):
        want = harer_zagier_numbers(g, ell_max)
        for ell in range(1, ell_max + 1):
            got = 2 * ell * count_exact(g, 1, 0, (ell,), allow_degree_one=True)
            report.add(f"genus {g} gluings of a {2 * ell}-gon", got == want[ell],
                       f"count {got} vs recursion {want[ell]}")
    return report


# ============================================================
# Oracle cross-check
# ============================================================


def _bounded_tuples(n: int, low: int, budget: int):
    """Weakly increasing n-tuples of integers >= ``low`` with sum at most
    ``budget``, in lexicographic order; an entry d leaves n - 1 entries of
    at least d, so d <= budget // n."""
    if n == 0:
        yield ()
        return
    for d in range(low, budget // n + 1):
        for rest in _bounded_tuples(n - 1, d, budget - d):
            yield (d,) + rest


def sweep_tuples(max_sides: int, b_max: int):
    """Every admissible (genus, n, b, half-degrees) with at most ``max_sides``
    polygon sides in all: genus 0..2, b = 0..b_max, weakly increasing
    half-degrees from max(b, 1) in lexicographic order, generated within
    the bound (a b above ``max_sides // 2`` admits none)."""
    half = max_sides // 2
    for genus in (0, 1, 2):
        nmin = 3 if genus == 0 else 1
        for n in range(nmin, half + 1):
            for b in range(0, min(b_max, half) + 1):
                for degs in _bounded_tuples(n, max(b, 1), half):
                    yield genus, n, b, degs


#: side bound of the oracle cross-check when none is given
DEFAULT_SWEEP_SIDES = 8

#: largest b of the oracle cross-check, and of ``irrmaps sweep`` by default
SWEEP_B_MAX = 3


def cross_verify_counts(max_sides: int = DEFAULT_SWEEP_SIDES) -> VerificationReport:
    """Compare brute-force and polynomial counts, with and without
    degree-one vertices, on every tuple of :func:`sweep_tuples`.

    This is the tuple set of ``irrmaps sweep``: half-degrees run up to
    ``max_sides // 2``, so from 12 sides on the single faces of genus 1
    and 2 with half-degree 6 and more are checked too.  A tuple whose
    polynomial the ``nhat`` face guard refuses is reported as skipped.  A
    ``max_sides`` below 2 (no tuple) raises DomainError, and one beyond the
    oracle's side guard SizeError, both before any work.
    """
    if max_sides < 2:
        raise DomainError(f"the oracle sweep needs at least 2 sides, got {max_sides}")
    check_sides(max_sides)
    report = VerificationReport("oracle")
    for g, n, b, degs in sweep_tuples(max_sides, SWEEP_B_MAX):
        for allow in (False, True):
            tag = "with" if allow else "without"
            description = f"genus {g} degrees {degs} b={b} {tag} degree-one vertices"
            try:
                want = count_exact(g, n, b, degs, allow_degree_one=allow)
            except SizeError as exc:
                report.skip(description, str(exc))
                continue
            got = brute_count(GluingSpec(g, degs, b, allow_degree_one=allow))
            report.add(description, want == got, f"formula {want} vs brute {got}")
    return report


SUITES = {
    "table1": verify_table1,
    "string": verify_string,
    "dilaton": verify_dilaton,
    "qpoly": verify_qpoly,
    "tpoly": verify_moments,
    "ab-inverse": verify_ab_inverse,
    "harer-zagier": verify_harer_zagier,
    "oracle": cross_verify_counts,
}
