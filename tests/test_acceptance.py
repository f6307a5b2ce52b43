"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
report.  Every check is exact (rational arithmetic); there are no
tolerances to tune.
"""

from fractions import Fraction

from irrmaps.families import qpoly_direct_sum_oracle, qpoly_table, series_J_inverse
from irrmaps.oracle import GluingSpec, brute_count
from irrmaps.pipeline import (B_ONLY, count_exact, girth_count, moment_hat_via_Q,
                              moment_hat_via_T, nhat, to_m_basis)
from irrmaps.ring import MultiPoly
from irrmaps.verify import (TABLE1_ROWS, _bpoly, dilaton_equation_delta,
                            string_equation_delta, verify_ab_inverse,
                            verify_qpoly)

F = Fraction


def report(criterion: str, ok: bool, detail: str = ""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{tag}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


def test_criterion_1_table_reproduction():
    for (g, n), rows in sorted(TABLE1_ROWS.items()):
        expected = {lam: _bpoly(c) for lam, c in rows.items()}
        got = to_m_basis(nhat(g, n))
        report(f"criterion 1: reference polynomial (genus {g}, {n} faces) reproduced",
               got == expected)


def test_criterion_2_special_values():
    p03 = nhat(0, 3)
    report("criterion 2: three-face planar polynomial is identically 1",
           p03.poly == MultiPoly.constant(p03.gens, 1))
    p11 = nhat(1, 1)
    l1 = MultiPoly.variable(p11.gens, "l1")
    report("criterion 2: one-face torus polynomial is (l^2 - 1)/12",
           p11.poly == (l1 * l1 - 1) * F(1, 12))


def test_criterion_3_string_and_dilaton():
    for g, n in ((0, 3), (0, 4), (0, 5), (1, 1), (1, 2), (2, 1)):
        s = string_equation_delta(g, n)
        report(f"criterion 3: string equation exact at genus {g}, {n} faces",
               s.is_zero(), str(s) if not s.is_zero() else "")
        d = dilaton_equation_delta(g, n)
        report(f"criterion 3: dilaton equation exact at genus {g}, {n} faces",
               d.is_zero(), str(d) if not d.is_zero() else "")


def _four_face_formula(b, degrees):
    value = sum(l * l for l in degrees) - (3 * b * b + 3 * b + 1)
    if all(l == b for l in degrees):
        value += 3
    return F(value)


def test_criterion_4_planar_oracle_agreement():
    expected = {0: 15, 1: 9, 2: 0}
    for b, want in expected.items():
        got = brute_count(GluingSpec(0, (2, 2, 2, 2), b))
        formula = count_exact(0, 4, b, (2, 2, 2, 2))
        closed = _four_face_formula(b, (2, 2, 2, 2))
        report(f"criterion 4: degrees (2,2,2,2) b={b}: brute {got} = formula",
               got == formula == closed == want)
    for b in (0, 1, 2):
        got = brute_count(GluingSpec(0, (3, 2, 2, 2), b))
        formula = count_exact(0, 4, b, (3, 2, 2, 2))
        closed = _four_face_formula(b, (3, 2, 2, 2))
        report(f"criterion 4: degrees (3,2,2,2) b={b}: brute {got} = closed formula",
               got == formula == closed)


def test_criterion_5_higher_genus_oracle_agreement():
    got = brute_count(GluingSpec(1, (2,), 1))
    report(f"criterion 5: torus one square face b=1: brute {got} = 1/4",
           got == F(1, 4) == count_exact(1, 1, 1, (2,)))
    for b in (0, 1, 2):
        got = brute_count(GluingSpec(1, (2, 2), b))
        formula = count_exact(1, 2, b, (2, 2))
        report(f"criterion 5: torus degrees (2,2) b={b}: brute {got} = formula {formula}",
               got == formula)
        if b == 1:
            report("criterion 5: torus degrees (2,2) b=1 equals 7/4", got == F(7, 4))
    got = brute_count(GluingSpec(2, (4,), 1))
    hz = brute_count(GluingSpec(2, (4,), 0, allow_degree_one=True))
    report(f"criterion 5: genus-2 octagon b=1: brute {got} = 21/8",
           got == F(21, 8) == count_exact(2, 1, 1, (4,)))
    report("criterion 5: genus-2 octagon count equals the one-face gluing number 21/8",
           hz == F(21, 8))


def test_criterion_6_vanishing_sanity():
    p21 = nhat(2, 1)
    for l in (1, 2, 3):
        report(f"criterion 6: genus-2 one-face polynomial vanishes at l={l}",
               p21.evaluate(0, (l,)) == 0)


def test_criterion_7_q_polynomials():
    table = qpoly_table(4)
    for p in range(5):
        checked = 0
        ok = True
        for b0 in range(0, 10):
            for j0 in range(b0 + p + 3, b0 + p + 6):
                ok = ok and (table[p].evaluate({"b": b0, "j": j0}).as_fraction()
                             == qpoly_direct_sum_oracle(p, b0, j0))
                checked += 1
        report(f"criterion 7: Q_{p} matches direct sums on {checked} disjoint points",
               ok and checked >= 30)
    suite = verify_qpoly(4)
    report("criterion 7: reference forms, vanishing, four-term relation, degrees",
           suite.passed, "" if suite.passed else suite.render())


def test_criterion_8_moment_crosscheck():
    # with no faces R = J^{-1}(b; t) is a plain series in t
    R = series_J_inverse(5, B_ONLY)
    for p in range(4):
        raised = series_J_inverse(5 + p + 1, B_ONLY)
        agree = moment_hat_via_Q(p, R, 5) == moment_hat_via_T(p, raised, 5)
        report(f"criterion 8: moment routes agree for p={p} at symbolic b, t-order 5",
               agree)


def test_criterion_9_transform_inversion():
    suite = verify_ab_inverse(12)
    report("criterion 9: transform inversion identity for 0 <= b <= k, l <= 12",
           suite.passed, "" if suite.passed else suite.render())


def test_criterion_10_girth_identity():
    want = girth_count(0, 4, 2, (3, 3, 3, 3))
    report(f"criterion 10: polynomial girth count at (3,3,3,3), b=2 is {want}",
           want == 29)
    spec = GluingSpec(0, (3, 3, 3, 3), 2, constraint="girth", guard_sides=24)
    got = brute_count(spec)
    report(f"criterion 10: oracle essential-girth count {got} matches the polynomial",
           got == want)
