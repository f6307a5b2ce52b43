import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import irrmaps.cli as cli
import irrmaps.pipeline as pipeline
import irrmaps.verify as verify
from irrmaps.cli import main
from irrmaps.oracle import DEFAULT_GUARD_SIDES
from irrmaps.ring import MultiPoly
from irrmaps.verify import sweep_tuples


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_nhat_mlambda(capsys):
    code, out, _ = run(capsys, "nhat", "--genus", "1", "--faces", "1")
    assert code == 0
    assert out.strip() == "1/12 m_(1) - 1/12"


def test_nhat_json(capsys):
    code, out, _ = run(capsys, "nhat", "--genus", "0", "--faces", "3",
                       "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["monomials"] == [{"exps": [0, 0, 0, 0], "num": "1", "den": "1"}]


def test_nhat_monomials(capsys):
    code, out, _ = run(capsys, "nhat", "--genus", "1", "--faces", "1",
                       "--format", "monomials")
    assert code == 0
    assert out == "-1/12 + 1/12*l1^2\n"


def test_nhat_beyond_the_face_guard_exits_2(capsys):
    code, out, err = run(capsys, "nhat", "--genus", "0", "--faces", "50")
    assert code == 2
    assert out == "" and "exceed" in err


def test_count_both_matches(capsys):
    code, out, _ = run(capsys, "count", "--genus", "2", "--b", "1",
                       "--degrees", "4", "--method", "both")
    assert code == 0
    assert "formula: 21/8" in out and "brute: 21/8" in out and "match" in out


def test_count_csv(capsys):
    code, out, _ = run(capsys, "count", "--genus", "0", "--b", "1",
                       "--degrees", "2,2,2,2", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "genus,n,b,degrees,value_num,value_den,method"
    assert lines[1] == "0,4,1,2 2 2 2,9,1,formula"


def test_verify_table1_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "table1")
    assert code == 0
    assert "suite table1: PASS" in out


def test_verify_harer_zagier_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "harer-zagier")
    assert code == 0
    assert "suite harer-zagier: PASS" in out


def test_verify_oracle_skips_guarded_tuples_and_exits_zero(capsys, monkeypatch):
    # a sweep tuple the nhat face guard refuses no longer aborts the suite
    monkeypatch.setitem(pipeline.MAX_FACES, 2, 2)
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-2e", "6")
    assert code == 0
    assert out.startswith("suite oracle: PASS (4 skipped)")
    assert out.count("[SKIP]") == 4


def test_verify_oracle_at_ten_sides_checks_every_tuple(capsys):
    # the face guard admits genus 2 with five faces, so nothing is skipped
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-2e", "10")
    assert code == 0
    assert out.startswith("suite oracle: PASS\n")
    assert "[SKIP]" not in out
    assert out.count("[PASS]") == 2 * len(list(sweep_tuples(10, 3))) == 208


def test_verify_oracle_at_twelve_sides_passes(capsys):
    # the first sides at which genus-1 maps with a contractible 2-cycle
    # around far faces occur: (1, 2, 3) at b = 1
    code, out, _ = run(capsys, "verify", "--suite", "oracle", "--max-2e", "12")
    assert code == 0
    assert out.startswith("suite oracle: PASS\n")
    assert "[FAIL]" not in out and "[SKIP]" not in out
    assert out.count("[PASS]") == 2 * len(list(sweep_tuples(12, 3))) == 350
    assert "[PASS] genus 1 degrees (1, 2, 3) b=1 without degree-one vertices" in out


def refuse(*args, **kwargs):
    raise AssertionError("work started past the side guard")


def test_verify_oracle_beyond_the_side_guard_exits_2_before_any_work(capsys, monkeypatch):
    monkeypatch.setattr(verify, "count_exact", refuse)
    monkeypatch.setattr(verify, "brute_count", refuse)
    sides = DEFAULT_GUARD_SIDES + 2
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-2e", str(sides))
    assert code == 2
    assert out == ""
    assert err == f"error: {sides} sides exceed the guard of {DEFAULT_GUARD_SIDES}\n"


@pytest.mark.parametrize("method", ["brute", "both"])
def test_sweep_with_the_oracle_beyond_the_side_guard_exits_2_before_any_work(
        capsys, monkeypatch, method):
    monkeypatch.setattr(cli, "count_exact", refuse)
    monkeypatch.setattr(cli, "brute_count", refuse)
    sides = DEFAULT_GUARD_SIDES + 2
    code, out, err = run(capsys, "sweep", "--max-2e", str(sides), "--method", method)
    assert code == 2
    assert out == ""
    assert err == f"error: {sides} sides exceed the guard of {DEFAULT_GUARD_SIDES}\n"


def test_sweep_by_formula_is_not_bound_by_the_side_guard(capsys, monkeypatch):
    monkeypatch.setattr(cli, "count_exact", lambda *args, **kwargs: 0)
    monkeypatch.setattr(cli, "brute_count", refuse)
    sides = DEFAULT_GUARD_SIDES + 2
    code, out, _ = run(capsys, "sweep", "--max-2e", str(sides), "--method", "formula")
    assert code == 0
    assert len(out.strip().split("\n")) == 1 + len(list(sweep_tuples(sides, 3)))


@pytest.mark.parametrize("with_deg_one", [(), ("--with-deg-one",)])
def test_sweep_by_formula_beyond_its_guard_exits_2_before_any_work(
        capsys, monkeypatch, with_deg_one):
    monkeypatch.setattr(cli, "count_exact", refuse)
    sides = cli.MAX_FORMULA_SIDES + 1
    code, out, err = run(capsys, "sweep", "--max-2e", str(sides), "--method", "formula",
                         *with_deg_one)
    assert code == 2
    assert out == ""
    assert err == f"error: {sides} sides exceed the formula sweep guard of " \
        f"{cli.MAX_FORMULA_SIDES}\n"


@pytest.mark.parametrize("flag,value", [("--max-2e", "-4"), ("--b-max", "-1")])
def test_sweep_with_a_negative_bound_exits_2(capsys, monkeypatch, flag, value):
    # a negative bound used to print the CSV header alone and exit 0
    monkeypatch.setattr(cli, "count_exact", refuse)
    code, out, err = run(capsys, "sweep", flag, value)
    assert code == 2
    assert out == ""
    assert err == "error: --max-2e and --b-max must be nonnegative\n"


def test_verify_oracle_with_a_negative_bound_exits_2(capsys, monkeypatch):
    # it used to check no tuple and print "suite oracle: PASS"
    monkeypatch.setattr(verify, "count_exact", refuse)
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-2e", "-2")
    assert code == 2
    assert out == ""
    assert err == "error: the oracle sweep needs at least 2 sides, got -2\n"


@pytest.mark.parametrize("sides", [0, 1])
def test_verify_oracle_with_fewer_than_two_sides_exits_2(capsys, monkeypatch, sides):
    # no tuple has fewer than 2 sides: it used to print "suite oracle: PASS"
    monkeypatch.setattr(verify, "count_exact", refuse)
    monkeypatch.setattr(verify, "brute_count", refuse)
    code, out, err = run(capsys, "verify", "--suite", "oracle", "--max-2e", str(sides))
    assert code == 2
    assert out == ""
    assert err == f"error: the oracle sweep needs at least 2 sides, got {sides}\n"


def test_count_takes_max_sides_for_brute_force_only(capsys, monkeypatch):
    # --method formula used to drop --max-sides without a word
    monkeypatch.setattr(cli, "count_exact", refuse)
    code, out, err = run(capsys, "count", "--genus", "0", "--degrees", "2,2,2",
                         "--max-sides", "24")
    assert code == 2
    assert out == ""
    assert err == "error: --max-sides bounds the brute-force search; " \
        "--method formula takes none\n"
    guards = []
    monkeypatch.setattr(cli, "brute_count", lambda spec: guards.append(spec.guard_sides) or 1)
    for extra in (("--max-sides", "24"), ()):
        code, _, _ = run(capsys, "count", "--genus", "0", "--degrees", "2,2,2",
                         "--method", "brute", *extra)
        assert code == 0
    assert guards == [24, DEFAULT_GUARD_SIDES]


def test_count_reports_an_oracle_refusal(capsys):
    # GluingSpec.validate refuses two planar faces with an OracleError
    code, out, err = run(capsys, "count", "--genus", "0", "--degrees", "1,1",
                         "--method", "brute")
    assert code == 2
    assert out == ""
    assert err == "error: planar counts need at least 3 faces\n"


def test_large_formula_sweep_exits_2_within_a_second():
    # the sweep used to build every multiset of half-degrees first: at 80
    # sides it printed nothing for as long as it was left running
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "irrmaps.cli", "sweep", "--max-2e", "80",
                           "--method", "formula"], capture_output=True, text=True, env=env)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "exceed the formula sweep guard" in proc.stderr


def test_count_with_degree_one_beyond_the_guard_fails_fast(capsys, monkeypatch):
    # three faces of half-degree 2600 would take seconds and give an answer
    # too long to print; the guard refuses them before any polynomial work
    def refuse(*args):
        raise AssertionError("nhat reached past the guard")

    monkeypatch.setattr(pipeline, "nhat", refuse)
    code, out, err = run(capsys, "count", "--genus", "0", "--degrees",
                         "2600,2600,2600", "--with-deg-one")
    assert code == 2
    assert out == ""
    assert err == ("error: half-degrees summing to 7800 exceed the degree-one "
                   f"guard of {pipeline.MAX_DEGREE_ONE_SUM}\n")
    # without degree-one vertices the count is one evaluation: no guard
    monkeypatch.undo()
    code, out, _ = run(capsys, "count", "--genus", "0", "--degrees", "2600,2600,2600")
    assert code == 0 and out == "formula: 1\n"


def test_count_with_degree_one_at_the_guard_answers(capsys):
    # one face of half-degree MAX_DEGREE_ONE_SUM: the answer prints whole
    code, out, err = run(capsys, "count", "--genus", "2", "--degrees",
                         str(pipeline.MAX_DEGREE_ONE_SUM), "--with-deg-one")
    assert code == 0 and err == ""
    assert out.startswith("formula: ") and 2300 < len(out) < 4300


def test_count_with_degree_one_walks_the_polynomial_once(capsys, monkeypatch):
    # five faces of half-degree 30 span a grid of 31^5 points; evaluating the
    # polynomial at each of them would never finish, so every walk over its
    # terms counts against a budget that raises instead
    pipeline.nhat(0, 5)
    walks = []

    def budget(real):
        def counted(*args, **kwargs):
            walks.append(real.__name__)
            if len(walks) > 3:
                raise AssertionError(f"polynomial walked {len(walks)} times")
            return real(*args, **kwargs)
        return counted

    for owner, name in ((pipeline.CountPolynomial, "evaluate"),
                        (pipeline.CountPolynomial, "weighted_sum"),
                        (MultiPoly, "evaluate")):
        monkeypatch.setattr(owner, name, budget(getattr(owner, name)))
    code, out, _ = run(capsys, "count", "--genus", "0", "--degrees",
                       "30,30,30,30,30", "--with-deg-one")
    assert code == 0 and out.startswith("formula: ")
    assert walks == ["weighted_sum"]


def test_verify_string_single_pair(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "string",
                       "--genus", "0", "--faces", "3")
    assert code == 0


def never_run(*args, **kwargs):
    raise AssertionError("a suite ran despite a usage error")


@pytest.mark.parametrize("suite", ["string", "dilaton"])
@pytest.mark.parametrize("flag,value", [("--genus", "2"), ("--faces", "3")])
def test_verify_equation_suite_needs_both_genus_and_faces(capsys, monkeypatch,
                                                          suite, flag, value):
    # one of the two used to run the six default pairs and exit 0
    monkeypatch.setattr(cli, "verify_string", never_run)
    monkeypatch.setattr(cli, "verify_dilaton", never_run)
    code, out, err = run(capsys, "verify", "--suite", suite, flag, value)
    assert code == 2
    assert out == ""
    assert err == "error: --genus and --faces go together: give both or neither\n"


@pytest.mark.parametrize("suite", ["table1", "tpoly", "oracle", "qpoly"])
@pytest.mark.parametrize("flags", [("--genus", "1"), ("--faces", "2"),
                                   ("--genus", "1", "--faces", "2")])
def test_verify_suite_without_genus_or_faces_refuses_them(capsys, monkeypatch,
                                                          suite, flags):
    monkeypatch.setitem(cli.SUITES, suite, never_run)
    monkeypatch.setattr(cli, "cross_verify_counts", never_run)
    code, out, err = run(capsys, "verify", "--suite", suite, *flags)
    assert code == 2
    assert out == ""
    assert err == (f"error: suite {suite} takes no --genus or --faces; "
                   "only string and dilaton do\n")


@pytest.mark.parametrize("suite", ["table1", "string", "dilaton", "tpoly", "qpoly"])
def test_verify_max_2e_goes_only_to_the_oracle_suite(capsys, monkeypatch, suite):
    # --max-2e used to be dropped silently: table1 ran and exited 0
    for name in cli.SUITES:
        monkeypatch.setitem(cli.SUITES, name, never_run)
    monkeypatch.setattr(cli, "verify_string", never_run)
    monkeypatch.setattr(cli, "verify_dilaton", never_run)
    code, out, err = run(capsys, "verify", "--suite", suite, "--max-2e", "12")
    assert code == 2
    assert out == ""
    assert err == f"error: suite {suite} takes no --max-2e; only oracle does\n"


def test_verify_oracle_sweeps_eight_sides_by_default(capsys, monkeypatch):
    seen = []

    def record(max_sides):
        seen.append(max_sides)
        return verify.VerificationReport("oracle")

    monkeypatch.setattr(cli, "cross_verify_counts", record)
    code, _, _ = run(capsys, "verify", "--suite", "oracle")
    assert (code, seen) == (0, [8])


def test_series_command(capsys):
    code, out, _ = run(capsys, "series", "--name", "Jinv", "--order", "2")
    assert code == 0
    assert "[z^1] 1" in out
    code, out, _ = run(capsys, "series", "--name", "I", "--order", "1",
                       "--b", "0", "--ell", "1")
    assert code == 0
    assert "[r^1] 1" in out


@pytest.mark.parametrize("name", ["J", "Jinv"])
def test_series_ell_on_j_exits_2(capsys, name):
    # --ell used to be dropped silently: J and Jinv have no l
    code, out, err = run(capsys, "series", "--name", name, "--order", "3", "--ell", "2")
    assert code == 2
    assert out == ""
    assert err == "error: --ell applies to I only\n"


def test_sweep_b_max_defaults_to_the_oracle_suite_bound(capsys):
    code, out, _ = run(capsys, "sweep", "--max-2e", "8")
    assert code == 0
    assert max(int(line.split(",")[2]) for line in out.splitlines()[1:]) == verify.SWEEP_B_MAX
    assert cli.build_parser().parse_args(["sweep"]).b_max == verify.SWEEP_B_MAX


def test_series_order_beyond_the_guard_exits_2(capsys):
    for name, order in (("Jinv", "16"), ("I", "61"), ("J", "-1")):
        code, out, err = run(capsys, "series", "--name", name, "--order", order)
        assert code == 2
        assert out == "" and "error:" in err
    code, out, _ = run(capsys, "series", "--name", "J", "--order", "0")
    assert code == 0 and out == "[r^0] 0\n"


@pytest.mark.parametrize("name,var,order", [("J", "r", 0), ("Jinv", "z", 0),
                                            ("I", "r", 0), ("Jinv", "z", 3)])
def test_series_prints_no_coefficient_beyond_the_order(capsys, name, var, order):
    # J and Jinv are built at order at least 1, but [r^1] / [z^1] lies beyond
    # a requested order of 0
    code, out, _ = run(capsys, "series", "--name", name, "--order", str(order))
    assert code == 0
    assert [line.split("]")[0] for line in out.splitlines()] == \
        [f"[{var}^{k}" for k in range(order + 1)]


def test_domain_error_exits_two(capsys):
    code, _, err = run(capsys, "count", "--genus", "0", "--b", "0",
                       "--degrees", "2,2")
    assert code == 2
    assert "error:" in err


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["nhat", "--genus", "1"])  # missing --faces
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_sweep_csv(capsys):
    code, out, _ = run(capsys, "sweep", "--max-2e", "6", "--method", "both")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "genus,n,b,degrees,value_num,value_den,method"
    assert len(lines) > 10
    assert any(line.startswith("1,1,1,2,1,4,") for line in lines)


def test_sweep_skips_tuples_beyond_the_face_guard(capsys, monkeypatch):
    # at 10 sides the sweep reaches genus 2 with five faces, which a genus-2
    # face guard of 4 refuses: one stderr line each, every other tuple a CSV row
    monkeypatch.setitem(pipeline.MAX_FACES, 2, 4)
    code, out, err = run(capsys, "sweep", "--max-2e", "10", "--method", "formula")
    assert code == 0
    guard = "5 faces exceed the genus-2 guard of 4"
    assert err.splitlines() == [f"skip: 2 5 {b} 1 1 1 1 1: {guard}" for b in (0, 1)]
    lines = out.strip().split("\n")
    assert lines[0] == "genus,n,b,degrees,value_num,value_den,method"
    rows = [tuple(line.split(",")[:4]) + (line.split(",")[-1],) for line in lines[1:]]
    want = [(str(g), str(n), str(b), " ".join(map(str, degs)), "formula")
            for g, n, b, degs in sweep_tuples(10, 3) if not (g == 2 and n == 5)]
    assert rows == want
