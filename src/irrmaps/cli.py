"""Command-line interface.

Subcommands:
  nhat    print a counting polynomial (symmetric basis, monomials, or JSON)
  count   evaluate an exact count, by formula, brute force, or both
  verify  run an identity suite; exit 1 on any failing case
  series  print coefficients of the building-block series

Exit codes: 0 success / all checks pass, 1 verification or comparison
failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from .families import series_I, series_J, series_J_inverse
from .oracle import DEFAULT_GUARD_SIDES, GluingSpec, SizeError, brute_count, check_sides
from .pipeline import DomainError, count_exact, nhat, to_m_basis
from .ring import join_terms
from .serialize import count_csv_rows, emit_polynomial_json, format_monomials
from .verify import (DEFAULT_SWEEP_SIDES, SUITES, SWEEP_B_MAX, cross_verify_counts,
                     sweep_tuples, verify_dilaton, verify_string)

#: largest ``series --order`` per series: in a fresh process on a 2-vCPU
#: Xeon VM with Python 3.11 each takes at most 0.5 s (Jinv 15: 0.11-0.12 s,
#: I 60: 0.44-0.46 s, J 60: 0.09 s), and Jinv 20 takes 0.17-0.18 s
MAX_SERIES_ORDER = {"I": 60, "J": 60, "Jinv": 15}

#: largest ``sweep --max-2e`` by formula alone: 20 keeps the sweep past the
#: oracle's side guard of 18, where the formula is the only route.  A fresh
#: process on the VM above takes 4.0-4.8 s at 20 sides, 4.2-4.5 s with
#: ``--with-deg-one``, inside the 5 s budget of ``pipeline.MAX_FACES``;
#: most of it computes the polynomials.  22 sides take 4.5 s too, because
#: the face guard skips the polynomials they would add
MAX_FORMULA_SIDES = 20


def _format_bpoly(poly) -> str:
    if poly.is_constant():
        return str(poly.constant_term())
    return f"({poly})"


def format_mlambda(count) -> str:
    basis = to_m_basis(count)
    parts = []
    for lam, coeff in sorted(basis.items(), key=lambda kv: (-sum(kv[0]), kv[0])):
        if lam:
            name = "m_(" + ",".join(str(e) for e in lam) + ")"
            if coeff.is_constant() and coeff.constant_term() == 1:
                parts.append(name)
            else:
                parts.append(f"{_format_bpoly(coeff)} {name}")
        else:
            parts.append(_format_bpoly(coeff))
    return join_terms(parts)


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DomainError(f"cannot parse degree list {text!r}") from None


def cmd_nhat(args) -> int:
    count = nhat(args.genus, args.faces)
    if args.format == "mlambda":
        print(format_mlambda(count))
    elif args.format == "monomials":
        print(format_monomials(count))
    else:
        print(emit_polynomial_json(count))
    return 0


def cmd_sweep(args) -> int:
    if args.max_2e < 0 or args.b_max < 0:
        raise DomainError("--max-2e and --b-max must be nonnegative")
    if args.method in ("brute", "both"):
        check_sides(args.max_2e)
    elif args.max_2e > MAX_FORMULA_SIDES:
        raise SizeError(f"{args.max_2e} sides exceed the formula sweep guard of "
                        f"{MAX_FORMULA_SIDES}")
    rows = []
    mismatched = False
    for genus, n, b, degs in sweep_tuples(args.max_2e, args.b_max):
        values = {}
        if args.method in ("formula", "both"):
            try:
                values["formula"] = count_exact(genus, n, b, degs,
                                                allow_degree_one=args.with_deg_one)
            except SizeError as exc:
                # the nhat face guard refuses this tuple: report it, go on
                degrees = " ".join(str(d) for d in degs)
                print(f"skip: {genus} {n} {b} {degrees}: {exc}", file=sys.stderr)
                continue
        if args.method in ("brute", "both"):
            spec = GluingSpec(genus, degs, b, allow_degree_one=args.with_deg_one)
            values["brute"] = brute_count(spec)
        if args.method == "both" and values["formula"] != values["brute"]:
            mismatched = True
        for method, value in values.items():
            rows.append((genus, n, b, degs, value, method))
    sys.stdout.write(count_csv_rows(rows))
    return 1 if mismatched else 0


def cmd_count(args) -> int:
    if args.max_sides is not None and args.method == "formula":
        raise ValueError("--max-sides bounds the brute-force search; "
                         "--method formula takes none")
    degrees = _parse_degrees(args.degrees)
    n = len(degrees)
    rows = []
    values = {}
    if args.method in ("formula", "both"):
        values["formula"] = count_exact(args.genus, n, args.b, degrees,
                                        allow_degree_one=args.with_deg_one)
    if args.method in ("brute", "both"):
        spec = GluingSpec(args.genus, degrees, args.b,
                          allow_degree_one=args.with_deg_one,
                          guard_sides=DEFAULT_GUARD_SIDES if args.max_sides is None
                          else args.max_sides)
        values["brute"] = brute_count(spec)
    for method, value in values.items():
        rows.append((args.genus, n, args.b, degrees, value, method))
    if args.format == "csv":
        sys.stdout.write(count_csv_rows(rows))
    else:
        for method, value in values.items():
            print(f"{method}: {value}")
    if args.method == "both":
        match = values["formula"] == values["brute"]
        if args.format != "csv":
            print("match" if match else "MISMATCH")
        return 0 if match else 1
    return 0


def cmd_verify(args) -> int:
    suite = args.suite
    given = [flag for flag, value in (("--genus", args.genus), ("--faces", args.faces))
             if value is not None]
    if given and suite not in ("string", "dilaton"):
        raise ValueError(f"suite {suite} takes no --genus or --faces; "
                         "only string and dilaton do")
    if len(given) == 1:
        raise ValueError("--genus and --faces go together: give both or neither")
    if args.max_2e is not None and suite != "oracle":
        raise ValueError(f"suite {suite} takes no --max-2e; only oracle does")
    if suite in ("string", "dilaton"):
        fn = verify_string if suite == "string" else verify_dilaton
        report = fn(args.genus, args.faces)
    elif suite == "oracle":
        sides = DEFAULT_SWEEP_SIDES if args.max_2e is None else args.max_2e
        report = cross_verify_counts(max_sides=sides)
    else:
        report = SUITES[suite]()
    print(report.render())
    return 0 if report.passed else 1


def cmd_series(args) -> int:
    if args.ell is not None and args.name != "I":
        raise ValueError("--ell applies to I only")
    if args.order < 0:
        raise DomainError("order must be nonnegative")
    if args.order > MAX_SERIES_ORDER[args.name]:
        raise SizeError(f"order {args.order} exceeds the {args.name} guard of "
                        f"{MAX_SERIES_ORDER[args.name]}")
    if args.name == "I":
        ser = series_I(args.order)
    elif args.name == "J":
        ser = series_J(max(args.order, 1))
    else:
        ser = series_J_inverse(max(args.order, 1))
    assign = {}
    if args.b is not None:
        assign["b"] = Fraction(args.b)
    if args.ell is not None:
        assign["l"] = Fraction(args.ell)
    var = "z" if args.name == "Jinv" else "r"
    # J and Jinv are built at order at least 1; print only k <= order
    for k, coeff in enumerate(ser.coeffs[:args.order + 1]):
        value = coeff.evaluate(assign) if assign else coeff
        text = str(value.as_fraction()) if value.is_constant() else str(value)
        print(f"[{var}^{k}] {text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="irrmaps",
        description="Exact counts of essentially irreducible maps with even face degrees")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("nhat", help="print a counting polynomial")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--faces", type=int, required=True)
    p.add_argument("--format", choices=("mlambda", "monomials", "json"),
                   default="mlambda")
    p.set_defaults(fn=cmd_nhat)

    p = sub.add_parser("count", help="evaluate an exact count")
    p.add_argument("--genus", type=int, required=True)
    p.add_argument("--b", type=int, default=0)
    p.add_argument("--degrees", required=True,
                   help="comma-separated face half-degrees, e.g. 2,2,2,2")
    p.add_argument("--with-deg-one", action="store_true",
                   help="allow vertices of degree one")
    p.add_argument("--method", choices=("formula", "brute", "both"),
                   default="formula")
    p.add_argument("--format", choices=("text", "csv"), default="text")
    p.add_argument("--max-sides", type=int, default=None,
                   help="brute-force guard on the total side count (brute and both "
                        f"only; default {DEFAULT_GUARD_SIDES})")
    p.set_defaults(fn=cmd_count)

    p = sub.add_parser("sweep", help="CSV export of counts over all small tuples")
    p.add_argument("--max-2e", type=int, default=8,
                   help="bound on the total number of polygon sides")
    p.add_argument("--b-max", type=int, default=SWEEP_B_MAX)
    p.add_argument("--method", choices=("formula", "brute", "both"),
                   default="formula")
    p.add_argument("--with-deg-one", action="store_true")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("verify", help="run an identity suite")
    p.add_argument("--suite", choices=sorted(SUITES), required=True)
    p.add_argument("--genus", type=int, default=None)
    p.add_argument("--faces", type=int, default=None)
    p.add_argument("--max-2e", type=int, default=None,
                   help="side bound for the oracle sweep (oracle suite only; "
                        f"default {DEFAULT_SWEEP_SIDES})")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("series", help="print series coefficients")
    p.add_argument("--name", choices=("I", "J", "Jinv"), required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--b", type=int, default=None)
    p.add_argument("--ell", type=int, default=None, help="l of I (I only)")
    p.set_defaults(fn=cmd_series)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
