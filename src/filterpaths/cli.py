"""Command-line interface.

Subcommands: count (closed-form evaluation), oracle (DP count), paths
(exhaustive enumeration), compare (differential sweeps), pq (coefficient
tables).  Every numeric value prints as a full decimal string and
identical invocations produce byte-identical output.

Exit codes: 0 success, 1 mismatches found (compare only), 2 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import TextIO

from . import __version__, formulas
from .formulas import DomainError
from .model import WeightRule, format_arrangement, parse_arrangement
from .oracle import KERNEL_BACKEND, PathQuery, dp_count, enumerate_paths
from .verify import (
    FORMULAS,
    CompareReport,
    SweepSpec,
    run_lemma_suite,
    run_property_suite,
    run_theorem_suite,
)

USAGE_ERROR = 2

# `count` evaluates the closed forms whose only parameter is l.
COUNT_FORMULAS = {f.id: f for f in FORMULAS if f.grid == "l" and not f.index}
FORMULA_IDS = ("auto", *COUNT_FORMULAS)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return USAGE_ERROR


def cmd_count(args: argparse.Namespace) -> int:
    l, m, n = args.l, args.m, args.n
    if (m + n) % 2:
        return _fail(f"parity violation: m + n must be even, got m={m}, n={n}")
    used = args.formula
    try:
        value = COUNT_FORMULAS["mj" if used == "auto" else used].value(formulas, l=l, m=m, n=n)
        j = formulas.strip_index(l, m)
    except (DomainError, formulas.InvalidN) as exc:
        return _fail(str(exc))
    if used == "auto":
        used = "desire1" if j == 1 else "mj"
    if args.format == "json":
        print(json.dumps(
            {"value": str(value), "strip": j, "formula": used,
             "parameters": {"l": l, "m": m, "n": n}},
            indent=2,
        ))
    else:
        print(f"value {value}")
        print(f"strip {j}")
        print(f"formula {used}")
        print(f"parameters l={l} m={m} n={n}")
    return 0


def _read_query(args: argparse.Namespace) -> PathQuery:
    arr = parse_arrangement(args.arr, WeightRule(args.semantics))
    return PathQuery((args.start, 0), args.m, args.n, arr)


def cmd_oracle(args: argparse.Namespace) -> int:
    try:
        q = _read_query(args)
        value = dp_count(q)
    except ValueError as exc:
        return _fail(str(exc))
    if args.format == "json":
        print(json.dumps(
            {"value": str(value), "arrangement": format_arrangement(q.arrangement),
             "start": args.start, "m": args.m, "n": args.n,
             "semantics": args.semantics},
            indent=2,
        ))
    else:
        print(value)
    return 0


def cmd_paths(args: argparse.Namespace) -> int:
    try:
        paths = enumerate_paths(_read_query(args))
    except ValueError as exc:
        return _fail(str(exc))
    total = sum(p.weight for p in paths)
    if args.format == "json":
        # json.dumps(..., indent=2) of {"paths": [{"steps", "weight"}, ...],
        # "count", "total_weight"}, written one path at a time
        write = sys.stdout.write
        write('{\n  "paths": [')
        sep = "\n"
        for p in paths:
            write(f'{sep}    {{\n      "steps": "{p.steps()}",\n      "weight": "{p.weight}"\n    }}')
            sep = ",\n"
        close = "\n  ]" if paths else "]"
        write(f'{close},\n  "count": {len(paths)},\n  "total_weight": "{total}"\n}}\n')
    else:
        for p in paths:
            print(f"{p.steps() or '(empty)'}  weight {p.weight}")
        print(f"paths {len(paths)}  total weight {total}")
    return 0


def _parse_l_values(text: str) -> tuple[int, ...]:
    values: list[int] = []
    for part in filter(None, map(str.strip, text.split(","))):
        lo, dots, hi = part.partition("..")
        try:
            values.extend(range(int(lo), int(hi if dots else lo) + 1))
        except ValueError:
            raise ValueError(f"--l: bad value {part!r}: expected an integer "
                             f"or a range such as 2..4") from None
    if not values:
        raise ValueError(f"no l values in {text!r}")
    return tuple(values)


def cmd_compare(args: argparse.Namespace) -> int:
    try:
        if args.cases < 1:
            raise ValueError(f"--cases must be >= 1, got {args.cases}")
        l_values = _parse_l_values(args.l)
        spec = SweepSpec(
            l_values=l_values,
            n_max=args.n_max,
            d_max=args.d_max,
            strips_max=args.strips_max,
            a_max=args.a_max,
            b_max=args.b_max,
            semantics=WeightRule(args.semantics),
        )
    except ValueError as exc:
        return _fail(str(exc))
    suites = ("lemmas", "theorems", "properties") if args.suite == "all" else (args.suite,)
    runs = {"lemmas": lambda: run_lemma_suite(spec),
            "theorems": lambda: run_theorem_suite(spec),
            "properties": lambda: run_property_suite(args.seed, args.cases)}
    report = runs[suites[0]]()
    for suite in suites[1:]:
        report.extend(runs[suite]())
    mismatches = report.mismatches
    if args.out:
        try:
            with open(args.out, "w") as fh:
                _write_report(report, args.format, fh)
        except OSError as exc:
            return _fail(f"cannot write report: {exc}")
        print(f"cells {report.total}  mismatches {mismatches}  -> {args.out}")
    else:
        _write_report(report, args.format, sys.stdout)
    return 0 if mismatches == 0 else 1


def _write_report(report: CompareReport, fmt: str, out: TextIO) -> None:
    """Write the report to out in the format fmt; JSON and CSV go a lane at a time."""
    if fmt == "json":
        report.write_json(out)
        out.write("\n")
    elif fmt == "csv":
        report.write_csv(out)
    else:
        out.write(report.render())


def cmd_pq(args: argparse.Namespace) -> int:
    if args.j_max < 2:
        return _fail(f"--j-max must be >= 2, got {args.j_max}")
    if args.k_max < 0:
        return _fail(f"--k-max must be >= 0, got {args.k_max}")
    rows = []
    for j in range(2, args.j_max + 1):
        rows.append(("P", j, [formulas.poly_p(j, k) for k in range(args.k_max + 1)]))
        rows.append(("Q", j, [formulas.poly_q(j, k) for k in range(args.k_max + 1)]))
    checked = args.j_max >= 3
    verdict = formulas.pq_recurrence_check(args.j_max, args.k_max) if checked else None
    if args.format == "json":
        if not checked:
            recurrences = "not-checked"
        elif verdict is None:
            recurrences = "ok"
        else:
            recurrences = {
                "family": verdict[0], "j": verdict[1], "k": verdict[2],
                "closed_form": str(verdict[3]), "recurrence": str(verdict[4]),
            }
        print(json.dumps(
            {
                "rows": [
                    {"family": fam, "j": j, "values": [str(v) for v in vals]}
                    for fam, j, vals in rows
                ],
                "recurrences": recurrences,
            },
            indent=2,
        ))
    elif args.format == "csv":
        print("family,j," + ",".join(f"k{k}" for k in range(args.k_max + 1)))
        for fam, j, vals in rows:
            print(f"{fam},{j}," + ",".join(str(v) for v in vals))
        if checked:
            print("recurrences," + ("ok" if verdict is None else "FAIL"))
    else:
        for fam, j, vals in rows:
            print(f"{fam}_{j}: " + " ".join(str(v) for v in vals))
        if checked:
            if verdict is None:
                print("recurrences ok")
            else:
                fam, j, k, lhs, rhs = verdict
                print(f"recurrences FAIL at {fam}_{j}({k}): closed {lhs} vs recurrence {rhs}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process: parsing leaves it as it
    was, so every `main` call shares it."""
    parser = argparse.ArgumentParser(
        prog="filterpaths",
        description="Exact counting of weighted lattice walks with one-way "
        "wall and filter columns.",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"%(prog)s {__version__} (kernel: {KERNEL_BACKEND})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="evaluate a closed-form count")
    p.add_argument("--l", type=int, required=True, help="period parameter (>= 2)")
    p.add_argument("--m", type=int, required=True, help="endpoint column")
    p.add_argument("--n", type=int, required=True, help="endpoint row")
    p.add_argument("--formula", choices=FORMULA_IDS, default="auto",
                   help="formula to apply (auto picks by strip)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_count)

    for name, summary, func in (("oracle", "DP-count walks under an arrangement", cmd_oracle),
                                ("paths", "enumerate every walk with its weight", cmd_paths)):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--arr", required=name == "oracle", default="",
                       help="arrangement, e.g. 'W@0;F1@4;F2@9' (empty = unrestricted)")
        p.add_argument("--start", type=int, default=0, help="start column (row 0)")
        p.add_argument("--m", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--semantics", choices=("landing", "literal"), default="landing")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(func=func)

    p = sub.add_parser("compare", help="sweep formulas against the oracle")
    p.add_argument("--l", default="2,3,4,5", help="l values, e.g. '2..4' or '2,5'")
    p.add_argument("--n-max", type=int, default=48)
    p.add_argument("--d-max", type=int, default=6)
    p.add_argument("--strips-max", type=int, default=5)
    p.add_argument("--a-max", type=int, default=3)
    p.add_argument("--b-max", type=int, default=3)
    p.add_argument("--semantics", choices=("landing", "literal"), default="landing")
    p.add_argument("--suite", choices=("lemmas", "theorems", "properties", "all"),
                   default="all")
    p.add_argument("--seed", type=int, default=0, help="properties suite seed")
    p.add_argument("--cases", type=int, default=100, help="properties suite cases")
    p.add_argument("--out", help="write the report to a file")
    p.add_argument("--format", choices=("text", "json", "csv"), default="json")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("pq", help="print coefficient tables and check recurrences")
    p.add_argument("--j-max", type=int, required=True)
    p.add_argument("--k-max", type=int, default=10)
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.set_defaults(func=cmd_pq)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help; keep its code
        return int(exc.code or 0)
    # A count can run past int-to-str's digit limit (4300 digits by default,
    # Python 3.10.7 on): lift it while the command runs, then give the
    # caller back its own.
    if not hasattr(sys, "set_int_max_str_digits"):
        return args.func(args)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    finally:
        sys.set_int_max_str_digits(limit)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
