"""Command-line surface: computations, tables, and verification suites.

Exit codes: 0 success, 1 verification or agreement failure, 2 usage error
or malformed JSON, 3 structural invariant violation in an input diagram.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from bisect import bisect_left
from math import isqrt

from . import geometry, multiplicity, tl, verify, walled
from .diagrams import InvariantViolation, SetPartitionDiagram, compose
from .halfdiag import HalfDiagram, act
from .multiplicity import one_part

USAGE_ERROR = 2
INVARIANT_ERROR = 3

# Largest m + n that `walled census` accepts.  The slowest census within
# it, m = n = 20, takes about 10 ms on a 2-core x86 host at any r.
CENSUS_MAX_DOTS = 40

# Largest --max that `mult table` accepts: (max + 1)^3 rows, 132,651 at the
# budget, which print as JSON in about 0.8 s on the same host.
MULT_TABLE_MAX = 50

# Most solutions that `mult` enumerates for e1 (also in --engines all) or
# --solutions, as counted by e_closed first.  Listing 100,000 as text takes
# about 0.6 s, process start included, on the same host.
MULT_E1_MAX_SOLUTIONS = 100_000

# Largest p + q - r (the length of e2's lattice walk) and largest of p, q
# and r that `mult` runs e2 and bvo on; the slowest triple within each
# (bvo's is near p = q = r, as at 800, 800, 799) takes about 0.9 s and
# 1.1 s, process start included.
MULT_E2_MAX_WALK = 10_000_000
MULT_BVO_MAX_COUNT = 800

# Most dots (-n times the count) that `tl basis` lists: -n 20 -r 0 as JSON
# takes about 1 s.  Largest -n it takes, --count-only included: every count
# up to it has at most 4,300 digits, the most Python prints of an int by
# default.  A lower int-to-str limit lowers it when the command runs.
TL_BASIS_MAX_DOTS = 340_000
TL_BASIS_MAX_DEGREE = 14_298


def _largest_tl_count(n: int) -> int:
    """The largest planar count at degree n, at the largest r of n's parity with r^2 <= n + 2.

    count(n, r + 2) >= count(n, r) exactly when (r + 2)^2 <= n + 2.
    """
    r = isqrt(n + 2)
    return tl.tl_basis_count(n, r - (r - n) % 2)


def _tl_basis_max_degree() -> int:
    """Largest -n, at most TL_BASIS_MAX_DEGREE, whose counts all print under Python's int-to-str limit."""
    digits = sys.get_int_max_str_digits()  # 0 for no limit
    if not digits or _largest_tl_count(TL_BASIS_MAX_DEGREE) < 10**digits:
        return TL_BASIS_MAX_DEGREE
    # The largest count grows with n, so the degrees past the limit are a suffix.
    return bisect_left(range(TL_BASIS_MAX_DEGREE), True, key=lambda n: _largest_tl_count(n) >= 10**digits) - 1


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _check_budget(value: int, budget: int, subject: str, limit: str, tail: str = "") -> None:
    """Exit 2 with "<subject> is limited to <limit, budget filled in>, got <value><tail>" above ``budget``."""
    if value > budget:
        raise _CliError(f"{subject} is limited to {limit.format(budget)}, got {value}{tail}", USAGE_ERROR)


def _color(text: str, code: str) -> str:
    if os.environ.get("DIAGALG_COLOR") == "1":
        return f"\033[{code}m{text}\033[0m"
    return text


def _load_json(path: str):
    try:
        if path == "-":
            raw = sys.stdin.read()
        else:
            with open(path, "r", encoding="utf-8") as handle:
                raw = handle.read()
    except OSError as exc:
        raise _CliError(f"cannot read {path}: {exc}", USAGE_ERROR)
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise _CliError(f"invalid JSON in {path}: {exc}", USAGE_ERROR)


def _build(loader, data, what: str):
    try:
        return loader(data)
    except InvariantViolation as exc:
        raise _CliError(f"invalid {what}: {exc}", INVARIANT_ERROR)
    except (TypeError, ValueError) as exc:
        raise _CliError(f"malformed {what}: {exc}", USAGE_ERROR)


def _cmd_mult(args) -> int:
    if args.mode == "table":
        top = args.max
        if top < 0:
            raise _CliError(f"mult table needs --max >= 0, got {top}", USAGE_ERROR)
        _check_budget(top, MULT_TABLE_MAX, "mult table", "--max <= {}")
        rows = [
            (p, q, r, multiplicity.e_closed(p, q, r))
            for p in range(top + 1)
            for q in range(top + 1)
            for r in range(top + 1)
        ]
        if args.format == "csv":
            buffer = io.StringIO()
            writer = csv.writer(buffer)
            writer.writerow(["p", "q", "r", "E"])
            writer.writerows(rows)
            print(buffer.getvalue(), end="")
        else:
            print(json.dumps([{"p": p, "q": q, "r": r, "E": e} for p, q, r, e in rows]))
        return 0

    if args.format == "csv":
        raise _CliError("--format csv is only for mult table", USAGE_ERROR)
    if args.p is None or args.q is None or args.r is None:
        raise _CliError("mult needs -p, -q and -r (or the 'table' mode)", USAGE_ERROR)
    # Every engine choice rejects a negative count with the same message.
    p, q, r = (
        multiplicity._check_count(v, name) for v, name in ((args.p, "p"), (args.q, "q"), (args.r, "r"))
    )
    engines = {}
    wanted = ("closed", "e1", "e2", "bvo") if args.engines == "all" else (args.engines,)
    hint = "; for the count use --engines closed"
    if "e1" in wanted or args.solutions:
        expected = multiplicity.e_closed(p, q, r)
        if expected > MULT_E1_MAX_SOLUTIONS:
            raise _CliError(
                f"e1 and --solutions enumerate at most {MULT_E1_MAX_SOLUTIONS} solutions, got {expected}{hint}",
                USAGE_ERROR,
            )
    if "e2" in wanted:
        _check_budget(p + q - r, MULT_E2_MAX_WALK, "e2", "p + q - r <= {}", hint)
    if "bvo" in wanted:
        _check_budget(max(p, q, r), MULT_BVO_MAX_COUNT, "bvo", "p, q and r <= {}", hint)
    if "e1" in wanted or args.solutions:
        count, solutions = multiplicity.e_lattice(p, q, r)
    if "closed" in wanted:
        engines["closed"] = multiplicity.e_closed(p, q, r)
    if "e1" in wanted:
        engines["e1"] = count
    if "e2" in wanted:
        engines["e2"] = multiplicity.e2_lattice(p, q, r)
    if "bvo" in wanted:
        engines["bvo"] = multiplicity.bvo_multiplicity(
            one_part(r), one_part(p), one_part(q), *multiplicity.admissible_degree_pairs(p, q, r)[0]
        )
    agree = len(set(engines.values())) == 1
    if args.format == "json":
        payload = {"p": p, "q": q, "r": r, "engines": engines, "agree": agree}
        if args.solutions:
            payload["solutions"] = [s.to_json() for s in solutions]
        print(json.dumps(payload))
    else:
        for name, value in engines.items():
            print(f"{name}: {value}")
        if args.solutions:
            for s in solutions:
                print(
                    f"  solution: through_labeled={s.through_labeled} "
                    f"through_unlabeled={s.through_unlabeled} "
                    f"left={s.left_labeled} right={s.right_labeled}"
                )
        verdict = "agree" if agree else "DISAGREE"
        print(_color(verdict, "32" if agree else "31"))
    return 0 if agree else 1


def _cmd_verify(args) -> int:
    reports = verify.run_all(args.max) if args.suite == "all" else [verify.run_suite(args.suite, args.max)]
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports]))
    else:
        for report in reports:
            line = report.summary()
            print(_color(line, "32" if report.ok else "31"))
            for failure in report.failures[:20]:
                print(f"    {failure}")
            if len(report.failures) > 20:
                print(f"    ... and {len(report.failures) - 20} more")
    return 0 if all(r.ok for r in reports) else 1


def _cmd_compose(args) -> int:
    d1 = _build(SetPartitionDiagram.from_json, _load_json(args.left), "diagram")
    d2 = _build(SetPartitionDiagram.from_json, _load_json(args.right), "diagram")
    try:
        t, d = compose(d1, d2)
    except InvariantViolation as exc:
        raise _CliError(str(exc), INVARIANT_ERROR)
    prefix = "" if t == 0 else ("δ · " if t == 1 else f"δ^{t} · ")
    rendering = f"{prefix}{d.render()}"
    if args.format == "json":
        print(json.dumps({"t": t, "diagram": d.to_json(), "rendering": rendering}))
    else:
        print(rendering)
    return 0


def _cmd_act(args) -> int:
    d = _build(SetPartitionDiagram.from_json, _load_json(args.diagram), "diagram")
    v = _build(HalfDiagram.from_json, _load_json(args.half), "half-diagram")
    try:
        result = act(d, v)
    except InvariantViolation as exc:
        raise _CliError(str(exc), INVARIANT_ERROR)
    if args.format == "json":
        if result.is_zero:
            print(json.dumps({"zero": True}))
        else:
            print(
                json.dumps(
                    {
                        "zero": False,
                        "coeff": result.coeff.to_json(),
                        "half_diagram": result.diagram.to_json(),
                    }
                )
            )
    else:
        print(result.render())
    return 0


def _cmd_walled(args) -> int:
    if args.mode == "index":
        w = _build(walled.WalledHalfDiagram.from_json, _load_json(args.input), "walled half-diagram")
        idx = walled.index_of(w)
        if args.format == "json":
            print(json.dumps({"index": idx.render()}))
        else:
            print(idx.render())
        return 0
    _check_budget(args.m + args.n, CENSUS_MAX_DOTS, "walled census", "m + n <= {} dots")
    tally = walled.census(args.m, args.n, args.r)
    payload = {idx.render(): count for idx, count in tally.items()}
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for key, count in payload.items():
            print(f"{key}: {count}")
    return 0


def _cmd_geometry(args) -> int:
    summary = geometry.geometry_summary(args.p, args.q, args.r)
    if args.format == "json":
        print(json.dumps(summary))
    else:
        ta, tb, tc = summary["tangent_lengths"]
        print(f"tangent lengths: {ta}, {tb}, {tc}")
        print(f"circle count:    {summary['circle_count']}")
        conic = summary["conic"]
        print(
            f"conic:           {conic['kind']} with a={conic['a']}, c={conic['c']}, "
            f"gap={conic['gap']} -> count {summary['conic_count']}"
        )
        if "parity" in summary:
            parity = summary["parity"]
            print(
                f"parity:          tangents integral {parity['tangents_integral']}, "
                f"side sum even {parity['side_sum_even']}"
            )
    return 0


def _parse_class(text: str) -> tuple[int, int]:
    try:
        degree, _, labels = text.partition(":")
        return int(degree), int(labels)
    except ValueError:
        raise _CliError(f"class argument must look like 'degree:labels', got {text!r}", USAGE_ERROR)


def _cmd_tl(args) -> int:
    if args.mode == "basis":
        if args.n < 0:
            raise _CliError(f"tl basis needs -n >= 0, got {args.n}", USAGE_ERROR)
        _check_budget(args.n, _tl_basis_max_degree(), "tl basis", "-n <= {}")
        count = tl.tl_basis_count(args.n, args.r)
        if args.count_only:
            print(count)
            return 0
        # n * count > budget exactly when count > budget // n; only count surely prints
        limit = f"{TL_BASIS_MAX_DOTS} listed dots ({{}} diagrams at -n {args.n})"
        tail = " diagrams; for the count use --count-only"
        _check_budget(count, TL_BASIS_MAX_DOTS // max(args.n, 1), "tl basis", limit, tail)
        basis = tl.tl_basis(args.n, args.r)
        if args.format == "json":
            print(json.dumps([d.to_json() for d in basis]))
        else:
            for d in basis:
                print(d.render())
        return 0
    m, p = _parse_class(args.left)
    n, q = _parse_class(args.right)
    try:
        left = tl.GrothElement.module_class(m, p)
        right = tl.GrothElement.module_class(n, q)
    except InvariantViolation as exc:
        raise _CliError(str(exc), INVARIANT_ERROR)
    product = tl.groth_multiply(left, right)
    if args.format == "text":
        print(product.render())
    else:
        print(json.dumps(product.to_json()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diagalg",
        description="Exact diagram combinatorics: composition, module actions, "
        "restriction multiplicities and their geometry.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    mult = sub.add_parser("mult", help="restriction multiplicity by several engines")
    mult.add_argument("mode", nargs="?", choices=["table"], help="emit a full grid instead")
    mult.add_argument("-p", type=int)
    mult.add_argument("-q", type=int)
    mult.add_argument("-r", type=int)
    mult.add_argument("--engines", choices=["all", "closed", "e1", "e2", "bvo"], default="all")
    mult.add_argument(
        "--solutions", action="store_true", help=f"list the solutions (at most {MULT_E1_MAX_SOLUTIONS})"
    )
    mult.add_argument(
        "--max", type=int, default=3, help=f"grid bound for table mode (at most {MULT_TABLE_MAX})"
    )
    mult.add_argument("--format", choices=["text", "json", "csv"], default="text")

    ver = sub.add_parser("verify", help="run a verification suite")
    ver.add_argument("suite", help="suite name or 'all'")
    ver.add_argument(
        "--max", type=int, default=None, help="override the default sweep bound (up to each suite's ceiling)"
    )
    ver.add_argument("--format", choices=["text", "json"], default="text")

    comp = sub.add_parser("compose", help="compose two diagrams from JSON files")
    comp.add_argument("left")
    comp.add_argument("right")
    comp.add_argument("--format", choices=["text", "json"], default="text")

    actp = sub.add_parser("act", help="act a diagram on a half-diagram from JSON files")
    actp.add_argument("diagram")
    actp.add_argument("half")
    actp.add_argument("--format", choices=["text", "json"], default="text")

    wall = sub.add_parser("walled", help="walled half-diagram index and census")
    wall_sub = wall.add_subparsers(dest="mode", required=True)
    wall_index = wall_sub.add_parser("index", help="index of one walled half-diagram")
    wall_index.add_argument("input")
    wall_index.add_argument("--format", choices=["text", "json"], default="text")
    wall_census = wall_sub.add_parser(
        "census", help=f"count walled half-diagrams by index (m + n <= {CENSUS_MAX_DOTS})"
    )
    wall_census.add_argument("-m", type=int, required=True)
    wall_census.add_argument("-n", type=int, required=True)
    wall_census.add_argument("-r", type=int, required=True)
    wall_census.add_argument("--format", choices=["text", "json"], default="json")

    geo = sub.add_parser("geometry", help="triangle and conic quantities for one triple")
    geo.add_argument("-p", type=int, required=True)
    geo.add_argument("-q", type=int, required=True)
    geo.add_argument("-r", type=int, required=True)
    geo.add_argument("--format", choices=["text", "json"], default="text")

    tlp = sub.add_parser("tl", help="planar half-diagram basis and class products")
    tl_sub = tlp.add_subparsers(dest="mode", required=True)
    tl_basis = tl_sub.add_parser(
        "basis", help=f"enumerate the planar basis (at most {TL_BASIS_MAX_DOTS} dots, -n times the count)"
    )
    tl_basis.add_argument("-n", type=int, required=True)
    tl_basis.add_argument("-r", type=int, required=True)
    tl_basis.add_argument("--count-only", action="store_true")
    tl_basis.add_argument("--format", choices=["text", "json"], default="text")
    tl_groth = tl_sub.add_parser("groth", help="multiply two module classes")
    tl_groth.add_argument("--left", required=True, help="class as 'degree:labels'")
    tl_groth.add_argument("--right", required=True, help="class as 'degree:labels'")
    tl_groth.add_argument("--format", choices=["text", "json"], default="json")

    return parser


_HANDLERS = {
    "mult": _cmd_mult,
    "verify": _cmd_verify,
    "compose": _cmd_compose,
    "act": _cmd_act,
    "walled": _cmd_walled,
    "geometry": _cmd_geometry,
    "tl": _cmd_tl,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
