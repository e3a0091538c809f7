"""Command-line surface: computations, tables, and verification suites.

Exit codes: 0 success, 1 verification or agreement failure, 2 usage error
or malformed JSON, 3 structural invariant violation in an input diagram.
Handlers raise ``ValueError`` for the first and ``InvariantViolation`` for
the second; :func:`main` alone maps them to 2 and 3.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from itertools import chain

from . import geometry, multiplicity, tl, verify, walled
from .diagrams import DeltaPolynomial, DiagramSum, InvariantViolation, SetPartitionDiagram, _check_count, compose
from .halfdiag import HalfDiagram, act
from .multiplicity import one_part

USAGE_ERROR = 2
INVARIANT_ERROR = 3

# Largest m + n that `walled census` accepts.  Its costliest table, at m = n = 20,
# builds in about 1 ms cold on a 2-core x86 host, and a cold call takes 1.5 ms.
CENSUS_MAX_DOTS = 40

# Largest --max that `mult table` accepts: (max + 1)^3 rows, 132,651 at the
# budget, which print as JSON, row by row, in about 0.2 s and an 18 MiB peak on the same host.
MULT_TABLE_MAX = 50

# Most solutions that `mult` enumerates for e1 (also in --engines all) or
# --solutions, as counted by e_closed first.  Listing 100,000 as text takes
# about 0.6 s, process start included, on the same host.
MULT_E1_MAX_SOLUTIONS = 100_000

# Largest p + q - r (the length of e2's lattice walk) and largest of p, q
# and r that `mult` runs e2 and bvo on; the slowest triple within each
# (bvo's is near p = q = r, as at 800, 800, 799) takes about 0.9 s and
# 0.5 s, process start included.
MULT_E2_MAX_WALK = 10_000_000
MULT_BVO_MAX_COUNT = 800

# Most dots (-n times the count) that `tl basis` lists, row by row: -n 20 -r 0
# as JSON takes about 0.3 s and a 17 MiB peak, process start included.  Largest
# -n it takes, --count-only included: every count up to it has at most 4,300
# digits, Python's default int-to-str limit.
TL_BASIS_MAX_DOTS = 340_000
TL_BASIS_MAX_DEGREE = 14_298

# Most terms that `tl groth` prints, min(p, q) + 1 for classes [m, p] and
# [n, q]: 300,000 print term by term, as JSON or text, in about 0.4 s and a 69 MiB peak.
TL_GROTH_MAX_TERMS = 300_000


def _check_budget(value: int, budget: int, subject: str, limit: str, tail: str = "") -> None:
    """Exit 2 with "<subject> is limited to <limit, budget filled in>, got <value><tail>" above ``budget``."""
    if value > budget:
        raise ValueError(f"{subject} is limited to {limit.format(budget)}, got {value}{tail}")


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
        raise ValueError(f"cannot read {path}: {exc}")
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid JSON in {path}: {exc}")
    except RecursionError:
        raise ValueError(f"invalid JSON in {path}: nested too deeply") from None


def _build(loader, data, what: str):
    try:
        return loader(data)
    except InvariantViolation as exc:
        raise InvariantViolation(f"invalid {what}: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed {what}: {exc}") from exc


def _cmd_mult(args) -> int:
    if args.mode == "table":
        if (args.p, args.q, args.r) != (None, None, None) or args.solutions:
            raise ValueError("-p, -q, -r and --solutions are not for mult table")
        top = _check_count(args.max, "--max")
        _check_budget(top, MULT_TABLE_MAX, "mult table", "--max <= {}")
        rows = (
            (p, q, r, multiplicity._e_closed(p, q, r))
            for p in range(top + 1)
            for q in range(top + 1)
            for r in range(top + 1)
        )
        if args.format == "json":  # the bytes of json.dumps of the row dicts, at its default separators
            return _write_joined((f'{{"p": {p}, "q": {q}, "r": {r}, "E": {e}}}' for p, q, r, e in rows), ", ", "[", "]\n")
        writer = csv.writer(sys.stdout, **({"delimiter": " ", "lineterminator": "\n"} if args.format == "text" else {}))
        writer.writerow(["p", "q", "r", "E"])
        writer.writerows(rows)
        return 0

    if args.format == "csv":
        raise ValueError("--format csv is only for mult table")
    if args.p is None or args.q is None or args.r is None:
        raise ValueError("mult needs -p, -q and -r (or the 'table' mode)")
    # Every engine choice rejects a negative count with the same message.
    p, q, r = (_check_count(v, name) for v, name in ((args.p, "p"), (args.q, "q"), (args.r, "r")))
    engines = {}
    wanted = ("closed", "e1", "e2", "bvo") if args.engines == "all" else (args.engines,)
    hint = "; for the count use --engines closed"
    if "e1" in wanted or args.solutions:
        expected = multiplicity._e_closed(p, q, r)
        if expected > MULT_E1_MAX_SOLUTIONS:
            raise ValueError(
                f"e1 and --solutions enumerate at most {MULT_E1_MAX_SOLUTIONS} solutions, got {expected}{hint}"
            )
    if "e2" in wanted:
        _check_budget(p + q - r, MULT_E2_MAX_WALK, "e2", "p + q - r <= {}", hint)
    if "bvo" in wanted:
        _check_budget(max(p, q, r), MULT_BVO_MAX_COUNT, "bvo", "p, q and r <= {}", hint)
    if "e1" in wanted or args.solutions:
        count, solutions = multiplicity.e_lattice(p, q, r)
    if "closed" in wanted:
        engines["closed"] = multiplicity._e_closed(p, q, r)
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
            payload["solutions"] = [s._asdict() for s in solutions]
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


def _emit(args, payload, lines) -> int:
    """Print ``payload()`` as JSON under --format json, else each of ``lines()``; exit 0.

    Both are called lazily, so only the printed format is built.
    """
    if args.format == "json":
        print(json.dumps(payload()))
    else:
        for line in lines():
            print(line)
    return 0


def _write_joined(pieces, sep: str, head: str = "", tail: str = "\n") -> int:
    """Write head, the pieces with sep between them, and tail, each piece as it is made (no joined string); exit 0."""
    sys.stdout.writelines(chain([head], (f"{sep * bool(i)}{piece}" for i, piece in enumerate(pieces)), [tail]))
    return 0


def _cmd_compose(args) -> int:
    d1 = _build(SetPartitionDiagram.from_json, _load_json(args.left), "diagram")
    d2 = _build(SetPartitionDiagram.from_json, _load_json(args.right), "diagram")
    t, d = compose(d1, d2)
    rendering = DiagramSum.from_diagram(d, DeltaPolynomial.delta_power(t)).render()
    return _emit(args, lambda: {"t": t, "diagram": d.to_json(), "rendering": rendering}, lambda: [rendering])


def _cmd_act(args) -> int:
    d = _build(SetPartitionDiagram.from_json, _load_json(args.diagram), "diagram")
    v = _build(HalfDiagram.from_json, _load_json(args.half), "half-diagram")
    result = act(d, v)

    def payload():
        if result.is_zero:
            return {"zero": True}
        return {"zero": False, "coeff": result.coeff.to_json(), "half_diagram": result.diagram.to_json()}

    return _emit(args, payload, lambda: [result.render()])


def _cmd_walled(args) -> int:
    if args.mode == "index":
        w = _build(walled.WalledHalfDiagram.from_json, _load_json(args.input), "walled half-diagram")
        index = walled.index_of(w).render()
        return _emit(args, lambda: {"index": index}, lambda: [index])
    m, n, r = (_check_count(v, name) for v, name in ((args.m, "m"), (args.n, "n"), (args.r, "r")))
    _check_budget(m + n, CENSUS_MAX_DOTS, "walled census", "m + n <= {} dots")
    census = walled.census(m, n, r)
    payload = {idx.render(): count for idx, count in census.items()}
    return _emit(args, lambda: payload, lambda: (f"{key}: {count}" for key, count in payload.items()))


def _cmd_geometry(args) -> int:
    summary = geometry.geometry_summary(args.p, args.q, args.r)

    def lines():
        conic = summary["conic"]
        yield "tangent lengths: " + ", ".join(summary["tangent_lengths"])
        yield f"circle count:    {summary['circle_count']}"
        yield (
            f"conic:           {conic['kind']} with a={conic['a']}, c={conic['c']}, "
            f"gap={conic['gap']} -> count {summary['conic_count']}"
        )
        if "parity" in summary:
            parity = summary["parity"]
            yield (
                f"parity:          tangents integral {parity['tangents_integral']}, "
                f"side sum even {parity['side_sum_even']}"
            )

    return _emit(args, lambda: summary, lines)


def _parse_class(text: str) -> tuple[int, int]:
    # a sign and ASCII digits each side; int() alone also takes "_", spaces and other digits
    match = re.fullmatch(r"([+-]?[0-9]+):([+-]?[0-9]+)", text)
    try:
        return int(match[1]), int(match[2])
    except (TypeError, ValueError):  # no match, or too many digits for int()
        raise ValueError(f"class argument must look like 'degree:labels', got {text!r}")


def _planar_json(row: HalfDiagram) -> dict:
    """A planar row as `tl basis` lists it: its caps by left end, then its labeled dots."""
    caps = [list(block) for block in row.blocks if len(block) == 2]
    return {"n": row.n, "caps": caps, "labels": [block[0] for block in row.blocks if len(block) == 1]}


def _cmd_tl(args) -> int:
    if args.mode == "basis":
        _check_count(args.r, "r")
        _check_budget(args.n, TL_BASIS_MAX_DEGREE, "tl basis", "-n <= {}")
        count = tl.tl_basis_count(args.n, args.r)
        if args.count_only:
            print(count)
            return 0
        # n * count > budget exactly when count > budget // n; only count surely prints
        limit = f"{TL_BASIS_MAX_DOTS} listed dots ({{}} diagrams at -n {args.n})"
        tail = " diagrams; for the count use --count-only"
        _check_budget(count, TL_BASIS_MAX_DOTS // max(args.n, 1), "tl basis", limit, tail)
        rows = map(_planar_json, tl._planar_walk(args.n, args.r))  # each row as the walk makes it
        if args.format == "json":  # the bytes of json.dumps of the row list
            return _write_joined(map(json.dumps, rows), ", ", "[", "]\n")
        pieces = ([f"{{{a},{b}}}" for a, b in row["caps"]] + [f"{{{dot}}}*" for dot in row["labels"]] for row in rows)
        return _write_joined(("{" + ",".join(p) + "}\n" for p in pieces), "", tail="")
    (m, p), (n, q) = _parse_class(args.left), _parse_class(args.right)
    left, right = tl.GrothElement.module_class(m, p), tl.GrothElement.module_class(n, q)
    _check_budget(min(p, q) + 1, TL_GROTH_MAX_TERMS, "tl groth", "{} terms (min(p, q) + 1 for m:p times n:q)")
    product = tl.groth_multiply(left, right)
    if args.format == "text":
        return _write_joined(product._pieces(), " + ")
    # the bytes of json.dumps(product.to_json())
    terms = (f'{{"n": {n}, "r": {r}, "coeff": {c}}}' for (n, r), c in product.terms.items())
    return _write_joined(terms, ", ", '{"terms": [', "]}\n")


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
    tl_groth = tl_sub.add_parser("groth", help=f"multiply two module classes (at most {TL_GROTH_MAX_TERMS} terms)")
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
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ValueError as exc:  # InvariantViolation included
        print(f"error: {exc}", file=sys.stderr)
        return INVARIANT_ERROR if isinstance(exc, InvariantViolation) else USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
