"""Command-line front end that dispatches parsed arguments to the library.

Reports carry every mathematical value as an exact decimal or p/q string.
In json format the runtime field is null so that identical inputs produce
byte-identical output; the text format shows the measured runtime.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Sequence

from .combinat import KSubset
from .counting import CountReport, Restriction, count_nonnegative
from .lemmas import (
    simulate_partition,
    verify_contains_top_bound,
    verify_disjoint_bound,
    verify_intersecting_bound,
    verify_mms_bound,
    verify_scalar_inequalities,
    verify_second_block_bound,
)
from .report import VERDICT_VERIFIED, VERDICT_VIOLATED
from .scheme import (
    build_structure_matrix,
    verify_eigenvector,
    verify_eigenvector_all,
    verify_wilson_identities,
)
from .search import SearchSpace, find_counterexample, sweep_patterns
from .weights import gen_random_zero_sum, gen_star, load_weights

__all__ = ["main", "run"]

LEMMA_TOKENS = (
    "eigenvector",
    "wilson",
    "2",
    "3",
    "lotson1",
    "4",
    "partition",
    "scalar",
    "theorem",
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(f"{self.prog}: error: {message}\n{self.format_usage()}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mmsverify", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    def add_input_flags(p: _Parser) -> None:
        p.add_argument("--weights", metavar="PATH", help="weight file (json)")
        p.add_argument("--star", action="store_true", help="star input (n-1, -1, ..., -1)")
        p.add_argument("--random", action="store_true", help="seeded random zero-sum integers")
        p.add_argument("--n", type=int, help="ground-set size for --star/--random")
        p.add_argument("--magnitude", type=int, default=100, help="range for --random draws")
        p.add_argument("--seed", type=int, default=0)

    def add_common(p: _Parser) -> None:
        p.add_argument("--format", choices=("json", "text"), default="text")

    p_count = sub.add_parser("count", help="count nonnegative k-subset sums")
    add_input_flags(p_count)
    p_count.add_argument("-k", type=int, required=True)
    p_count.add_argument(
        "--restrict",
        action="append",
        default=[],
        metavar="KIND:IDX[,IDX...]",
        help="contains:i, intersects:i,j,... or disjoint:i,j,...; repeatable, conjunctive",
    )
    add_common(p_count)

    p_verify = sub.add_parser("verify", help="verify a lemma instance")
    add_input_flags(p_verify)
    p_verify.add_argument("-k", type=int, required=True)
    p_verify.add_argument("--lemma", choices=LEMMA_TOKENS, required=True)
    p_verify.add_argument("-j", type=int, default=None)
    p_verify.add_argument("--trials", type=int, default=10_000)
    p_verify.add_argument(
        "--tset",
        metavar="I,J,...",
        default=None,
        help="distinguished k-subset for lemma 4/partition (default: bottom k indices)",
    )
    add_common(p_verify)

    p_spec = sub.add_parser("spectrum", help="dump a structure matrix")
    p_spec.add_argument("--kind", choices=("inclusion", "kneser"), required=True)
    p_spec.add_argument("--n", type=int, required=True)
    p_spec.add_argument("-j", type=int, required=True)
    p_spec.add_argument("-k", type=int, required=True)
    add_common(p_spec)

    p_search = sub.add_parser("search", help="sweep patterns for minima")
    p_search.add_argument("--n", type=int)
    p_search.add_argument("-k", type=int, required=True)
    p_search.add_argument("--max-distinct", type=int, default=2)
    p_search.add_argument("--value-range", type=int, default=6)
    p_search.add_argument("--counterexample", action="store_true")
    p_search.add_argument("-r", type=int, help="remainder for --counterexample (n = 3k + r)")
    add_common(p_search)

    p_gen = sub.add_parser("gen", help="write a weight file")
    add_input_flags(p_gen)
    p_gen.add_argument("--out", metavar="PATH", help="output path (default: stdout)")
    add_common(p_gen)

    return parser


def _parse_restriction(tokens: Sequence[str], parser: _Parser) -> Restriction | None:
    combined: Restriction | None = None
    for token in tokens:
        kind, sep, rest = token.partition(":")
        if not sep:
            parser.error(f"bad --restrict token {token!r}: expected KIND:IDX[,IDX...]")
        try:
            indices = tuple(int(part) for part in rest.split(","))
        except ValueError:
            parser.error(f"bad --restrict indices in {token!r}")
        if kind == "contains":
            if len(indices) != 1:
                parser.error("contains: takes exactly one index")
            atom = Restriction.contains(indices[0])
        elif kind == "intersects":
            atom = Restriction.intersects(*indices)
        elif kind == "disjoint":
            atom = Restriction.disjoint(*indices)
        else:
            parser.error(f"unknown restriction kind {kind!r}")
        combined = atom if combined is None else combined & atom
    return combined


def _load_vector(args: argparse.Namespace, parser: _Parser):
    chosen = sum((args.weights is not None, args.star, args.random))
    if chosen != 1:
        parser.error("exactly one of --weights, --star, --random is required")
    if args.weights is not None:
        return load_weights(args.weights), {"source": args.weights}
    if args.n is None:
        parser.error("--star/--random need --n")
    if args.star:
        return gen_star(args.n), {"generator": "star", "n": args.n}
    X = gen_random_zero_sum(args.n, args.magnitude, args.seed)
    return X, {
        "generator": "random",
        "n": args.n,
        "magnitude": args.magnitude,
        "seed": args.seed,
    }


def _parse_tset(args: argparse.Namespace, n: int, k: int, parser: _Parser) -> KSubset:
    if args.tset is None:
        return KSubset.of(tuple(range(n - k, n)), n)
    try:
        indices = tuple(int(part) for part in args.tset.split(","))
    except ValueError:
        parser.error(f"bad --tset value {args.tset!r}")
    return KSubset.of(indices, n)


def _count_verdict(report: CountReport) -> str:
    if all(ok for _, _, ok in report.bound_comparisons):
        return VERDICT_VERIFIED
    return VERDICT_VIOLATED


def _echo(argv: Sequence[str]) -> str:
    kept: list[str] = []
    skip = False
    for token in argv:
        if skip:
            skip = False
            continue
        if token == "--format":
            skip = True
            continue
        if token.startswith("--format="):
            continue
        kept.append(token)
    return " ".join(kept)


def _text_block(value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, (dict, list)) and item:
                lines.append(f"{pad}{key}:")
                _text_block(item, indent + 1, lines)
            else:
                rendered = item if not isinstance(item, (dict, list)) else "{}" if item == {} else "[]"
                lines.append(f"{pad}{key}: {rendered}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                _text_block(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")


def _render(doc: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines: list[str] = []
    for key in ("command", "verdict", "runtime_ms"):
        lines.append(f"{key}: {doc[key]}")
    for key in ("inputs", "report"):
        lines.append(f"{key}:")
        _text_block(doc[key], 1, lines)
    return "\n".join(lines) + "\n"


_EXIT_BY_VERDICT = {VERDICT_VERIFIED: 0, VERDICT_VIOLATED: 1}


def run(argv: Sequence[str]) -> tuple[str, str, int]:
    """Execute one invocation; returns (stdout text, stderr text, exit code)."""
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.error("a subcommand is required")
        inputs, report, verdict = _dispatch(args, parser)
    except _UsageError as exc:
        return "", f"{exc}\n", 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return "", f"mmsverify: error: {exc}\n", 2
    except Exception as exc:  # a fault of the tool, never a verdict on the claim
        return "", f"mmsverify: internal error: {type(exc).__name__}: {exc}\n", 3
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    doc = {
        "command": _echo(argv),
        "inputs": inputs,
        "report": report,
        "verdict": verdict,
        "runtime_ms": None if args.format == "json" else round(elapsed_ms, 3),
    }
    return _render(doc, args.format), "", _EXIT_BY_VERDICT.get(verdict, 2)


def _dispatch(args: argparse.Namespace, parser: _Parser):
    if args.subcommand == "count":
        X, inputs = _load_vector(args, parser)
        restriction = _parse_restriction(args.restrict, parser)
        report = count_nonnegative(X, args.k, restriction)
        return inputs, report.to_dict(), _count_verdict(report)

    if args.subcommand == "verify":
        return _dispatch_verify(args, parser)

    if args.subcommand == "spectrum":
        matrix = build_structure_matrix(args.kind, args.n, args.j, args.k)
        inputs = {"kind": args.kind, "n": args.n, "j": args.j, "k": args.k}
        return inputs, matrix.to_dict(), VERDICT_VERIFIED

    if args.subcommand == "search":
        if args.counterexample:
            if args.r is None:
                parser.error("--counterexample needs -r")
            report = find_counterexample(args.k, args.r, args.value_range)
            inputs = {"k": args.k, "r": args.r, "value_range": args.value_range}
        else:
            if args.n is None:
                parser.error("search needs --n (or --counterexample with -r)")
            space = SearchSpace(
                n=args.n,
                k=args.k,
                max_distinct=args.max_distinct,
                value_range=args.value_range,
            )
            report = sweep_patterns(space)
            inputs = {
                "n": args.n,
                "k": args.k,
                "max_distinct": args.max_distinct,
                "value_range": args.value_range,
            }
        return inputs, report.to_dict(), report.verdict

    if args.subcommand == "gen":
        return _dispatch_gen(args, parser)

    parser.error(f"unknown subcommand {args.subcommand!r}")


def _dispatch_verify(args: argparse.Namespace, parser: _Parser):
    lemma = args.lemma
    if lemma == "scalar":
        if args.n is None:
            parser.error("--lemma scalar needs --n and -k")
        report = verify_scalar_inequalities(args.n, args.k)
        return {"n": args.n, "k": args.k}, report.to_dict(), report.verdict

    X, inputs = _load_vector(args, parser)
    if lemma == "eigenvector":
        if args.j is None:
            report = verify_eigenvector_all(X, args.k)
        else:
            report = verify_eigenvector(X, args.j, args.k)
    elif lemma == "wilson":
        if args.j is None:
            parser.error("--lemma wilson needs -j")
        report = verify_wilson_identities(X, args.j, args.k)
    elif lemma == "2":
        report = verify_intersecting_bound(X, args.k)
    elif lemma == "3":
        report = verify_second_block_bound(X, args.k)
    elif lemma == "lotson1":
        report = verify_contains_top_bound(X, args.k)
    elif lemma == "4":
        T = _parse_tset(args, X.n, args.k, parser)
        report = verify_disjoint_bound(X, args.k, T)
        inputs = {**inputs, "tset": list(T.indices)}
    elif lemma == "partition":
        T = _parse_tset(args, X.n, args.k, parser)
        report = simulate_partition(X, args.k, T, trials=args.trials, seed=args.seed)
        inputs = {**inputs, "tset": list(T.indices), "trials": args.trials, "seed": args.seed}
    elif lemma == "theorem":
        report = verify_mms_bound(X, args.k)
    else:  # pragma: no cover - choices already constrain this
        parser.error(f"unknown lemma token {lemma!r}")
    return inputs, report.to_dict(), report.verdict


def _dispatch_gen(args: argparse.Namespace, parser: _Parser):
    X, inputs = _load_vector(args, parser)
    values = []
    for v in X.values:
        values.append(str(v.numerator) if v.denominator == 1 else f"{v.numerator}/{v.denominator}")
    payload = {
        "weights": values,
        "mode": "require-zero-sum",
        "provenance": inputs,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=2)
            fh.write("\n")
        report = {"type": "gen", "written": args.out, "n": X.n}
    else:
        report = {"type": "gen", "weight_file": payload, "n": X.n}
    return inputs, report, VERDICT_VERIFIED


def main(argv: Sequence[str] | None = None) -> int:
    out, err, code = run(sys.argv[1:] if argv is None else argv)
    if out:
        sys.stdout.write(out)
    if err:
        sys.stderr.write(err)
    return code


if __name__ == "__main__":
    sys.exit(main())
