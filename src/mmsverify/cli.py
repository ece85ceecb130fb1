"""Command-line front end that dispatches parsed arguments to the library.

Reports carry every mathematical value as an exact decimal or p/q string.
In json format the runtime field is null so that identical inputs produce
byte-identical output; the text format shows the measured runtime.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Sequence, TextIO

from .combinat import KSubset
from .counting import Atom, Restriction, count_nonnegative
from .lemmas import (
    simulate_partition,
    verify_contains_top_bound,
    verify_disjoint_bound,
    verify_intersecting_bound,
    verify_mms_bound,
    verify_scalar_inequalities,
    verify_second_block_bound,
)
from .report import VERDICT_VERIFIED, VERDICT_VIOLATED, BitRow, exact_str
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
    p_search.add_argument("--max-distinct", type=int, help="default 2; --counterexample uses 3")
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
        if kind == "contains" and len(indices) != 1:
            parser.error("contains: takes exactly one index")
        atom = Restriction((Atom(kind, frozenset(indices)),))  # Atom refuses an unknown kind
        combined = atom if combined is None else combined & atom
    return combined


def _load_vector(args: argparse.Namespace, parser: _Parser):
    chosen = sum((args.weights is not None, args.star, args.random))
    if chosen != 1:
        parser.error("exactly one of --weights, --star, --random is required")
    if args.weights is not None:
        X = load_weights(args.weights)
        inputs = {"source": args.weights}
        if X.shift:  # the counts are the shifted vector's
            inputs.update(mode="shift-to-zero", shift=exact_str(X.shift))
        return X, inputs
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
    if not 1 <= k <= n:  # range(n - k, n) would name another k
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if args.tset is None:
        return KSubset.of(tuple(range(n - k, n)), n)
    try:
        indices = tuple(int(part) for part in args.tset.split(","))
    except ValueError:
        parser.error(f"bad --tset value {args.tset!r}")
    return KSubset.of(indices, n)


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


_ARRAY_OR_OBJECT = (dict, list, tuple, BitRow)


def _all_scalars(items) -> bool:
    # the types of a long array (spectrum's 4,368 column subsets) are one set, built without a Python loop
    return not any(issubclass(t, _ARRAY_OR_OBJECT) for t in set(map(type, items)))


def _text_block(value, indent: int):
    """Lines of the text rendering of value at indent; an array of scalars, or a BitRow, is one chunk."""
    pad = "  " * indent
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, _ARRAY_OR_OBJECT) and item:
                yield f"{pad}{key}:\n"
                yield from _text_block(item, indent + 1)
            else:
                rendered = item if not isinstance(item, _ARRAY_OR_OBJECT) else "{}" if item == {} else "[]"
                yield f"{pad}{key}: {rendered}\n"
    elif isinstance(value, BitRow):
        if value:
            dash = f"{pad}- "
            yield dash + f"\n{dash}".join(value.digits()) + "\n"
    elif isinstance(value, (list, tuple)) and _all_scalars(value):
        yield "".join([f"{pad}- {item}\n" for item in value])
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, _ARRAY_OR_OBJECT):
                yield f"{pad}-\n"
                yield from _text_block(item, indent + 1)
            else:
                yield f"{pad}- {item}\n"
    else:
        yield f"{pad}{value}\n"


def _json(value, pad: str = ""):
    """Chunks of json.dumps(value, sort_keys=True, indent=2) for a value nested at indent pad.

    Any indent selects the pure-Python encoder for the whole document, so
    instead each container whose items are all scalars is one call of the C
    encoder, with the newline and the next indent in its item separator; a
    BitRow's body is its digits joined by that separator. Only nested
    containers recurse. Report keys are strings, so a key is encoded on its
    own as a JSON string.
    """
    if not isinstance(value, _ARRAY_OR_OBJECT) or not value:
        yield "[]" if isinstance(value, BitRow) else json.dumps(value)
        return
    is_dict = isinstance(value, dict)
    inner = pad + "  "
    sep = ",\n" + inner
    opening, closing = "{}" if is_dict else "[]"
    if isinstance(value, BitRow):
        yield f"[\n{inner}{sep.join(value.digits())}\n{pad}]"
        return
    if _all_scalars(value.values() if is_dict else value):
        body = json.dumps(value, sort_keys=True, separators=(sep, ": "))[1:-1]
        yield f"{opening}\n{inner}{body}\n{pad}{closing}"
        return
    head = f"{opening}\n{inner}"
    for key in sorted(value) if is_dict else range(len(value)):
        yield head + (f"{json.dumps(key)}: " if is_dict else "")
        yield from _json(value[key], inner)
        head = sep
    yield f"\n{pad}{closing}"


def _render(doc: dict, fmt: str):
    """The report's chunks: json.dumps(doc, sort_keys=True, indent=2) and a newline, or the text lines."""
    if fmt == "json":
        yield from _json(doc)
        yield "\n"
        return
    for key in ("command", "verdict", "runtime_ms"):
        yield f"{key}: {doc[key]}\n"
    for key in ("inputs", "report"):
        yield f"{key}:\n"
        yield from _text_block(doc[key], 1)


_EXIT_BY_VERDICT = {VERDICT_VERIFIED: 0, VERDICT_VIOLATED: 1}


def run(argv: Sequence[str], stdout: TextIO) -> tuple[str, int]:
    """Execute one invocation, writing the report to stdout chunk by chunk.

    Returns (stderr text, exit code).
    """
    parser = _build_parser()
    started = time.perf_counter()
    try:
        args = parser.parse_args(argv)
        if args.subcommand is None:
            parser.error("a subcommand is required")
        inputs, report, verdict = _dispatch(args, parser)
    except _UsageError as exc:
        return f"{exc}\n", 2
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        return f"mmsverify: error: {exc}\n", 2
    except Exception as exc:  # a fault of the tool, never a verdict on the claim
        return f"mmsverify: internal error: {type(exc).__name__}: {exc}\n", 3
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    doc = {
        "command": _echo(argv),
        "inputs": inputs,
        "report": report,
        "verdict": verdict,
        "runtime_ms": None if args.format == "json" else round(elapsed_ms, 3),
    }
    try:
        for chunk in _render(doc, args.format):
            stdout.write(chunk)
        stdout.flush()
    except OSError as exc:
        return f"mmsverify: error: cannot write the report: {exc}\n", 2
    except Exception as exc:  # the report stays truncated, never complete
        return f"mmsverify: internal error: {type(exc).__name__}: {exc}\n", 3
    return "", _EXIT_BY_VERDICT.get(verdict, 2)


def _dispatch(args: argparse.Namespace, parser: _Parser):
    if args.subcommand == "count":
        X, inputs = _load_vector(args, parser)
        restriction = _parse_restriction(args.restrict, parser)
        report = count_nonnegative(X, args.k, restriction)
        return inputs, report.to_dict(), report.verdict

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
            for flag, value in (("--n", args.n), ("--max-distinct", args.max_distinct)):
                if value is not None:
                    parser.error(f"--counterexample sets n = 3k + r and 3 values; drop {flag}")
            report = find_counterexample(args.k, args.r, args.value_range)
            inputs = {"k": args.k, "r": args.r, "value_range": args.value_range}
        else:
            if args.n is None:
                parser.error("search needs --n (or --counterexample with -r)")
            if args.r is not None:
                parser.error("-r applies only with --counterexample")
            chosen = {} if args.max_distinct is None else {"max_distinct": args.max_distinct}
            space = SearchSpace(n=args.n, k=args.k, value_range=args.value_range, **chosen)
            report = sweep_patterns(space)
            inputs = dict(report.provenance)
        return inputs, report.to_dict(), report.verdict

    return _dispatch_gen(args, parser)  # the subparsers admit no other subcommand


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
    else:  # theorem, the last of the parser's LEMMA_TOKENS
        report = verify_mms_bound(X, args.k)
    return inputs, report.to_dict(), report.verdict


def _dispatch_gen(args: argparse.Namespace, parser: _Parser):
    X, inputs = _load_vector(args, parser)
    payload = {
        "weights": exact_str(X.values),
        "mode": "require-zero-sum",
        "provenance": inputs,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(_json(payload))
            fh.write("\n")
        report = {"type": "gen", "written": args.out, "n": X.n}
    else:
        report = {"type": "gen", "weight_file": payload, "n": X.n}
    return inputs, report, VERDICT_VERIFIED


def main(argv: Sequence[str] | None = None) -> int:
    err, code = run(sys.argv[1:] if argv is None else argv, sys.stdout)
    sys.stderr.write(err)
    try:
        sys.stdout.flush()
    except OSError:  # already reported; the flush at exit goes to os.devnull, not to a traceback
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
