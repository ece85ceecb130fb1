"""Seeded inputs and the op list of each benchmark workload.

The same seed writes the same weight documents. The program receives them
only as files, through `--weights` on the CLI or `load_weights` in the
library runner. Nothing here imports mmsverify.

Each op records the input properties the program's speed depends on: n, k,
C(n, k), the number of distinct values and the LCM of the denominators
(rational inputs are scaled to integers; the star hits the equality re-walk).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm
from pathlib import Path

MAGNITUDE = 100
DENOMINATORS = (6, 10, 12, 15)


@dataclass
class Op:
    """One checked unit of work: a CLI process or one library call.

    `check` tells the oracle what to recompute; `argv` holds the arguments
    after `python -m mmsverify`, `call` a library call for child.py.
    """

    name: str
    check: dict
    argv: list[str] | None = None
    call: dict | None = None
    props: dict = field(default_factory=dict)


@dataclass
class Workload:
    name: str
    ops: list[Op]
    baseline: list[Op]  # ROADMAP baseline rows, measured once in a traced run

    @property
    def library(self) -> bool:
        """The ops are library calls, all made by one library-runner process per pass."""
        return self.ops[0].call is not None

    @property
    def baseline_library(self) -> bool:
        return bool(self.baseline) and self.baseline[0].call is not None


def random_ints(rng: random.Random, n: int) -> list[Fraction]:
    draws = [rng.randint(-MAGNITUDE, MAGNITUDE) for _ in range(n - 1)]
    draws.append(-sum(draws))
    return [Fraction(v) for v in draws]


def random_rationals(rng: random.Random, n: int) -> list[Fraction]:
    """Zero-sum p/q values over one common denominator; reduced LCM above 1."""
    den = rng.choice(DENOMINATORS)
    while True:
        nums = [rng.randint(-MAGNITUDE, MAGNITUDE) for _ in range(n - 1)]
        nums.append(-sum(nums))
        values = [Fraction(p, den) for p in nums]
        if lcm(*(v.denominator for v in values)) > 1:
            return values


def star(n: int) -> list[Fraction]:
    return [Fraction(n - 1)] + [Fraction(-1)] * (n - 1)


class Inputs:
    """Writes weight documents, in shuffled order, into one directory."""

    def __init__(self, directory: Path, seed: int):
        self.dir = directory
        self.rng = random.Random(seed)
        self.count = 0
        directory.mkdir(parents=True, exist_ok=True)

    def weights(self, kind: str, n: int) -> tuple[str, dict]:
        if kind == "int":
            values = random_ints(self.rng, n)
        elif kind == "rat":
            values = random_rationals(self.rng, n)
        else:
            values = star(n)
        doc = [str(v) for v in values]
        self.rng.shuffle(doc)
        self.count += 1
        path = self.dir / f"w{self.count:02d}-{kind}{n}.json"
        path.write_text(json.dumps({"weights": doc}))
        props = {
            "input": kind,
            "n": n,
            "distinct": len(set(values)),
            "lcm": lcm(*(v.denominator for v in values)),
        }
        return str(path), props

    def sample(self, population: int, size: int) -> list[int]:
        return sorted(self.rng.sample(range(population), size))


def _props(props: dict, k: int) -> dict:
    return {**props, "k": k, "subsets": comb(props["n"], k)}


def _cli(name: str, args: list[str], check: dict, props: dict) -> Op:
    return Op(name, check, argv=args + ["--format", "json"], props=props)


def count_op(inp: Inputs, name: str, kind: str, n: int, k: int, disjoint: int = 0) -> Op:
    path, props = inp.weights(kind, n)
    args = ["count", "--weights", path, "-k", str(k)]
    check = {"kind": "count", "weights": path, "k": k}
    if disjoint:
        check["disjoint"] = inp.sample(n, disjoint)
        args += ["--restrict", "disjoint:" + ",".join(map(str, check["disjoint"]))]
    return _cli(name, args, check, _props(props, k))


def lemma_op(inp: Inputs, lemma: str, kind: str, n: int, k: int) -> Op:
    path, props = inp.weights(kind, n)
    args = ["verify", "--lemma", lemma, "--weights", path, "-k", str(k)]
    check = {"kind": "lemma", "lemma": lemma, "weights": path, "k": k}
    return _cli(f"lemma-{lemma}-{kind}{n}", args, check, _props(props, k))


def setup_op(directory: Path) -> Op:
    """The trivial invocation timed for setup_s: start, import, parse, tiny count."""
    path = directory / "setup-star8.json"
    path.write_text(json.dumps({"weights": [str(v) for v in star(8)]}))
    props = {"input": "star", "n": 8, "distinct": 2, "lcm": 1}
    check = {"kind": "count", "weights": str(path), "k": 2}
    return _cli("setup", ["count", "--weights", str(path), "-k", "2"], check, _props(props, 2))


def cli_enum(inp: Inputs) -> Workload:
    """Separate CLI processes each pay the cold delta-table build, so combinat dominates; the (34,6) count keeps it so."""
    ops = [
        count_op(inp, "count-int34", "int", 34, 6),
        count_op(inp, "count-rat22-disjoint", "rat", 22, 6, disjoint=3),
        count_op(inp, "count-star20", "star", 20, 6),
        lemma_op(inp, "2", "int", 25, 5),
        lemma_op(inp, "3", "rat", 25, 5),
        lemma_op(inp, "lotson1", "int", 25, 5),
        lemma_op(inp, "4", "rat", 25, 5),
        lemma_op(inp, "theorem", "int", 72, 3),
        lemma_op(inp, "theorem", "star", 72, 3),
    ]
    baseline = [count_op(inp, "baseline.cli_count_34_6_s", "int", 34, 6)]
    return Workload("cli-enum", ops, baseline)


def _lib(name: str, call: dict, check: dict, props: dict) -> Op:
    return Op(name, check, call=call, props=props)


def lib_sweep(inp: Inputs) -> Workload:
    """One library process fills the delta cache once per (n, k) and hits it many times.

    This is how the acceptance sweeps use the library; a change that speeds
    the cold build by dropping or shrinking the cache shows its cost here.
    """
    ops = []
    for i in range(8):
        kind = "int" if i % 2 == 0 else "rat"
        path, props = inp.weights(kind, 28)
        spec = {"weights": path, "k": 6}
        ops.append(_lib(f"count-{kind}28-{i}", {"fn": "count_nonnegative", **spec},
                        {"kind": "count", **spec}, _props(props, 6)))
    for i in range(8):
        kind = "int" if i % 2 == 0 else "rat"
        path, props = inp.weights(kind, 24)
        spec = {"weights": path, "k": 5}
        atoms = [["contains", [0]], ["disjoint", [1 + j for j in inp.sample(23, 2)]]]
        ops.append(_lib(f"restricted-{kind}24-{i}", {"fn": "restricted_sum", "atoms": atoms, **spec},
                        {"kind": "restricted_sum", "atoms": atoms, **spec}, _props(props, 5)))
        block = inp.sample(24, 3)
        ops.append(_lib(f"overlap-{kind}24-{i}", {"fn": "overlap_sums", "block": block, **spec},
                        {"kind": "overlap_sums", "block": block, **spec}, _props(props, 5)))
    for i in range(8):
        kind = "int" if i % 2 == 0 else "rat"
        path, props = inp.weights(kind, 20)
        spec = {"weights": path, "k": 5}
        ops.append(_lib(f"family-{kind}20-{i}", {"fn": "nonnegative_family", **spec},
                        {"kind": "family", **spec}, _props(props, 5)))
    for n, k in ((24, 6), (30, 5)):
        spec = {"values": [str(n - 1), "-1"], "mults": [1, n - 1], "k": k}
        props = {"input": "star", "n": n, "distinct": 2, "lcm": 1}
        ops.append(_lib(f"dp-star{n}", {"fn": "count_nonnegative_dp", **spec},
                        {"kind": "dp", **spec}, _props(props, k)))
    for i in range(2):
        spec = {**three_value_pattern(inp.rng, 24), "k": 6}
        props = {"input": "pattern", "n": 24, "distinct": 3,
                 "lcm": lcm(*(Fraction(v).denominator for v in spec["values"]))}
        ops.append(_lib(f"dp-pattern24-{i}", {"fn": "count_nonnegative_dp", **spec},
                        {"kind": "dp", **spec}, _props(props, 6)))
    path, props = inp.weights("int", 34)
    spec = {"weights": path, "k": 6}
    baseline = [
        _lib(f"baseline.count_34_6_{when}_s", {"fn": "count_nonnegative", **spec},
             {"kind": "count", **spec}, _props(props, 6))
        for when in ("cold", "warm")
    ]
    return Workload("lib-sweep", ops, baseline)


def three_value_pattern(rng: random.Random, n: int) -> dict:
    """Strictly decreasing zero-sum values v1 > v2 > v3 with positive multiplicities."""
    while True:
        m1 = rng.randint(1, n - 2)
        m2 = rng.randint(1, n - m1 - 1)
        m3 = n - m1 - m2
        v1 = rng.randint(1, 30)
        v2 = rng.randint(-30, v1 - 1)
        v3 = Fraction(-(m1 * v1 + m2 * v2), m3)
        if v3 < v2:
            return {"values": [str(v1), str(v2), str(v3)], "mults": [m1, m2, m3]}


# Pinned outcomes of the grid searches at this benchmark's sizes; exit 1 is
# the correct result for a search that finds a violation.
SEARCHES = (
    ("counterexample-k7-r1-v20", ["--counterexample", "-k", "7", "-r", "1", "--value-range", "20"],
     {"n": 22, "k": 7, "best_count": 50388, "violation": True, "candidates_examined": 68902}),
    ("n22-k7-d3-v10", ["--n", "22", "-k", "7", "--max-distinct", "3", "--value-range", "10"],
     {"n": 22, "k": 7, "best_count": 50388, "violation": True, "candidates_examined": 17658}),
    ("n14-k4-d4-v4", ["--n", "14", "-k", "4", "--max-distinct", "4", "--value-range", "4"],
     {"n": 14, "k": 4, "best_count": 286, "violation": False, "candidates_examined": 9236}),
)
BASELINE_SEARCH = {"n": 22, "k": 7, "best_count": 50388, "violation": True, "candidates_examined": 272665}


def search_grid() -> Workload:
    """The candidate loop and the pattern DP dominate; the walk runs only in the n <= 16 re-check.

    The searches take no weights, so the seed changes nothing here.
    """
    ops = []
    for name, args, pinned in SEARCHES:
        props = {"input": "grid", "n": pinned["n"], "k": pinned["k"], "subsets": comb(pinned["n"], pinned["k"])}
        ops.append(_cli(name, ["search"] + args, {"kind": "search", **pinned}, props))
    baseline = [_lib("baseline.find_counterexample_7_1_40_s",
                     {"fn": "find_counterexample", "k": 7, "r": 1, "value_range": 40},
                     {"kind": "search", **BASELINE_SEARCH},
                     {"input": "grid", "n": 22, "k": 7, "subsets": comb(22, 7)})]
    return Workload("search-grid", ops, baseline)


def operator_sim(inp: Inputs, seed: int) -> Workload:
    """Operator checks, the partition simulation loop and CLI rendering dominate; the walk is small."""

    def weighted(name, kind, n, k, args, check):
        path, props = inp.weights(kind, n)
        return _cli(name, ["verify", "--weights", path, "-k", str(k)] + args,
                    {"weights": path, "k": k, **check}, _props(props, k))

    ops = [
        weighted("eigenvector-int15", "int", 15, 5, ["--lemma", "eigenvector"], {"kind": "eigenvector"}),
        weighted("wilson-rat17-j2", "rat", 17, 5, ["--lemma", "wilson", "-j", "2"],
                 {"kind": "wilson", "j": 2}),
        _cli("spectrum-inclusion-16-2-5", ["spectrum", "--kind", "inclusion", "--n", "16", "-j", "2", "-k", "5"],
             {"kind": "spectrum", "matrix": "inclusion", "n": 16, "j": 2, "k": 5},
             {"input": "none", "n": 16, "k": 5, "subsets": comb(16, 5)}),
        weighted("partition-int26", "int", 26, 5,
                 ["--lemma", "partition", "--trials", "30000", "--seed", str(seed)],
                 {"kind": "partition", "trials": 30000, "seed": seed}),
        weighted("partition-rat34", "rat", 34, 4,
                 ["--lemma", "partition", "--trials", "12000", "--seed", str(seed)],
                 {"kind": "partition", "trials": 12000, "seed": seed}),
    ]
    p16, props16 = inp.weights("int", 16)
    p24, props24 = inp.weights("int", 24)
    baseline = [
        _lib("baseline.eigenvector_all_16_5_s", {"fn": "verify_eigenvector_all", "weights": p16, "k": 5},
             {"kind": "eigenvector", "weights": p16, "k": 5}, _props(props16, 5)),
        _lib("baseline.simulate_partition_24_4_10k_s",
             {"fn": "simulate_partition", "weights": p24, "k": 4, "trials": 10000, "seed": 0},
             {"kind": "partition", "weights": p24, "k": 4, "trials": 10000, "seed": 0}, _props(props24, 4)),
    ]
    return Workload("operator-sim", ops, baseline)


def build(name: str, seed: int, directory: Path) -> Workload:
    inp = Inputs(directory, seed)
    if name == "cli-enum":
        return cli_enum(inp)
    if name == "lib-sweep":
        return lib_sweep(inp)
    if name == "search-grid":
        return search_grid()
    if name == "operator-sim":
        return operator_sim(inp, seed)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("cli-enum", "lib-sweep", "search-grid", "operator-sim")
