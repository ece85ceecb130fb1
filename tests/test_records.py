"""The frozen value records: construction, immutability, equality, refusals."""

import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from mmsverify import (
    Claim,
    CountReport,
    KSubset,
    LemmaReport,
    MultiplicityPattern,
    PartitionTrial,
    Precondition,
    Restriction,
    SearchReport,
    SearchSpace,
    StructureMatrix,
    WeightVector,
)
from mmsverify.combinat import _Record
from mmsverify.counting import Atom

PATTERN = MultiplicityPattern(((F(1), 1), (F(-1), 1)))
ATOM = Atom("contains", frozenset({0}))

# class: (field names in order, arguments, different arguments, defaults)
RECORDS = {
    KSubset: (("indices", "n"), ((0, 2), 4), ((1, 2), 4), {}),
    WeightVector: (
        ("values", "shift", "provenance"),
        ((F(1), F(-1)), F(1, 2), None),
        ((F(2), F(-2)), F(0), None),
        {"shift": F(0), "provenance": None},
    ),
    Precondition: (("name", "value", "satisfied"), ("n >= 2k", 6, True), ("n >= 2k", 6, False), {}),
    Claim: (
        ("description", "lhs", "relation", "rhs", "satisfied", "note"),
        ("count", 3, ">=", 2, True, "why"),
        ("count", 3, ">=", 4, False, "why"),
        {"note": ""},
    ),
    LemmaReport: (
        ("name", "preconditions", "claims", "witness", "extra"),
        ("2", (Precondition("k >= 1", 1, True),), (Claim("c", 1, "==", 1, True),), (0, 1), {"b": 1}),
        ("3", (), (), None, {}),
        {"witness": None, "extra": {}},
    ),
    Atom: (("kind", "indices"), ("contains", frozenset({0})), ("disjoint", frozenset({0})), {}),
    Restriction: (("atoms",), ((ATOM,),), ((ATOM, ATOM),), {"atoms": ()}),
    CountReport: (
        ("n", "k", "restriction", "total_checked", "nonnegative_count", "engine",
         "bound_comparisons", "star_equality", "witness"),
        (4, 2, Restriction(), 6, 3, "enumeration", (("star", 3, True),), True, "0,1"),
        (4, 2, Restriction(), 6, 4, "enumeration", (), None, None),
        {"bound_comparisons": (), "star_equality": None, "witness": None},
    ),
    MultiplicityPattern: (("pairs",), (PATTERN.pairs,), (((F(2), 1), (F(-1), 2)),), {}),
    SearchSpace: (("n", "k", "max_distinct", "value_range"), (6, 2, 3, 4), (6, 2, 3, 5),
                  {"max_distinct": 2, "value_range": 6}),
    SearchReport: (
        ("n", "k", "best_pattern", "best_count", "bound", "violation", "candidates_examined",
         "provenance", "reverified_dp", "reverified_enum"),
        (2, 1, PATTERN, 1, 1, False, 5, {"n": 2}, True, None),
        (2, 1, PATTERN, 1, 1, False, 6, {"n": 2}, True, True),
        {},
    ),
    StructureMatrix: (
        ("kind", "n", "j", "k", "rows"),
        ("inclusion", 2, 1, 1, ((1, 0), (0, 1))),
        ("kneser", 2, 1, 1, ((0, 1), (1, 0))),
        {},
    ),
    PartitionTrial: (("trial", "permutation", "parts", "z"), (0, (1, 0), ((0, 1),), 1),
                     (1, (1, 0), ((0, 1),), 1), {}),
}


def _hashable(values):
    try:
        hash(values)
    except TypeError:
        return False
    return True


def test_every_record_class_is_covered():
    def subclasses(cls):
        for sub in cls.__subclasses__():
            yield sub
            yield from subclasses(sub)

    assert set(subclasses(_Record)) == set(RECORDS)


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_behaviour(cls):
    names, args, other_args, defaults = RECORDS[cls]
    a = cls(*args)
    b = cls(**dict(zip(names, args)))
    assert tuple(getattr(a, f) for f in names) == args
    assert a == b and not a != b
    assert a != cls(*other_args)
    assert a != args  # never equal to a plain tuple of the same fields
    if _hashable(args):
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{f}={v!r}" for f, v in zip(names, args)) + ")"

    required = [v for f, v in zip(names, args) if f not in defaults]
    bare = cls(*required)
    for f, value in defaults.items():
        assert getattr(bare, f) == value
    if required:
        with pytest.raises(TypeError):
            cls(*required[:-1])
    with pytest.raises(TypeError):
        cls(*args, *args[:1])
    with pytest.raises(TypeError):
        cls(*args, no_such_field=1)
    with pytest.raises(TypeError):
        cls(*args, **{names[0]: args[0]})

    for f in names:
        with pytest.raises(AttributeError):
            setattr(a, f, None)
        with pytest.raises(AttributeError):
            delattr(a, f)
        assert getattr(a, f) is args[names.index(f)]
    with pytest.raises(AttributeError):
        a.not_a_field = 1


def test_weight_vector_equality_ignores_provenance():
    a = WeightVector((F(1), F(-1)), provenance={"generator": "star", "n": 2})
    b = WeightVector((F(1), F(-1)), provenance=None)
    assert a == b and hash(a) == hash(b)
    assert a != WeightVector((F(1), F(-1)), shift=F(1, 2))


def test_lemma_reports_get_their_own_extra_dict():
    a, b = LemmaReport("x", (), ()), LemmaReport("x", (), ())
    assert a.extra == {} and a.extra is not b.extra
    a.extra["seen"] = True
    assert b.extra == {}


@pytest.mark.parametrize(
    "cls,args,exc",
    [
        (KSubset, ((), 0), ValueError),
        (KSubset, ((), 3), ValueError),
        (KSubset, ((1, 1), 3), ValueError),
        (KSubset, ((0, True), 3), ValueError),
        (KSubset, ((0, 3), 3), ValueError),
        (WeightVector, ((),), ValueError),
        (WeightVector, ((1, -1),), TypeError),
        (WeightVector, ((F(-1), F(1)),), ValueError),
        (WeightVector, ((F(1), F(0)),), ValueError),
        (MultiplicityPattern, ((),), ValueError),
        (MultiplicityPattern, (((1, 1), (-1, 1)),), TypeError),
        (MultiplicityPattern, (((F(1), 0), (F(-1), 1)),), ValueError),
        (MultiplicityPattern, (((F(-1), 1), (F(1), 1)),), ValueError),
        (MultiplicityPattern, (((F(1), 1), (F(-2), 1)),), ValueError),
        (SearchSpace, (4, 5), ValueError),
        (SearchSpace, (6, 2, 5), ValueError),
        (SearchSpace, (6, 2, 2, 0), ValueError),
        (StructureMatrix, ("inclusion", 2, 1, 1, ((1, 0),)), ValueError),
        (StructureMatrix, ("inclusion", 2, 1, 1, ((1,), (0,))), ValueError),
        (StructureMatrix, ("inclusion", 2, 1, 1, ((1, 1), (0, 1))), ValueError),
    ],
)
def test_record_refusals_keep_their_exception_types(cls, args, exc):
    with pytest.raises(exc):
        cls(*args)


GUARD = """
import sys
before = set(sys.modules)
from mmsverify import cli
for argv in (
    ["count", "--star", "--n", "8", "-k", "2"],
    ["verify", "--lemma", "2", "--star", "--n", "6", "-k", "2", "--format", "json"],
    ["spectrum", "--kind", "inclusion", "--n", "4", "-j", "1", "-k", "2"],
    ["search", "--n", "5", "-k", "2", "--format", "json"],
    ["gen", "--random", "--n", "4", "--seed", "1"],
):
    out, err, code = cli.run(argv)
    assert code in (0, 1) and not err and out, (argv, code, err)
print(sorted({"dataclasses", "inspect"} & (set(sys.modules) - before)))
"""


def test_cli_never_imports_dataclasses_or_inspect():
    # an exact check of what one CLI process loads, not a wall-time gate
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", GUARD], capture_output=True, text=True, env=env, cwd=root)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
