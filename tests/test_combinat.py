import ast
import importlib
import math
import pkgutil
import time
from itertools import combinations
from pathlib import Path

import pytest

import mmsverify
from mmsverify.combinat import ENUM_BUDGET, KSubset, binomial, colex

from _oracles import BinomialTable, brute_colex_rank, rank_colex, unrank_colex


def test_binomial_matches_math_comb():
    for a in range(0, 25):
        for b in range(0, a + 1):
            assert binomial(a, b) == math.comb(a, b)


def test_binomial_zero_extension():
    assert binomial(-1, 0) == 0
    assert binomial(-3, 2) == 0
    assert binomial(4, -1) == 0
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1


def test_binomial_table_agrees_with_direct():
    table = BinomialTable(20)
    for a in range(0, 21):
        for b in range(-1, a + 2):
            assert table.get(a, b) == binomial(a, b)
    assert table.get(-2, 1) == 0


def test_binomial_table_bounds():
    table = BinomialTable(6)
    with pytest.raises(ValueError):
        table.get(7, 2)


def test_ksubset_validation():
    KSubset((0, 2, 5), 6)
    with pytest.raises(ValueError):
        KSubset((2, 0), 6)  # not increasing
    with pytest.raises(ValueError):
        KSubset((0, 0), 6)  # duplicate
    with pytest.raises(ValueError):
        KSubset((0, 6), 6)  # out of range
    with pytest.raises(ValueError):
        KSubset((), 6)  # empty
    with pytest.raises(ValueError):
        KSubset((True, 2), 6)  # bool is not an index


def test_ksubset_of_sorts():
    s = KSubset.of((5, 0, 2), 6)
    assert s.indices == (0, 2, 5)
    assert s.k == 3


def test_rank_colex_frozen_value():
    # positions {2,3} in n=4: C(2,1) + C(3,2) = 2 + 3
    assert rank_colex(KSubset((2, 3), 4)) == 5


def test_rank_unrank_round_trip_exhaustive():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for indices in combinations(range(n), k):
                r = rank_colex(KSubset(indices, n))
                assert r == brute_colex_rank(indices, n)
                assert unrank_colex(r, k, n) == indices


def test_unrank_rejects_bad_rank():
    with pytest.raises(ValueError):
        unrank_colex(binomial(6, 2), 2, 6)
    with pytest.raises(ValueError):
        unrank_colex(-1, 2, 6)


def test_colex_matches_sorted_combinations():
    for n in range(0, 10):
        for k in range(0, n + 1):
            order = sorted(combinations(range(n), k), key=lambda t: t[::-1])
            assert colex([(i,) for i in range(n)], k, ()) == order, (n, k)
            assert colex([1 << i for i in range(n)], k) == [sum(1 << i for i in S) for S in order]
            items = [3 * i * i - 7 for i in range(n)]
            assert colex(items, k) == [sum(items[i] for i in S) for S in order]


def test_colex_refuses_before_building():
    started = time.perf_counter()
    for k in (-1, 6):
        with pytest.raises(ValueError, match="0 <= k <= n"):
            colex(list(range(5)), k)
    with pytest.raises(ValueError, match="enumeration budget"):
        colex(list(range(60)), 10)  # C(60,10) is about 7.5e10
    # k > (n+1)/2: C(20000,19999) is within budget, but the levels would
    # hold C(20001,19999), about 2e8 entries
    assert binomial(20000, 19999) <= ENUM_BUDGET < binomial(20001, 19999) // 10
    with pytest.raises(ValueError, match="enumeration budget"):
        colex(list(range(20000)), 19999)
    assert time.perf_counter() - started < 1.0


def test_the_package_has_two_budgets():
    # every other limit is a charge against ENUM_BUDGET, and GF_BIT_BUDGET caps memory
    names = set()
    for info in pkgutil.iter_modules(mmsverify.__path__):
        module = importlib.import_module(f"mmsverify.{info.name}")
        names |= {name for name in vars(module) if name.endswith("_BUDGET")}
    assert names == {"ENUM_BUDGET", "GF_BIT_BUDGET"}


PUBLIC_NAMES = {
    "Claim", "CountReport", "KSubset", "LemmaReport", "MultiplicityPattern", "Precondition",
    "Restriction", "SearchReport", "SearchSpace", "StructureMatrix", "WeightVector", "__version__",
    "binomial", "bose_mesner_eigenvalue", "build_structure_matrix", "count_nonnegative",
    "count_nonnegative_dp", "family_size", "find_counterexample", "gen_random_zero_sum",
    "gen_star", "load_weights", "nonnegative_family", "normalize", "overlap_sums",
    "restricted_sum", "simulate_partition", "single_overlap_coefficient", "star_family_size",
    "sweep_patterns", "verify_contains_top_bound", "verify_disjoint_bound", "verify_eigenvector",
    "verify_eigenvector_all", "verify_factorization", "verify_intersecting_bound",
    "verify_mms_bound", "verify_scalar_inequalities", "verify_second_block_bound",
    "verify_wilson_identities",
}


def test_the_public_names_are_pinned_and_resolve():
    # adding or removing a public name means editing this set
    assert len(mmsverify.__all__) == len(PUBLIC_NAMES)
    assert set(mmsverify.__all__) == PUBLIC_NAMES
    modules = [mmsverify] + [
        importlib.import_module(f"mmsverify.{info.name}") for info in pkgutil.iter_modules(mmsverify.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


# _Record, the base of every frozen record, may be taken by any module; any
# other private name a module takes from a sibling is listed here as
# (importer, source, name)
SHARED_PRIVATE = {("combinat", "_Record")}
PRIVATE_IMPORTS = {
    ("scheme", "counting", name)
    for name in ("_count_exact", "_divided_pass", "_divided_steps", "_pass_steps", "_size_pass")
}


def test_private_names_cross_modules_only_where_pinned():
    # a new private import between modules means editing these sets
    found = set()
    for path in sorted(Path(mmsverify.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ImportFrom):
                continue
            source = node.module or ""
            if not node.level:
                if not source.startswith("mmsverify."):
                    continue
                source = source[len("mmsverify."):]
            for alias in node.names:
                if alias.name.startswith("_") and (source, alias.name) not in SHARED_PRIVATE:
                    found.add((path.stem, source, alias.name))
    assert found == PRIVATE_IMPORTS
