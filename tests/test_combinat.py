import math
import time
from itertools import combinations

import pytest

from mmsverify.combinat import (
    ENUM_BUDGET,
    KSubset,
    binomial,
    door_deltas,
    rank_colex,
    unrank_colex,
)

from _oracles import BinomialTable, brute_colex_rank, revolving_door_deltas


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
    assert s.bitmask() == 0b100101


def test_rank_colex_frozen_value():
    # positions {2,3} in n=4: C(2,1) + C(3,2) = 2 + 3
    assert rank_colex(KSubset((2, 3), 4)) == 5


def test_rank_unrank_round_trip_exhaustive():
    for n in range(1, 8):
        for k in range(1, n + 1):
            for indices in combinations(range(n), k):
                r = rank_colex(KSubset(indices, n))
                assert r == brute_colex_rank(indices, n)
                assert unrank_colex(r, k, n).indices == indices


def test_unrank_rejects_bad_rank():
    with pytest.raises(ValueError):
        unrank_colex(binomial(6, 2), 2, 6)
    with pytest.raises(ValueError):
        unrank_colex(-1, 2, 6)


def _walk_deltas(n, k):
    current = list(range(k))
    seen = [tuple(current)]
    for rem, add in door_deltas(n, k):
        current[current.index(rem)] = add
        current.sort()
        seen.append(tuple(current))
    return seen


def test_door_deltas_visit_every_subset_once():
    for n in range(1, 9):
        for k in range(1, n + 1):
            seen = _walk_deltas(n, k)
            assert len(seen) == binomial(n, k)
            assert len(set(seen)) == binomial(n, k)
            assert seen[0] == tuple(range(k))
            if k < n:
                assert seen[-1] == tuple(range(k - 1)) + (n - 1,)


def test_door_deltas_change_one_element():
    for rem, add in door_deltas(7, 3):
        assert rem != add


def test_door_deltas_follow_the_recursive_order():
    for n in range(0, 13):
        for k in range(0, n + 1):
            assert list(door_deltas(n, k)) == revolving_door_deltas(n, k), (n, k)


def test_door_deltas_reach_large_n():
    # one level per k and no recursion, so n far above the recursion limit works
    deltas = list(door_deltas(5000, 1))
    assert deltas[0] == (0, 1) and deltas[-1] == (4998, 4999)
    assert len(list(door_deltas(5000, 4999))) == 4999


def test_door_deltas_refuse_over_budget_before_building():
    started = time.perf_counter()
    with pytest.raises(ValueError, match="enumeration budget"):
        door_deltas(60, 10)  # C(60,10) is about 7.5e10
    # k > (n+1)/2: C(20000,19999) is within budget, but the levels would
    # hold C(20001,19999), about 2e8 entries
    assert binomial(20000, 19999) <= ENUM_BUDGET < binomial(20001, 19999) // 10
    with pytest.raises(ValueError, match="enumeration budget"):
        door_deltas(20000, 19999)
    assert time.perf_counter() - started < 1.0
