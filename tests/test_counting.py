import time
from fractions import Fraction
from itertools import combinations

import pytest

from mmsverify.counting import (
    MultiplicityPattern,
    Restriction,
    count_nonnegative,
    count_nonnegative_dp,
    family_size,
    nonnegative_family,
    overlap_sums,
    restricted_sum,
    star_family_size,
)
from mmsverify.weights import gen_random_zero_sum, gen_star, normalize, subset_sums

from _oracles import brute_count, brute_family, brute_restricted_sum


def test_star_family_size():
    assert star_family_size(6, 2) == 5
    assert star_family_size(32, 2) == 31
    assert star_family_size(22, 7) == 54264


def test_count_star_frozen():
    report = count_nonnegative(gen_star(6), 2)
    assert report.nonnegative_count == 5
    assert report.total_checked == 15
    assert report.star_equality is True
    assert report.bound_comparisons[0][2] is True


def test_count_matches_brute_across_seeds():
    for n in range(2, 11):
        for k in range(1, n + 1):
            for seed in range(3):
                X = gen_random_zero_sum(n, 8, seed=seed)
                got = count_nonnegative(X, k).nonnegative_count
                assert got == brute_count(X.values, k), (n, k, seed)


def test_count_with_restrictions_matches_brute():
    X = gen_random_zero_sum(10, 9, seed=21)
    cases = [
        (Restriction.contains(3), lambda s: 3 in s),
        (Restriction.intersects(0, 4, 7), lambda s: bool({0, 4, 7} & set(s))),
        (Restriction.disjoint(1, 2), lambda s: not {1, 2} & set(s)),
        (
            Restriction.contains(0) & Restriction.disjoint(8, 9),
            lambda s: 0 in s and not {8, 9} & set(s),
        ),
    ]
    for k in (2, 3, 4):
        for restriction, pred in cases:
            report = count_nonnegative(X, k, restriction)
            assert report.nonnegative_count == brute_count(X.values, k, pred)
            assert report.total_checked == sum(
                1 for s in combinations(range(10), k) if pred(s)
            )


def test_count_intersects_and_disjoint_matches_brute():
    X = gen_random_zero_sum(12, 15, seed=5)
    restriction = Restriction.intersects(0, 1) & Restriction.disjoint(11)

    def pred(s):
        return bool({0, 1} & set(s)) and 11 not in s

    for k in (2, 4):
        report = count_nonnegative(X, k, restriction)
        assert report.nonnegative_count == brute_count(X.values, k, pred)
        assert report.total_checked == sum(1 for s in combinations(range(12), k) if pred(s))


def test_restriction_validation():
    with pytest.raises(ValueError):
        Restriction.contains(3).validate(3)
    with pytest.raises(ValueError):
        Restriction.intersects()
    Restriction.disjoint(0, 1).validate(5)


def test_restriction_describe():
    r = Restriction.contains(0) & Restriction.disjoint(2, 1)
    assert r.describe() == "contains(0) & disjoint(1,2)"


def test_nonnegative_family_matches_brute_and_colex_order():
    X = gen_random_zero_sum(9, 7, seed=11)
    fam = nonnegative_family(X, 3)
    assert sorted(fam) == sorted(brute_family(X.values, 3))
    assert fam == sorted(fam, key=lambda t: t[::-1])


def test_restricted_sum_matches_brute():
    X = gen_random_zero_sum(9, 10, seed=3)
    r = Restriction.intersects(0, 2)
    got = restricted_sum(X, 3, r)
    assert got == brute_restricted_sum(X.values, 3, lambda s: bool({0, 2} & set(s)))


def test_overlap_sums_match_brute_and_telescope():
    X = gen_random_zero_sum(10, 6, seed=9)
    block = (0, 1, 2)
    sums = overlap_sums(X, 3, block)
    for t, value in enumerate(sums):
        expected = brute_restricted_sum(
            X.values, 3, lambda s, t=t: len(set(block) & set(s)) == t
        )
        assert value == expected
    # every subset falls in exactly one overlap class, and all k-subset
    # sums together telescope to C(n-1,k-1) * sum(x) = 0
    assert sum(sums) == 0


def test_multiplicity_pattern_round_trip():
    X = normalize([3, 3, "-2", "-2", "-2"])
    p = MultiplicityPattern.from_weights(X)
    assert p.pairs == ((Fraction(3), 2), (Fraction(-2), 3))
    assert p.n == 5 and p.d == 2
    assert p.expand().values == X.values
    assert p.describe() == "3x2 -2x3"


def test_multiplicity_pattern_validation():
    with pytest.raises(ValueError):
        MultiplicityPattern(((Fraction(1), 2), (Fraction(1), 1)))  # not decreasing
    with pytest.raises(ValueError):
        MultiplicityPattern(((Fraction(1), 1),))  # nonzero sum
    with pytest.raises(ValueError):
        MultiplicityPattern(())


def test_dp_matches_enumeration_small():
    # frozen by hand: values 1 x3, -1 x3, k=2: pairs (1,1) give C(3,2)=3,
    # (1,-1) give 9, (-1,-1) negative; 3 + 9 = 12
    p = MultiplicityPattern(((Fraction(1), 3), (Fraction(-1), 3)))
    assert count_nonnegative_dp(p, 2) == 12
    assert count_nonnegative_dp(p, 2, reverse=True) == 12
    X = p.expand()
    assert count_nonnegative(X, 2).nonnegative_count == 12


def test_dp_both_orders_agree_on_random_patterns():
    for seed in range(8):
        X = gen_random_zero_sum(11, 4, seed=seed)
        p = MultiplicityPattern.from_weights(X)
        for k in (1, 2, 5, 11):
            forward = count_nonnegative_dp(p, k)
            backward = count_nonnegative_dp(p, k, reverse=True)
            direct = count_nonnegative(X, k).nonnegative_count
            assert forward == backward == direct


def test_family_size_frozen_values():
    assert family_size(8, 2, 2) == 1
    assert family_size(8, 2, 4) == 0


def test_family_size_input_validation():
    with pytest.raises(ValueError):
        family_size(5, 3, 1)  # n < 2k
    with pytest.raises(ValueError):
        family_size(8, 2, 0)
    with pytest.raises(ValueError):
        family_size(8, 2, 8)


def test_count_rejects_k_out_of_range():
    X = gen_star(6)
    with pytest.raises(ValueError):
        count_nonnegative(X, 0)
    with pytest.raises(ValueError):
        count_nonnegative(X, 7)


def test_every_walker_rejects_k_outside_the_ground_set():
    X = gen_star(4)
    for k in (-1, 5):
        for walk in (
            lambda: restricted_sum(X, k, Restriction.contains(0)),
            lambda: overlap_sums(X, k, (0,)),
            lambda: nonnegative_family(X, k),
            lambda: subset_sums(X, k),
        ):
            with pytest.raises(ValueError):
                walk()


def test_every_walker_refuses_over_budget_fast():
    X = gen_random_zero_sum(60, 10, seed=1)  # C(60,10) is about 7.5e10
    walkers = [
        lambda: count_nonnegative(X, 10),
        lambda: restricted_sum(X, 10, Restriction.contains(0)),
        lambda: overlap_sums(X, 10, (0, 1, 2)),
        lambda: nonnegative_family(X, 10),
        lambda: subset_sums(X, 10),
    ]
    for walk in walkers:
        started = time.perf_counter()
        with pytest.raises(ValueError, match="enumeration budget"):
            walk()
        assert time.perf_counter() - started < 1.0
