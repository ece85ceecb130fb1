import random
from fractions import Fraction
from itertools import permutations

import pytest

from mmsverify import lemmas
from mmsverify.combinat import KSubset, binomial
from mmsverify.counting import Restriction, count_nonnegative
from mmsverify.lemmas import (
    second_block,
    simulate_partition,
    single_overlap_coefficient,
    top_block,
    verify_contains_top_bound,
    verify_disjoint_bound,
    verify_intersecting_bound,
    verify_mms_bound,
    verify_scalar_inequalities,
    verify_second_block_bound,
)
from mmsverify.weights import gen_random_zero_sum, gen_star, normalize

from _oracles import (
    brute_restricted_sum,
    contains_top_floor,
    replay_partition,
    scalar_final_value,
    second_block_floor,
)


def test_blocks():
    assert top_block(3) == (0, 1, 2)
    assert second_block(3) == (0, 3, 4)
    assert second_block(1) == (0,)


def test_single_overlap_coefficient_frozen():
    # (20, 4): C(15,3) - 3*C(15,2) = 455 - 315 = 140, and 140 = (4/13)*455
    assert single_overlap_coefficient(20, 4) == 140
    assert Fraction(140) == (1 - Fraction(9, 13)) * binomial(15, 3)


def test_intersecting_bound_star_frozen():
    # star n=8, k=2: the seven pairs through index 0 or 1 that are
    # nonnegative... top pair and the six (0, i); count is 7 > C(5,1) = 5
    report = verify_intersecting_bound(gen_star(8), 2)
    assert report.verdict == "verified"
    count_claim = report.claims[2]
    assert count_claim.lhs == 7
    assert count_claim.rhs == 5


def test_intersecting_bound_identities_match_brute():
    for n, k in ((6, 2), (8, 3), (9, 2), (10, 4)):
        for seed in range(4):
            X = gen_random_zero_sum(n, 9, seed=seed)
            if X.is_zero():
                continue
            report = verify_intersecting_bound(X, k)
            assert report.verdict == "verified", (n, k, seed)
            A = set(top_block(k))
            disj = brute_restricted_sum(X.values, k, lambda s: not A & set(s))
            meet = brute_restricted_sum(X.values, k, lambda s: bool(A & set(s)))
            assert report.claims[0].lhs == disj
            assert report.claims[1].lhs == meet


def test_intersecting_bound_preconditions():
    assert verify_intersecting_bound(gen_star(6), 1).verdict == "preconditions-not-met"
    assert verify_intersecting_bound(gen_star(5), 3).verdict == "preconditions-not-met"
    zero = normalize([0] * 8)
    assert verify_intersecting_bound(zero, 2).verdict == "preconditions-not-met"


def test_second_block_bound_identity_and_star():
    for n, k in ((8, 2), (10, 3), (12, 2)):
        X = gen_star(n)
        report = verify_second_block_bound(X, k)
        assert report.verdict == "verified"
        A = set(top_block(k))
        single = brute_restricted_sum(X.values, k, lambda s: len(A & set(s)) == 1)
        assert report.claims[0].lhs == single
        assert report.claims[0].rhs == single_overlap_coefficient(n, k) * sum(
            X.values[:k]
        )


def test_second_block_bound_vacuous_below_k_squared():
    # n = 8 < 9 = k^2: the conditional claim must be vacuous, not violated
    report = verify_second_block_bound(gen_star(8), 3)
    assert report.verdict == "verified"
    assert "vacuous" in report.claims[1].note


def test_contains_top_bound_star_and_vacuous_branch():
    report = verify_contains_top_bound(gen_star(9), 2)
    assert report.verdict == "verified"
    assert report.extra["through_top"] >= report.claims[0].rhs
    # a flat-ish vector has far more nonnegative pairs than the bound,
    # putting the implication in its vacuous branch
    flat = normalize([7, 7, -2, -2, -2, -2, -2, -2, -2])
    report = verify_contains_top_bound(flat, 2)
    assert report.verdict == "verified"
    assert "vacuous" in report.claims[0].note


def test_conditional_bounds_on_the_star_are_live_with_the_papers_floors():
    # the star has exactly C(n-1, k-1) nonnegative k-subsets, so at n >= k^2
    # the conditional claims of lemma 3 and lotson1 are live, not vacuous,
    # and their right-hand sides are the paper's floors
    for n, k in ((4, 2), (9, 2), (9, 3), (12, 3), (16, 4), (20, 4)):
        X = gen_star(n)
        cond = verify_second_block_bound(X, k).claims[1]
        assert cond.lhs is not None and cond.satisfied, (n, k)
        assert cond.rhs == second_block_floor(n, k, sum(X.values[:k])), (n, k)
        (top,) = verify_contains_top_bound(X, k).claims
        assert top.lhs == binomial(n - 1, k - 1) and top.satisfied, (n, k)
        assert top.rhs == contains_top_floor(n, k), (n, k)


def test_disjoint_bound_star_frozen():
    # star n=9, k=2, T={7,8}: nonnegative pairs avoiding T are the six
    # (0, i) with 1 <= i <= 6; 6 >= C(5,1) = 5
    report = verify_disjoint_bound(gen_star(9), 2, KSubset((7, 8), 9))
    assert report.verdict == "verified"
    assert report.extra["disjoint_count"] == 6


def test_disjoint_bound_counts_match_restriction_engine():
    X = gen_random_zero_sum(11, 8, seed=2)
    T = KSubset((8, 9, 10), 11)
    if sum(X.values[i] for i in T.indices) < 0:
        report = verify_disjoint_bound(X, 3, T)
        direct = count_nonnegative(X, 3, Restriction.disjoint(*T.indices))
        assert report.extra["disjoint_count"] == direct.nonnegative_count


def test_disjoint_bound_preconditions_and_errors():
    X = gen_star(9)
    report = verify_disjoint_bound(X, 2, KSubset((0, 1), 9))  # b_T = 7 >= 0
    assert report.verdict == "preconditions-not-met"
    assert report.claims == ()
    small = verify_disjoint_bound(gen_star(4), 2, KSubset((2, 3), 4))  # n < 3k-1
    assert small.verdict == "preconditions-not-met"
    with pytest.raises(ValueError):
        verify_disjoint_bound(X, 2, KSubset((0, 1, 2), 9))  # wrong k
    with pytest.raises(ValueError):
        verify_disjoint_bound(X, 2, KSubset((0, 1), 8))  # wrong n


def test_simulate_partition_star_exact_case():
    # star n=9, k=2, T={1,2}: every block holds either two -1s (sum -2) or
    # the 8 with a -1 (sum 7); exactly one block is nonnegative always, so
    # the sample variance is zero and the mean must equal E = 1 exactly
    report = simulate_partition(gen_star(9), 2, KSubset((1, 2), 9), trials=300, seed=0)
    assert report.verdict == "verified"
    assert report.extra["min_Z"] == 1
    assert report.extra["empirical_mean"] == 1
    assert report.extra["exact_expectation"] == 1
    assert report.extra["std_error"] == 0.0


def test_simulate_partition_statistics_within_tolerance():
    X = gen_random_zero_sum(13, 9, seed=6)
    T = KSubset((10, 11, 12), 13)
    assert sum(X.values[i] for i in T.indices) < 0
    report = simulate_partition(X, 3, T, trials=2_000, seed=1)
    assert report.verdict == "verified"
    assert report.extra["min_Z"] >= 1
    assert len(report.witness) == 3


def test_simulate_partition_is_deterministic():
    X = gen_star(12)
    T = KSubset((9, 10, 11), 12)
    a = simulate_partition(X, 3, T, trials=500, seed=9)
    b = simulate_partition(X, 3, T, trials=500, seed=9)
    assert a.extra["empirical_mean"] == b.extra["empirical_mean"]
    assert [t["permutation"] for t in a.witness] == [t["permutation"] for t in b.witness]


def test_simulate_partition_expectation_identity_brute():
    # check E(Z) = (m-1) |F| / C((m-1)k, k) by averaging Z over all
    # orderings of the leftover indices (n=6, k=2: 4! permutations)
    X = gen_random_zero_sum(6, 5, seed=8)
    T = KSubset((4, 5), 6)
    b_T = X.values[4] + X.values[5]
    assert b_T < 0
    m, r = divmod(6, 2)
    assert (m, r) == (3, 0)
    rest = [i for i in range(6) if i not in T.indices]
    total_z = Fraction(0)
    count = 0
    for perm in permutations(rest):
        z = 0
        for b in range(m - 1):
            if sum(X.values[i] for i in perm[2 * b : 2 * b + 2]) >= 0:
                z += 1
        total_z += z
        count += 1
    fam = count_nonnegative(X, 2, Restriction.disjoint(*T.indices)).nonnegative_count
    expected = Fraction((m - 1) * fam, binomial((m - 1) * 2, 2))
    assert Fraction(total_z, count) == expected
    report = simulate_partition(X, 2, T, trials=400, seed=3)
    assert report.extra["exact_expectation"] == expected


def _thirds(n, seed):
    """Zero-sum rationals over the denominator 3, sorted non-increasing."""
    rng = random.Random(seed)
    head = [Fraction(rng.randint(-60, 60), 3) for _ in range(n - 1)]
    return normalize(head + [-sum(head)])


def test_simulate_partition_is_one_stream_of_consecutive_shuffles():
    # (13, 3) and (26, 5) leave r = 1 index to U besides T, (12, 3) none.
    # Trials 1 to 4 straddle the three witness trials, which shuffle tagged
    # entries, and the untagging after trial 2; (19, 2) and (18, 1)
    # leave 16 and 17 indices, where the draw width steps from 5 bits to 4
    # and the 5-bit draws are rejected about half the time; (26, 5) and (34, 4), the
    # latter on rationals, are the benchmark's shapes. At k = 1 the bottom
    # block is position 0 alone, (8, 4) and (11, 5) leave one block, the
    # latter with r = 1, and (2, 1) one block of position 0. The ties cases
    # draw entries of magnitude 1, mostly -1, 0 and 1, so blocks of sum
    # exactly 0 or -1 are common; there k * n needs more bits than n, and
    # every run crosses from the three witness trials to the later ones.
    cases = [(13, 3, 1, 700), (12, 3, 9, 500), (26, 5, 4, 300)]
    for n, k in ((13, 3), (7, 1), (8, 4), (11, 5), (2, 1), (5, 1)):
        cases += [(n, k, seed, trials) for seed, trials in ((2, 1), (3, 2), (4, 3), (5, 4), (6, 40))]
    cases += [(19, 2, 6, 400), (18, 1, 7, 400), (26, 5, 11, 3000), (34, 4, 12, 2000)]
    ties = [(19, 2, 20, 4), (25, 3, 21, 5), (17, 2, 23, 6), (16, 3, 22, 4), (21, 4, 22, 5), (26, 5, 21, 300)]
    tied_sums = []
    for n, k, seed, trials in cases + ties:
        if (n, k, seed, trials) in ties:
            X = gen_random_zero_sum(n, 1, seed=seed)
            assert (k * n).bit_length() > n.bit_length()
        else:
            X = _thirds(n, seed) if n == 34 else gen_random_zero_sum(n, 20, seed=seed)
        T = tuple(range(n - k, n))
        m, r = divmod(n, k)
        U = sorted(T + tuple(i for i in range(n - 1, -1, -1) if i not in T)[:r])
        rest = [i for i in range(n) if i not in U]
        report = simulate_partition(X, k, KSubset(T, n), trials=trials, seed=seed)
        assert report.extra["U"] == U and len(rest) == (m - 1) * k
        min_z, mean, variance, firsts = replay_partition(X.values, k, rest, random.Random(seed), trials)
        assert report.extra["min_Z"] == min_z, (n, k)
        assert report.extra["empirical_mean"] == mean, (n, k)
        # the band is decided in Fractions: (mean - E)^2 against 25 s^2 / trials,
        # vacuous only when every trial drew the same Z away from E
        band, gap = report.claims[1], mean - report.extra["exact_expectation"]
        if variance == 0 and gap != 0:
            assert band.lhs is None and band.note.startswith("vacuous"), (n, k)
        else:
            assert (band.lhs, band.relation, band.rhs) == (gap ** 2, "<=", 25 * variance / trials), (n, k)
            assert type(band.lhs) is type(band.rhs) is Fraction
        assert [tuple(w["permutation"]) for w in report.witness] == firsts, (n, k)
        floor = report.claims[2]
        assert (floor.lhs, floor.rhs) == (report.extra["family_size"], binomial((m - 1) * k - 1, k - 1))
        assert floor.satisfied, (n, k)
        for w in report.witness:
            parts = [sorted(w["permutation"][a : a + k]) for a in range(0, len(rest), k)]
            assert w["parts"] == parts
            assert w["Z"] == sum(1 for p in parts if sum(X.values[i] for i in p) >= 0)
            if (n, k, seed, trials) in ties:
                tied_sums += [sum(X.values[i] for i in p) for p in parts]
    assert tied_sums.count(0) >= 10 and tied_sums.count(-1) >= 10
    other = simulate_partition(X, k, KSubset(T, n), trials=trials, seed=seed + 1)
    assert other.witness != report.witness


def test_partition_family_floor_is_exact_on_the_star():
    # on the star F is the k-subsets of the leftover indices through index
    # 0, exactly C((m-1)k-1, k-1) of them, so the exact claim is an equality
    for n, k in ((9, 2), (12, 2), (13, 3), (26, 5), (34, 4), (11, 5), (7, 1)):
        report = simulate_partition(gen_star(n), k, KSubset(tuple(range(n - k, n)), n), trials=20, seed=1)
        floor = report.claims[2]
        assert floor.lhs == floor.rhs == report.extra["family_size"], (n, k)
        assert floor.rhs == binomial((n // k - 1) * k - 1, k - 1)
        assert floor.relation == ">=" and floor.satisfied


def test_simulate_partition_input_errors():
    X = gen_star(9)
    with pytest.raises(ValueError, match="negative sum"):
        simulate_partition(X, 2, KSubset((0, 1), 9))
    with pytest.raises(ValueError, match="trials"):
        simulate_partition(X, 2, KSubset((1, 2), 9), trials=0)
    tiny = gen_star(3)
    with pytest.raises(ValueError, match="n >= 2k"):
        simulate_partition(tiny, 2, KSubset((1, 2), 3))


class _Admitted(Exception):
    pass


def test_simulate_partition_cap_admits_the_benchmark_runs(monkeypatch):
    # the count runs right after the trials cap, so reaching it means
    # admitted; (12, 2) with 10^6 trials shuffles exactly ENUM_BUDGET indices
    def reached(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(lemmas, "count_nonnegative", reached)
    for n, k, trials in ((26, 5, 30_000), (34, 4, 12_000), (24, 4, 10_000), (12, 2, 1_000_000)):
        X = gen_random_zero_sum(n, 100, seed=0)
        with pytest.raises(_Admitted):
            simulate_partition(X, k, KSubset(tuple(range(n - k, n)), n), trials=trials)


def test_scalar_inequalities_exactness():
    for n, k in ((32, 2), (72, 3), (128, 4), (20, 4), (9, 3)):
        report = verify_scalar_inequalities(n, k)
        assert report.verdict == "verified", (n, k)
        ident = report.claims[0]
        assert ident.satisfied and ident.relation == "=="


def test_scalar_final_value_is_the_papers_at_n_equal_8k_squared():
    for n, k in ((32, 2), (72, 3), (128, 4)):
        report = verify_scalar_inequalities(n, k)
        assert report.extra["final_value"] == scalar_final_value(n, k), (n, k)
        assert report.claims[3].lhs == scalar_final_value(n, k) > 1, (n, k)


def test_scalar_chain_equality_at_k2():
    report = verify_scalar_inequalities(32, 2)
    chain = report.claims[1]
    assert chain.relation == ">="
    assert chain.lhs == chain.rhs  # 29/31 on both sides


def test_scalar_chain_strict_at_k3():
    report = verify_scalar_inequalities(72, 3)
    chain = report.claims[1]
    assert chain.relation == ">"
    assert chain.satisfied


def test_scalar_final_vacuous_below_threshold():
    report = verify_scalar_inequalities(20, 3)  # 20 < 72
    assert report.verdict == "verified"
    assert "vacuous" in report.claims[3].note


def test_scalar_preconditions():
    assert verify_scalar_inequalities(4, 2).verdict == "preconditions-not-met"


def test_mms_bound_star_equality():
    report = verify_mms_bound(gen_star(32), 2)
    assert report.verdict == "verified"
    assert report.extra["count"] == 31
    assert report.claims[1].satisfied  # star equality case
    assert len(report.witness) == 31
    assert all(s[0] == 0 for s in report.witness)


def test_mms_bound_below_hypothesis_is_flagged():
    report = verify_mms_bound(gen_star(9), 2)
    assert report.verdict == "preconditions-not-met"
    assert report.extra["count"] == 8  # counts still reported
