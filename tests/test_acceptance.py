"""Acceptance gate: twelve desk-scale checks, one test per criterion.

Each test prints one PASS line when it gets through its assertions, so a
verbose run reads as a checklist. Exact-arithmetic criteria use zero
tolerance; the single statistical criterion uses the five-standard-error
band computed inside the simulation report.
"""

import json
from fractions import Fraction
from itertools import combinations

import pytest

from mmsverify.combinat import KSubset, binomial
from mmsverify.counting import (
    MultiplicityPattern,
    _split_count,
    count_nonnegative,
    count_nonnegative_dp,
    family_size,
    star_family_size,
)
from mmsverify.lemmas import (
    simulate_partition,
    single_overlap_coefficient,
    verify_disjoint_bound,
    verify_intersecting_bound,
    verify_mms_bound,
    verify_scalar_inequalities,
    verify_second_block_bound,
)
from mmsverify.scheme import verify_eigenvector_all, verify_factorization
from mmsverify.search import find_counterexample
from mmsverify.weights import gen_random_zero_sum, gen_star


def _seeded_vector(n, magnitude, seed):
    X = gen_random_zero_sum(n, magnitude, seed=seed)
    if X.is_zero():  # astronomically rare; keep the sweep deterministic
        X = gen_random_zero_sum(n, magnitude, seed=seed + 10_000)
    return X


@pytest.fixture(scope="module")
def identity_sweep():
    """n in [2k, 10], k in {2,3,4}, 50 seeded vectors each."""
    instances = []
    for k in (2, 3, 4):
        for n in range(2 * k, 11):
            for seed in range(50):
                instances.append((n, k, seed, _seeded_vector(n, 10, seed)))
    return instances


def test_criterion_01_eigenvector_identity_sweep(identity_sweep):
    for n, k, seed, X in identity_sweep:
        report = verify_eigenvector_all(X, k)
        assert report.verdict == "verified", (n, k, seed)
    print(f"criterion 01: PASS (eigenvector identity, {len(identity_sweep)} instances, zero tolerance)")


def test_criterion_02_factorization_matches_closed_form():
    checked = 0
    for n in range(1, 9):
        for k in range(1, min(4, n) + 1):
            for j in range(0, k + 1):
                report = verify_factorization(n, j, k)
                assert report.verdict == "verified", (n, j, k)
                checked += 1
    print(f"criterion 02: PASS (factorization closed form, {checked} (n,j,k) triples)")


def test_criterion_03_exact_sum_identities(identity_sweep):
    scalar_pairs = set()
    for n, k, seed, X in identity_sweep:
        inter = verify_intersecting_bound(X, k)
        assert inter.claims[0].satisfied, ("disjoint-sum identity", n, k, seed)
        assert inter.claims[1].satisfied, ("meeting-sum identity", n, k, seed)
        second = verify_second_block_bound(X, k)
        assert second.claims[0].satisfied, ("single-overlap identity", n, k, seed)
        scalar_pairs.add((n, k))
    for n, k in sorted(scalar_pairs):
        lhs = Fraction(single_overlap_coefficient(n, k))
        rhs = (1 - Fraction((k - 1) ** 2, n - 2 * k + 1)) * binomial(n - k - 1, k - 1)
        assert lhs == rhs, (n, k)
    print(f"criterion 03: PASS (exact identities on {len(identity_sweep)} instances)")


def test_criterion_04_strict_intersecting_count_bound(identity_sweep):
    for n, k, seed, X in identity_sweep:
        report = verify_intersecting_bound(X, k)
        assert report.claims[2].satisfied, (n, k, seed)
        assert report.claims[2].relation == ">"
    print(f"criterion 04: PASS (strict count bound on {len(identity_sweep)} instances)")


def test_criterion_05_disjoint_bound_sweep():
    import random as _random

    runs = 0
    for k in (2, 3):
        for n in range(3 * k, 13):
            for seed in range(5):
                X = _seeded_vector(n, 10, seed)
                rng = _random.Random(1000 * n + 10 * k + seed)
                for _ in range(20):
                    T = KSubset.of(rng.sample(range(n), k), n)
                    if sum(X.values[i] for i in T.indices) >= 0:
                        continue
                    report = verify_disjoint_bound(X, k, T)
                    assert report.verdict == "verified", (n, k, seed, T.indices)
                    runs += 1
    assert runs > 300  # the sweep must actually exercise negative-sum sets
    print(f"criterion 05: PASS (disjoint-count bound, {runs} (vector, T) pairs)")


def test_criterion_06_partition_simulation():
    instances = [
        (gen_star(9), 2, (1, 2)),
        (gen_star(8), 2, (6, 7)),
        (gen_star(12), 3, (9, 10, 11)),
        (gen_star(13), 2, (11, 12)),
        (_seeded_vector(10, 9, 0), 2, (8, 9)),
        (_seeded_vector(11, 9, 1), 2, (9, 10)),
        (_seeded_vector(12, 9, 2), 3, (9, 10, 11)),
        (_seeded_vector(13, 9, 3), 3, (10, 11, 12)),
        (_seeded_vector(9, 9, 4), 2, (7, 8)),
        (_seeded_vector(14, 9, 5), 3, (11, 12, 13)),
    ]
    for idx, (X, k, t_indices) in enumerate(instances):
        T = KSubset(t_indices, X.n)
        report = simulate_partition(X, k, T, trials=10_000, seed=idx)
        assert report.extra["min_Z"] >= 1, (idx, "a trial produced Z = 0")
        assert report.verdict == "verified", (idx, report.extra)
    print("criterion 06: PASS (partition simulation, 10 instances x 10^4 trials, Z >= 1 and mean within 5 SE)")


def test_criterion_07_theorem_at_desk_scale():
    bound = star_family_size(32, 2)
    assert bound == 31
    for seed in range(200):
        X = _seeded_vector(32, 100, seed)
        assert count_nonnegative(X, 2).nonnegative_count >= bound, seed
    star_report = verify_mms_bound(gen_star(32), 2)
    assert star_report.verdict == "verified"
    assert star_report.extra["count"] == 31
    assert star_report.claims[1].satisfied  # family is exactly the star
    assert star_report.witness == [
        [0, i] for i in range(1, 32)
    ]
    print("criterion 07: PASS (n=32, k=2: 200 seeded vectors >= 31; star attains 31 with the star family)")


def _positive_comps(total, parts):
    if parts == 1:
        yield (total,)
        return
    for first in range(1, total - parts + 2):
        for rest in _positive_comps(total - first, parts - 1):
            yield (first,) + rest


def _grid_patterns(n, radius=5, max_d=3):
    yield MultiplicityPattern(((Fraction(0), n),))
    grid = range(radius, -radius - 1, -1)
    for d in range(2, max_d + 1):
        for mults in _positive_comps(n, d):
            for values in combinations(grid, d):
                if sum(m * v for m, v in zip(mults, values)) == 0:
                    yield MultiplicityPattern(
                        tuple((Fraction(v), m) for v, m in zip(values, mults))
                    )


def test_criterion_08_dp_equals_enumeration_exhaustively():
    patterns = 0
    checks = 0
    for n in range(1, 17):
        for pattern in _grid_patterns(n):
            y, _ = pattern.expand().scaled_ints()
            patterns += 1
            for k in range(1, n + 1):
                _, direct = _split_count(y, n, k, ())
                assert count_nonnegative_dp(pattern, k) == direct, (n, k, pattern.pairs)
                checks += 1
    print(f"criterion 08: PASS (DP == enumeration on {patterns} patterns, {checks} (pattern,k) checks)")


def test_criterion_09_family_size_closed_form():
    checked = 0
    for k in (1, 2, 3):
        for n in range(2 * k, 11):
            A = set(range(k))
            C = {0} | set(range(k, 2 * k - 1))
            for i in range(1, n):
                brute = sum(
                    1
                    for S in combinations(range(n), k)
                    if i in S and 0 not in S and A & set(S) and C & set(S)
                )
                assert family_size(n, k, i) == brute, (n, k, i)
                checked += 1
    print(f"criterion 09: PASS (closed-form family sizes, {checked} (n,k,i) triples)")


def test_criterion_10_scalar_inequality_suite():
    for n, k in ((32, 2), (72, 3), (128, 4)):
        report = verify_scalar_inequalities(n, k)
        assert report.verdict == "verified", (n, k)
        final = report.claims[3]
        assert final.satisfied
        assert final.lhs is not None, "final inequality must be evaluated, not vacuous"
        assert final.lhs > 1
    for k in (3, 4):
        assert single_overlap_coefficient(k * k, k) == 0
        assert single_overlap_coefficient(k * k - 1, k) < 0
        assert single_overlap_coefficient(k * k + 1, k) > 0
    print("criterion 10: PASS (scalar chain at (32,2),(72,3),(128,4); coefficient sign flips at n=k^2)")


def test_criterion_11_counterexample_search():
    report = find_counterexample(7, 1, 40)
    assert report.bound == binomial(21, 6) == 54264
    assert report.to_dict()["reverified"] == {"count_nonnegative": report.recount_engine}
    # independent re-count of the reported winner
    assert count_nonnegative_dp(report.best_pattern, 7) == report.best_count
    assert (
        count_nonnegative_dp(report.best_pattern, 7, reverse=True) == report.best_count
    )
    # the grid contains the pattern 3 x19, -19 x3 (head value 3, solved -19),
    # whose count is C(19,7) = 50388 < 54264, so the exhaustive sweep is
    # guaranteed to find a violation
    assert report.best_count <= binomial(19, 7) == 50388
    assert report.violation
    outcome = (
        f"violation found, best count {report.best_count} < {report.bound}"
        if report.violation
        else "inconclusive at this grid"
    )
    print(f"criterion 11: PASS (counterexample search at n=22, k=7: {outcome})")


def test_criterion_12_cli_determinism(cli_runner):
    commands = [
        ("count", "--random", "--n", "14", "-k", "3", "--seed", "11"),
        ("count", "--random", "--n", "14", "-k", "4", "--seed", "5"),
        ("count", "--star", "--n", "32", "-k", "2"),
        ("verify", "--random", "--n", "10", "-k", "3", "--seed", "7",
         "--lemma", "eigenvector"),
        ("verify", "--star", "--n", "12", "-k", "2", "--lemma", "partition",
         "--trials", "400", "--seed", "3"),
        ("verify", "--lemma", "scalar", "--n", "72", "-k", "3"),
        ("search", "--n", "6", "-k", "2", "--max-distinct", "3",
         "--value-range", "6"),
        ("spectrum", "--kind", "inclusion", "--n", "6", "-j", "1", "-k", "3"),
    ]
    for argv in commands:
        first = cli_runner(*argv, "--format", "json")
        second = cli_runner(*argv, "--format", "json")
        assert first.returncode == second.returncode, argv
        assert first.stdout == second.stdout, argv
        json.loads(first.stdout)  # must be well-formed
    print("criterion 12: PASS (byte-identical json across repeat runs)")
