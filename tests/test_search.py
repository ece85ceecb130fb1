from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmsverify.combinat import binomial
from mmsverify.counting import _dp_count_scaled, count_nonnegative_dp
from mmsverify.search import (
    SearchSpace,
    _threshold_count,
    _threshold_table,
    find_counterexample,
    sweep_patterns,
)

from _oracles import brute_count, filtered_candidates


def _subset_count(mults, scaled, k):
    """Nonnegative k-subset sums of the expanded integer vector, by itertools."""
    y = [w for w, m in zip(scaled, mults) for _ in range(m)]
    return sum(1 for S in combinations(y, k) if sum(S) >= 0)


def _dp_both_orders(mults, scaled, k):
    rows = [[binomial(m, c) for c in range(min(m, k) + 1)] for m in mults]
    return (
        _dp_count_scaled(mults, scaled, k, rows),
        _dp_count_scaled(mults, scaled, k, rows, reverse=True),
    )


def test_space_validation():
    with pytest.raises(ValueError):
        SearchSpace(n=4, k=5)
    with pytest.raises(ValueError):
        SearchSpace(n=6, k=2, max_distinct=5)
    with pytest.raises(ValueError):
        SearchSpace(n=6, k=2, value_range=0)


def test_candidates_are_zero_sum_and_decreasing():
    space = SearchSpace(n=5, k=2, max_distinct=3, value_range=3)
    seen = 0
    for mults, scaled, den in space.candidates():
        assert sum(mults) == 5
        assert all(m >= 1 for m in mults)
        assert den >= 1
        assert sum(m * s for m, s in zip(mults, scaled)) == 0
        assert all(a > b for a, b in zip(scaled, scaled[1:]))
        seen += 1
    assert 0 < seen <= space.size()


@pytest.mark.parametrize(
    "n,k,d,v",
    [(22, 7, 3, 10), (14, 4, 4, 4), (10, 3, 4, 3), (9, 4, 2, 5), (8, 2, 4, 1), (7, 3, 3, 1), (6, 2, 4, 2)],
)
def test_candidates_match_the_filter_after_oracle(n, k, d, v):
    space = SearchSpace(n=n, k=k, max_distinct=d, value_range=v)
    assert list(space.candidates()) == list(filtered_candidates(n, d, v))


def test_single_value_space_is_all_zero():
    report = sweep_patterns(SearchSpace(n=4, k=2, max_distinct=1))
    assert report.best_count == 6  # all C(4,2) pair sums are zero
    assert report.best_pattern.pairs == ((Fraction(0), 4),)
    assert not report.violation
    assert report.candidates_examined == 1


def test_two_value_sweep_finds_star_minimum():
    report = sweep_patterns(SearchSpace(n=6, k=2, max_distinct=2, value_range=6))
    assert report.best_count == 5
    assert report.bound == 5
    assert not report.violation
    # the winner is star-shaped: one positive value, five equal negatives
    assert [m for _, m in report.best_pattern.pairs] == [1, 5]
    assert report.reverified_dp and report.reverified_enum
    # independent re-count of the winner
    values = report.best_pattern.expand().values
    assert brute_count(values, 2) == 5


def test_three_value_tie_break_is_lexicographic():
    # at d <= 3 several patterns reach 5; the (multiplicities, values)
    # tie-break picks mults (1,1,4), values (1, 0, -1/4), checked by hand:
    # pair sums 1, 3/4 (x4) nonnegative, -1/4 (x4) and -1/2 (x6) negative
    report = sweep_patterns(SearchSpace(n=6, k=2, max_distinct=3, value_range=6))
    assert report.best_count == 5
    assert report.best_pattern.pairs == (
        (Fraction(1), 1),
        (Fraction(0), 1),
        (Fraction(-1, 4), 4),
    )


def test_sweep_is_deterministic():
    space = SearchSpace(n=7, k=3, max_distinct=2, value_range=4)
    a = sweep_patterns(space)
    b = sweep_patterns(space)
    assert a.best_pattern == b.best_pattern
    assert a.best_count == b.best_count
    assert a.candidates_examined == b.candidates_examined


def test_star_membership_keeps_minimum_at_or_below_bound():
    # value_range >= n-1 puts the star pattern in the d=2 grid
    for n, k in ((6, 2), (7, 2), (7, 3)):
        report = sweep_patterns(
            SearchSpace(n=n, k=k, max_distinct=2, value_range=n - 1)
        )
        assert report.best_count <= report.bound


def test_budget_error_suggests_coarser_grid():
    space = SearchSpace(n=20, k=3, max_distinct=4, value_range=40)
    with pytest.raises(ValueError, match="value_range or max_distinct"):
        sweep_patterns(space)


def test_best_count_agrees_with_dp_engine():
    report = sweep_patterns(SearchSpace(n=8, k=3, max_distinct=3, value_range=3))
    assert count_nonnegative_dp(report.best_pattern, 3) == report.best_count
    assert count_nonnegative_dp(report.best_pattern, 3, reverse=True) == report.best_count


def test_find_counterexample_parameter_errors():
    with pytest.raises(ValueError, match="k >= 7"):
        find_counterexample(6, 1)
    with pytest.raises(ValueError, match="k/7"):
        find_counterexample(7, 2)
    with pytest.raises(ValueError, match="k/7"):
        find_counterexample(7, 0)


def test_report_dict_shape():
    report = sweep_patterns(SearchSpace(n=5, k=2, max_distinct=2, value_range=3))
    doc = report.to_dict()
    assert doc["type"] == "search"
    assert doc["verdict"] in ("verified", "violated")
    assert isinstance(doc["best_count"], str)
    assert doc["provenance"]["value_range"] == 3


def test_enumeration_recheck_walks_the_subsets(monkeypatch):
    import mmsverify.search as search

    walked = []
    real = search._walk_count

    def spy(y, n, k, atoms):
        walked.append((n, k))
        return real(y, n, k, atoms)

    monkeypatch.setattr(search, "_walk_count", spy)
    report = sweep_patterns(SearchSpace(n=6, k=2, max_distinct=2, value_range=6))
    assert report.reverified_enum is True
    assert walked == [(6, 2)]


@pytest.mark.parametrize(
    "n,k,d,v", [(10, 5, 4, 3), (9, 4, 4, 3), (8, 3, 4, 4), (7, 2, 4, 4), (6, 6, 4, 3), (5, 1, 4, 3)]
)
def test_threshold_kernel_matches_dp_and_brute_on_every_candidate(n, k, d, v):
    seen = 0
    for mults, scaled, _ in SearchSpace(n=n, k=k, max_distinct=d, value_range=v).candidates():
        if len(mults) == 1:
            continue
        count = _threshold_count(_threshold_table(mults, k), scaled, k)
        assert (count, count) == _dp_both_orders(mults, scaled, k), (mults, scaled)
        assert count == _subset_count(mults, scaled, k), (mults, scaled)
        seen += 1
    assert seen > 0


@st.composite
def threshold_cases(draw):
    """(mults, strictly decreasing zero-sum integer values, k, zero composition or None).

    In half the cases the multiplicities are a * base and k = b * base_total
    with b <= a, so the composition b * base has sum (b/a) * 0 = 0: the
    kernel's ceiling division then lands exactly on its boundary.
    """
    d = draw(st.integers(min_value=2, max_value=5))
    base = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=d, max_size=d))
    zero = draw(st.booleans())
    a = draw(st.integers(min_value=1, max_value=max(1, 12 // sum(base))))
    mults = tuple(a * m for m in base)
    n = sum(mults)
    if zero:
        b = draw(st.integers(min_value=1, max_value=a))
        k, comp = b * sum(base), tuple(b * m for m in base)
    else:
        k, comp = draw(st.integers(min_value=1, max_value=n)), None
    heads = draw(st.lists(st.integers(min_value=-6, max_value=6), min_size=d - 1,
                          max_size=d - 1, unique=True))
    heads.sort(reverse=True)
    last = -sum(m * h for m, h in zip(mults, heads))
    scaled = tuple(h * mults[-1] for h in heads) + (last,)
    assume(last < scaled[-2])
    return mults, scaled, k, comp


@settings(max_examples=300, deadline=None)
@given(threshold_cases())
def test_threshold_kernel_matches_dp_and_brute(case):
    mults, scaled, k, comp = case
    assert sum(m * w for m, w in zip(mults, scaled)) == 0
    if comp is not None:
        assert sum(c * w for c, w in zip(comp, scaled)) == 0
    count = _threshold_count(_threshold_table(mults, k), scaled, k)
    assert (count, count) == _dp_both_orders(mults, scaled, k)
    assert count == _subset_count(mults, scaled, k)


@pytest.mark.parametrize(
    "n,k,d,v,count,examined,pairs",
    [
        (22, 7, 3, 10, 50388, 17658,
         ((Fraction(4), 1), (Fraction(3), 18), (Fraction(-58, 3), 3))),
        (14, 4, 4, 4, 286, 9236,
         ((Fraction(1), 1), (Fraction(0), 1), (Fraction(-1, 12), 12))),
    ],
)
def test_benchmark_searches_are_pinned(n, k, d, v, count, examined, pairs):
    # the two cheaper searches of the search-grid benchmark workload
    report = sweep_patterns(SearchSpace(n=n, k=k, max_distinct=d, value_range=v))
    assert report.best_count == count
    assert report.candidates_examined == examined
    assert report.best_pattern.pairs == pairs
    assert report.violation == (count < binomial(n - 1, k - 1))


def test_every_candidate_is_examined_once():
    space = SearchSpace(n=9, k=3, max_distinct=4, value_range=3)
    assert sweep_patterns(space).candidates_examined == sum(1 for _ in space.candidates())
