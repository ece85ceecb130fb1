from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmsverify.combinat import binomial
from mmsverify.counting import ENGINE_ENUM, ENGINE_GF, MultiplicityPattern, count_nonnegative_dp
from mmsverify.search import (
    SearchSpace,
    _d3_grid,
    _direction_best,
    _direction_cells,
    _floor,
    _positive_compositions,
    _row_counts,
    _threshold_table,
    find_counterexample,
    sweep_patterns,
)

from _oracles import brute_count, filtered_candidates, ray_floor, row_sweep, space_candidates, threshold_count


def _subset_count(mults, scaled, k):
    """Nonnegative k-subset sums of the expanded integer vector, by itertools."""
    y = [w for w, m in zip(scaled, mults) for _ in range(m)]
    return sum(1 for S in combinations(y, k) if sum(S) >= 0)


def _dp_both_orders(mults, scaled, k):
    pattern = MultiplicityPattern(tuple((Fraction(w), m) for w, m in zip(scaled, mults)))
    return count_nonnegative_dp(pattern, k), count_nonnegative_dp(pattern, k, reverse=True)


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
    for mults, scaled, den in space_candidates(space):
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
    assert list(space_candidates(space)) == list(filtered_candidates(n, d, v))


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
    assert report.recount_engine in (ENGINE_GF, ENGINE_ENUM)
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


@pytest.mark.parametrize(
    "n,k,d,v",
    # the three benchmark searches, then (17, 5) and (30, 10), whose
    # winners a k + 1 cost gate once left without a second engine
    [(22, 7, 3, 20), (22, 7, 3, 10), (14, 4, 4, 4), (17, 5, 2, 6), (30, 10, 2, 1)],
)
def test_every_winner_is_recounted_once_by_count_nonnegative(monkeypatch, n, k, d, v):
    import mmsverify.search as search

    recounts = []
    real = search.count_nonnegative

    def spy(X, k, restriction=None):
        report = real(X, k, restriction)
        recounts.append((X.n, k, report.nonnegative_count, report.engine))
        return report

    monkeypatch.setattr(search, "count_nonnegative", spy)
    report = sweep_patterns(SearchSpace(n=n, k=k, max_distinct=d, value_range=v))
    assert recounts == [(n, k, report.best_count, report.recount_engine)]
    assert report.to_dict()["reverified"] == {"count_nonnegative": report.recount_engine}
    assert report.recount_engine in (ENGINE_GF, ENGINE_ENUM)


@pytest.mark.parametrize(
    "n,k,d,v",
    [(10, 5, 4, 3), (9, 4, 4, 3), (8, 3, 4, 4), (7, 2, 4, 4), (6, 6, 4, 3), (5, 1, 4, 3), (7, 3, 3, 12)],
)
def test_threshold_kernel_matches_dp_and_brute_on_every_candidate(n, k, d, v):
    # each row is counted whole and one value at a time, and every count is
    # held to the per-candidate oracle, the DP in both orders and itertools
    seen, pairs, wide = 0, 0, 0
    for mults, prefix, base, hi, lo in SearchSpace(n=n, k=k, max_distinct=d, value_range=v).rows():
        table = _threshold_table(mults, k)
        counts = _row_counts(table, (mults, prefix, base, hi, lo))
        m_head, den = mults[-2:]
        scaled = [tuple(h * den for h in prefix) + (head * den, base - m_head * head) for head in range(hi, lo - 1, -1)]
        for count, head, s in zip(counts, range(hi, lo - 1, -1), scaled):
            assert _row_counts(table, (mults, prefix, base, head, head)) == [count]
            assert count == threshold_count(mults, s, k), (mults, s)
            assert (count, count) == _dp_both_orders(mults, s, k), (mults, s)
            assert count == _subset_count(mults, s, k), (mults, s)
            seen += 1
        at_hi, at_lo = _thresholds(mults, scaled[0], k), _thresholds(mults, scaled[-1], k)
        pairs += len(counts) == 2
        wide += len(counts) >= 3 and any(2 * abs(at_hi[g] - at_lo[g]) >= len(counts) for g in at_hi)
    assert seen > 0
    if v == 12:
        # the long rows reach rows of two candidates and prefixes that cross
        # at least half their row, both of which one rule must count
        assert pairs > 0 and wide > 0


@st.composite
def threshold_cases(draw):
    """(mults, strictly decreasing integer heads, k, zero composition or None).

    The last value is solved from the heads for zero sum. In half the
    cases the multiplicities are a * base and k = b * base_total with b <=
    a, so the composition b * base has sum (b/a) * 0 = 0: the kernel's
    ceiling division then lands exactly on its boundary.
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
    assume(-sum(m * h for m, h in zip(mults, heads)) < heads[-1] * mults[-1])
    return mults, tuple(heads), k, comp


@settings(max_examples=300, deadline=None)
@given(threshold_cases())
def test_threshold_kernel_matches_dp_and_brute(case):
    mults, heads, k, comp = case
    *prefix, head = heads
    base = -sum(m * h for m, h in zip(mults, prefix))
    m_head, den = mults[-2:]
    scaled = tuple(h * den for h in heads) + (base - m_head * head,)
    assert sum(m * w for m, w in zip(mults, scaled)) == 0
    if comp is not None:
        assert sum(c * w for c, w in zip(comp, scaled)) == 0
    table = _threshold_table(mults, k)
    [count] = _row_counts(table, (mults, tuple(prefix), base, head, head))
    assert count == threshold_count(mults, scaled, k)
    assert (count, count) == _dp_both_orders(mults, scaled, k)
    assert count == _subset_count(mults, scaled, k)
    # the same candidate counted as the first of a longer row, which stops
    # where the solved last value would reach the last head, or at -6
    lo = max(base // (m_head + den) + 1, -6)
    counts, oracle, _ = _row_and_oracle(mults, tuple(prefix), base, head, lo, k)
    assert counts[0] == count and len(counts) == head - lo + 1
    assert counts == oracle


def _row_and_oracle(mults, prefix, base, hi, lo, k):
    """The kernel's counts of one row, and the per-candidate oracle's, v = hi..lo."""
    m_head, den = mults[-2:]
    scaled = [tuple(h * den for h in prefix) + (v * den, base - m_head * v) for v in range(hi, lo - 1, -1)]
    counts = _row_counts(_threshold_table(mults, k), (mults, prefix, base, hi, lo))
    return counts, [threshold_count(mults, s, k) for s in scaled], scaled


def _compositions(mults, k):
    return [c for c in product(*(range(min(m, k) + 1) for m in mults)) if sum(c) == k]


def _thresholds(mults, scaled, k):
    """Per feasible prefix (c_1..c_{d-2}), the least part d-1 with a nonnegative sum, or one past its top."""
    least = {}
    for comp in sorted(_compositions(mults, k), key=lambda c: (c[:-2], -c[-2])):
        least.setdefault(comp[:-2], comp[-2] + 1)
        if sum(c * w for c, w in zip(comp, scaled)) >= 0:
            least[comp[:-2]] = comp[-2]
    return least


@st.composite
def long_rows(draw):
    """(mults, prefix, base, hi, lo, k): one whole row at value_range 20 or 40, d = 3 or 4, as rows() makes it."""
    d = draw(st.sampled_from((3, 4)))
    top = draw(st.sampled_from((20, 40)))
    mults = tuple(draw(st.lists(st.integers(min_value=1, max_value=4), min_size=d, max_size=d)))
    k = draw(st.integers(min_value=1, max_value=sum(mults)))
    heads = draw(st.lists(st.integers(min_value=1 - top, max_value=top), min_size=d - 2,
                          max_size=d - 2, unique=True))
    prefix = tuple(sorted(heads, reverse=True))
    *prefix_mults, m_head, den = mults
    base = -sum(m * h for m, h in zip(prefix_mults, prefix))
    hi, lo = prefix[-1] - 1, max(base // (m_head + den) + 1, -top)
    assume(lo <= hi)
    return mults, prefix, base, hi, lo, k


@settings(max_examples=200, deadline=None)
@given(long_rows())
def test_row_kernel_matches_the_oracle_along_whole_long_rows(case):
    *row, k = case
    counts, oracle, _ = _row_and_oracle(*row, k)
    assert counts == oracle


@pytest.mark.parametrize(
    "n,k,v,mults,prefix,size,edge",
    [
        # rows of one, two and three candidates
        (7, 3, 20, (1, 1, 5), (1,), 1, None),
        (7, 3, 20, (1, 1, 5), (2,), 2, None),
        (7, 3, 20, (1, 1, 5), (3,), 3, None),
        (8, 3, 20, (1, 1, 1, 5), (19, -1), 1, None),
        (8, 3, 20, (1, 1, 1, 5), (20, -1), 2, None),
        (8, 3, 20, (1, 1, 1, 5), (20, 0), 3, None),
        # a composition sum exactly zero at hi or at lo, where the count changes
        (8, 3, 20, (3, 2, 3), (4,), 6, "hi"),
        (7, 3, 40, (1, 3, 1, 2), (39, 19), 50, "hi"),
        (7, 3, 40, (4, 2, 1), (40,), 80, "lo"),
        (7, 3, 40, (2, 2, 2, 1), (40, 39), 79, "lo"),
        # a prefix whose threshold moves by exactly half the row's length
        (7, 3, 20, (1, 4, 2), (4,), 4, "half"),
        (8, 3, 20, (1, 1, 4, 2), (6, 3), 4, "half"),
    ],
)
def test_row_kernel_matches_the_oracle_on_edge_rows(n, k, v, mults, prefix, size, edge):
    space = SearchSpace(n=n, k=k, max_distinct=len(mults), value_range=v)
    row = next(r for r in space.rows() if r[:2] == (mults, prefix))
    counts, oracle, scaled = _row_and_oracle(*row, k)
    assert counts == oracle and len(counts) == size

    def zero_sum_at(i):
        return any(sum(c * w for c, w in zip(comp, scaled[i])) == 0 for comp in _compositions(mults, k))

    if edge == "hi":
        assert zero_sum_at(0) and counts[0] != counts[1]
    if edge == "lo":
        assert zero_sum_at(-1) and counts[-1] != counts[-2]
    if edge == "half":
        at_hi, at_lo = _thresholds(mults, scaled[0], k), _thresholds(mults, scaled[-1], k)
        assert any(2 * abs(at_hi[g] - at_lo[g]) == size for g in at_hi)


@pytest.mark.parametrize(
    "n,k,d,v", [(5, 2, 1, 3), (9, 4, 2, 5), (8, 3, 3, 3), (6, 2, 4, 2), (8, 2, 4, 1), (10, 3, 4, 3)]
)
def test_sweep_is_the_argmin_of_the_oracle_over_the_filtered_grid(n, k, d, v):
    # the grid rebuilt by filtering, every candidate scored by the
    # per-candidate oracle, and the least (count, multiplicities, values)
    # taken directly: the row kernel and the sweep's tie-break must agree
    scored = [
        (binomial(n, k) if len(mults) == 1 else threshold_count(mults, scaled, k), mults,
         tuple(Fraction(s, den) for s in scaled))
        for mults, scaled, den in filtered_candidates(n, d, v)
    ]
    count, mults, values = min(scored)
    report = sweep_patterns(SearchSpace(n=n, k=k, max_distinct=d, value_range=v))
    assert (report.best_count, report.best_pattern.pairs, report.candidates_examined) == (
        count, tuple(zip(values, mults)), len(scored))
    if d > 1:
        assert sum(1 for c, _, _ in scored if c == count) > 1  # the minimum is tied


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
    assert sweep_patterns(space).candidates_examined == sum(1 for _ in space_candidates(space))


def _sweep_outcome(space):
    report = sweep_patterns(space)
    return report.best_count, report.best_pattern.pairs, report.candidates_examined


@pytest.mark.parametrize("n", range(1, 11))
def test_sweep_matches_the_row_loop_on_every_small_space(n):
    for k, d, v in product(range(1, n + 1), (1, 2, 3), range(1, 6)):
        space = SearchSpace(n=n, k=k, max_distinct=d, value_range=v)
        assert _sweep_outcome(space) == row_sweep(space), (n, k, d, v)


def _d3_candidates(mults, top):
    """Every grid candidate (h, v) of a d = 3 tuple, filtered from all heads in [-top, top]."""
    m1, m2, m3 = mults
    return [(h, v) for h in range(1 - top, top + 1) for v in range(-top, h) if v * (m2 + m3) > -m1 * h]


@st.composite
def ray_cases(draw):
    """(mults, k, top, (h, v)): a d = 3 tuple and a grid candidate on whose ray a composition of k sums to 0.

    The composition is not a multiple of mults, so its sum is zero on that
    one direction only: a breakpoint. (h, v) is the grid's least direction,
    its greatest or any candidate, so the breakpoint falls on an extreme
    direction as well as inside.
    """
    mults = tuple(draw(st.lists(st.integers(min_value=1, max_value=5), min_size=3, max_size=3)))
    top = draw(st.integers(min_value=1, max_value=8))
    m1, m2, m3 = mults
    grid = _d3_candidates(mults, top)
    where = draw(st.sampled_from((min, max, None)))
    if where is None:
        h, v = draw(st.sampled_from(grid))
    else:
        h, v = where(grid, key=lambda hv: (Fraction(hv[1], hv[0]), -hv[0]))
    zeros = [c for c in product(range(m1 + 1), range(m2 + 1), range(m3 + 1))
             if (c[0] * m3 - c[2] * m1) * h + (c[1] * m3 - c[2] * m2) * v == 0
             and (c[0] * m3 - c[2] * m1, c[1] * m3 - c[2] * m2) != (0, 0)]
    assume(zeros)
    return mults, sum(draw(st.sampled_from(zeros))), top, (h, v)


def _holds(cell, s):
    """Whether direction s lies in a cell of _direction_cells."""
    if len(cell) == 2:
        return s == Fraction(*cell)
    pl, ql, l, pr, qr, r = cell
    left, right = Fraction(pl, ql), Fraction(pr, qr)
    return (left < s or (l and left == s)) and (s < right or (r and s == right))


@settings(max_examples=200, deadline=None)
@given(ray_cases())
def test_direction_cells_count_every_grid_direction(case):
    # each grid candidate lies in exactly one cell, whose count is the
    # per-candidate oracle's; the drawn ray, strictly inside, is a point
    # cell; the least candidate of the least count is the tuple's argmin;
    # and the whole sweep agrees with the row loop
    mults, k, top, ray = case
    m1, m2, m3 = mults
    n = sum(mults)
    lows, size, start = _d3_grid(m1, n, top)
    cells = _direction_cells(_threshold_table(mults, k), mults, top, start)
    grid = _d3_candidates(mults, top)
    assert size == len(grid) and all(h > 0 for h, _ in grid)
    directions = [Fraction(v, h) for h, v in grid]
    scored = []
    for (h, v), s in zip(grid, directions):
        [count] = [count for count, cell in cells if _holds(cell, s)]
        assert count == threshold_count(mults, (h * m3, v * m3, -m1 * h - m2 * v), k), (h, v)
        scored.append((count, (h, v)))
    s = Fraction(ray[1], ray[0])
    if min(directions) < s < max(directions):
        assert any(len(cell) == 2 and _holds(cell, s) for _, cell in cells)
    assert _direction_best(cells, lows, top, binomial(n, k)) == min(scored)
    assert _direction_best(cells, lows, top, min(scored)[0] - 1) is None
    space = SearchSpace(n=n, k=k, max_distinct=3, value_range=top)
    assert _sweep_outcome(space) == row_sweep(space)


@pytest.mark.parametrize("n,k,v", [(40, 20, 2), (16, 8, 3), (12, 6, 2)])
def test_sweep_matches_the_row_loop_where_tuples_keep_their_rows(monkeypatch, n, k, v):
    # a tuple whose table has more levels than it has candidates is
    # counted by rows; these spaces mix such tuples with counted-by-direction ones
    import mmsverify.search as search

    paths = set()
    real_rows, real_cells = search._row_counts, search._direction_cells
    monkeypatch.setattr(search, "_row_counts", lambda *a: paths.add("rows") or real_rows(*a))
    monkeypatch.setattr(search, "_direction_cells", lambda *a: paths.add("cells") or real_cells(*a))
    space = SearchSpace(n=n, k=k, max_distinct=3, value_range=v)
    assert _sweep_outcome(space) == row_sweep(space)
    assert paths == {"rows", "cells"}


def test_d3_searches_count_by_direction_and_d4_by_rows(monkeypatch):
    import mmsverify.search as search

    rows, iterated = [], []
    real = search._row_counts
    real_rows = SearchSpace.rows

    def spy(table, row):
        rows.append(row)
        return real(table, row)

    def spy_rows(self):
        iterated.append(self)
        return real_rows(self)

    space = SearchSpace(n=14, k=4, max_distinct=4, value_range=4)
    # the least count over the grid before each tuple, by the row loop; every
    # four-valued tuple there has more than k = 4 candidates, so each tries its floor
    best, before, table_mults = binomial(14, 4), {}, ()
    for row in real_rows(space):
        if row[0] != table_mults:
            table_mults, table = row[0], _threshold_table(row[0], 4)
            before[table_mults] = best
        best = min(best, *real(table, row))
    expected = [row for row in real_rows(space)
                if len(row[0]) == 4 and ray_floor(row[0], 4) <= before[row[0]]]
    assert 0 < len(expected) < sum(1 for row in real_rows(space) if len(row[0]) == 4)

    monkeypatch.setattr(search, "_row_counts", spy)
    monkeypatch.setattr(SearchSpace, "rows", spy_rows)
    report = find_counterexample(7, 1, 20)
    assert (report.best_count, report.candidates_examined) == (50388, 68902)
    assert rows == [] and iterated == []
    # at d = 4 a tuple reaches the row kernel only when its floor does not
    # exceed the best count so far; the skipped ones still count their candidates
    report = sweep_patterns(space)
    assert (report.best_count, report.candidates_examined) == (286, 9236)
    assert iterated == []
    assert [row for row in rows if len(row[0]) == 4] == expected


@pytest.mark.parametrize("n", range(3, 13))
def test_floor_is_the_count_on_the_extreme_rays(n):
    # every three- and four-valued tuple of n, at every k
    for d, k in product((3, 4), range(1, n + 1)):
        for mults in _positive_compositions(n, d):
            assert _floor(mults, n, k) == ray_floor(mults, k), (mults, k)


@pytest.mark.parametrize("n", range(3, 11))
def test_floor_bounds_the_count_at_every_grid_candidate(n):
    for k, d in product(range(1, n + 1), (3, 4)):
        floors = {}
        for mults, scaled, _ in space_candidates(SearchSpace(n=n, k=k, max_distinct=d, value_range=2)):
            if len(mults) == d:
                floor = floors.setdefault(mults, _floor(mults, n, k))
                assert floor <= threshold_count(mults, scaled, k), (mults, scaled, k)


# every (n, k, d, v) with 3 <= n <= 12, d = 3 or 4 and v = 1, 2, 3 or 5; a
# stride of five keeps every d and v in the slice and the slice near 1 s
SMALL_SPACES = [(n, k, d, v) for n in range(3, 13) for k in range(1, n + 1) for d in (3, 4) for v in (1, 2, 3, 5)]


def test_sweep_with_floor_skips_matches_the_row_loop():
    # the floor skips only tuples that lose outright: a tuple tied with the
    # best can still win the tie-break, so a floor equal to the best must not skip
    for n, k, d, v in SMALL_SPACES[::5]:
        space = SearchSpace(n=n, k=k, max_distinct=d, value_range=v)
        assert _sweep_outcome(space) == row_sweep(space), (n, k, d, v)
