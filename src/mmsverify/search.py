"""Exhaustive grid search for patterns with few nonnegative k-subset sums.

The objective is piecewise constant in the weight values (only the sign
pattern of composition sums matters), so an integer grid on all but the last
value, with the last solved exactly for zero sum, covers every sign pattern
reachable at a given number of distinct values. Exhaustiveness makes negative
results reproducible rather than anecdotal.

Every candidate with d >= 2 is counted by one integer threshold kernel.
Fix the first d-2 parts of a composition of k; because the values strictly
decrease, its sum is then linear and increasing in part d-1, so the
nonnegative compositions with that prefix are those whose part d-1 reaches
one threshold, found by a floor division. A table built once per
multiplicity tuple holds each prefix's weighted counts at or past every
threshold.

The grid is counted a row at a time, a row being the candidates that differ
only in the last head v. Along a row a prefix's threshold is the ceiling of
a ratio of two linear functions of v whose denominator stays positive, so it
is monotone in v, and part d-1 = c reaches it exactly where one linear
inequality in v holds. Each prefix is therefore evaluated at the two ends of
the row: if its threshold stays put it adds one constant to the row; if it
crosses fewer levels than half the row, each crossed level adds its weight
from the v where its inequality flips, one floor division per level; only
the rest are evaluated at every v. On a row of L candidates a prefix that
crosses c levels so costs O(1 + c) work, against O(L) for evaluating it at
every candidate, and never more than O(L).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Iterator, Mapping

from .combinat import _Record, binomial, charge
from .counting import MultiplicityPattern, count_nonnegative, count_nonnegative_dp, star_family_size
from .report import VERDICT_VERIFIED, VERDICT_VIOLATED, exact_str

__all__ = ["SearchReport", "SearchSpace", "find_counterexample", "sweep_patterns"]

MAX_DISTINCT_CAP = 4
Row = tuple[tuple[int, ...], tuple[int, ...], int, int, int]
Table = tuple[list[range], list[tuple[int, int, int, int, list[int]]]]


def _positive_compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Ordered tuples of positive ints summing to total, lexicographic.

    Each composition is the gaps between parts - 1 cut points in 1..total-1;
    combinations yields the cuts, and so the gaps, in lexicographic order.
    """
    for cuts in itertools.combinations(range(1, total), parts - 1):
        yield tuple(b - a for a, b in zip((0,) + cuts, cuts + (total,)))


class SearchSpace(_Record):
    """Grid of candidate multiplicity patterns for one (n, k).

    Candidates range over d = 1..max_distinct distinct values. The
    multiplicities run over all ordered positive compositions of n, the first
    d-1 values over strictly decreasing integers in [-value_range,
    value_range], and the last value is solved exactly from the zero-sum
    constraint (a candidate exists only where the solved value stays strictly
    below its predecessor). Scaling by the last multiplicity keeps
    every candidate in plain integers.
    """

    n: int
    k: int
    max_distinct: int = 2
    value_range: int = 6

    def __post_init__(self) -> None:
        if not 1 <= self.k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={self.k}, n={self.n}")
        if not 1 <= self.max_distinct <= MAX_DISTINCT_CAP:
            raise ValueError(
                f"max_distinct must be in 1..{MAX_DISTINCT_CAP}, got {self.max_distinct}"
            )
        if self.value_range < 1:
            raise ValueError(f"value_range must be >= 1, got {self.value_range}")

    def size(self) -> int:
        """Upper bound on candidates: head grids before the zero-sum filter."""
        total = 0
        width = 2 * self.value_range + 1
        for d in range(1, self.max_distinct + 1):
            heads = 1 if d == 1 else binomial(width, d - 1)
            total += binomial(self.n - 1, d - 1) * heads
        return total

    def rows(self) -> Iterator[Row]:
        """Yield (multiplicities, prefix heads, base, hi, lo) for each nonempty d >= 2 row.

        A row is the candidates that differ only in the last head v, run from
        hi down to lo; the last value is (base - m_head * v) / den, with den
        the last multiplicity. Prefixes are lexicographic, heads high to low.
        """
        top = self.value_range
        grid = range(top, -top - 1, -1)
        for d in range(2, self.max_distinct + 1):
            for mults in _positive_compositions(self.n, d):
                *prefix_mults, m_head, den = mults
                for prefix in itertools.combinations(grid[:-1], d - 2):
                    base = 0
                    for m, v in zip(prefix_mults, prefix):
                        base -= m * v
                    # The last value (base - m_head * v) / den stays below the
                    # last head v exactly when v * (m_head + den) > base.
                    hi = prefix[-1] - 1 if prefix else top
                    lo = max(base // (m_head + den) + 1, -top)
                    if lo <= hi:
                        yield mults, prefix, base, hi, lo


class SearchReport(_Record):
    """Outcome of a sweep: the minimizing pattern and its cross-checks."""

    n: int
    k: int
    best_pattern: MultiplicityPattern
    best_count: int
    bound: int
    violation: bool
    candidates_examined: int
    provenance: Mapping[str, int]
    recount_engine: str

    @property
    def verdict(self) -> str:
        return VERDICT_VIOLATED if self.violation else VERDICT_VERIFIED

    def to_dict(self) -> dict:
        return {
            "type": "search",
            "n": self.n,
            "k": self.k,
            "best_pattern": {
                "values": [exact_str(v) for v, _ in self.best_pattern.pairs],
                "multiplicities": [m for _, m in self.best_pattern.pairs],
            },
            "best_count": str(self.best_count),
            "bound": str(self.bound),
            "violation": self.violation,
            "candidates_examined": self.candidates_examined,
            "reverified": {"count_nonnegative": self.recount_engine},
            "provenance": dict(self.provenance),
            "verdict": self.verdict,
        }


def _threshold_table(mults: tuple[int, ...], k: int) -> Table:
    """(box, entries) for the prefixes (c_1..c_{d-2}) of compositions of k, d >= 2.

    box holds the range of each prefix part; entries has one (g, rem, lo,
    hi, suffix) per feasible prefix, where g is the prefix's position in
    the box in lexicographic order, the rest rem = k - sum(prefix) splits
    as c_{d-1} + c_d with lo <= c_{d-1} <= hi, and suffix[t - lo] is the
    sum of C(m_{d-1}, c) * C(m_d, rem - c) over t <= c <= hi, times the
    prefix's weight, the product of C(m_i, c_i) over it.
    """
    rows = [[binomial(m, c) for c in range(min(m, k) + 1)] for m in mults]
    *head, last, final = rows
    box = [range(len(row)) for row in head]
    entries = []
    for g, prefix in enumerate(itertools.product(*box)):
        rem = k - sum(prefix)
        lo, hi = max(0, rem - mults[-1]), min(mults[-2], rem)
        if lo <= hi:
            weight = prod(row[c] for row, c in zip(head, prefix))
            pairs = [weight * last[c] * final[rem - c] for c in range(hi, lo - 1, -1)]
            entries.append((g, rem, lo, hi, list(itertools.accumulate(pairs))[::-1]))
    return box, entries


def _row_counts(table: Table, row: Row) -> list[int]:
    """Weighted compositions of k with a nonnegative sum, per candidate of a row, v = hi..lo.

    With the prefix (c_1..c_{d-2}) fixed, the sum is base_g + c_{d-1} * dw,
    where dw = w_{d-1} - w_d > 0 and base_g = sum c_i * (w_i - w_d) + k * w_d,
    so it is nonnegative exactly for c_{d-1} >= t = -(base_g // dw). Only v
    moves along the row: w_d = base - m_head * v, so base_g = a - v * step
    with a and step fixed per prefix, and dw = v * slope - base with
    slope = m_head + den; SearchSpace.rows keeps dw > 0 on the whole row.

    Level c_{d-1} = c counts exactly when t <= c, that is when
    v * (step - c * slope) <= a - c * base, one linear inequality in v. So
    each level switches at most once along the row, and t, clamped to the
    prefix's levels, is monotone in v. Rows of three or more candidates
    evaluate t at hi and lo: a prefix whose clamped thresholds agree adds one
    constant; one that crosses fewer levels than half the row adds each
    crossed level's weight, through a difference array, from the v where
    its inequality flips; the others are evaluated at every v in between,
    as are all prefixes of shorter rows. Integers only.
    """
    box, entries = table
    mults, prefix, base, hi, lo = row
    m_head, den = mults[-2:]
    lifts = [0]  # den * sum of c_i * h_i at every prefix of the box, in order
    for parts, h in zip(box, prefix):
        lifts = [s + c * h * den for s in lifts for c in parts]
    slope = m_head + den
    size = hi - lo + 1
    if size < 3:
        terms = [(rem * base + lifts[g], m_head * rem, c_lo, c_hi, suffix)
                 for g, rem, c_lo, c_hi, suffix in entries]
        counts, start, stop = [0] * size, 0, size
    else:
        # a difference array: steps[i] is the change of the folded prefixes'
        # total from candidate i - 1 to candidate i, v = hi - i
        steps = [0] * size
        terms, flat, dense_hi, dense_lo = [], 0, 0, 0
        dw_hi, dw_lo = hi * slope - base, lo * slope - base
        for g, rem, c_lo, c_hi, suffix in entries:
            a, step = rem * base + lifts[g], m_head * rem
            t = -((a - hi * step) // dw_hi)
            u = -((a - lo * step) // dw_lo)
            t = c_lo if t < c_lo else c_hi + 1 if t > c_hi else t
            u = c_lo if u < c_lo else c_hi + 1 if u > c_hi else u
            if t == u:
                if t <= c_hi:
                    flat += suffix[t - c_lo]
            elif u < t and 2 * (t - u) < size:
                # levels t-1 down to u switch on as v falls, each at the
                # largest v with v * q <= r
                prev = suffix[t - c_lo] if t <= c_hi else 0
                flat += prev
                r, q = a - t * base, step - t * slope
                for j in range(t - c_lo - 1, u - c_lo - 1, -1):
                    r += base
                    q += slope
                    steps[hi - r // q] += suffix[j] - prev
                    prev = suffix[j]
            elif t < u and 2 * (u - t) < size:
                # levels u-1 down to t switch off as v falls, each below the
                # least v with v * q <= -r
                flat += suffix[t - c_lo]
                prev = suffix[u - c_lo] if u <= c_hi else 0
                r, q = u * base - a, step - u * slope
                for j in range(u - c_lo - 1, t - c_lo - 1, -1):
                    r -= base
                    q += slope
                    steps[hi + 1 + r // q] -= suffix[j] - prev
                    prev = suffix[j]
            else:
                terms.append((a, step, c_lo, c_hi, suffix))
                dense_hi += suffix[t - c_lo] if t <= c_hi else 0
                dense_lo += suffix[u - c_lo] if u <= c_hi else 0
        steps[0] = flat
        counts = list(itertools.accumulate(steps))
        counts[0] += dense_hi
        counts[-1] += dense_lo
        start, stop = 1, size - 1
    if not terms:
        return counts
    for i in range(start, stop):
        v = hi - i
        dw = v * slope - base
        total = counts[i]
        for a, step, c_lo, c_hi, suffix in terms:
            t = -((a - v * step) // dw)
            if t <= c_hi:
                total += suffix[t - c_lo if t > c_lo else 0]
        counts[i] = total
    return counts


def sweep_patterns(space: SearchSpace) -> SearchReport:
    """Minimize the nonnegative k-subset count over the whole grid.

    The threshold table (see _threshold_table) is rebuilt only when the
    multiplicity tuple changes, and _row_counts counts each row of
    SearchSpace.rows in exact integers in one call. Ties break toward the
    lexicographically smallest (multiplicities, values), which are built
    only for a count that ties or beats the best so far. Before the report
    is emitted, the winner is re-counted by count_nonnegative_dp in both
    value orders and by count_nonnegative on the expanded vector, whose
    own chooser and budget pick the engine; none of them shares code with
    the kernel. Any disagreement raises RuntimeError, so the report names
    only the engine count_nonnegative chose.
    """
    charge(space.size(), "grid candidates before the zero-sum filter", "reduce value_range or max_distinct")
    n, k = space.n, space.k
    bound = star_family_size(n, k)
    # The single value 0 comes first: every k-subset sums to 0.
    b_count, b_mults, b_scaled, b_den = binomial(n, k), (n,), (0,), 1
    examined = 1
    table_mults: tuple[int, ...] = ()
    for row in space.rows():
        mults, prefix, base, hi, lo = row
        if mults != table_mults:
            table_mults, table = mults, _threshold_table(mults, k)
        counts = _row_counts(table, row)
        examined += len(counts)
        least = min(counts)
        if least > b_count:
            continue
        # Values fall with v along a row, so its argmin is its last least count;
        # equal multiplicities share den, so scaled tuples compare as values.
        v = lo + counts[::-1].index(least)
        m_head, den = mults[-2:]
        scaled = tuple(h * den for h in prefix) + (v * den, base - m_head * v)
        if least < b_count or (mults, scaled) < (b_mults, b_scaled):
            b_count, b_mults, b_scaled, b_den = least, mults, scaled, den

    pattern = MultiplicityPattern(
        tuple((Fraction(s, b_den), m) for s, m in zip(b_scaled, b_mults))
    )
    forward = count_nonnegative_dp(pattern, k)
    backward = count_nonnegative_dp(pattern, k, reverse=True)
    recount = count_nonnegative(pattern.expand(), k)
    if not b_count == forward == backward == recount.nonnegative_count:
        raise RuntimeError(
            f"count disagreement on the best pattern: sweep {b_count}, "
            f"dp forward {forward}, dp reverse {backward}, "
            f"count_nonnegative ({recount.engine}) {recount.nonnegative_count}"
        )
    return SearchReport(
        n=n,
        k=k,
        best_pattern=pattern,
        best_count=b_count,
        bound=bound,
        violation=b_count < bound,
        candidates_examined=examined,
        provenance={
            "n": n,
            "k": k,
            "max_distinct": space.max_distinct,
            "value_range": space.value_range,
        },
        recount_engine=recount.engine,
    )


def find_counterexample(k: int, r: int, value_range: int = 40) -> SearchReport:
    """Sweep n = 3k + r for a pattern beating the C(n-1,k-1) bound.

    Requires k >= 7 and 1 <= r <= k/7. A report with violation=False is an
    inconclusive negative at this grid, not a proof that none exists.
    """
    if k < 7:
        raise ValueError(f"need k >= 7, got k={k}")
    if r < 1 or 7 * r > k:
        raise ValueError(f"need 1 <= r <= k/7, got r={r}, k={k}")
    n = 3 * k + r
    space = SearchSpace(n=n, k=k, max_distinct=3, value_range=value_range)
    return sweep_patterns(space)
