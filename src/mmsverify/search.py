"""Exhaustive grid search for patterns with few nonnegative k-subset sums.

The objective is piecewise constant in the weight values (only the sign
pattern of composition sums matters), so an integer grid on all but the last
value, with the last solved exactly for zero sum, covers every sign pattern
reachable at a given number of distinct values. Exhaustiveness makes negative
results reproducible rather than anecdotal.

Each candidate is counted by one integer threshold kernel for every d >= 2.
Fix the first d-2 parts of a composition of k; because the values strictly
decrease, its sum is then linear and increasing in part d-1, so the
nonnegative compositions with that prefix are those whose part d-1 reaches
one threshold, found by a floor division. A table built once per
multiplicity tuple holds each prefix's binomial weight and the suffix sums
of the last two binomial factors, so a candidate costs one floor division
and one lookup per prefix: O(k^(d-2)) work instead of O(k^(d-1)).
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Iterator, Mapping

from .combinat import _Record, binomial
from .counting import (
    MultiplicityPattern,
    _walk_count,
    count_nonnegative_dp,
    star_family_size,
)
from .report import VERDICT_VERIFIED, VERDICT_VIOLATED, exact_str

__all__ = ["SearchReport", "SearchSpace", "find_counterexample", "sweep_patterns"]

DEFAULT_CANDIDATE_BUDGET = 10_000_000
ENUM_RECHECK_LIMIT = 16
MAX_DISTINCT_CAP = 4


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

    def candidates(self) -> Iterator[tuple[tuple[int, ...], tuple[int, ...], int]]:
        """Yield (multiplicities, scaled integer values, denominator).

        The true values are scaled[i] / denominator; they are strictly
        decreasing with exact weighted sum zero. The heads come in
        lexicographic order (each from high to low), and the last head runs
        only over the values whose solved last value stays below it, so no
        head is built and then dropped.
        """
        yield (self.n,), (0,), 1
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
                    scaled_prefix = tuple(v * den for v in prefix)
                    for v in range(hi, lo - 1, -1):
                        yield mults, scaled_prefix + (v * den, base - m_head * v), den


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
    reverified_dp: bool
    reverified_enum: bool | None

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
            "reverified": {
                "dp_both_orders": self.reverified_dp,
                "enumeration": self.reverified_enum,
            },
            "provenance": dict(self.provenance),
            "verdict": self.verdict,
        }


def _threshold_table(
    mults: tuple[int, ...], k: int
) -> tuple[list[range], list[tuple[int, int, int, int, list[int]]]]:
    """(box, entries) for the prefixes (c_1..c_{d-2}) of compositions of k, d >= 2.

    box holds the range of each prefix part; entries has one (g, weight,
    lo, hi, suffix) per feasible prefix, where g is the prefix's position
    in the box in lexicographic order, weight the product of C(m_i, c_i)
    over it, the rest rem = k - sum(prefix) splits as c_{d-1} + c_d with
    lo <= c_{d-1} <= hi, and suffix[t - lo] is the sum of
    C(m_{d-1}, c) * C(m_d, rem - c) over t <= c <= hi.
    """
    rows = [[binomial(m, c) for c in range(min(m, k) + 1)] for m in mults]
    *head, last, final = rows
    box = [range(len(row)) for row in head]
    entries = []
    for g, prefix in enumerate(itertools.product(*box)):
        rem = k - sum(prefix)
        lo, hi = max(0, rem - mults[-1]), min(mults[-2], rem)
        if lo <= hi:
            pairs = [last[c] * final[rem - c] for c in range(hi, lo - 1, -1)]
            suffix = list(itertools.accumulate(pairs))[::-1]
            entries.append((g, prod(row[c] for row, c in zip(head, prefix)), lo, hi, suffix))
    return box, entries


def _threshold_count(
    table: tuple[list[range], list[tuple[int, int, int, int, list[int]]]],
    scaled: tuple[int, ...],
    k: int,
) -> int:
    """Compositions of k with a nonnegative sum against scaled, weighted by binomials.

    With the prefix fixed, the sum is base + c_{d-1} * dw, where dw =
    w_{d-1} - w_d > 0 and base = sum c_i * (w_i - w_d) + k * w_d, so it is
    nonnegative exactly for c_{d-1} >= -(base // dw). Integers only.
    """
    box, entries = table
    w_d = scaled[-1]
    dw = scaled[-2] - w_d
    bases = [k * w_d]  # base at every prefix of the box, in lexicographic order
    for parts, w in zip(box, scaled):
        lift = w - w_d
        bases = [b + c * lift for b in bases for c in parts]
    total = 0
    for g, weight, lo, hi, suffix in entries:
        t = -(bases[g] // dw)
        if t <= hi:
            total += weight * suffix[t - lo if t > lo else 0]
    return total


def sweep_patterns(space: SearchSpace) -> SearchReport:
    """Minimize the nonnegative k-subset count over the whole grid.

    Candidates come grouped by multiplicity tuple, so the threshold table
    (see _threshold_table) is rebuilt only when the tuple changes, and each
    candidate is counted by _threshold_count in exact integers. Ties break
    toward the lexicographically smallest (multiplicities, values). The
    winner is re-verified by count_nonnegative_dp, which shares no code with
    the kernel, in both composition orders, and additionally by direct
    enumeration when n <= 16, before the report is emitted.
    """
    total = space.size()
    if total > DEFAULT_CANDIDATE_BUDGET:
        raise ValueError(
            f"grid holds about {total} candidates, over the budget of "
            f"{DEFAULT_CANDIDATE_BUDGET}; reduce value_range or max_distinct"
        )
    n, k = space.n, space.k
    bound = star_family_size(n, k)
    candidates = space.candidates()
    # The first candidate is the single value 0: every k-subset sums to 0.
    mults, scaled, den = next(candidates)
    best = (binomial(n, k), mults, scaled, den)
    examined = 1
    table_mults: tuple[int, ...] = ()
    for mults, scaled, den in candidates:
        if mults != table_mults:
            table_mults, table = mults, _threshold_table(mults, k)
        count = _threshold_count(table, scaled, k)
        examined += 1
        b_count, b_mults, b_scaled, b_den = best
        if count != b_count:
            if count < b_count:
                best = (count, mults, scaled, den)
            continue
        if mults != b_mults:
            if mults < b_mults:
                best = (count, mults, scaled, den)
            continue
        values = tuple(Fraction(s, den) for s in scaled)
        b_values = tuple(Fraction(s, b_den) for s in b_scaled)
        if values < b_values:
            best = (count, mults, scaled, den)

    b_count, b_mults, b_scaled, b_den = best
    pattern = MultiplicityPattern(
        tuple((Fraction(s, b_den), m) for s, m in zip(b_scaled, b_mults))
    )
    forward = count_nonnegative_dp(pattern, k)
    backward = count_nonnegative_dp(pattern, k, reverse=True)
    if forward != b_count or backward != b_count:
        raise RuntimeError(
            f"count disagreement on the best pattern: sweep {b_count}, "
            f"dp forward {forward}, dp reverse {backward}"
        )
    reverified_enum = None
    if n <= ENUM_RECHECK_LIMIT:
        y, _ = pattern.expand().scaled_ints()
        _, enum_count = _walk_count(y, n, k, ())
        if enum_count != b_count:
            raise RuntimeError(
                f"count disagreement on the best pattern: sweep {b_count}, "
                f"enumeration {enum_count}"
            )
        reverified_enum = True
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
        reverified_dp=True,
        reverified_enum=reverified_enum,
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
