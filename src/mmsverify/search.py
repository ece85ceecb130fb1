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

At d <= 3 the grid is counted by direction. A d = 3 candidate has values
h > v > w with m1 * h + m2 * v + m3 * w = 0, so h > 0 (were h <= 0, all
three values would be negative and their weighted sum too), and every
composition sum is (A * h + B * v) / m3 for integers A and B. The sum is
homogeneous in (h, v), so its sign, and the count, depend only on the
direction v / h. Between the grid's least direction and its greatest,
(top - 1) / top, each level of a prefix switches at most once, at a
rational breakpoint, so the count is a step function: one value on each
open cell between breakpoints and one at each breakpoint. A tuple is
counted in one pass: each prefix's threshold at the two extreme
directions gives the levels it crosses, their breakpoints are sorted by
an exact integer key and swept, and only the cells that could beat the
best so far are searched for grid candidates, least count first. A
breakpoint p / q is on the grid only at h = q; an open cell takes one
floor division per h. A tuple whose table has more levels (the sum of its
suffix lengths, which bounds the crossings) than it has candidates keeps
its rows, as does d = 4. At d = 2 every candidate (v, -m1 * v / m2) has
the direction of v = 1, so each tuple has one count, and v = 1 is its
least candidate.

Rows are counted one at a time, a row being the candidates that differ
only in the last head v. Along a row a prefix's threshold is the ceiling of
a ratio of two linear functions of v whose denominator stays positive, so it
is monotone in v, and part d-1 = c reaches it exactly where one linear
inequality in v holds. Each prefix is therefore evaluated at the two ends of
the row, whatever its length: if its threshold stays put it adds one
constant to the row; otherwise each crossed level adds its weight from the
v where its inequality flips, one floor division per level. A prefix that
crosses c levels so costs O(1 + c) work, and a row costs its candidates
and its table's entries plus the levels they cross; no candidate is
evaluated on its own.

A tuple whose floor already exceeds the best count so far is skipped
before its table is built. With C_j and M_j the prefix sums of a
composition c and of the multiplicities, and zero sum giving
n * v_d = -sum over j < d of M_j * (v_j - v_{j+1}), Abel summation reads
sum c_i * v_i = sum over j < d of (C_j - k * M_j / n) * (v_j - v_{j+1}).
Every gap v_j - v_{j+1} is positive and can dominate the others, so c is
nonnegative at every strictly decreasing zero-sum vector of the tuple
exactly when n * C_j >= k * M_j for every j < d. The weighted count of
those compositions is the floor: no candidate of the tuple counts fewer.
It depends on (mults, n, k) alone and takes one pass over the blocks,
about d * (k + 1)^2 steps: at d = 3 about what the tuple's table costs,
which a tuple of few candidates would not repay, so only a tuple with
more than k grid candidates computes it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb, gcd, prod
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
        for d in range(2, self.max_distinct + 1):
            for mults in _positive_compositions(self.n, d):
                yield from _tuple_rows(mults, self.value_range)


def _tuple_rows(mults: tuple[int, ...], top: int) -> Iterator[Row]:
    """The nonempty rows of one multiplicity tuple, in SearchSpace.rows' order."""
    *prefix_mults, m_head, den = mults
    grid = range(top, -top - 1, -1)
    for prefix in itertools.combinations(grid[:-1], len(mults) - 2):
        base = 0
        for m, v in zip(prefix_mults, prefix):
            base -= m * v
        # The last value (base - m_head * v) / den stays below the last
        # head v exactly when v * (m_head + den) > base.
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
    rows = [[comb(m, c) for c in range(min(m, k) + 1)] for m in mults]
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
    prefix's levels, is monotone in v. Every prefix is evaluated at hi and
    lo only: one whose clamped thresholds agree adds one constant to the
    row, and any other adds each crossed level's weight, through a
    difference array, from the v where its inequality flips. Integers only.
    """
    box, entries = table
    mults, prefix, base, hi, lo = row
    m_head, den = mults[-2:]
    lifts = [0]  # den * sum of c_i * h_i at every prefix of the box, in order
    for parts, h in zip(box, prefix):
        lifts = [s + c * h * den for s in lifts for c in parts]
    slope = m_head + den
    # a difference array: steps[i] is the change of the row's count from
    # candidate i - 1 to candidate i, v = hi - i; steps[0] is the count at hi
    steps = [0] * (hi - lo + 1)
    flat = 0
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
        elif u < t:
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
        else:
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
    steps[0] = flat
    return list(itertools.accumulate(steps))


def _d3_grid(m1: int, n: int, top: int) -> tuple[list[int], int, tuple[int, int]]:
    """(lows, size, start) of the d = 3 rows whose first multiplicity is m1.

    lows[h] is the least second head of first head h = 1..top (rows with
    h <= 0 are empty), size the number of candidates, and start =
    (h, lows[h]) the grid's least direction v / h, the smallest h first.
    """
    lows = [0] + [max((-m1 * h) // (n - m1) + 1, -top) for h in range(1, top + 1)]
    h0 = 1
    for h in range(2, top + 1):
        if lows[h] * h0 < lows[h0] * h:
            h0 = h
    return lows, sum(h - lows[h] for h in range(1, top + 1)), (h0, lows[h0])


def _least_on_grid(cell: tuple[int, ...], lows: list[int], top: int) -> tuple[int, int] | None:
    """The least grid candidate (h, v), smallest h first, whose direction v / h lies in a cell.

    A point cell (p, q) holds v / h = p / q exactly when (h, v) is a
    multiple of the reduced pair, so only its h can be least. An open cell
    (pl, ql, l, pr, qr, r) holds pl / ql < v / h < pr / qr, with l = 1 or
    r = 1 closing that end; each h takes the least v past the left end,
    v * ql >= pl * h + 1 - l, and holds it to the right end,
    v * qr < pr * h + r.
    """
    if len(cell) == 2:
        p, q = cell
        g = gcd(p, q)
        p, q = p // g, q // g
        return (q, p) if q <= top and p >= lows[q] else None
    pl, ql, l, pr, qr, r = cell
    for h in range(1, top + 1):
        v = max((pl * h - l) // ql + 1, lows[h])
        if v * qr < pr * h + r:
            return h, v
    return None


def _direction_cells(table: Table, mults: tuple[int, ...], top: int,
                     start: tuple[int, int]) -> list[tuple[int, tuple[int, ...]]]:
    """(count, cell) for every cell of a d = 3 tuple's directions, least direction first.

    With values (h, v, w) and m3 * w = -m1 * h - m2 * v, level c of prefix
    c1 counts where h * (alpha + c * m1) + v * (c * sigma - step) >= 0, a
    half-line of directions v / h ending at one breakpoint. Each prefix's
    threshold is evaluated at the grid's least direction, start, and at its
    greatest, (top - 1) / top; only the levels between the two switch, each
    on from its breakpoint up (q > 0) or off past it (q < 0). Equal
    breakpoints are merged under the exact key p * K // q: with every
    denominator at most D and K = D * D, distinct ratios are at least
    1 / K apart. The cells alternate open and point, as _least_on_grid
    reads them, and cover the directions from start to (top - 1) / top.
    """
    m1, m2, m3 = mults
    sigma = m2 + m3
    h0, v0 = start
    dw0, dw1 = v0 * sigma + m1 * h0, (top - 1) * sigma + m1 * top
    scale = (sigma * (m1 + sigma)) ** 2  # every |c * sigma - step| is at most sigma * n
    count, events = 0, {}
    for c1, rem, c_lo, c_hi, suffix in table[1]:
        alpha, step = c1 * m3 - rem * m1, m2 * rem
        t = -((h0 * alpha - v0 * step) // dw0)
        u = -((top * alpha - (top - 1) * step) // dw1)
        t = c_lo if t < c_lo else c_hi + 1 if t > c_hi else t
        u = c_lo if u < c_lo else c_hi + 1 if u > c_hi else u
        if t <= c_hi:
            count += suffix[t - c_lo]
        for c in range(min(t, u), max(t, u)):
            j = c - c_lo
            weight = suffix[j] - suffix[j + 1] if c < c_hi else suffix[j]
            p, q = -alpha - c * m1, c * sigma - step
            on = weight
            if q < 0:
                p, q, on = -p, -q, 0
            event = events.setdefault(p * scale // q, [p, q, 0, 0])
            event[2] += on
            event[3] += weight - on
    cells = []
    pl, ql, l = v0, h0, 1
    for key in sorted(events):
        p, q, on, off = events[key]
        cells.append((count, (pl, ql, l, p, q, 0)))
        cells.append((count + on, (p, q)))
        count += on - off
        pl, ql, l = p, q, 0
    cells.append((count, (pl, ql, l, top - 1, top, 1)))
    return cells


def _direction_best(cells: list[tuple[int, tuple[int, ...]]], lows: list[int], top: int,
                    limit: int) -> tuple[int, tuple[int, int]] | None:
    """(count, (h, v)) of the least grid candidate counting at most limit, or None.

    Cells are tried in order of count; the first count that holds a grid
    candidate is the tuple's least, and its cells give the least (h, v).
    """
    best = None
    for count, cell in sorted((cell for cell in cells if cell[0] <= limit), key=lambda cell: cell[0]):
        if best is not None and count > best[0]:
            break
        found = _least_on_grid(cell, lows, top)
        if found is not None and (best is None or (count, found) < best):
            best = (count, found)
    return best


def _rows_best(table: Table, mults: tuple[int, ...], top: int,
               limit: int) -> tuple[int, tuple[int, ...]] | None:
    """(count, heads) of the least candidate counting at most limit, or None, row by row."""
    best = None
    for row in _tuple_rows(mults, top):
        _, prefix, _, _, lo = row
        counts = _row_counts(table, row)
        least = min(counts)
        if least > limit:
            continue
        # Values fall with v along a row, so its argmin is its last least count.
        found = (least, prefix + (lo + counts[::-1].index(least),))
        if best is None or found < best:
            best, limit = found, least
    return best


def _floor(mults: tuple[int, ...], n: int, k: int) -> int:
    """A lower bound on a tuple's count at every strictly decreasing zero-sum vector.

    The weighted count, prod C(m_i, c_i), of the compositions c of k with
    n * C_j >= k * M_j for every j < d, C_j and M_j being the prefix sums
    of c and of mults: by Abel summation (see the module docstring) these
    are exactly the compositions nonnegative at every such vector. One pass
    over the blocks keeps the weighted count of each admissible prefix sum.
    """
    low, counts = 0, [1]  # counts[C - low]: weighted prefixes of sum C, low <= C <= k
    total = 0
    for m in mults[:-1]:
        total += m
        row = [comb(m, c) for c in range(min(m, k) + 1)]
        new_low = -((-k * total) // n)  # the least C_j with n * C_j >= k * M_j
        grown = [0] * (k + 1 - new_low)
        for s, w in enumerate(counts, low):
            skip = max(new_low - s, 0)
            for c, b in enumerate(row[skip:k + 1 - s], s + skip - new_low):
                grown[c] += w * b
        low, counts = new_low, grown
    last = mults[-1]
    return sum(w * comb(last, k - c) for c, w in enumerate(counts, low) if k - c <= last)


def sweep_patterns(space: SearchSpace) -> SearchReport:
    """Minimize the nonnegative k-subset count over the whole grid.

    The threshold table (see _threshold_table) is built once per
    multiplicity tuple. A d = 3 candidate (h, v, w) has h > 0, since three
    strictly decreasing values with a zero weighted sum cannot all be
    negative, and each composition sum is homogeneous in (h, v), so a
    tuple's count depends only on v / h: _direction_cells sweeps it across
    the breakpoints between the grid's extreme directions, and
    _direction_best finds the least candidate of the least cell that holds
    one. A tuple whose table has more levels than it has candidates, and
    every d = 4 tuple, is counted row by row by _row_counts instead, each
    row from the breakpoints of the levels its prefixes cross; a d = 2
    tuple has one direction, so one count, at v = 1. Before its table, a
    d >= 3 tuple with more than k grid candidates computes its _floor, the
    weighted count of the compositions nonnegative at every zero-sum vector
    of the tuple, and is skipped when the floor exceeds the best count so
    far; a floor equal to it does not skip, since the tuple could still
    win the tie-break. candidates_examined counts every grid candidate
    either way, a skipped tuple's included. Ties break toward the
    lexicographically smallest (multiplicities, values). Before the report
    is emitted, the winner is re-counted by count_nonnegative_dp in both
    value orders and by count_nonnegative on the expanded vector, whose
    own chooser and budget pick the engine; none of them shares code with
    the kernel. Any disagreement raises RuntimeError, so the report names
    only the engine count_nonnegative chose.
    """
    charge(space.size(), "grid candidates before the zero-sum filter", "reduce value_range or max_distinct")
    n, k, top = space.n, space.k, space.value_range
    bound = star_family_size(n, k)
    # The single value 0 comes first: every k-subset sums to 0.
    b_count, b_mults, b_heads = binomial(n, k), (n,), ()
    examined = 1
    grid = ()
    for d in range(2, space.max_distinct + 1):
        for mults in _positive_compositions(n, d):
            if d == 2:
                size = top
            elif d == 3 and mults[:1] != grid:
                grid = mults[:1]
                lows, size, start = _d3_grid(mults[0], n, top)
            elif d == 4 and mults[:2] != grid:
                # a d = 4 tuple's rows depend on its first two multiplicities alone
                grid = mults[:2]
                size = sum(hi - lo + 1 for *_, hi, lo in _tuple_rows(mults, top))
            examined += size
            # a floor over the best so far skips the tuple; at d = 3 the floor
            # costs about one table, so only tuples of more than k candidates try it
            if d > 2 and size > k and _floor(mults, n, k) > b_count:
                continue
            table = _threshold_table(mults, k)
            if d == 2:
                # every candidate has the direction of v = 1, where the sum
                # of c_1 * v + (k - c_1) * w has the sign of c_1 * n - k * m_1
                [(_, _, c_lo, c_hi, suffix)] = table[1]
                t = max(-((-mults[0] * k) // n), c_lo)
                found = (suffix[t - c_lo] if t <= c_hi else 0, (1,))
            # by direction unless the levels, which bound the crossings,
            # outnumber the candidates
            elif d == 3 and sum(len(entry[4]) for entry in table[1]) <= size:
                found = _direction_best(_direction_cells(table, mults, top, start), lows, top, b_count)
            else:
                found = _rows_best(table, mults, top, b_count)
            if found is not None and (found[0], mults, found[1]) < (b_count, b_mults, b_heads):
                b_count, b_mults, b_heads = found[0], mults, found[1]

    # The last value solves the zero sum: m_d * w = -(m_1 * h_1 + ... + m_{d-1} * h_{d-1}).
    last = Fraction(-sum(m * h for m, h in zip(b_mults, b_heads)), b_mults[-1])
    pattern = MultiplicityPattern(tuple(zip(tuple(map(Fraction, b_heads)) + (last,), b_mults)))
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
