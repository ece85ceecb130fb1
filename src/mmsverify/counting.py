"""Counting nonnegative k-subset sums: three independent exact engines.

A restriction, a conjunction of contains, intersects and disjoint atoms,
reaches the engines only through _terms: a short list of signed plain
counts, each over the k-subsets made of a fixed set plus a subset of the
live items. Tests hold both engines, and so _terms, against
tests/_oracles.satisfies.
count_nonnegative picks one of two engines from its input alone. The
generating-function counter packs, per subset size, the polynomial sum
of x^(subset sum) into one Python int and adds one element at a time.
The two-list counter splits the items in halves, lists each half's
subset sums for every split of the subset size, and counts the pairs
with a nonnegative total by bisection. count_nonnegative_dp runs a
(size, sum) dynamic program over the distinct values of a multiplicity
pattern, adding c copies of a value with multiplicity m at C(m, c) ways.
Tests and the search engine hold the three against each other; apart
from the terms they never share a code path.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import accumulate, combinations, groupby, product
from math import lcm, prod
from sys import int_info
from typing import Sequence

from .combinat import ENUM_BUDGET, _Record, binomial, charge, colex
from .report import VERDICT_VERIFIED, VERDICT_VIOLATED
from .weights import WeightVector

__all__ = [
    "CountReport",
    "GF_BIT_BUDGET",
    "MultiplicityPattern",
    "Restriction",
    "count_nonnegative",
    "count_nonnegative_dp",
    "family_size",
    "nonnegative_family",
    "overlap_sums",
    "restricted_sum",
    "star_family_size",
]

ENGINE_GF = "generating-function"
ENGINE_ENUM = "enumeration"

# Most bits of packed polynomials the generating-function counter may hold.
GF_BIT_BUDGET = 1 << 30
# Bits of big-int work that take about one step of ENUM_BUDGET: writing
# _STEP_BITS bits of packed polynomial is one step, and so is multiplying
# ints of a and b bits when a * b reaches _STEP_BITS * bits_per_digit.
_STEP_BITS = 3000


def star_family_size(n: int, k: int) -> int:
    """C(n-1, k-1): the number of k-subsets through a fixed element."""
    return binomial(n - 1, k - 1)


class Atom(_Record):
    """One membership constraint: the subset holds exactly one of the
    indices (contains; with one index, that index), at least one
    (intersects) or none (disjoint)."""

    kind: str  # contains | intersects | disjoint
    indices: frozenset[int]

    def __post_init__(self) -> None:
        if self.kind not in ("contains", "intersects", "disjoint"):
            raise ValueError(f"unknown atom kind {self.kind!r}: expected contains, intersects or disjoint")
        if not self.indices:
            raise ValueError(f"{self.kind} needs at least one index")

    def describe(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.indices))
        return f"{self.kind}({inner})"


class Restriction(_Record):
    """Conjunction of membership constraints on the counted subsets."""

    atoms: tuple[Atom, ...] = ()

    @staticmethod
    def contains(i: int) -> "Restriction":
        return Restriction((Atom("contains", frozenset((i,))),))

    @staticmethod
    def intersects(*indices: int) -> "Restriction":
        return Restriction((Atom("intersects", frozenset(indices)),))

    @staticmethod
    def disjoint(*indices: int) -> "Restriction":
        return Restriction((Atom("disjoint", frozenset(indices)),))

    def __and__(self, other: "Restriction") -> "Restriction":
        return Restriction(self.atoms + other.atoms)

    def validate(self, n: int) -> None:
        for atom in self.atoms:
            bad = [i for i in atom.indices if not 0 <= i < n]
            if bad:
                raise ValueError(f"{atom.describe()}: indices {sorted(bad)} out of range for n={n}")

    def describe(self) -> str:
        if not self.atoms:
            return "none"
        return " & ".join(a.describe() for a in self.atoms)


class CountReport(_Record):
    """Result of one counting run."""

    n: int
    k: int
    restriction: Restriction
    total_checked: int
    nonnegative_count: int
    engine: str  # ENGINE_GF or ENGINE_ENUM: the engine behind nonnegative_count
    bound_comparisons: tuple[tuple[str, int, bool], ...] = ()
    star_equality: bool | None = None
    witness: str | None = None

    @property
    def verdict(self) -> str:
        if all(ok for _, _, ok in self.bound_comparisons):
            return VERDICT_VERIFIED
        return VERDICT_VIOLATED

    def to_dict(self) -> dict:
        return {
            "type": "count",
            "n": self.n,
            "k": self.k,
            "restriction": self.restriction.describe(),
            "total_checked": str(self.total_checked),
            "nonnegative_count": str(self.nonnegative_count),
            "engine": self.engine,
            "bound_comparisons": [
                {"bound": name, "value": str(value), "satisfied": ok}
                for name, value, ok in self.bound_comparisons
            ],
            "star_equality": self.star_equality,
            "witness": self.witness,
        }


Term = tuple[int, frozenset[int], list[int]]  # (sign, fixed, live)
Plain = tuple[int, list[int], int, int]  # (sign, items, j, floor)


def _terms(n: int, atoms: Sequence[Atom]) -> list[Term]:
    """The atoms as signed plain counts (sign, fixed, live) over range(n).

    Term (sign, fixed, live) counts, with that sign, the k-subsets made of
    fixed and a (k - |fixed|)-subset of live. Each contains atom picks the
    index the subset holds in its block; the rest of the block joins the
    excluded set, and so does every disjoint index. A set Q of intersects
    atoms adds a term of sign (-1)^|Q| that excludes their blocks too
    (inclusion-exclusion). Picks that another contains block or an excluded
    index rules out give no term. Before any term is built, their number,
    the product of the contains block sizes times 2^(intersects atoms),
    times n is charged to ENUM_BUDGET.
    """
    blocks: dict[str, list[frozenset[int]]] = {"contains": [], "intersects": [], "disjoint": []}
    for a in atoms:
        blocks[a.kind].append(a.indices)
    held, meets = blocks["contains"], blocks["intersects"]
    count = prod(map(len, held)) << len(meets)
    charge(count * n, f"{count} plain counts over {n} items")
    dropped = frozenset().union(*blocks["disjoint"])
    gone = dropped.union(*held)
    terms = []
    for picks in product(*map(sorted, held)):
        fixed = frozenset(picks)
        if any(len(fixed & b) != 1 for b in held):
            continue
        for q in range(1 << len(meets)):
            missed = frozenset().union(*(b for t, b in enumerate(meets) if q >> t & 1))
            if not fixed & (dropped | missed):
                out = gone | missed
                terms.append(((-1) ** q.bit_count(), fixed, [i for i in range(n) if i not in out]))
    return terms


def _listed(terms: Sequence[Term], k: int) -> int:
    """Entries the two-list counter builds: per term, with j = k - |fixed| and
    the m live items split into L, the first m // 2, and R, the rest, over
    every split a in [max(0, j - |R|), min(j, |L|)], the C(s+1, min(c, s-c))
    entries of all the colex levels for the c-subset sums of s items, at
    (s, c) = (|L|, a) and (|R|, j - a).

    The sum stops, and is returned, once it passes ENUM_BUDGET, so that a
    refusal at large m costs a few binomials rather than one per split.
    """
    listed = 0
    for _, fixed, live in terms:
        j, h = k - len(fixed), len(live) // 2
        r = len(live) - h
        for a in range(max(0, j - r), min(j, h) + 1):
            listed += binomial(h + 1, min(a, h - a)) + binomial(r + 1, min(j - a, r - j + a))
            if listed > ENUM_BUDGET:
                return listed
    return listed


def _plain(y: Sequence[int], terms: Sequence[Term], k: int) -> list[Plain]:
    """(sign, items, j, floor) per term that has j-subsets: the live values
    ascending, j = k - |fixed| and floor = -(fixed sum), so that a j-subset
    of items counts when its sum is at least floor."""
    return [
        (sign, sorted(y[i] for i in live), k - len(fixed), -sum(y[i] for i in fixed))
        for sign, fixed, live in terms
        if 0 <= k - len(fixed) <= len(live)
    ]


def _signed(kernel, plain: Sequence[Plain]) -> tuple[int, int]:
    """(total, nonnegative) summed with their signs over the plain counts, each by kernel."""
    counts = [(sign, *kernel(items, j, floor)) for sign, items, j, floor in plain]
    return sum(sign * t for sign, t, _ in counts), sum(sign * c for sign, _, c in counts)


def _side(items: Sequence[int], c: int) -> list[int]:
    """The c-subset sums of items; when 2c > len(items), each is the total
    less the sum of its complement, built by colex from the negated items."""
    if 2 * c <= len(items):
        return colex(items, c)
    return colex([-v for v in items], len(items) - c, sum(items))


def _split_plain(items: Sequence[int], j: int, floor: int) -> tuple[int, int]:
    """(C(m, j), j-subsets of the m items with sum >= floor), by two lists.

    A j-subset is an a-subset of L, the first half, joined to a
    (j-a)-subset of R (Horowitz and Sahni, J. ACM 1974). For each split a
    the counter lists both sides' subset sums, sorts R's, and counts the
    pairs with v + w >= floor by one bisection per sum v of L.
    """
    h = len(items) // 2
    left, right = items[:h], items[h:]
    count = 0
    for a in range(max(0, j - len(right)), min(j, h) + 1):
        sums, ws = _side(left, a), sorted(_side(right, j - a))
        count += len(sums) * len(ws) - sum(bisect_left(ws, floor - v) for v in sums)
    return binomial(len(items), j), count


def _split_count(y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]) -> tuple[int, int]:
    """(total satisfying the atoms, nonnegative among those) by _split_plain, charged _listed."""
    terms = _terms(n, atoms)
    charge(_listed(terms, k), "entries the two-list counter builds (at least)")
    return _signed(_split_plain, _plain(y, terms, k))


def _slot_width(m: int, k: int) -> int:
    """One bit more than the largest C(m, j) over j <= k, which exceeds C(m, k) when k > m/2."""
    return binomial(m, min(k, m // 2)).bit_length() + 1


def _gf_size(items: Sequence[int], j: int) -> tuple[int, int, int]:
    """(bits held, bits written, shift-adds) of _gf_plain on the ascending items.

    With d_i = items[i] - items[0], adding item t writes level q = s + 1
    for q <= min(t + 1, j), and since the items ascend the heaviest q-subset
    of the first t + 1 is the last q of them, so level q then has degree
    D[t+1] - D[t+1-q] over the prefix sums D of d: q*D[t+1] - (E[t+1] -
    E[t+1-q]) summed over q, with E the prefix sums of D. A level of degree
    g takes g + 1 slots of w bits, exactly, because its top slot is nonzero.
    """
    m = len(items)
    if not 1 <= j <= m:
        return 0, 0, 0
    w = _slot_width(m, j)
    D = list(accumulate((v - items[0] for v in items), initial=0))
    E = list(accumulate(D, initial=0))
    written = ops = 0
    for t in range(m):
        q = min(t + 1, j)
        written += q * D[t + 1] - (E[t + 1] - E[t + 1 - q]) + q
        ops += q
    held = sum(D[m] - D[m - s] + 1 for s in range(j + 1))
    return held * w, written * w, ops


def _gf_plain(items: Sequence[int], j: int, floor: int) -> tuple[int, int]:
    """(C(m, j), j-subsets of the m ascending items with sum >= floor), by generating function.

    With lo the least item, P[s] holds the sum over s-subsets S of the
    items added so far of x^(sum of v - lo over S), in slots of w bits.
    No slot overflows, because every slot sum of P[s] is at most C(m, s)
    < 2^(w-1). Adding item v runs P[s+1] += P[s] << (v - lo)*w over s in
    descending order; ascending items keep each level's degree as low as
    any order can. A polynomial mod 2^w - 1 is the sum of its slots, so
    shifting out the slots below floor - j*lo first leaves the count.
    """
    lo = items[0] if items else 0
    w = _slot_width(len(items), j)
    P = [1] + [0] * j
    for seen, v in enumerate(items):
        shift = (v - lo) * w
        for s in range(min(seen, j - 1), -1, -1):
            P[s + 1] += P[s] << shift
    ones = (1 << w) - 1
    return P[j] % ones, (P[j] >> max(0, floor - j * lo) * w) % ones


def _gf_count(y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]) -> tuple[int, int]:
    """(total satisfying the atoms, nonnegative among those) by _gf_plain."""
    return _signed(_gf_plain, _plain(y, _terms(n, atoms), k))


def _count(y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]) -> tuple[str, int, int]:
    """(engine, total, nonnegative) by the cheaper engine that fits its budget.

    Both engines are charged from one list of terms: the generating
    function a step per shift-add and per _STEP_BITS bits it writes, the
    two-list counter a step per entry it builds. The generating function
    runs when it holds at most GF_BIT_BUDGET bits and takes no more steps
    than the other, capped at ENUM_BUDGET; otherwise the two-list counter
    runs under the budget. A refusal names count_nonnegative_dp only
    when there are no atoms and the DP's own charge admits y's pattern.
    """
    terms = _terms(n, atoms)
    plain = _plain(y, terms, k)
    held = steps = 0
    for _, items, j, _ in plain:
        bits, written, ops = _gf_size(items, j)
        held, steps = max(held, bits), steps + ops + written // _STEP_BITS
    listed = _listed(terms, k)
    if held <= GF_BIT_BUDGET and steps <= min(listed, ENUM_BUDGET):
        return (ENGINE_GF, *_signed(_gf_plain, plain))
    if listed > ENUM_BUDGET:
        hint = (
            f"the generating-function counter would hold {held} bits against its budget of "
            f"{GF_BIT_BUDGET} and take {steps} steps"
        )
        pairs = [(v, len(list(run))) for v, run in groupby(y)]
        if not atoms and _dp_updates(pairs, k) <= ENUM_BUDGET:
            hint += "; count_nonnegative_dp counts from a multiplicity pattern"
        charge(listed, "entries the two-list counter builds (at least)", hint)
    return (ENGINE_ENUM, *_signed(_split_plain, plain))


def _count_exact(y: Sequence[int], m: int, s: int | Fraction) -> int:
    """The m-subsets of y whose sum is exactly s: those at least s less those at least s + 1.

    An m-subset's sum is at least t exactly when, joined to one more item
    of value -t, it sums to at least 0, so each count is one _count of
    the (m+1)-subsets holding that item, pinned by a contains atom. The
    values keep their spread, and m = 0 needs no case of its own. A sum
    of integers is never a non-integer s.
    """
    if s != int(s):
        return 0
    pin = (Atom("contains", frozenset((len(y),))),)
    at_least = [_count([*y, -t], len(y) + 1, m + 1, pin)[2] for t in (int(s), int(s) + 1)]
    return at_least[0] - at_least[1]


def _pass_steps(m: int, k: int) -> int:
    """Inner steps of _size_pass over m items: item t updates min(t + 1, k) sizes."""
    return m * (m + 1) // 2 if m <= k else k * (k + 1) // 2 + (m - k) * k


def _size_pass(items: Sequence[int], k: int) -> tuple[list[int], list[int]]:
    """(counts, sums): entry j <= k is the number of j-subsets of items and the sum of their sums.

    Adding item v to each j-subset makes a (j+1)-subset with sum raised by v.
    """
    counts, sums = [1] + [0] * k, [0] * (k + 1)
    for seen, v in enumerate(items):
        for j in range(min(seen, k - 1), -1, -1):
            counts[j + 1] += counts[j]
            sums[j + 1] += sums[j] + counts[j] * v
    return counts, sums


def count_nonnegative(
    X: WeightVector,
    k: int,
    restriction: Restriction | None = None,
) -> CountReport:
    """Count k-subsets S with sum(x_i for i in S) >= 0 under a restriction.

    The engine is chosen from the input alone (see _count) and named in
    the report.
    """
    n = X.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    restriction = restriction or Restriction()
    restriction.validate(n)
    y, _ = X.scaled_ints()
    atoms = restriction.atoms
    engine, total, nn = _count(y, n, k, atoms)

    bound_comparisons: tuple[tuple[str, int, bool], ...] = ()
    star_equality: bool | None = None
    witness: str | None = None
    if not atoms:
        bound = star_family_size(n, k)
        bound_comparisons = (("C(n-1,k-1)", bound, nn >= bound),)
        if nn == bound:
            # y is non-increasing, so {0, n-k+1, ..., n-1} is the least k-subset
            # through index 0; a family of the star's size is the star exactly
            # when it holds that subset.
            star_equality = y[0] + sum(y[n - k + 1 :]) >= 0
            if star_equality:
                witness = "all k-subsets containing index 0"
    return CountReport(
        n=n,
        k=k,
        restriction=restriction,
        total_checked=total,
        nonnegative_count=nn,
        engine=engine,
        bound_comparisons=bound_comparisons,
        star_equality=star_equality,
        witness=witness,
    )


def nonnegative_family(X: WeightVector, k: int) -> list[tuple[int, ...]]:
    """Explicit list of nonnegative k-subsets, in colex order.

    Lex order over the ground read backwards is colex order reversed, so
    combinations(range(n-1, -1, -1), k), each tuple read backwards, meets
    the colex sums from the end. The refusal is that of colex(y, k).
    """
    y, _ = X.scaled_ints()
    sums = colex(y, k)
    walk = zip(combinations(range(X.n - 1, -1, -1), k), reversed(sums))
    out = [S[::-1] for S, s in walk if s >= 0]
    out.reverse()
    return out


def restricted_sum(X: WeightVector, k: int, restriction: Restriction) -> Fraction:
    """Exact sum of b_S over subsets satisfying the restriction.

    Per term of _terms, the j = k - |fixed| subsets of live add their own
    sums, from one (count, sum) pass, and the fixed sum once each.
    """
    n = X.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    restriction.validate(n)
    y, scale = X.scaled_ints()
    terms = _terms(n, restriction.atoms)
    steps = sum(_pass_steps(len(live), k - len(fixed)) for _, fixed, live in terms if len(fixed) <= k)
    charge(steps, "steps of the restricted sum's (count, sum) passes")
    total = 0
    for sign, fixed, live in terms:
        j = k - len(fixed)
        if j >= 0:
            counts, sums = _size_pass([y[i] for i in live], j)
            total += sign * (sums[j] + sum(y[i] for i in fixed) * counts[j])
    return Fraction(total, scale)


def _divided_steps(s: int, k: int) -> int:
    """Inner steps of _divided_pass for a block of s items: its own pass, the division and the profile."""
    top = min(k, s)
    return _pass_steps(s, k) + top * (top + 1) // 2 + (k - top) * top + top + 1


def _divided_pass(full: tuple[list[int], list[int]], items: Sequence[int], k: int) -> list[int]:
    """Entry t: the sum of y-sums over k-subsets S with |S & block| = t.

    items are the block's values and full = _size_pass(y, k). Write a
    side's (count, sum) series as C(z) + e*S(z) with e*e = 0: the whole
    set's series is the block's times the rest's, so C = C_in*C_out and
    S = C_in*S_out + S_in*C_out. The block's constant term is (1, 0), so
    the rest's series follows from the whole's term by term, by exact
    power-series division. A block of s items costs its own pass, at
    most s*k steps (s(s+1)/2 when s <= k), and the division, at most
    min(s, k)(k+1), where a pass over the rest would take about (n - s)k.
    """
    c_full, s_full = full
    c_in, s_in = _size_pass(items, k)
    top = min(k, len(items))
    c_out, s_out = [], []
    for u in range(k + 1):
        c, s = c_full[u], s_full[u]
        for a in range(1, min(u, top) + 1):
            c -= c_in[a] * c_out[u - a]
            s -= c_in[a] * s_out[u - a] + s_in[a] * c_out[u - a]
        c_out.append(c)
        s_out.append(s)
    return [s_in[t] * c_out[k - t] + c_in[t] * s_out[k - t] for t in range(top + 1)]


def overlap_sums(X: WeightVector, k: int, block: Sequence[int]) -> tuple[Fraction, ...]:
    """Sums of b_S grouped by the overlap |S intersect block| = t.

    One (count, sum) pass over y and one divided pass for the block,
    charged the steps of both.
    """
    n = X.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    fs = frozenset(block)
    if any(not 0 <= i < n for i in fs):
        raise ValueError("block indices out of range")
    charge(_pass_steps(n, k) + _divided_steps(len(fs), k), "steps of the overlap passes")
    y, scale = X.scaled_ints()
    full = _size_pass(y, k)
    return tuple(Fraction(s, scale) for s in _divided_pass(full, [y[i] for i in sorted(fs)], k))


class MultiplicityPattern(_Record):
    """Distinct values with multiplicities: ((v_1, m_1), ..., (v_d, m_d)).

    Values strictly decreasing, multiplicities positive, weighted sum zero.
    """

    pairs: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        if not self.pairs:
            raise ValueError("pattern must have at least one value")
        prev = None
        for v, m in self.pairs:
            if not isinstance(v, Fraction):
                raise TypeError("pattern values must be Fraction")
            if m < 1:
                raise ValueError("multiplicities must be >= 1")
            if prev is not None and v >= prev:
                raise ValueError("values must be strictly decreasing")
            prev = v
        if sum(v * m for v, m in self.pairs) != 0:
            raise ValueError("weighted sum must be zero")

    @property
    def n(self) -> int:
        return sum(m for _, m in self.pairs)

    def expand(self) -> WeightVector:
        values: list[Fraction] = []
        for v, m in self.pairs:
            values.extend([v] * m)
        return WeightVector(tuple(values))

    def describe(self) -> str:
        return " ".join(
            f"{v.numerator}/{v.denominator}x{m}" if v.denominator != 1 else f"{v.numerator}x{m}"
            for v, m in self.pairs
        )


def _dp_updates(pairs: Sequence[tuple[int, int]], k: int) -> int:
    """Most steps count_nonnegative_dp takes on (scaled value, multiplicity) pairs.

    Before the i-th value, level j is empty past the multiplicity seen; it
    holds at most C(i+j-1, j) sums, the j-multisets of the values seen,
    and at most j*span + 1, the integers in [j*min, j*max]. Each state
    takes one update per copy count c the DP tries, and each of the k
    levels past 0 counts one step for its dict. An update multiplies the
    ways of a state, at most C(seen, j) with j < k, by C(m, c) with c <= k,
    and C(a, b) has at most min(a, b * bitlen(a)) + 1 bits, since it is at
    most 2^a and a^b. A product of ints of x and y bits counts x * y //
    (_STEP_BITS * bits_per_digit) steps more. The sum stops, and is
    returned, once it passes ENUM_BUDGET.
    """
    span = abs(pairs[0][0] - pairs[-1][0])  # the values are sorted
    updates, seen, rest = k, 0, sum(m for _, m in pairs)
    for i, (_, m) in enumerate(pairs):
        rest -= m
        ways = min(seen, min(k - 1, seen) * seen.bit_length()) + 1
        times = min(m, min(k, m) * m.bit_length()) + 1
        weight = 1 + ways * times // (_STEP_BITS * int_info.bits_per_digit)
        for j in range(min(k, seen + 1)):
            states = min(binomial(i + j - 1, j), j * span + 1) if j else 1
            updates += weight * states * max(0, min(m, k - j) - max(1, k - j - rest) + 1)
            if updates > ENUM_BUDGET:
                return updates
        seen += m
    return updates


def count_nonnegative_dp(pattern: MultiplicityPattern, k: int, reverse: bool = False) -> int:
    """Count nonnegative k-subset sums from the multiplicity pattern alone.

    A (size, sum) dynamic program over the distinct values: levels[j] maps
    each scaled sum of j items to its number of ways. Value w with
    multiplicity m adds c copies, C(m, c) ways, to every state of level j,
    for j descending so no state takes w twice; c starts where the values
    still to come can fill the rest of k, so no state is kept that cannot
    reach it. reverse=True takes the values in the opposite order, a
    different sequence of states, for independent re-verification.
    Refuses, before any state is built, when _dp_updates passes
    ENUM_BUDGET.
    """
    n = pattern.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    scale = lcm(*(v.denominator for v, _ in pattern.pairs))
    pairs = [(int(v * scale), m) for v, m in pattern.pairs][:: -1 if reverse else 1]
    charge(_dp_updates(pairs, k), "steps of the multiplicity-pattern DP (at least)")
    levels: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(k)]
    seen = 0
    for w, m in pairs:
        rest = n - seen - m  # the multiplicity still to come
        ways_of = {c: binomial(m, c) for c in range(max(1, k - n + m), min(m, k) + 1)}
        for j in range(min(seen, k - 1), -1, -1):
            for c in range(max(1, k - j - rest), min(m, k - j) + 1):
                level, shift, times = levels[j + c], c * w, ways_of[c]
                for s, ways in levels[j].items():
                    level[s + shift] = level.get(s + shift, 0) + ways * times
        seen += m
    return sum(ways for s, ways in levels[k].items() if s >= 0)


def family_size(n: int, k: int, i: int) -> int:
    """Size of {S : |S| = k, i in S, 0 not in S, S meets A and S meets C}.

    A = {0..k-1} and C = {0} U {k..2k-2} are the two leading blocks of a
    sorted weight vector. Closed form, two regimes: for 1 <= i <= 2k-2 the
    pinned index already meets one block, for i >= 2k-1 inclusion-exclusion
    over missing either block.
    """
    if n < 2 * k:
        raise ValueError(f"need n >= 2k, got n={n}, k={k}")
    if not 1 <= i <= n - 1:
        raise ValueError(f"need 1 <= i <= n-1, got i={i} (index 0 is excluded by definition)")
    if i <= 2 * k - 2:
        return binomial(n - 2, k - 1) - binomial(n - k - 1, k - 1)
    return (
        binomial(n - 2, k - 1)
        - 2 * binomial(n - k - 1, k - 1)
        + binomial(n - 2 * k, k - 1)
    )
