"""Counting nonnegative k-subset sums: three independent exact engines.

count_nonnegative picks one of two engines from its input alone. The
generating-function counter packs, per state (subset size, capped atom
hits), the polynomial sum of x^(subset sum) into one Python int and adds
one element at a time. The enumeration walks the revolving-door subset
stream with O(1) running-sum updates. count_nonnegative_dp sums products
of binomials over compositions of k against a multiplicity pattern.
Tests and the search engine hold the three against each other; they are
never allowed to share a code path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import lcm, prod
from typing import Iterator, Sequence

from .combinat import ENUM_BUDGET, _Record, binomial, colex, door_deltas, enum_budget_error
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
ENGINE_WALK = "enumeration"

# Most bits of packed polynomials the generating-function counter may hold.
GF_BIT_BUDGET = 1 << 30
# Engine costs in steps of the plain subset walk (about 120 ns each on a
# 2-core x86_64 under Python 3.11): shifting and adding _STEP_BITS bits of
# packed polynomial is one step, updating one state for one element costs
# _STATE_STEPS more, and a walk step that tracks atoms costs _ATOM_STEPS.
_STEP_BITS = 4096
_STATE_STEPS = 4
_ATOM_STEPS = 12


def star_family_size(n: int, k: int) -> int:
    """C(n-1, k-1): the number of k-subsets through a fixed element."""
    return binomial(n - 1, k - 1)


class Atom(_Record):
    kind: str  # contains | intersects | disjoint
    indices: frozenset[int]

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
        if not indices:
            raise ValueError("intersects needs at least one index")
        return Restriction((Atom("intersects", frozenset(indices)),))

    @staticmethod
    def disjoint(*indices: int) -> "Restriction":
        if not indices:
            raise ValueError("disjoint needs at least one index")
        return Restriction((Atom("disjoint", frozenset(indices)),))

    def __and__(self, other: "Restriction") -> "Restriction":
        return Restriction(self.atoms + other.atoms)

    def validate(self, n: int) -> None:
        for atom in self.atoms:
            if not atom.indices:
                raise ValueError(f"empty index set in {atom.kind}")
            bad = [i for i in atom.indices if not 0 <= i < n]
            if bad:
                raise ValueError(f"{atom.describe()}: indices {sorted(bad)} out of range for n={n}")

    def describe(self) -> str:
        if not self.atoms:
            return "none"
        return " & ".join(a.describe() for a in self.atoms)


def _atom_ok(kind: str, hits: int) -> bool:
    if kind == "contains":
        return hits == 1
    if kind == "intersects":
        return hits >= 1
    return hits == 0  # disjoint


class CountReport(_Record):
    """Result of one counting run."""

    n: int
    k: int
    restriction: Restriction
    total_checked: int
    nonnegative_count: int
    engine: str  # ENGINE_GF or ENGINE_WALK: the engine behind nonnegative_count
    bound_comparisons: tuple[tuple[str, int, bool], ...] = ()
    star_equality: bool | None = None
    witness: str | None = None

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


def _count_plain(y: Sequence[int], n: int, k: int) -> int:
    """Nonnegative k-subset sums of integer weights, revolving-door route."""
    deltas = door_deltas(n, k)
    s = sum(y[:k])
    count = 1 if s >= 0 else 0
    for rem, add in deltas:
        s += y[add] - y[rem]
        if s >= 0:
            count += 1
    return count


def _walk_atoms(y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]) -> tuple[int, int]:
    """(total satisfying the atoms, nonnegative among those), revolving-door route."""
    deltas = door_deltas(n, k)
    kinds = [a.kind for a in atoms]
    sets = [a.indices for a in atoms]
    s = sum(y[:k])
    hits = [sum(1 for i in range(k) if i in fs) for fs in sets]
    total = nn = 0
    if all(_atom_ok(kd, h) for kd, h in zip(kinds, hits)):
        total = 1
        nn = 1 if s >= 0 else 0
    for rem, add in deltas:
        s += y[add] - y[rem]
        for idx, fs in enumerate(sets):
            if rem in fs:
                hits[idx] -= 1
            if add in fs:
                hits[idx] += 1
        if all(_atom_ok(kd, h) for kd, h in zip(kinds, hits)):
            total += 1
            if s >= 0:
                nn += 1
    return total, nn


def _walk_count(y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]) -> tuple[int, int]:
    """(total, nonnegative) by enumeration."""
    if atoms:
        return _walk_atoms(y, n, k, atoms)
    return binomial(n, k), _count_plain(y, n, k)


# Caps on the hit counters of the state passes. A capped counter reads 1
# exactly when its atom holds: contains needs one hit (2 stands for two or
# more), intersects at least one.
_HIT_CAP = {"contains": 2, "intersects": 1}


def _split_atoms(n: int, atoms: Sequence[Atom]) -> tuple[list[int], list[Atom]]:
    """(indices no disjoint atom excludes, the contains and intersects atoms)."""
    dropped: set[int] = set()
    for a in atoms:
        if a.kind == "disjoint":
            dropped |= a.indices
    return [i for i in range(n) if i not in dropped], [a for a in atoms if a.kind != "disjoint"]


def _hit_machine(
    n: int, blocks: Sequence[tuple[frozenset[int], int]]
) -> tuple[list[list[int]], list[list[int]]]:
    """Hit codes over blocks (index set, cap): a next-code table per index of range(n).

    A code packs one counter per block, each capped at the block's cap, in
    mixed radix. Adding index i moves code c to tables[i][c]. Membership is
    read once per block, and indices that lie in the same blocks share one
    table, so a single block needs two: in the block and out of it. Returns
    (tables, hits), where hits[c] lists the counters code c stands for.
    """
    hits: list[list[int]] = [[]]
    for _, cap in blocks:  # the first block is the lowest digit
        hits = [h + [d] for d in range(cap + 1) for h in hits]
    member: dict[int, int] = {}
    for b, (fs, _) in enumerate(blocks):
        for i in fs:
            member[i] = member.get(i, 0) | 1 << b
    stay = list(range(len(hits)))
    tables = [stay] * n
    by_key: dict[int, list[int]] = {}
    for i, key in member.items():
        table = by_key.get(key)
        if table is None:
            table, place = stay, 1
            for b, (_, cap) in enumerate(blocks):
                if key >> b & 1:
                    table = [t + place if h[b] < cap else t for t, h in zip(table, hits)]
                place *= cap + 1
            by_key[key] = table
        tables[i] = table
    return tables, hits


def _slot_width(m: int, k: int) -> int:
    """One bit more than the largest C(m, j) over j <= k, which exceeds C(m, k) when k > m/2."""
    return binomial(m, min(k, m // 2)).bit_length() + 1


def _gf_size(y: Sequence[int], live: Sequence[int], k: int, codes: int) -> tuple[int, int]:
    """(bits held, cost in walk steps) of the generating-function counter."""
    m = len(live)
    if m < k:
        return 0, 0
    span = max(y[i] for i in live) - min(y[i] for i in live)
    states = (k + 1) * codes
    poly_bits = (k * span + 1) * _slot_width(m, k)
    return states * poly_bits, m * states * (_STATE_STEPS + poly_bits // _STEP_BITS)


def _gf_count(y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]) -> tuple[int, int]:
    """(total satisfying the atoms, nonnegative among those), generating-function route.

    P[j][c] holds sum over j-subsets S of the elements added so far, with
    hit code c, of x^(sum of y_i - y_min over S), in slots of w bits. No
    slot overflows, because every slot sum of P[j][c] is at most C(m, j)
    < 2^(w-1). Adding element i runs P[j+1][c'] += P[j][c] << (y_i - y_min)*w
    over j in descending order. A polynomial mod 2^w - 1 is the sum of its
    slots, so shifting out the slots below -k*y_min first leaves the
    nonnegative count.
    """
    live, kept = _split_atoms(n, atoms)
    m = len(live)
    if m < k:
        return 0, 0
    tables, hits = _hit_machine(n, [(a.indices, _HIT_CAP[a.kind]) for a in kept])
    lo = min(y[i] for i in live)
    w = _slot_width(m, k)
    P = [[0] * len(hits) for _ in range(k + 1)]
    P[0][0] = 1
    for seen, i in enumerate(live):
        shift, nxt = (y[i] - lo) * w, tables[i]
        for j in range(seen if seen < k else k - 1, -1, -1):
            dst = P[j + 1]
            for c, poly in enumerate(P[j]):
                if poly:
                    dst[nxt[c]] += poly << shift
    ones = (1 << w) - 1
    cut = max(0, -k * lo) * w
    total = nn = 0
    for poly, h in zip(P[k], hits):
        if poly and all(d == 1 for d in h):
            total += poly % ones
            nn += (poly >> cut) % ones
    return total, nn


def _count(y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]) -> tuple[str, int, int]:
    """(engine, total, nonnegative) by the cheaper engine that fits its budget.

    The generating function runs when it holds at most GF_BIT_BUDGET bits
    and its estimated cost is no more than that of walking min(C(n, k),
    ENUM_BUDGET) subsets. Otherwise the walk runs under its own budget,
    and when that is exceeded too, ValueError names both budgets.
    """
    live, kept = _split_atoms(n, atoms)
    held, steps = _gf_size(y, live, k, prod(_HIT_CAP[a.kind] + 1 for a in kept))
    walk_steps = min(binomial(n, k), ENUM_BUDGET) * (_ATOM_STEPS if atoms else 1)
    if held <= GF_BIT_BUDGET and steps <= walk_steps:
        return (ENGINE_GF, *_gf_count(y, n, k, atoms))
    reason = enum_budget_error(n, k)
    if reason is None:
        return (ENGINE_WALK, *_walk_count(y, n, k, atoms))
    raise ValueError(
        f"{reason}; the generating-function counter would hold about {held} bits "
        f"against its budget of {GF_BIT_BUDGET} and cost about {steps} steps against "
        f"the budget of {ENUM_BUDGET}; count_nonnegative_dp counts from a multiplicity pattern"
    )


def _pair_pass(
    y: Sequence[int], k: int, live: Sequence[int], blocks: Sequence[tuple[frozenset[int], int]]
) -> tuple[list[int], list[list[int]]]:
    """Per hit code over blocks: the sum of y-sums over k-subsets of live, and the code's hits.

    The same state pass as the generating function, on (count, sum) pairs:
    adding y_i to each j-subset raises the sum by count * y_i.
    """
    steps = len(live) * (k + 1) * prod(cap + 1 for _, cap in blocks)
    if steps > ENUM_BUDGET:
        raise ValueError(
            f"the (count, sum) pass needs {steps} steps, over the enumeration budget of {ENUM_BUDGET}"
        )
    tables, hits = _hit_machine(len(y), blocks)
    counts = [[0] * len(hits) for _ in range(k + 1)]
    sums = [[0] * len(hits) for _ in range(k + 1)]
    counts[0][0] = 1
    for seen, i in enumerate(live):
        v, nxt = y[i], tables[i]
        for j in range(seen if seen < k else k - 1, -1, -1):
            c_src, s_src, c_dst, s_dst = counts[j], sums[j], counts[j + 1], sums[j + 1]
            for c, cnt in enumerate(c_src):
                if cnt:
                    t = nxt[c]
                    c_dst[t] += cnt
                    s_dst[t] += s_src[c] + cnt * v
    return sums[k], hits


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
            # Equality: is the family exactly the star on the top index?
            _, _, nn_top = _count(y, n, k, Restriction.contains(0).atoms)
            star_equality = nn_top == bound
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
    """Exact sum of b_S over subsets satisfying the restriction."""
    n = X.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    restriction.validate(n)
    y, scale = X.scaled_ints()
    live, kept = _split_atoms(n, restriction.atoms)
    sums, hits = _pair_pass(y, k, live, [(a.indices, _HIT_CAP[a.kind]) for a in kept])
    return Fraction(sum(s for s, h in zip(sums, hits) if all(d == 1 for d in h)), scale)


def _overlap_pass(y: Sequence[int], k: int, block: frozenset[int]) -> list[int]:
    """Entry t: the sum of y-sums over k-subsets S of range(len(y)) with |S & block| = t."""
    # The hit count never exceeds min(k, |block|), so that cap is exact.
    return _pair_pass(y, k, range(len(y)), [(block, min(k, len(block)))])[0]


def overlap_sums(X: WeightVector, k: int, block: Sequence[int]) -> tuple[Fraction, ...]:
    """Sums of b_S grouped by the overlap |S intersect block| = t, by one state pass."""
    n = X.n
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    fs = frozenset(block)
    if any(not 0 <= i < n for i in fs):
        raise ValueError("block indices out of range")
    y, scale = X.scaled_ints()
    return tuple(Fraction(s, scale) for s in _overlap_pass(y, k, fs))


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

    @property
    def d(self) -> int:
        return len(self.pairs)

    @classmethod
    def from_weights(cls, X: WeightVector) -> "MultiplicityPattern":
        pairs: list[tuple[Fraction, int]] = []
        for v in X.values:
            if pairs and pairs[-1][0] == v:
                pairs[-1] = (v, pairs[-1][1] + 1)
            else:
                pairs.append((v, 1))
        return cls(tuple(pairs))

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


def _compositions(mults: Sequence[int], k: int, reverse: bool) -> Iterator[tuple[int, ...]]:
    """Compositions (c_1..c_d), 0 <= c_i <= m_i, sum k, lexicographic order.

    A stack of per-position choice iterators replaces recursion, so the
    number d of distinct values is not limited by the interpreter's stack.
    """
    d = len(mults)
    suffix = [0] * (d + 1)
    for i in range(d - 1, -1, -1):
        suffix[i] = suffix[i + 1] + mults[i]
    out = [0] * d
    left = [k] * d  # left[i]: what positions i.. still have to sum to

    def choices(i: int) -> Iterator[int]:
        lo = max(0, left[i] - suffix[i + 1])
        hi = min(mults[i], left[i])
        return iter(range(hi, lo - 1, -1) if reverse else range(lo, hi + 1))

    if d == 1:
        if 0 <= k <= mults[0]:
            yield (k,)
        return
    stack = [choices(0)]
    while stack:
        i = len(stack) - 1
        for c in stack[i]:
            out[i] = c
            if i == d - 2:  # the last position takes what is left
                out[i + 1] = left[i] - c
                yield tuple(out)
                continue
            left[i + 1] = left[i] - c
            stack.append(choices(i + 1))
            break
        else:
            stack.pop()


def _dp_count_scaled(
    mults: Sequence[int], scaled_values: Sequence[int], k: int,
    binom_rows: Sequence[Sequence[int]], reverse: bool = False,
) -> int:
    """Composition-sum count on integer-scaled values; shared DP core."""
    total = 0
    for comp in _compositions(mults, k, reverse):
        s = 0
        for c, w in zip(comp, scaled_values):
            s += c * w
        if s >= 0:
            prod = 1
            for c, row in zip(comp, binom_rows):
                prod *= row[c]
            total += prod
    return total


def count_nonnegative_dp(pattern: MultiplicityPattern, k: int, reverse: bool = False) -> int:
    """Count nonnegative k-subset sums from the multiplicity pattern alone.

    Sums prod_i C(m_i, c_i) over compositions sum(c_i) = k with
    sum(c_i * v_i) >= 0, enumerated in lexicographic order (reverse=True
    walks the exact mirror order for independent re-verification).
    """
    n = pattern.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    mults = [m for _, m in pattern.pairs]
    scale = lcm(*(v.denominator for v, _ in pattern.pairs))
    scaled = [int(v * scale) for v, _ in pattern.pairs]
    rows = [[binomial(m, c) for c in range(min(m, k) + 1)] for m in mults]
    return _dp_count_scaled(mults, scaled, k, rows, reverse)


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
