"""Counting nonnegative k-subset sums: enumeration and pattern routes.

Two independent engines compute the same quantity. count_nonnegative walks
the revolving-door subset stream with O(1) running-sum updates.
count_nonnegative_dp sums products of binomials over compositions of k
against a multiplicity pattern.
Tests and the search engine hold them against each other; they are never
allowed to share a code path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Iterator, Sequence

from .combinat import binomial, door_deltas
from .weights import WeightVector

__all__ = [
    "CountReport",
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


def star_family_size(n: int, k: int) -> int:
    """C(n-1, k-1): the number of k-subsets through a fixed element."""
    return binomial(n - 1, k - 1)


@dataclass(frozen=True)
class Atom:
    kind: str  # contains | intersects | disjoint
    indices: frozenset[int]

    def describe(self) -> str:
        inner = ",".join(str(i) for i in sorted(self.indices))
        return f"{self.kind}({inner})"


@dataclass(frozen=True)
class Restriction:
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


@dataclass(frozen=True)
class CountReport:
    """Result of one counting run."""

    n: int
    k: int
    restriction: Restriction
    total_checked: int
    nonnegative_count: int
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


def _walk_atoms(
    y: Sequence[int], n: int, k: int, atoms: Sequence[Atom]
) -> tuple[int, int, int]:
    """(total satisfying the atoms, nonnegative among those, their scaled sum)."""
    deltas = door_deltas(n, k)
    kinds = [a.kind for a in atoms]
    sets = [a.indices for a in atoms]
    s = sum(y[:k])
    hits = [sum(1 for i in range(k) if i in fs) for fs in sets]
    total = nn = acc = 0
    if all(_atom_ok(kd, h) for kd, h in zip(kinds, hits)):
        total, acc = 1, s
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
            acc += s
            if s >= 0:
                nn += 1
    return total, nn, acc


def count_nonnegative(
    X: WeightVector,
    k: int,
    restriction: Restriction | None = None,
) -> CountReport:
    """Count k-subsets S with sum(x_i for i in S) >= 0 under a restriction."""
    n = X.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    restriction = restriction or Restriction()
    restriction.validate(n)
    y, _ = X.scaled_ints()
    atoms = restriction.atoms

    if atoms:
        total, nn, _ = _walk_atoms(y, n, k, atoms)
    else:
        total, nn = binomial(n, k), _count_plain(y, n, k)

    bound_comparisons: tuple[tuple[str, int, bool], ...] = ()
    star_equality: bool | None = None
    witness: str | None = None
    if not atoms:
        bound = star_family_size(n, k)
        bound_comparisons = (("C(n-1,k-1)", bound, nn >= bound),)
        if nn == bound:
            # Equality: is the family exactly the star on the top index?
            _, nn_top, _ = _walk_atoms(y, n, k, Restriction.contains(0).atoms)
            star_equality = nn_top == bound
            if star_equality:
                witness = "all k-subsets containing index 0"
    return CountReport(
        n=n,
        k=k,
        restriction=restriction,
        total_checked=total,
        nonnegative_count=nn,
        bound_comparisons=bound_comparisons,
        star_equality=star_equality,
        witness=witness,
    )


def nonnegative_family(X: WeightVector, k: int) -> list[tuple[int, ...]]:
    """Explicit list of nonnegative k-subsets, sorted by colex rank."""
    deltas = door_deltas(X.n, k)
    y, _ = X.scaled_ints()
    out = []
    cur = list(range(k))
    s = sum(y[:k])
    if s >= 0:
        out.append(tuple(cur))
    for rem, add in deltas:
        s += y[add] - y[rem]
        cur.remove(rem)
        cur.append(add)
        cur.sort()
        if s >= 0:
            out.append(tuple(cur))
    out.sort(key=lambda t: tuple(reversed(t)))
    return out


def restricted_sum(X: WeightVector, k: int, restriction: Restriction) -> Fraction:
    """Exact sum of b_S over subsets satisfying the restriction."""
    restriction.validate(X.n)
    y, scale = X.scaled_ints()
    return Fraction(_walk_atoms(y, X.n, k, restriction.atoms)[2], scale)


def overlap_sums(X: WeightVector, k: int, block: Sequence[int]) -> tuple[Fraction, ...]:
    """Sums of b_S grouped by the overlap |S intersect block| = t."""
    n = X.n
    fs = frozenset(block)
    if any(not 0 <= i < n for i in fs):
        raise ValueError("block indices out of range")
    deltas = door_deltas(n, k)
    y, scale = X.scaled_ints()
    top = min(k, len(fs))
    acc = [0] * (top + 1)
    cur = list(range(k))
    s = sum(y[:k])
    h = sum(1 for i in cur if i in fs)
    acc[h] += s
    for rem, add in deltas:
        s += y[add] - y[rem]
        if rem in fs:
            h -= 1
        if add in fs:
            h += 1
        acc[h] += s
    return tuple(Fraction(a, scale) for a in acc)


@dataclass(frozen=True)
class MultiplicityPattern:
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
