"""Exact combinatorics kernel: binomials, colex ranks and the revolving-door stream.

Everything here is arbitrary-precision integer arithmetic. The revolving-door
delta stream is deterministic, and the colex unranking can cross-check it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from math import comb
from typing import Iterator, Sequence

__all__ = [
    "ENUM_BUDGET",
    "KSubset",
    "binomial",
    "door_deltas",
    "rank_colex",
    "unrank_colex",
]

# Largest C(n, k) the enumeration paths will walk; larger instances should
# go through the multiplicity-pattern counter instead.
ENUM_BUDGET = 10_000_000


def binomial(a: int, b: int) -> int:
    """C(a, b), extended to 0 whenever a < 0, b < 0, or b > a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


@dataclass(frozen=True)
class KSubset:
    """A k-element subset of {0, ..., n-1}, indices strictly increasing."""

    indices: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("ambient size n must be >= 1")
        k = len(self.indices)
        if not 1 <= k <= self.n:
            raise ValueError(f"need 1 <= k <= n, got k={k}, n={self.n}")
        prev = -1
        for i in self.indices:
            if not isinstance(i, int) or isinstance(i, bool) or i <= prev:
                raise ValueError("indices must be strictly increasing integers")
            prev = i
        if prev >= self.n:
            raise ValueError(f"index {prev} out of range for n={self.n}")

    @property
    def k(self) -> int:
        return len(self.indices)

    def bitmask(self) -> int:
        m = 0
        for i in self.indices:
            m |= 1 << i
        return m

    @classmethod
    def of(cls, indices: Sequence[int], n: int) -> "KSubset":
        return cls(tuple(sorted(indices)), n)


def rank_colex(subset: KSubset | Sequence[int]) -> int:
    """Colex rank of a k-subset: sum over positions i of C(s_i, i+1).

    The rank does not depend on the ambient n, so streams over different
    ground sets agree on shared prefixes.
    """
    indices = subset.indices if isinstance(subset, KSubset) else tuple(subset)
    prev = -1
    r = 0
    for pos, s in enumerate(indices):
        if s <= prev:
            raise ValueError("indices must be strictly increasing")
        prev = s
        r += binomial(s, pos + 1)
    return r


def unrank_colex(r: int, k: int, n: int) -> KSubset:
    """Inverse of rank_colex over k-subsets of {0..n-1}."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    total = binomial(n, k)
    if not 0 <= r < total:
        raise ValueError(f"rank {r} outside [0, {total}) for (n={n}, k={k})")
    out = [0] * k
    rem = r
    c = n
    for pos in range(k, 0, -1):
        c -= 1
        while binomial(c, pos) > rem:
            c -= 1
        rem -= binomial(c, pos)
        out[pos - 1] = c
    return KSubset(tuple(out), n)


def door_deltas(n: int, k: int) -> Iterator[tuple[int, int]]:
    """(removed, added) transitions of the revolving-door k-subset list R(n, k).

    R(n, k) = R(n-1, k) ++ [S + {n-1} for S in reversed(R(n-1, k-1))], with
    singleton lists at k == 0 and k == n. The list starts at {0..k-1};
    applying the deltas in order visits every k-subset of {0..n-1} once.

    The whole table is built eagerly, level j = 1..k at a time, into two
    arrays. Unrolled, the transitions of R(N, j) are, for m = j+1..N, a seam
    (m-2, m-1) if j == 1, else (j-2, m-1), into the subsets with top element
    m-1, followed by the transitions of reversed(R(m-1, j-1)). R(m-1, j-1)
    is a prefix of the previous level, so that block is a reversed slice
    with removed and added swapped.

    The levels hold about C(n+1, k) entries in all, which is at most twice
    C(n, k) unless k > (n+1)/2. They are capped at 10 * ENUM_BUDGET
    entries: copying one costs a small fraction of walking one subset, so
    a build at the cap costs about as much as a walk at full budget.
    ValueError is raised before anything is allocated when k is outside
    0..n, C(n, k) is over ENUM_BUDGET or the levels are over their cap.
    """
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    size, built = binomial(n, k), binomial(n + 1, k)
    if size > ENUM_BUDGET or built > 10 * ENUM_BUDGET:
        raise ValueError(
            f"C({n},{k}) = {size} subsets ({built} table entries) exceed the enumeration "
            f"budget of {ENUM_BUDGET} subsets and {10 * ENUM_BUDGET} entries; "
            "use the multiplicity-pattern counter (count_nonnegative_dp)"
        )
    if k == 0 or k == n:
        return iter(())
    r = n - k
    rems = array("i", range(r))  # level 1: {0}, {1}, ..., {r}
    adds = array("i", range(1, r + 1))
    for j in range(2, k + 1):
        next_rems, next_adds = array("i"), array("i")
        for m in range(j + 1, r + j + 1):
            last = binomial(m - 1, j - 1) - 2  # final transition of R(m-1, j-1)
            next_rems.append(j - 2)
            next_adds.append(m - 1)
            next_rems += adds[last::-1]
            next_adds += rems[last::-1]
        rems, adds = next_rems, next_adds
    return zip(rems, adds)
