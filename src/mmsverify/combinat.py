"""Exact combinatorics kernel: binomials, colex order and the revolving-door stream.

Everything here is arbitrary-precision integer arithmetic. colex() builds
colex-ordered lists of subset sums, bitmasks and index tuples; the
revolving-door delta stream serves the two counting walks. Both are
deterministic, and the colex unranking can cross-check them.
"""

from __future__ import annotations

from array import array
from math import comb
from typing import Any, Iterator, Sequence

__all__ = [
    "ENUM_BUDGET",
    "KSubset",
    "binomial",
    "colex",
    "door_deltas",
    "enum_budget_error",
    "rank_colex",
    "unrank_colex",
]

# Largest C(n, k) the enumeration paths will walk; larger instances go
# through the generating-function or the multiplicity-pattern counter.
ENUM_BUDGET = 10_000_000


class _Record:
    """Base of the package's frozen value records, in place of dataclass(frozen=True).

    A subclass lists its fields as class annotations, in order, and gives
    defaults as class attributes. __init__ takes the fields positionally or
    by keyword, raises TypeError on a missing, surplus or unknown argument,
    then runs __post_init__. Instances refuse assignment and deletion, and
    compare, hash and print by their tuple of fields. The dataclasses
    import and its per-class code generation cost each process about 25 ms
    of start-up (2-core x86_64, Python 3.11).
    """

    _fields: tuple[str, ...] = ()
    _defaults: dict[str, Any] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        cls = type(self)
        fields = cls._fields
        if len(args) > len(fields):
            raise TypeError(
                f"{cls.__qualname__}() takes {len(fields)} arguments but {len(args)} were given"
            )
        given = dict(zip(fields, args))
        for f in kwargs:
            if f not in fields or f in given:
                raise TypeError(f"{cls.__qualname__}() got an unexpected or repeated argument {f!r}")
        given.update(kwargs)
        missing = [f for f in fields if f not in given and f not in cls._defaults]
        if missing:
            raise TypeError(f"{cls.__qualname__}() missing required arguments: {', '.join(missing)}")
        state = self.__dict__
        for f in fields:
            state[f] = given[f] if f in given else cls._defaults[f]
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks run once every field is set; subclasses override it."""

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot assign {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__qualname__} is frozen: cannot delete {name!r}")

    def _values(self) -> tuple[Any, ...]:
        return tuple(self.__dict__[f] for f in self._fields)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        inner = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({inner})"


def binomial(a: int, b: int) -> int:
    """C(a, b), extended to 0 whenever a < 0, b < 0, or b > a."""
    if a < 0 or b < 0 or b > a:
        return 0
    return comb(a, b)


class KSubset(_Record):
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


def enum_budget_error(n: int, k: int) -> str | None:
    """Why colex or door_deltas would refuse (n, k), or None when it fits."""
    if not 0 <= k <= n:
        return f"need 0 <= k <= n, got k={k}, n={n}"
    size, built = binomial(n, k), binomial(n + 1, k)
    if size <= ENUM_BUDGET and built <= 10 * ENUM_BUDGET:
        return None
    return (
        f"C({n},{k}) = {size} subsets ({built} table entries) exceed the enumeration "
        f"budget of {ENUM_BUDGET} subsets and {10 * ENUM_BUDGET} entries"
    )


def colex(items: Sequence[Any], k: int, empty: Any = 0) -> list[Any]:
    """empty + items[i1] + ... + items[ik] over all k-subsets i1 < ... < ik, in colex order.

    Integer items give subset sums, 1 << i bitmasks, and (i,) with empty=()
    index tuples. The colex list of the j-subsets of {0..t-1} is a prefix of
    the list for any longer prefix, so level j is, over each top element t,
    the first C(t, j-1) entries of level j-1 plus items[t]. The levels hold
    C(n+1, k) entries in all, and enum_budget_error refuses before any.
    """
    n = len(items)
    reason = enum_budget_error(n, k)
    if reason is not None:
        raise ValueError(reason)
    level = [empty]
    for j in range(1, k + 1):
        nxt: list[Any] = []
        for t in range(j - 1, n - k + j):
            x = items[t]
            nxt += [s + x for s in level[: binomial(t, j - 1)]]
        level = nxt
    return level


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
    reason = enum_budget_error(n, k)
    if reason is not None:
        if 0 <= k <= n:
            reason += (
                "; count_nonnegative uses the generating-function counter where it "
                "fits, and count_nonnegative_dp counts from a multiplicity pattern"
            )
        raise ValueError(reason)
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
