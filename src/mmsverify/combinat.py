"""Exact combinatorics kernel: binomials, the budget, colex order and value records.

Everything here is arbitrary-precision integer arithmetic. colex() is the
one subset-list builder: every list of subset sums or bitmasks in the
package, the two-list counter's included, comes from it in colex order.
Index tuples come from subsets_colex, which reads itertools.combinations
backwards instead of concatenating tuples level by level.
"""

from __future__ import annotations

from itertools import combinations
from math import comb
from typing import Any, Sequence

__all__ = [
    "ENUM_BUDGET",
    "KSubset",
    "binomial",
    "colex",
]

# Most steps one call may take, a step being about 100-220 ns of Python (2-core
# x86_64, 3.11); each kernel is charged its loop's steps before it starts.
ENUM_BUDGET = 10_000_000


def charge(work: int, what: str, hint: str = "") -> None:
    """Refuse, with one message shape, a call whose work is over ENUM_BUDGET."""
    if work > ENUM_BUDGET:
        tail = f"; {hint}" if hint else ""
        raise ValueError(f"{what} = {work}, over the enumeration budget of {ENUM_BUDGET}{tail}")


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

    @classmethod
    def of(cls, indices: Sequence[int], n: int) -> "KSubset":
        return cls(tuple(sorted(indices)), n)


def colex(items: Sequence[Any], k: int, empty: Any = 0) -> list[Any]:
    """empty + items[i1] + ... + items[ik] over all k-subsets i1 < ... < ik, in colex order.

    Integer items give subset sums, 1 << i bitmasks, and (i,) with empty=()
    index tuples. The colex list of the j-subsets of {0..t-1} is a prefix of
    the list for any longer prefix, so level j is, over each top element t,
    the first C(t, j-1) entries of level j-1 plus items[t]. Level j holds
    C(n-k+j, j) entries, so the levels hold C(n+1, k) in all, the charge.
    """
    n = len(items)
    if not 0 <= k <= n:
        raise ValueError(f"need 0 <= k <= n, got k={k}, n={n}")
    charge(binomial(n + 1, k), f"colex levels of the C({n},{k}) subsets")
    level = [empty]
    for j in range(1, k + 1):
        nxt: list[Any] = []
        for t in range(j - 1, n - k + j):
            x = items[t]
            nxt += [s + x for s in level[: binomial(t, j - 1)]]
        level = nxt
    return level


def subsets_colex(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-subsets of {0..n-1} as index tuples in colex order (m = 0 gives the empty set).

    Lex order over the ground read backwards is colex order reversed, so
    each tuple of combinations(range(n-1, -1, -1), m) is read backwards
    and the list reversed: one tuple made per subset, where colex's levels
    would concatenate about m^3/3 elements at m near n. It is charged as
    colex([(i,) for i in range(n)], m, ()) is.
    """
    if not 0 <= m <= n:
        raise ValueError(f"need 0 <= k <= n, got k={m}, n={n}")
    charge(binomial(n + 1, m), f"colex levels of the C({n},{m}) subsets")
    out = [S[::-1] for S in combinations(range(n - 1, -1, -1), m)]
    out.reverse()
    return out
