"""Weight vectors: exact rationals, sorted non-increasing, summing to zero.

A weight vector models n reals x_1 >= ... >= x_n with zero total. All values
are fractions.Fraction, so every downstream sum and comparison is exact.
Subset sums are indexed by colex rank of the subset.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from pathlib import Path
from typing import Iterable, Mapping, Sequence

# ENUM_BUDGET lives in combinat; it stays importable from here.
from .combinat import ENUM_BUDGET, KSubset, binomial, door_deltas, rank_colex

__all__ = [
    "SubsetSumVector",
    "WeightVector",
    "gen_random_zero_sum",
    "gen_star",
    "load_weights",
    "normalize",
    "parse_rational",
    "subset_sums",
]

MODES = ("require-zero-sum", "shift-to-zero")

@dataclass(frozen=True)
class WeightVector:
    """Sorted non-increasing exact rationals with zero sum.

    shift records the per-entry amount subtracted by shift-to-zero
    normalization (zero when the input already summed to zero).
    """

    values: tuple[Fraction, ...]
    shift: Fraction = Fraction(0)
    provenance: Mapping | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if len(self.values) < 1:
            raise ValueError("weight vector must have at least one entry")
        for v in self.values:
            if not isinstance(v, Fraction):
                raise TypeError(f"entries must be Fraction, got {type(v).__name__}")
        for a, b in zip(self.values, self.values[1:]):
            if a < b:
                raise ValueError("entries must be sorted non-increasing")
        total = sum(self.values)
        if total != 0:
            raise ValueError(f"entries must sum to zero exactly, got {total}")

    @property
    def n(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def scaled_ints(self) -> tuple[list[int], int]:
        """(integer values, positive scale L) with values[i] == ints[i] / L.

        Scaling by a positive integer preserves every sign and every exact
        identity up to the common factor, so counting loops can run on ints.
        """
        scale = lcm(*(v.denominator for v in self.values))
        return [int(v * scale) for v in self.values], scale


def parse_rational(token: int | str | Fraction, position: int | None = None) -> Fraction:
    """Parse an exact rational from an int or a 'p/q' / integer / decimal string."""
    where = "" if position is None else f" at entry {position}"
    if isinstance(token, bool):
        raise ValueError(f"malformed rational{where}: {token!r}")
    if isinstance(token, (int, Fraction)):
        return Fraction(token)
    if isinstance(token, str):
        try:
            return Fraction(token.strip())
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"malformed rational{where}: {token!r} ({exc})") from None
    if isinstance(token, float):
        raise ValueError(
            f"malformed rational{where}: float {token!r} is not exact; "
            "write it as an integer or a 'p/q' string"
        )
    raise ValueError(f"malformed rational{where}: {token!r}")


def normalize(
    raw: Iterable[int | str | Fraction],
    mode: str = "require-zero-sum",
    provenance: Mapping | None = None,
) -> WeightVector:
    """Sort non-increasing (stable in input order among ties) and fix the sum.

    require-zero-sum: the input must sum to zero exactly, else ValueError
    with the exact residual. shift-to-zero: the input sum s must be >= 0;
    s/n is subtracted from every entry. Shifting lowers every k-subset sum
    by k*s/n, so nonnegative counts of the shifted vector are a lower bound
    for the raw input's.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    vals = [parse_rational(v, i + 1) for i, v in enumerate(raw)]
    if not vals:
        raise ValueError("empty weight list")
    total = sum(vals)
    shift = Fraction(0)
    if mode == "require-zero-sum":
        if total != 0:
            raise ValueError(f"weights must sum to zero exactly; residual is {total}")
    else:
        if total < 0:
            raise ValueError(f"shift-to-zero requires a nonnegative sum, got {total}")
        shift = Fraction(total, len(vals))
        vals = [v - shift for v in vals]
    vals.sort(key=lambda v: -v)  # stable, so ties keep input order
    return WeightVector(tuple(vals), shift=shift, provenance=provenance)


def load_weights(source: str | Path | Mapping) -> WeightVector:
    """Read a weight document: {"weights": [...], "mode": optional}.

    Accepts a JSON file path or an already-parsed mapping. Entries are
    integers or exact rational strings. The raw input is echoed in the
    provenance metadata.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from None
        origin: str | None = str(path)
    elif isinstance(source, Mapping):
        doc = source
        origin = None
    else:
        raise TypeError("source must be a path or a mapping")
    if not isinstance(doc, Mapping) or "weights" not in doc:
        raise ValueError("weight document must be an object with a 'weights' list")
    raw = doc["weights"]
    if not isinstance(raw, Sequence) or isinstance(raw, (str, bytes)):
        raise ValueError("'weights' must be a list")
    mode = doc.get("mode", "require-zero-sum")
    provenance = {"source": origin, "raw": list(raw), "mode": mode}
    return normalize(raw, mode=mode, provenance=provenance)


def gen_star(n: int) -> WeightVector:
    """The star vector (n-1, -1, ..., -1), the tight case of the count bound."""
    if n < 2:
        raise ValueError("star vector needs n >= 2")
    values = (Fraction(n - 1),) + (Fraction(-1),) * (n - 1)
    return WeightVector(values, provenance={"generator": "star", "n": n})


def gen_random_zero_sum(n: int, magnitude: int, seed: int) -> WeightVector:
    """Seeded random integer vector: n-1 uniform draws, last entry balances.

    Deterministic per (n, magnitude, seed); the balancing entry may exceed
    the magnitude bound.
    """
    if n < 2:
        raise ValueError("random zero-sum vector needs n >= 2")
    if magnitude < 1:
        raise ValueError("magnitude must be >= 1")
    rng = random.Random(seed)
    draws = [rng.randint(-magnitude, magnitude) for _ in range(n - 1)]
    draws.append(-sum(draws))
    draws.sort(reverse=True)
    return WeightVector(
        tuple(Fraction(v) for v in draws),
        provenance={"generator": "random", "n": n, "magnitude": magnitude, "seed": seed},
    )


@dataclass(frozen=True)
class SubsetSumVector:
    """All k-subset sums of a weight vector, indexed by colex rank."""

    n: int
    k: int
    entries: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.entries) != binomial(self.n, self.k):
            raise ValueError("entry count must be C(n, k)")
        if sum(self.entries) != 0:
            # Every element occurs in C(n-1, k-1) subsets, so the grand
            # total is C(n-1, k-1) * sum(x) = 0.
            raise ValueError("subset sums must total zero")

    def entry(self, subset: KSubset | Sequence[int]) -> Fraction:
        return self.entries[rank_colex(subset)]

    def max_entry(self) -> Fraction:
        return max(self.entries)


def subset_sums(X: WeightVector, k: int) -> SubsetSumVector:
    """Materialize every k-subset sum via the revolving-door delta stream."""
    n = X.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    deltas = door_deltas(n, k)
    y, scale = X.scaled_ints()
    out = [0] * binomial(n, k)
    cur = list(range(k))
    s = sum(y[:k])
    out[rank_colex(cur)] = s
    for rem, add in deltas:
        s += y[add] - y[rem]
        cur.remove(rem)
        cur.append(add)
        cur.sort()
        out[rank_colex(cur)] = s
    return SubsetSumVector(n, k, tuple(Fraction(v, scale) for v in out))
