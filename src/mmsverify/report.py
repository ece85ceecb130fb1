"""Report records shared by the verifiers.

Every check produces preconditions and claims with exact left/right sides.
Rendering keeps integers and rationals as decimal or 'p/q' strings so JSON
output never loses precision.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Any

from .combinat import _Record, binomial, colex

__all__ = [
    "BitRow",
    "Claim",
    "ColexIndex",
    "LemmaReport",
    "Precondition",
    "VERDICT_PRECONDITIONS",
    "VERDICT_VERIFIED",
    "VERDICT_VIOLATED",
    "claim",
    "exact_str",
    "vacuous",
]

VERDICT_VERIFIED = "verified"
VERDICT_VIOLATED = "violated"
VERDICT_PRECONDITIONS = "preconditions-not-met"

_RELATIONS = {
    "==": operator.eq,
    ">=": operator.ge,
    ">": operator.gt,
    "<=": operator.le,
}


def exact_str(value: Any) -> Any:
    """Render exact values losslessly: ints as decimal, rationals as 'p/q'."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return str(value)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    if isinstance(value, (list, tuple)):
        return [exact_str(v) for v in value]
    if isinstance(value, dict):
        return {k: exact_str(v) for k, v in value.items()}
    return str(value) if not isinstance(value, (str, float)) else value


class BitRow:
    """A 0/1 array of width entries packed in an int, bit c holding entry c.

    Renderers print it as that array, straight from the int's binary digits.
    """

    __slots__ = ("bits", "width")

    def __init__(self, bits: int, width: int) -> None:
        self.bits = bits
        self.width = width

    def __len__(self) -> int:
        return self.width

    def digits(self) -> str:
        """The entries' digits, entry 0 first."""
        return format(self.bits, f"0{self.width}b")[::-1] if self.width else ""


class ColexIndex:
    """The m-subsets of range(n) as index tuples, in colex order, made as they are read.

    The subsets with top index t are the first C(t, m-1) of the colex
    (m-1)-subsets of range(n-1), each joined to (t,). That one list, of
    C(n-1, m-1) tuples, is built (and charged) when the index is made, and
    the C(n, m) tuples of the whole are never held. Renderers print it as
    the array of those tuples.
    """

    __slots__ = ("n", "m", "_lower")

    def __init__(self, n: int, m: int) -> None:
        self.n = n
        self.m = m
        self._lower = colex([(i,) for i in range(n - 1)], m - 1, ()) if m else []

    def __len__(self) -> int:
        return binomial(self.n, self.m)

    def __iter__(self):
        m = self.m
        if not m:
            yield ()
            return
        for t in range(m - 1, self.n):
            top = (t,)
            for s in self._lower[: binomial(t, m - 1)]:
                yield s + top


class Precondition(_Record):
    name: str
    value: Any
    satisfied: bool

    def to_dict(self) -> dict:
        return {"name": self.name, "value": exact_str(self.value), "satisfied": self.satisfied}


class Claim(_Record):
    description: str
    lhs: Any
    relation: str
    rhs: Any
    satisfied: bool
    note: str = ""

    def to_dict(self) -> dict:
        d = {
            "description": self.description,
            "lhs": exact_str(self.lhs),
            "relation": self.relation,
            "rhs": exact_str(self.rhs),
            "satisfied": self.satisfied,
        }
        if self.note:
            d["note"] = self.note
        return d


def claim(description: str, lhs: Any, relation: str, rhs: Any, note: str = "") -> Claim:
    """Evaluate an exact comparison and record it."""
    try:
        op = _RELATIONS[relation]
    except KeyError:
        raise ValueError(f"unknown relation {relation!r}") from None
    return Claim(description, lhs, relation, rhs, bool(op(lhs, rhs)), note)


def vacuous(description: str, note: str) -> Claim:
    """A claim whose hypothesis failed; recorded as satisfied with a note."""
    return Claim(description, None, "==", None, True, note)


class LemmaReport(_Record):
    """Outcome of one verification: parameter echo, claims, verdict.

    extra defaults to a fresh empty dict per report.
    """

    name: str
    preconditions: tuple[Precondition, ...]
    claims: tuple[Claim, ...]
    witness: Any = None
    extra: dict | None = None

    def __post_init__(self) -> None:
        if self.extra is None:
            object.__setattr__(self, "extra", {})

    @property
    def verdict(self) -> str:
        if any(not p.satisfied for p in self.preconditions):
            return VERDICT_PRECONDITIONS
        if all(c.satisfied for c in self.claims):
            return VERDICT_VERIFIED
        return VERDICT_VIOLATED

    def to_dict(self) -> dict:
        d = {
            "type": "lemma",
            "name": self.name,
            "preconditions": [p.to_dict() for p in self.preconditions],
            "claims": [c.to_dict() for c in self.claims],
            "verdict": self.verdict,
        }
        if self.witness is not None:
            d["witness"] = exact_str(self.witness)
        if self.extra:
            d["extra"] = exact_str(self.extra)
        return d
