"""Independent output checker: brute-force recounts over itertools.combinations.

Nothing here imports mmsverify. For every op the oracle rebuilds the exact
values the report must contain from the weight file and the definitions in
the README: counts, restricted counts and sums, overlap profiles, partition
family sizes, lemma claims and search winners. It compares only these
mathematical fields, so added report blocks (such as a future `engine`
block) do not count as failures. Expectations are built once per run,
outside the timed passes.
"""

from __future__ import annotations

import hashlib
import json
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from pathlib import Path
from typing import Callable

EXIT_BY_VERDICT = {"verified": 0, "violated": 1}
_REL = {"==": operator.eq, ">=": operator.ge, ">": operator.gt}
_MISSING = "<missing>"


def exact(value):
    """The report's rendering: ints as decimal strings, rationals as 'p/q'."""
    if value is None or isinstance(value, bool):
        return value
    if isinstance(value, (int, Fraction)):
        return str(value)
    if isinstance(value, (list, tuple)):
        return [exact(v) for v in value]
    return value


def nonneg(values, k: int, floor: int = 0) -> int:
    """Number of k-element sub-multisets (by position) with sum >= floor."""
    return sum(1 for s in map(sum, combinations(values, k)) if s >= floor)


def without(values, indices) -> list:
    skip = set(indices)
    return [v for i, v in enumerate(values) if i not in skip]


def subsets_with_sums(y, k: int):
    return zip(combinations(range(len(y)), k), map(sum, combinations(y, k)))


def family_digest(family) -> dict:
    """Size and sha256 of the colex-sorted family, serialized compactly."""
    text = json.dumps([list(s) for s in family], separators=(",", ":"))
    return {"size": len(family), "sha256": hashlib.sha256(text.encode()).hexdigest()}


class Vector:
    """A weight document sorted non-increasing and scaled to integers."""

    def __init__(self, raw):
        self.x = sorted((Fraction(t) for t in raw), reverse=True)
        self.n = len(self.x)
        self.scale = lcm(*(v.denominator for v in self.x))
        self.y = [int(v * self.scale) for v in self.x]


@dataclass
class Expect:
    exit: int | None  # expected exit code of a CLI process; None for library calls
    fields: dict  # dotted path -> exact expected value
    extra: Callable[[dict], list[str]] | None = None


def _claim(lhs, rel: str, rhs) -> tuple:
    return exact(lhs), rel, exact(rhs), _REL[rel](lhs, rhs)


_VACUOUS = (None, "==", None, True)
_HOLDS = ("0", "==", "0", True)  # a mismatch count that must be zero


def _lemma_fields(pre: list[bool], claims: list[tuple], extra: dict) -> tuple[dict, str]:
    fields = {f"report.preconditions.{i}.satisfied": ok for i, ok in enumerate(pre)}
    if not all(pre):
        verdict = "preconditions-not-met"
        claims = []
    else:
        verdict = "verified" if all(c[3] for c in claims) else "violated"
    for i, (lhs, rel, rhs, ok) in enumerate(claims):
        fields[f"report.claims.{i}.lhs"] = lhs
        fields[f"report.claims.{i}.relation"] = rel
        fields[f"report.claims.{i}.rhs"] = rhs
        fields[f"report.claims.{i}.satisfied"] = ok
    for key, value in extra.items():
        fields[f"report.extra.{key}"] = exact(value)
    fields["report.verdict"] = verdict
    return fields, verdict


def dig(doc, path: str):
    cur = doc
    for part in path.split("."):
        if isinstance(cur, dict) and part in cur:
            cur = cur[part]
        elif isinstance(cur, list) and part.isdigit() and int(part) < len(cur):
            cur = cur[int(part)]
        else:
            return _MISSING
    return cur


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."


def check(expect: Expect, doc: dict | None, exit_code: int | None) -> list[str]:
    """Mismatches between one output and its expectation; empty when correct."""
    errors = []
    if expect.exit is not None and exit_code != expect.exit:
        errors.append(f"exit code {exit_code}, expected {expect.exit}")
    if doc is None:
        return errors + ["no parseable output"]
    for path, want in expect.fields.items():
        got = dig(doc, path)
        if got != want:
            errors.append(f"{path}: got {_short(got)}, expected {_short(want)}")
    if expect.extra is not None and not errors:
        errors += expect.extra(doc)
    return errors


class Oracle:
    def __init__(self) -> None:
        self._vectors: dict[str, Vector] = {}
        self._recounts: dict[tuple, int] = {}

    def vector(self, path: str) -> Vector:
        if path not in self._vectors:
            self._vectors[path] = Vector(json.loads(Path(path).read_text())["weights"])
        return self._vectors[path]

    def expect(self, op) -> Expect:
        fields, verdict, extra = getattr(self, "_" + op.check["kind"])(op.check)
        if op.argv is None:
            return Expect(None, fields, extra)
        if verdict is not None:
            fields["verdict"] = verdict
        return Expect(EXIT_BY_VERDICT.get(verdict, 2), fields, extra)

    # -- counting -------------------------------------------------------
    def _count(self, c):
        v, k = self.vector(c["weights"]), c["k"]
        if "disjoint" in c:
            rest = without(v.y, c["disjoint"])
            fields = {
                "report.total_checked": exact(comb(len(rest), k)),
                "report.nonnegative_count": exact(nonneg(rest, k)),
                "report.bound_comparisons": [],
                "report.star_equality": None,
            }
            return fields, "verified", None
        count, bound = nonneg(v.y, k), comb(v.n - 1, k - 1)
        star = None
        if count == bound:
            star = nonneg(v.y[1:], k - 1, -v.y[0]) == bound
        fields = {
            "report.total_checked": exact(comb(v.n, k)),
            "report.nonnegative_count": exact(count),
            "report.bound_comparisons.0.value": exact(bound),
            "report.bound_comparisons.0.satisfied": count >= bound,
            "report.star_equality": star,
        }
        return fields, "verified" if count >= bound else "violated", None

    def _restricted_sum(self, c):
        v, k = self.vector(c["weights"]), c["k"]
        atoms = [(kind, set(idx)) for kind, idx in c["atoms"]]
        want = {"contains": lambda h: h == 1, "intersects": lambda h: h >= 1, "disjoint": lambda h: h == 0}
        acc = 0
        for subset, s in subsets_with_sums(v.y, k):
            if all(want[kind](len(block.intersection(subset))) for kind, block in atoms):
                acc += s
        return {"report": exact(Fraction(acc, v.scale))}, None, None

    def _overlap_sums(self, c):
        v, k = self.vector(c["weights"]), c["k"]
        return {"report": exact(self.overlap(v, k, c["block"]))}, None, None

    @staticmethod
    def overlap(v: Vector, k: int, block) -> list[Fraction]:
        block = set(block)
        acc = [0] * (min(k, len(block)) + 1)
        for subset, s in subsets_with_sums(v.y, k):
            acc[len(block.intersection(subset))] += s
        return [Fraction(a, v.scale) for a in acc]

    def _family(self, c):
        v, k = self.vector(c["weights"]), c["k"]
        family = sorted((s for s, total in subsets_with_sums(v.y, k) if total >= 0), key=lambda t: t[::-1])
        digest = family_digest(family)
        return {"report.size": digest["size"], "report.sha256": digest["sha256"]}, None, None

    def _dp(self, c):
        expanded = [Fraction(val) for val, m in zip(c["values"], c["mults"]) for _ in range(m)]
        return {"report": exact(nonneg(Vector(expanded).y, c["k"]))}, None, None

    # -- lemma verifiers ------------------------------------------------
    def _lemma(self, c):
        v, k = self.vector(c["weights"]), c["k"]
        n, x, y = v.n, v.x, v.y
        nonzero = any(x)
        bound = comb(n - 1, k - 1)
        lemma = c["lemma"]
        if lemma in ("2", "3"):
            b_A = sum(x[:k], Fraction(0))
            sums = self.overlap(v, k, range(k))
        if lemma == "2":
            coef = comb(n - k - 1, k - 1)
            meets = nonneg(y, k) - nonneg(y[k:], k)
            pre = [n >= 2 * k, k >= 2, nonzero]
            claims = [
                _claim(sums[0], "==", -coef * b_A),
                _claim(sum(sums[1:], Fraction(0)), "==", coef * b_A),
                _claim(meets, ">", coef),
            ]
            extra = {"b_A": b_A, "coefficient": coef}
        elif lemma == "3":
            b_C = x[0] + sum(x[k : 2 * k - 1], Fraction(0))
            gamma = comb(n - k - 1, k - 1) - (k - 1) * comb(n - k - 1, k - 2)
            count = nonneg(y, k)
            cond = _VACUOUS
            if n >= k * k and count <= bound:
                cond = _claim(b_C, ">=", (1 - Fraction((2 * k - 1) * (k - 1), n - 2 * k + 1)) * b_A)
            pre = [n >= 2 * k, nonzero]
            claims = [_claim(sums[1], "==", gamma * b_A), cond]
            extra = {"b_A": b_A, "b_C": b_C, "count": count, "bound": bound, "coefficient": gamma}
        elif lemma == "lotson1":
            count = nonneg(y, k)
            pre = [n >= k * k, nonzero]
            extra = {"count": count, "bound": bound}
            cond = _VACUOUS
            if count <= bound:
                through = nonneg(y[1:], k - 1, -y[0])
                cond = _claim(Fraction(through), ">=", (1 - Fraction((6 * k - 3) * (k - 1), n - 2 * k + 1)) * bound)
                extra["through_top"] = through
            claims = [cond]
        elif lemma == "4":
            b_T = sum(x[n - k :], Fraction(0))
            floor = comb(n - 2 * k, k - 1)
            disjoint_count = nonneg(y[: n - k], k)
            scalar = (1 - Fraction((2 * k - 1) * (k - 1), n - 2 * k + 1)) * bound
            pre = [b_T < 0, n >= 3 * k - 1]
            claims = [_claim(disjoint_count, ">=", floor), _claim(Fraction(floor), ">=", scalar)]
            extra = {"T": list(range(n - k, n)), "b_T": b_T, "disjoint_count": disjoint_count}
        elif lemma == "theorem":
            count = nonneg(y, k)
            star = _VACUOUS
            if count == bound:
                star = _claim(nonneg(y[1:], k - 1, -y[0]) == bound, "==", True)
            pre = [n >= 8 * k * k]
            claims = [_claim(count, ">=", bound), star]
            extra = {"count": count, "bound": bound}
        else:
            raise ValueError(f"no oracle for lemma {lemma!r}")
        fields, verdict = _lemma_fields(pre, claims, extra)
        return fields, verdict, None

    # -- operator identities --------------------------------------------
    def _eigenvector(self, c):
        v, k = self.vector(c["weights"]), c["k"]
        nonzero = sum(1 for s in map(sum, combinations(v.y, k)) if s != 0)
        claims = [_claim(nonzero, ">", 0)] + [_HOLDS] * (k + 1)
        fields, verdict = _lemma_fields([True, True], claims, {})
        return fields, verdict, None

    def _wilson(self, c):
        fields, verdict = _lemma_fields([True, True, True], [_HOLDS] * 3, {})
        return fields, verdict, None

    def _spectrum(self, c):
        n, j, k = c["n"], c["j"], c["k"]

        def colex(m):
            return sorted(combinations(range(n), m), key=lambda t: t[::-1])

        def mask(t):
            return sum(1 << i for i in t)

        rows_idx, cols_idx = colex(j), colex(k)
        col_masks = [mask(t) for t in cols_idx]
        if c["matrix"] == "inclusion":
            rows = [[int(ym & sm == ym) for sm in col_masks] for ym in map(mask, rows_idx)]
        else:
            rows = [[int(ym & sm == 0) for sm in col_masks] for ym in map(mask, rows_idx)]
        fields = {
            "report.kind": c["matrix"],
            "report.shape": [len(rows_idx), len(cols_idx)],
            "report.row_index": [list(t) for t in rows_idx],
            "report.col_index": [list(t) for t in cols_idx],
            "report.rows": rows,
        }
        return fields, "verified", None

    def _partition(self, c):
        v, k = self.vector(c["weights"]), c["k"]
        n = v.n
        T = list(range(n - k, n))
        m, r = divmod(n, k)
        tail = [i for i in range(n - 1, -1, -1) if i not in T][:r]
        U = sorted(T + tail)
        family = nonneg(without(v.y, U), k)
        blocks = m - 1
        extra = {
            "m": m,
            "r": r,
            "U": U,
            "family_size": family,
            "exact_expectation": Fraction(blocks * family, comb(blocks * k, k)),
            "trials": c["trials"],
            "seed": c["seed"],
        }
        fields = {f"report.extra.{key}": exact(value) for key, value in extra.items()}
        fields.update({
            "report.preconditions.0.satisfied": True,
            "report.preconditions.1.satisfied": True,
            "report.claims.0.relation": ">=",
            "report.claims.0.rhs": "1",
            "report.claims.0.satisfied": True,
            "report.verdict": "verified",
        })

        def min_z(doc):
            # Z >= 1 in every trial: the leftover blocks sum to -b_U > 0.
            z = dig(doc, "report.extra.min_Z")
            if dig(doc, "report.claims.0.lhs") != z or not str(z).isdigit() or int(z) < 1:
                return [f"min_Z {z!r} is not a positive count matching the pigeonhole claim"]
            return []

        return fields, "verified", min_z

    # -- search ---------------------------------------------------------
    def _search(self, c):
        n, k = c["n"], c["k"]
        verdict = "violated" if c["violation"] else "verified"
        fields = {
            "report.n": n,
            "report.k": k,
            "report.best_count": exact(c["best_count"]),
            "report.bound": exact(comb(n - 1, k - 1)),
            "report.violation": c["violation"],
            "report.candidates_examined": c["candidates_examined"],
            "report.verdict": verdict,
        }

        def winner(doc):
            values = [Fraction(s) for s in dig(doc, "report.best_pattern.values")]
            mults = dig(doc, "report.best_pattern.multiplicities")
            if sum(mults) != n or sum(a * m for a, m in zip(values, mults)) != 0:
                return ["best pattern is not a zero-sum pattern on n entries"]
            if any(a <= b for a, b in zip(values, values[1:])):
                return ["best pattern values are not strictly decreasing"]
            key = (tuple(values), tuple(mults))
            if key not in self._recounts:
                expanded = [a for a, m in zip(values, mults) for _ in range(m)]
                self._recounts[key] = nonneg(Vector(expanded).y, k)
            if self._recounts[key] != c["best_count"]:
                return [f"best pattern recounts to {self._recounts[key]}, report says {c['best_count']}"]
            return []

        return fields, verdict, winner
