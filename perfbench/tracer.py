"""Span tracer for mmsverify's public functions, and the per-layer summary.

`Tracer.install()` runs inside a child process after `import mmsverify`. For
each traced function it replaces every module-level reference to the same
function object across `mmsverify.*`, so names bound by `from .counting
import count_nonnegative` in other modules are caught too. Spans (name,
parent, start, end, RSS before and after, a few exact work counts) stay in
memory and are written once, when the child ends.

`summarize()` runs in the benchmark process and turns the span dumps of one
pass into the per-layer metrics. A traced name that the package no longer
has is reported as absent rather than failing the run.
"""

from __future__ import annotations

import importlib.util
import inspect
import json
import os
import statistics
import sys
import time
from math import comb

# module -> attributes traced in it; "Class.method" patches the class attribute.
TRACED = {
    "combinat": ("door_deltas",),
    "weights": ("load_weights", "WeightVector.scaled_ints"),
    "counting": (
        "count_nonnegative",
        "restricted_sum",
        "overlap_sums",
        "nonnegative_family",
        "count_nonnegative_dp",
    ),
    "scheme": (
        "verify_eigenvector_all",
        "verify_eigenvector",
        "verify_wilson_identities",
        "build_structure_matrix",
    ),
    "lemmas": (
        "simulate_partition",
        "verify_intersecting_bound",
        "verify_second_block_bound",
        "verify_contains_top_bound",
        "verify_disjoint_bound",
        "verify_mms_bound",
        "verify_scalar_inequalities",
    ),
    "search": ("sweep_patterns", "find_counterexample"),
    "cli": ("run",),
}

WALKERS = ("count_nonnegative", "restricted_sum", "overlap_sums", "nonnegative_family")
LEMMA_VERIFIERS = tuple(a for a in TRACED["lemmas"] if a.startswith("verify_"))
EIGEN = ("verify_eigenvector_all", "verify_eigenvector")

_PAGE = os.sysconf("SC_PAGE_SIZE")


def rss_bytes() -> int:
    """Current resident set size of this process."""
    with open("/proc/self/statm", "rb") as fh:
        return int(fh.read().split()[1]) * _PAGE


def _cache_counts(module) -> tuple[int, int] | None:
    """(hits, misses) summed over the functools caches a module defines."""
    found = None
    for value in vars(module).values():
        info = getattr(value, "cache_info", None)
        if callable(info) and getattr(value, "__module__", None) == module.__name__:
            ci = info()
            hits, misses = found or (0, 0)
            found = (hits + ci.hits, misses + ci.misses)
    return found


def _work(name: str, args: dict, result) -> dict:
    """Exact work counts of one call, from its arguments and its result."""
    if name in WALKERS:
        walks = 1
        if name == "count_nonnegative" and getattr(result, "star_equality", None) is not None:
            walks = 2  # the equality case re-walks the stream through index 0
        return {"subsets": walks * comb(args["X"].n, args["k"])}
    if name in EIGEN:
        return {"pairs": comb(args["X"].n, args["k"]) ** 2}
    if name == "simulate_partition":
        return {"trials": args["trials"]}
    if name == "sweep_patterns":
        return {"candidates": result.candidates_examined}
    return {}


class Tracer:
    """Records nested spans around the traced functions of one process."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._combinat = None

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items()) if n == "mmsverify" or n.startswith("mmsverify.")]
        self._combinat = sys.modules.get("mmsverify.combinat")
        for modname, attrs in TRACED.items():
            module = sys.modules.get(f"mmsverify.{modname}")
            if module is None and importlib.util.find_spec(f"mmsverify.{modname}") is not None:
                continue  # exists but this process never imports it, so nothing to trace
            for attr in attrs:
                name = f"{modname}.{attr.rsplit('.', 1)[-1]}"
                if module is None:
                    self.absent.append(name)
                    continue
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name, None)
                    fn = getattr(cls, meth, None) if cls is not None else None
                    if fn is None:
                        self.absent.append(name)
                        continue
                    setattr(cls, meth, self._wrap(name, fn))
                    continue
                fn = getattr(module, attr, None)
                if fn is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, key, wrapper)

    def _wrap(self, name: str, fn):
        short = name.split(".", 1)[1]
        try:
            signature = inspect.signature(fn)
        except (TypeError, ValueError):
            signature = None
        is_deltas = name == "combinat.door_deltas"
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = {
                "id": len(spans),
                "parent": stack[-1] if stack else None,
                "name": name,
                "rss0": rss_bytes(),
            }
            spans.append(span)
            stack.append(span["id"])
            misses0 = self._misses() if is_deltas else None
            span["t0"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["t1"] = time.perf_counter()
                stack.pop()
                span["rss1"] = rss_bytes()
            try:
                bound = signature.bind(*args, **kwargs).arguments if signature else {}
                if is_deltas:
                    n, k = bound["n"], bound["k"]
                    built = misses0 is None or self._misses() > misses0
                    span["deltas_built"] = max(comb(n, k) - 1, 0) if built else 0
                else:
                    span.update(_work(short, bound, result))
            except (AttributeError, KeyError, TypeError):
                span["probe_failed"] = True
            return result

        traced.__wrapped__ = fn
        return traced

    def _misses(self) -> int | None:
        counts = _cache_counts(self._combinat) if self._combinat else None
        return None if counts is None else counts[1]

    def dump(self, path: str, import_s: float) -> None:
        cache = _cache_counts(self._combinat) if self._combinat else None
        doc = {"import_s": import_s, "spans": self.spans, "absent": self.absent, "cache": cache}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def misnested(spans: list[dict]) -> int:
    """Spans that do not lie inside their parent's interval: a tracer fault, such as an unpopped span."""
    bad = 0
    for s in spans:
        parent = s["parent"]
        if parent is None:
            continue
        outer = spans[parent] if parent < s["id"] else None
        if outer is None or not (outer["t0"] <= s["t0"] and s["t1"] <= outer["t1"]):
            bad += 1
    return bad


def _self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["t1"] - s["t0"]
    return [s["t1"] - s["t0"] - c for s, c in zip(spans, child)]


def summarize(dumps: list[dict], wall_s: float, stdout_bytes: int) -> tuple[dict, set]:
    """Per-layer metrics of one traced pass; returns (values, absent names)."""
    absent = {a for d in dumps for a in d["absent"]}
    self_by: dict[str, float] = {}
    work: dict[str, float] = {}
    calls: dict[str, int] = {}
    rss_growth = 0.0
    probe_failed = set()
    for d in dumps:
        for span, own in zip(d["spans"], _self_times(d["spans"])):
            name = span["name"]
            self_by[name] = self_by.get(name, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            if span.get("probe_failed"):
                probe_failed.add(name)
            for key in ("subsets", "pairs", "trials", "candidates", "deltas_built"):
                if key in span:
                    work[key] = work.get(key, 0) + span[key]
            if name == "combinat.door_deltas":
                rss_growth += max(span["rss1"] - span["rss0"], 0) / 2**20

    def own(*names: str) -> float:
        return sum(self_by.get(n, 0.0) for n in names)

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    caches = [d["cache"] for d in dumps if d["cache"] is not None]
    hits = sum(c[0] for c in caches)
    misses = sum(c[1] for c in caches)
    if not caches:
        absent |= {"combinat.delta_cache"}
    walkers = [f"counting.{n}" for n in WALKERS]
    eigen = [f"scheme.{n}" for n in EIGEN]
    verifiers = [f"lemmas.{n}" for n in LEMMA_VERIFIERS]
    values = {
        "combinat.door_deltas.self_s": own("combinat.door_deltas"),
        "combinat.door_deltas.rss_growth_mb": rss_growth,
        "combinat.deltas_per_s": rate(work.get("deltas_built", 0), own("combinat.door_deltas")),
        "combinat.delta_cache.hits": hits,
        "combinat.delta_cache.misses": misses,
        "combinat.delta_cache.hit_ratio": rate(hits, hits + misses),
        "counting.subsets_walked": work.get("subsets", 0),
        "counting.subsets_per_s": rate(work.get("subsets", 0), own(*walkers)),
        "counting.count_nonnegative_dp.calls": calls.get("counting.count_nonnegative_dp", 0),
        "search.candidates_examined": work.get("candidates", 0),
        "search.candidates_per_s": rate(work.get("candidates", 0), own("search.sweep_patterns")),
        "scheme.operator_pairs": work.get("pairs", 0),
        "scheme.pairs_per_s": rate(work.get("pairs", 0), own(*eigen)),
        "lemmas.partition_trials": work.get("trials", 0),
        "lemmas.trials_per_s": rate(work.get("trials", 0), own("lemmas.simulate_partition")),
        "lemmas.verify.self_s": own(*verifiers),
        "cli.stdout_bytes": stdout_bytes,
        "process.import_s": statistics.median(d["import_s"] for d in dumps) if dumps else 0.0,
        "trace.wall_s": wall_s,
        "trace.self_total_s": sum(self_by.values()),
    }
    for name in (
        "counting.count_nonnegative",
        "counting.restricted_sum",
        "counting.overlap_sums",
        "counting.nonnegative_family",
        "counting.count_nonnegative_dp",
        "search.sweep_patterns",
        "scheme.verify_eigenvector_all",
        "scheme.verify_eigenvector",
        "scheme.verify_wilson_identities",
        "scheme.build_structure_matrix",
        "lemmas.simulate_partition",
        "cli.run",
        "weights.load_weights",
        "weights.scaled_ints",
    ):
        values[f"{name}.self_s"] = own(name)
    # A metric is absent when a traced name it is built from is gone, or when
    # its per-call work count could not be read from the call's arguments.
    sources = {
        "combinat.deltas_per_s": ["combinat.door_deltas"],
        "combinat.door_deltas.rss_growth_mb": ["combinat.door_deltas"],
        "counting.subsets_walked": walkers,
        "counting.subsets_per_s": walkers,
        "counting.count_nonnegative_dp.calls": ["counting.count_nonnegative_dp"],
        "search.candidates_examined": ["search.sweep_patterns"],
        "search.candidates_per_s": ["search.sweep_patterns"],
        "scheme.operator_pairs": eigen,
        "scheme.pairs_per_s": eigen,
        "lemmas.partition_trials": ["lemmas.simulate_partition"],
        "lemmas.trials_per_s": ["lemmas.simulate_partition"],
        "lemmas.verify.self_s": verifiers,
    }
    for name in ("hits", "misses", "hit_ratio"):
        sources[f"combinat.delta_cache.{name}"] = ["combinat.delta_cache"]
    missing = {
        m
        for m, src in sources.items()
        if all(s in absent for s in src) or any(s in probe_failed for s in src)
    }
    missing |= {m for m in values if m.endswith(".self_s") and m[: -len(".self_s")] in absent}
    return values, missing
