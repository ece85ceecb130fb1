"""Child process of the benchmark: the library runner and the traced CLI.

    python perfbench/child.py lib OPS RESULTS [SPANS]
    python perfbench/child.py cli SPANS ARGS...

`lib` loads each weight file with `load_weights` and calls the public
library function each op in OPS names, writing one result per op to
RESULTS. `cli` runs `python -m mmsverify ARGS...` unchanged in this process.
With a SPANS path the tracer is installed after the import and its spans are
written to SPANS when the child ends.
"""

from __future__ import annotations

import json
import runpy
import sys
import time
from fractions import Fraction


def _restriction(m, atoms):
    combined = None
    for kind, indices in atoms:
        atom = getattr(m.Restriction, kind)(*indices)
        combined = atom if combined is None else combined & atom
    return combined


def _call(m, call: dict, X):
    fn, k = call["fn"], call.get("k")
    if fn == "count_nonnegative":
        return m.count_nonnegative(X, k).to_dict()
    if fn == "restricted_sum":
        return str(m.restricted_sum(X, k, _restriction(m, call["atoms"])))
    if fn == "overlap_sums":
        return [str(v) for v in m.overlap_sums(X, k, call["block"])]
    if fn == "nonnegative_family":
        from oracle import family_digest

        return family_digest(m.nonnegative_family(X, k))
    if fn == "count_nonnegative_dp":
        pairs = tuple((Fraction(v), mult) for v, mult in zip(call["values"], call["mults"]))
        return str(m.count_nonnegative_dp(m.MultiplicityPattern(pairs), k))
    if fn == "verify_eigenvector_all":
        return m.verify_eigenvector_all(X, k).to_dict()
    if fn == "simulate_partition":
        T = m.KSubset.of(range(X.n - k, X.n), X.n)
        return m.simulate_partition(X, k, T, trials=call["trials"], seed=call["seed"]).to_dict()
    if fn == "find_counterexample":
        return m.find_counterexample(call["k"], call["r"], call["value_range"]).to_dict()
    raise ValueError(f"unknown library call {fn!r}")


def run_library(ops_path: str, results_path: str) -> int:
    import mmsverify

    with open(ops_path, encoding="utf-8") as fh:
        calls = json.load(fh)
    vectors: dict = {}
    results = []
    for call in calls:
        try:
            path = call.get("weights")
            if path is not None and path not in vectors:
                vectors[path] = mmsverify.load_weights(path)
            started = time.perf_counter()
            report = _call(mmsverify, call, vectors.get(path))
            results.append({"report": report, "elapsed_s": time.perf_counter() - started})
        except Exception as exc:  # one failed call must not hide the others' results
            results.append({"error": f"{type(exc).__name__}: {exc}"})
    with open(results_path, "w", encoding="utf-8") as fh:
        json.dump(results, fh)
    return 0


def run_cli(args: list[str]) -> int:
    sys.argv = ["mmsverify", *args]
    try:
        runpy.run_module("mmsverify", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 1)
    finally:
        sys.stdout.flush()
    return 0


def main(argv: list[str]) -> int:
    mode = argv[0]
    if mode == "lib":
        ops_path, results_path = argv[1], argv[2]
        spans = argv[3] if len(argv) > 3 else None
    else:
        spans, args = argv[1], argv[2:]
    started = time.perf_counter()
    import mmsverify  # noqa: F401

    if mode == "cli":
        import mmsverify.cli  # noqa: F401
    import_s = time.perf_counter() - started
    tracer = None
    if spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        if mode == "lib":
            return run_library(ops_path, results_path)
        return run_cli(args)
    finally:
        if tracer is not None:
            tracer.dump(spans, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
