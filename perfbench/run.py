"""Benchmark for mmsverify: seeded workloads, checked outputs, end-to-end times.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-enum --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

The load is a closed loop with one client: one program process at a time,
started from this process, never a thread or a pool. Each pass runs the
workload's fixed op list; passes repeat until `--seconds` have gone by and
the metrics are medians over passes. Every output is checked against the
independent oracle in oracle.py, outside the timed region.

Right before each program process, launcher.py times reference.py, a fixed
unit of work that does not depend on the program. The run's times are scaled
by REFERENCE_S over the reference's median time in the run, so a
whole-machine slowdown moves the two alike and cancels out, while a slower
program still reads slower one for one.

With `--trace 0` the last line reports the end-to-end metrics of
BENCHMARK.json. With `--trace 1` untraced and traced passes alternate and
the last line reports the per-layer metrics; `trace.overhead_s` is the
difference of their median walls. Earlier lines are for people: the
environment, the input properties of each op, a table with `failed_ratio`.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from math import comb
from pathlib import Path

import oracle as oracle_mod
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
OP_TIMEOUT_S = 60.0
SETUP_SPAWNS_PER_PASS = 3
MIN_PASSES = 3
SHOWN_FAILURES = 10
# About reference.measure()'s wall and CPU time on a quiet 2-vCPU x86_64
# host with Python 3.11; it only sets the scale of the reported seconds.
REFERENCE_S = 0.04


@dataclass
class Proc:
    wall: float
    cpu: float
    rss_mb: float
    exit: int
    stdout: Path


@dataclass
class Pass:
    walls: list = field(default_factory=list)  # per process, in op-list order
    cpus: list = field(default_factory=list)
    rss_mb: float = 0.0
    stdout_bytes: int = 0
    dumps: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.walls)


def typical_pass(passes: list[Pass], attr: str) -> float:
    """One typical pass: each process's median over the run's repetitions, summed.

    On a shared machine a process's time swings by about 20% from one
    repetition to the next. Ten-seed runs gave a smaller spread for this
    figure than for the sum of each process's fastest repetition, whose
    value depends on catching a rare quiet moment.
    """
    return sum(statistics.median(column) for column in zip(*(getattr(p, attr) for p in passes)))


class Runner:
    """Runs program processes one at a time, through launcher.py, and checks their output."""

    def __init__(self, workdir: Path, expects: dict):
        self.io = workdir / "io"
        self.io.mkdir(parents=True)
        self.expects = expects
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.launcher = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True,
        )
        self.attempted = 0
        self.failures: list[str] = []
        self.ref_walls: list[float] = []  # reference.measure() before every process
        self.ref_cpus: list[float] = []

    def close(self) -> None:
        self.launcher.stdin.close()
        try:
            self.launcher.wait(timeout=OP_TIMEOUT_S + 10)
        except subprocess.TimeoutExpired:
            self.launcher.kill()
            self.launcher.wait()
        self.launcher.stdout.close()

    def spawn(self, argv: list[str], slot: str) -> Proc:
        """One process; wall, CPU and peak RSS come from its own wait4 record."""
        out, err = self.io / f"{slot}.out", self.io / f"{slot}.err"
        request = {"argv": argv, "stdout": str(out), "stderr": str(err),
                   "timeout": OP_TIMEOUT_S}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = self.launcher.stdout.readline()
        if not reply:
            raise RuntimeError("launcher.py ended early")
        r = json.loads(reply)
        self.ref_walls.append(r["ref_wall"])
        self.ref_cpus.append(r["ref_cpu"])
        return Proc(r["wall"], r["cpu"], r["maxrss_kb"] / 1024, r["exit"], out)

    def record(self, op, doc, exit_code, note: str | None = None) -> None:
        self.attempted += 1
        errors = oracle_mod.check(self.expects[id(op)], doc, exit_code)
        if errors:
            self.failures.append(f"{op.name}: " + "; ".join(errors[:3]) + (f" ({note})" if note else ""))

    def cli(self, op, slot: str, spans: Path | None = None) -> Proc:
        if spans is None:
            argv = [sys.executable, "-m", "mmsverify", *op.argv]
        else:
            argv = [sys.executable, str(HERE / "child.py"), "cli", str(spans), *op.argv]
        proc = self.spawn(argv, slot)
        try:
            doc = json.loads(proc.stdout.read_bytes())
        except ValueError:
            doc = None
        self.record(op, doc, proc.exit)
        return proc

    def library(self, ops: list, slot: str, spans: Path | None = None) -> tuple[Proc, list]:
        calls = self.io / f"{slot}.calls.json"
        if not calls.exists():
            calls.write_text(json.dumps([op.call for op in ops]))
        results = self.io / f"{slot}.results.json"
        results.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "child.py"), "lib", str(calls), str(results)]
        proc = self.spawn(argv + ([str(spans)] if spans else []), slot)
        try:
            outputs = json.loads(results.read_text()) if proc.exit == 0 else []
        except (OSError, ValueError):
            outputs = []
        outputs += [{}] * (len(ops) - len(outputs))
        for op, out in zip(ops, outputs):
            self.record(op, out if "report" in out else None, None, out.get("error"))
        return proc, outputs

    def run_pass(self, wl: workloads.Workload, traced: bool) -> Pass:
        p = Pass()
        spans = self.io / "spans.json"
        steps = [(wl.ops, "lib")] if wl.library else [([op], f"op{i}") for i, op in enumerate(wl.ops)]
        for ops, slot in steps:
            spans.unlink(missing_ok=True)
            target = spans if traced else None
            if wl.library:
                proc, _ = self.library(ops, slot, target)
            else:
                proc = self.cli(ops[0], slot, target)
            p.walls.append(proc.wall)
            p.cpus.append(proc.cpu)
            p.rss_mb = max(p.rss_mb, proc.rss_mb)
            p.stdout_bytes += proc.stdout.stat().st_size
            if traced and spans.exists():
                p.dumps.append(json.loads(spans.read_text()))
        return p


def baseline_rows(runner: Runner, wl: workloads.Workload) -> dict:
    """The ROADMAP baseline rows that belong to this workload, in fresh processes."""
    rows = {}
    if not wl.baseline_library:
        for i, op in enumerate(wl.baseline):
            rows[op.name] = runner.cli(op, f"baseline{i}").wall
        return rows
    spans = runner.io / "baseline-spans.json"
    _, outputs = runner.library(wl.baseline, "baseline", spans)
    for op, out in zip(wl.baseline, outputs):
        if "elapsed_s" in out:
            rows[op.name] = out["elapsed_s"]
    dump = json.loads(spans.read_text()) if spans.exists() else {"spans": []}
    builds = [s for s in dump["spans"] if s.get("deltas_built") == comb(34, 6) - 1]
    if builds:
        rows["baseline.delta_table_34_6_s"] = builds[0]["t1"] - builds[0]["t0"]
        rows["baseline.delta_table_34_6_rss_mb"] = (builds[0]["rss1"] - builds[0]["rss0"]) / 2**20
    return rows


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir = OUT / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    wl = workloads.build(name, seed, workdir / "inputs")
    setup = workloads.setup_op(workdir / "inputs")
    checked = [setup, *wl.ops, *(wl.baseline if trace else [])]
    started = time.perf_counter()
    oracle = oracle_mod.Oracle()
    expects = {id(op): oracle.expect(op) for op in checked}
    oracle_s = time.perf_counter() - started
    for op in checked:
        print(f"op {name}/{op.name}: " + " ".join(f"{k}={v}" for k, v in op.props.items()))

    runner = Runner(workdir, expects)
    try:
        return _measure(runner, wl, setup, seconds, trace, oracle_s)
    finally:
        runner.close()
        shutil.rmtree(runner.io, ignore_errors=True)


def _measure(runner: Runner, wl: workloads.Workload, setup, seconds: float, trace: bool,
             oracle_s: float) -> dict:
    workdir = runner.io.parent
    plain: list[Pass] = []
    traced: list[Pass] = []
    setup_walls: list[float] = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        for i in range(SETUP_SPAWNS_PER_PASS):
            setup_walls.append(runner.cli(setup, f"setup{i}").wall)
        turn = trace and len(plain) > len(traced)
        (traced if turn else plain).append(runner.run_pass(wl, traced=turn))
        now = time.perf_counter()
        enough = len(plain) >= MIN_PASSES and (not trace or traced)
        if enough and now - started + (now - begun) > seconds:
            break  # the next pass would end after the measuring time
    wall_scale = REFERENCE_S / statistics.median(runner.ref_walls)
    cpu_scale = REFERENCE_S / statistics.median(runner.ref_cpus)
    unscaled = {
        "wall_s": typical_pass(plain, "walls"),
        "cpu_s": typical_pass(plain, "cpus"),
        "setup_s": statistics.median(setup_walls),
    }
    result = {
        "workload": wl.name,
        "passes": len(plain),
        "traced_passes": len(traced),
        "oracle_s": oracle_s,
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures,
        "unscaled": {**unscaled, "reference_s": statistics.median(runner.ref_walls)},
        "end_to_end": {
            "wall_s": unscaled["wall_s"] * wall_scale,
            "cpu_s": unscaled["cpu_s"] * cpu_scale,
            "peak_rss_mb": statistics.median(p.rss_mb for p in plain),
            "setup_s": unscaled["setup_s"] * wall_scale,
        },
    }
    if trace:
        per_pass, absent = [], set()
        for p in traced:
            values, missing = tracer.summarize(p.dumps, p.wall, p.stdout_bytes)
            per_pass.append(values)
            absent |= missing
        layer = {key: statistics.median(v[key] for v in per_pass) for key in per_pass[0]}
        layer["trace.overhead_s"] = (typical_pass(traced, "walls")
                                     - typical_pass(plain[: len(traced)], "walls"))
        layer.update(baseline_rows(runner, wl))
        # With every span inside its parent, self times add up to the top-level
        # spans' time, which is below the wall; so the nesting check is the one
        # that catches a tracer fault, and the sum check guards the summary.
        bad = sum(tracer.misnested(d["spans"]) for p in traced for d in p.dumps)
        if bad:
            runner.failures.append(f"trace: {bad} spans lie outside their parent span")
        if any(v["trace.self_total_s"] > v["trace.wall_s"] for v in per_pass):
            runner.failures.append("trace: span self times add up to more than the traced wall time")
        result.update(per_layer=layer, absent=sorted(absent),
                      attempted=runner.attempted, failed=len(runner.failures), failures=runner.failures)
        (workdir / "trace.json").write_text(json.dumps({"per_layer": layer, "passes": [p.dumps for p in traced]}))
    return result


def environment() -> dict:
    commit = "unknown"
    with contextlib.suppress(OSError, IndexError):
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head.split(" ", 1)[1]).read_text().strip() if head.startswith("ref:") else head
    return {"python": platform.python_version(), "nproc": os.cpu_count(), "machine": platform.machine(),
            "commit": commit}


def metric_block(spec: list[dict], values: dict, absent: set) -> dict:
    """Every listed metric; absent ones and other workloads' baseline rows read 0."""
    out = {}
    for m in spec:
        name = m["name"]
        if name not in values and name not in absent and not name.startswith("baseline."):
            raise KeyError(f"metric {name} is listed in BENCHMARK.json but not measured")
        out[name] = {"value": values.get(name, 0), "unit": m["unit"]}
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mmsverify" / "__init__.py").is_file():
        print(f"perfbench: no mmsverify package under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics_spec = spec["per_layer"] if args.trace else spec["end_to_end"]
    print("env: " + json.dumps(environment()))
    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    results = [run_workload(name, args.seed, args.seconds, bool(args.trace)) for name in names]

    metrics = {}
    for r in results:
        ratio = r["failed"] / r["attempted"]
        cells = "  ".join(f"{k} {v:.4g} {u}" for (k, v), u in
                          zip(r["end_to_end"].items(), ("s", "s", "MB", "s")))
        print(f"{r['workload']:13s} {cells}  failed_ratio {ratio:.4g} ({r['failed']}/{r['attempted']})"
              f"  passes {r['passes']}+{r['traced_passes']} traced  oracle {r['oracle_s']:.2f} s")
        print(f"{'':13s} unscaled: " + "  ".join(f"{k} {v:.4g} s" for k, v in r["unscaled"].items()))
        for line in r["failures"][:SHOWN_FAILURES]:
            print(f"FAILED {r['workload']}/{line}", file=sys.stderr)
        values = r["per_layer"] if args.trace else r["end_to_end"]
        absent = set(r.get("absent", ()))
        if absent:
            print(f"absent {r['workload']}: " + " ".join(sorted(absent)))
        block = metric_block(metrics_spec, values, absent)
        if len(results) == 1:
            metrics = block
        else:
            metrics.update({f"{r['workload']}.{k}": v for k, v in block.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
