"""One-line mutants of the verdicts, each run against the Tier-1 suite.

Run by hand from the root of a checkout; each mutant costs one suite run:

    python tests/mutants.py

The checkout is copied to a temporary directory, where the suite first runs
unmutated: a mutant counts as killed only if that run passes. Each mutant
then replaces its target text, which must occur exactly once in its file,
and the suite runs again with -x. A mutant that some test fails is killed;
one that passes every test survives, and the runner exits 1.
tests/test_mutants.py checks in Tier-1 that every target still occurs
exactly once in src/, so the list cannot go stale unnoticed. The runs here
leave that test out: every mutant removes its target, so it would fail it
and count as killed whatever the other tests do.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (file, target text, replacement, what the mutant would let through)
MUTANTS = (
    ("src/mmsverify/counting.py", "nn >= bound", "nn + 1 >= bound",
     "count_nonnegative reads a count of C(n-1, k-1) - 1 as satisfying the bound"),
    ("src/mmsverify/search.py", "violation=b_count < bound", "violation=b_count + 1 < bound",
     "sweep_patterns reads a winner one below the bound as no violation"),
    ("src/mmsverify/lemmas.py", 'count, ">=", bound', 'count + 1, ">=", bound',
     "verify_mms_bound reads a count of C(n-1, k-1) - 1 as meeting the theorem's bound"),
    ("src/mmsverify/scheme.py", "if lhs[j] != eigs[j] * bs:", "if lhs[j] > eigs[j] * bs:",
     "the eigenvector check reads a left-hand side below eig_j * b_S as equal to it"),
    ("src/mmsverify/lemmas.py", "if s >= 0:", "if s > 0:",
     "simulate_partition's folded trials read a block of sum 0 as negative"),
)

SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench_out")


def run_suite(root: Path) -> tuple[bool, float, str]:
    """(passed, seconds, first failing test id or '') for the Tier-1 suite in root."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--ignore=tests/test_mutants.py"],
        cwd=root, capture_output=True, text=True,
    )
    failed = [line.split()[1] for line in proc.stdout.splitlines() if line.startswith("FAILED ")]
    return proc.returncode == 0, time.perf_counter() - start, failed[0] if failed else ""


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "checkout"
        shutil.copytree(ROOT, copy, ignore=SKIP)
        passed, seconds, first = run_suite(copy)
        print(f"unmutated  {'passes' if passed else 'FAILS at ' + first} ({seconds:.1f} s)", flush=True)
        if not passed:
            return 2
        survivors = 0
        for path, target, replacement, meaning in MUTANTS:
            source = (copy / path).read_text()
            if source.count(target) != 1:
                print(f"STALE      {path}: {target!r} occurs {source.count(target)} times")
                return 2
            (copy / path).write_text(source.replace(target, replacement))
            passed, seconds, first = run_suite(copy)
            (copy / path).write_text(source)
            survivors += passed
            status = "SURVIVED" if passed else "killed  "
            print(f"{status}   {path}: {target!r} -> {replacement!r} ({seconds:.1f} s)", flush=True)
            print(f"           {meaning}; " + (f"first failure {first}" if first else "no test fails"))
        print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
        return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
