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
    ("src/mmsverify/search.py", "cells.append((count + on, (p, q)))", "cells.append((count - off, (p, q)))",
     "a d = 3 breakpoint's point cell drops the compositions summing to exactly 0 there"),
    ("src/mmsverify/search.py", "sum(h - lows[h] for h in range(1, top + 1))",
     "sum(h - lows[h] + 1 for h in range(1, top + 1))",
     "a d = 3 tuple counted by direction reports one candidate too many per first head"),
    ("src/mmsverify/search.py", "(pl * h - l) // ql + 1", "(pl * h) // ql + 1",
     "the first open cell of a d = 3 tuple loses the grid's least direction"),
    ("src/mmsverify/lemmas.py", 'count, ">=", bound', 'count + 1, ">=", bound',
     "verify_mms_bound reads a count of C(n-1, k-1) - 1 as meeting the theorem's bound"),
    ("src/mmsverify/scheme.py", "if slope == coef:", "if slope <= coef:",
     "the eigenvector check and Wilson (b) and (c) read a slope below the right-hand coefficient as equal to it"),
    ("src/mmsverify/scheme.py", "(n - j) * cj", "(n - j - 1) * cj",
     "Wilson (a) counts a wrong outside value one entry short in every row"),
    ("src/mmsverify/counting.py", "int(s) + 1", "int(s) + 2",
     "the exact-sum count takes the subsets of sum s + 1 as of sum s"),
    ("src/mmsverify/lemmas.py", "if s >= 0:", "if s > 0:",
     "simulate_partition's folded trials read a block of sum 0 as negative"),
    ("src/mmsverify/scheme.py", "prod(range(n - m - r + 1, n - m + 1))", "prod(range(n - m - r + 2, n - m + 1))",
     "Wilson (a) computes its two values without the least factor of C(n - m, r)"),
    ("src/mmsverify/scheme.py", "coef_b = binomial(n - j - 1, k - j)", "coef_b = binomial(n - j, k - j)",
     "Wilson's identity (b) is held against the wrong coefficient C(n-j, k-j)"),
    ("src/mmsverify/scheme.py", "coef_c = -binomial(n - k - 1, j - 1)", "coef_c = -binomial(n - k, j - 1)",
     "Wilson's identity (c) is held against the wrong coefficient -C(n-k, j-1)"),
    ("src/mmsverify/lemmas.py", "(2 * k - 1) * (k - 1), n - 2 * k + 1)) * b_A",
     "(2 * k - 1) * (k - 2), n - 2 * k + 1)) * b_A",
     "lemma 3 holds b_C against (1 - (2k-1)(k-2)/(n-2k+1)) b_A, not the paper's (2k-1)(k-1)"),
    ("src/mmsverify/lemmas.py", "n >= k * k and count <= bound", "n >= k * k and count < bound",
     "lemma 3 calls its claim vacuous when the count equals C(n-1, k-1), as on the star"),
    ("src/mmsverify/lemmas.py", "(6 * k - 3) * (k - 1)", "(6 * k - 4)",
     "lemma lotson1 holds the count through index 0 against the wrong floor"),
    ("src/mmsverify/lemmas.py", "(8 * k - 4) * (k - 1)", "(8 * k - 5)",
     "scalar (c) reports the wrong final value 2 - (8k-5)/(n-2k+1)"),
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
