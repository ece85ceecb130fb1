#!/usr/bin/env python3
"""Walk-through: sweeping weight patterns for minimal nonnegative counts.

Sweeps all zero-sum patterns with few distinct values at small n to see
the star shape win, then runs the regime n = 3k + r where patterns with
fewer nonnegative k-subsets than the star family exist.
"""

import time

from mmsverify import SearchSpace, find_counterexample, star_family_size, sweep_patterns


def main():
    for n, k in ((6, 2), (8, 2), (9, 3)):
        report = sweep_patterns(SearchSpace(n=n, k=k, max_distinct=2, value_range=6))
        print(f"n={n}, k={k}: best count {report.best_count}, star bound {report.bound}")
        print(f"  best pattern      {report.best_pattern.describe()}")
        print(f"  candidates tried  {report.candidates_examined}")
        print(f"  violation found?  {report.violation}")
        print()

    # with three distinct values the flat near-star patterns tie the bound
    report = sweep_patterns(SearchSpace(n=6, k=2, max_distinct=3, value_range=6))
    print(f"n=6, k=2, three distinct values: best {report.best_pattern.describe()}")
    print(f"  count {report.best_count} vs bound {report.bound}")
    print()

    # small cases never beat the star; the regime n = 3k + r with
    # 1 <= r <= k/7 does, starting at k = 7, n = 22
    print("counterexample regime k=7, r=1 (n=22), value grid radius 40:")
    t0 = time.perf_counter()
    report = find_counterexample(7, 1, value_range=40)
    dt = time.perf_counter() - t0
    print(f"  best pattern      {report.best_pattern.describe()}")
    print(f"  nonnegative count {report.best_count}")
    print(f"  star bound        {report.bound} = C(21,6)")
    print(f"  candidates tried  {report.candidates_examined}")
    print(f"  double-checked    count_nonnegative ({report.recount_engine}) "
          f"and the pattern DP in both orders")
    print(f"  verdict           {report.verdict} ({dt:.1f}s)")
    assert report.best_count < star_family_size(22, 7)


if __name__ == "__main__":
    main()
