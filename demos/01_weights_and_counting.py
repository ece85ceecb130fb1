#!/usr/bin/env python3
"""Walk-through: weight vectors and nonnegative subset-sum counting.

Builds the extremal star vector and a random zero-sum vector, then
compares their nonnegative k-subset counts against the star-family
size C(n-1, k-1).
"""

from mmsverify import (
    count_nonnegative,
    gen_random_zero_sum,
    gen_star,
    star_family_size,
    subset_sums,
)


def show(X, k, label):
    report = count_nonnegative(X, k)
    bound = star_family_size(X.n, k)
    print(f"{label}: n={X.n}, k={k}")
    print(f"  weights           {[str(v) for v in X.values]}")
    print(f"  nonnegative count {report.nonnegative_count} (star family size {bound})")
    star_eq = report.star_equality if report.star_equality is not None else "n/a (count above bound)"
    print(f"  exactly the star? {star_eq}")
    print()


def main():
    n, k = 8, 2

    star = gen_star(n)
    sums = subset_sums(star, k)
    print(f"star vector on n={n}: one entry n-1, the rest -1")
    print(f"  k={k} subset sums: {sorted(str(b) for b in sums)}")
    print()

    show(star, k, "star")

    X = gen_random_zero_sum(n, magnitude=20, seed=7)
    show(X, k, "random seed 7")

    # the star is the unique sorted vector attaining the minimum count,
    # so any other vector should come out strictly above the bound
    X2 = gen_random_zero_sum(12, magnitude=50, seed=3)
    show(X2, 3, "random seed 3")


if __name__ == "__main__":
    main()
