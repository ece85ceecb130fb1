#!/usr/bin/env python3
"""Walk-through: inclusion and disjointness matrices and their algebra.

At n=6, k=3, j=1 this prints the two 0/1 structure matrices and checks
the factorization of the overlap-count matrix through them, then shows
that every subset-sum vector is an eigenvector with the closed-form
eigenvalue.
"""

from mmsverify import (
    bose_mesner_eigenvalue,
    build_structure_matrix,
    gen_random_zero_sum,
    verify_eigenvector_all,
)
from mmsverify.scheme import subsets_colex, verify_factorization


def print_matrix(M, row_labels, col_labels):
    print("       " + " ".join(f"{''.join(map(str, c)):>6}" for c in col_labels))
    for label, row in zip(row_labels, M.dense_rows()):
        cells = " ".join(f"{v:>6}" for v in row[: len(col_labels)])
        print(f"{''.join(map(str, label)):>6} {cells}")


def main():
    n, j, k = 6, 1, 3
    jsets = subsets_colex(n, j)
    ksets = subsets_colex(n, k)

    incl = build_structure_matrix("inclusion", n, j, k)
    print(f"inclusion matrix on n={n}: rows are {j}-sets, columns are {k}-sets")
    print_matrix(incl, jsets, ksets[:8])
    print("  (first 8 columns; every row sums to C(n-j, k-j))")
    print()

    knes = build_structure_matrix("kneser", n, j, k)
    print("disjointness matrix: 1 where the row set avoids the column set")
    print_matrix(knes, jsets, ksets[:8])
    print()

    fact = verify_factorization(n, j, k)
    print(f"factorization check at (n,j,k)=({n},{j},{k}): {fact.verdict}")
    for c in fact.claims:
        print(f"  {c.description}: {c.satisfied}")
    print()

    lam = bose_mesner_eigenvalue(n, k, j)
    print(f"closed-form eigenvalue at (n,k,j)=({n},{k},{j}): {lam}")
    X = gen_random_zero_sum(n, magnitude=9, seed=1)
    report = verify_eigenvector_all(X, k)
    print("subset-sum vector of a random zero-sum X is an eigenvector for every j:")
    for c in report.claims:
        print(f"  {c.description}: {c.satisfied}")


if __name__ == "__main__":
    main()
