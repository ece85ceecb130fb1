"""Johnson-scheme structure matrices and exact operator identities.

The inclusion matrix W has a 1 at (Y, S) when the j-subset Y lies inside the
k-subset S; the Kneser variant Wbar marks Y disjoint from S. Their exact
integer product Wbar^T W depends only on intersection sizes, and the vector
of k-subset sums of a zero-sum weight vector is an eigenvector of it.
Subsets are indexed in combinat.colex order. The checks pack each 0/1 row
into one int straight from the subset bitmasks, so an inner product is an
AND and a popcount; sums of b by overlap with a block come from counting's
state pass. Before any work, DEFAULT_DENSE_BUDGET caps the entries built or
packed, ENUM_BUDGET the pass steps and PAIR_BUDGET the factorization's pairs.
"""

from __future__ import annotations

from typing import Sequence

from .combinat import ENUM_BUDGET, KSubset, _Record, binomial, colex
from .counting import _overlap_pass
from .report import Claim, LemmaReport, Precondition, claim
from .weights import WeightVector

__all__ = [
    "DEFAULT_DENSE_BUDGET",
    "DenseBudgetError",
    "PAIR_BUDGET",
    "StructureMatrix",
    "bose_mesner_entry",
    "bose_mesner_eigenvalue",
    "build_structure_matrix",
    "verify_eigenvector",
    "verify_eigenvector_all",
    "verify_factorization",
    "verify_wilson_identities",
]

DEFAULT_DENSE_BUDGET = 10_000_000
# Most (S, T) pairs of k-subsets verify_factorization visits, the only
# check that still walks pairs; near this limit it takes several seconds.
PAIR_BUDGET = 40_000_000


class DenseBudgetError(ValueError):
    """Raised when a dense matrix, a pair loop or the state passes would exceed a budget."""


def subsets_colex(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-subsets of {0..n-1} in colex order (m = 0 gives the empty set)."""
    return colex([(i,) for i in range(n)], m, ())


def masks_colex(n: int, m: int) -> list[int]:
    """Bitmasks of all m-subsets of {0..n-1} in colex order."""
    return colex([1 << i for i in range(n)], m)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack(bits: list[int]) -> int:
    """The int whose bit c is bits[c] (0 or 1), in time linear in len(bits)."""
    return int(bytes(bits[::-1]).translate(_DIGITS), 2)


class StructureMatrix(_Record):
    """Dense 0/1 matrix over (j-subsets) x (k-subsets), colex indexed."""

    kind: str  # inclusion | kneser
    n: int
    j: int
    k: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        expected = binomial(self.n, self.j)
        if len(self.rows) != expected:
            raise ValueError("row count must be C(n, j)")
        row_sum = (
            binomial(self.n - self.j, self.k - self.j)
            if self.kind == "inclusion"
            else binomial(self.n - self.j, self.k)
        )
        for r in self.rows:
            if len(r) != binomial(self.n, self.k):
                raise ValueError("column count must be C(n, k)")
            if sum(r) != row_sum:
                raise ValueError(f"{self.kind} row sum must be {row_sum}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), binomial(self.n, self.k)

    def to_dict(self) -> dict:
        return {
            "type": "structure-matrix",
            "kind": self.kind,
            "n": self.n,
            "j": self.j,
            "k": self.k,
            "shape": list(self.shape),
            "row_index": [list(s) for s in subsets_colex(self.n, self.j)],
            "col_index": [list(s) for s in subsets_colex(self.n, self.k)],
            "rows": [list(r) for r in self.rows],
        }


def _check_budget(rows: int, n: int, k: int) -> None:
    entries = rows * binomial(n, k)
    if entries > DEFAULT_DENSE_BUDGET:
        raise DenseBudgetError(
            f"{rows} rows over C({n},{k}) k-subsets hold {entries} entries, over the dense "
            f"budget of {DEFAULT_DENSE_BUDGET}; bose_mesner_entry gives any one in closed form"
        )


def _check_work(what: str, work: int, budget: str, limit: int) -> None:
    if work > limit:
        raise DenseBudgetError(f"{what} = {work}, over the {budget} of {limit}")


def build_structure_matrix(kind: str, n: int, j: int, k: int) -> StructureMatrix:
    """Materialize the inclusion or Kneser matrix densely."""
    if kind not in ("inclusion", "kneser"):
        raise ValueError(f"unknown kind {kind!r}")
    if not (0 <= j <= k <= n):
        raise ValueError(f"need 0 <= j <= k <= n, got j={j}, k={k}, n={n}")
    _check_budget(binomial(n, j), n, k)
    jm = masks_colex(n, j)
    km = masks_colex(n, k)
    if kind == "inclusion":
        rows = tuple(tuple(1 if ym & sm == ym else 0 for sm in km) for ym in jm)
    else:
        rows = tuple(tuple(1 if ym & sm == 0 else 0 for sm in km) for ym in jm)
    return StructureMatrix(kind, n, j, k, rows)


def bose_mesner_entry(S: KSubset, T: KSubset, j: int) -> int:
    """Closed-form entry C(k - |S intersect T|, j) of the j-th product matrix."""
    if S.n != T.n or S.k != T.k:
        raise ValueError("S and T must be k-subsets of the same ground set")
    overlap = (S.bitmask() & T.bitmask()).bit_count()
    return binomial(S.k - overlap, j)


def bose_mesner_eigenvalue(n: int, k: int, j: int) -> int:
    """Eigenvalue of the subset-sum eigenvector: -C(k-1, j-1) * C(n-j-1, k-1)."""
    return -binomial(k - 1, j - 1) * binomial(n - j - 1, k - 1)


def _param_echo(**kwargs: int) -> list[Precondition]:
    return [Precondition(name, value, True) for name, value in kwargs.items()]


def verify_factorization(n: int, j: int, k: int) -> LemmaReport:
    """Multiply Kneser^T by inclusion and compare with the closed form.

    Column S of each 0/1 matrix is packed over the j-subset axis, so entry
    (S, T) of the product is the popcount of one AND.
    """
    if not (0 <= j <= k <= n):
        raise ValueError(f"need 0 <= j <= k <= n, got j={j}, k={k}, n={n}")
    _check_budget(binomial(n, j), n, k)
    _check_work(f"C({n},{k})^2 pairs of k-subsets", binomial(n, k) ** 2, "pair budget", PAIR_BUDGET)
    jm = masks_colex(n, j)
    km = masks_colex(n, k)
    incl_cols = [_pack([ym & sm == ym for ym in jm]) for sm in km]
    knes_cols = [_pack([not ym & sm for ym in jm]) for sm in km]
    want = [binomial(k - m, j) for m in range(k + 1)]
    mismatches = 0
    witness = None
    for s, (scol, smask) in enumerate(zip(knes_cols, km)):
        for t, (tcol, tmask) in enumerate(zip(incl_cols, km)):
            got = (scol & tcol).bit_count()
            closed = want[(smask & tmask).bit_count()]
            if got != closed:
                mismatches += 1
                if witness is None:
                    ksets = subsets_colex(n, k)
                    witness = {
                        "S": list(ksets[s]),
                        "T": list(ksets[t]),
                        "product": got,
                        "closed_form": closed,
                    }
    return LemmaReport(
        name="bose-mesner-factorization",
        preconditions=tuple(_param_echo(n=n, j=j, k=k)),
        claims=(
            claim(
                f"Kneser^T * inclusion equals C(k-|S&T|,{j}) on all {len(km) ** 2} pairs",
                mismatches,
                "==",
                0,
            ),
        ),
        witness=witness,
    )


def _eigen_claims(X: WeightVector, k: int, js: Sequence[int]) -> tuple[list[Claim], dict]:
    n = X.n
    if X.is_zero():
        raise ValueError("eigenvector check needs a nonzero weight vector")
    if k == n:
        raise ValueError(
            f"eigenvector check needs k < n, got k = n = {n}: the only k-subset is the whole "
            "ground set, whose sum is 0, so b is the zero vector"
        )
    steps = binomial(n, k) * n * (k + 1)
    _check_work(f"C({n},{k}) passes of {n}*{k + 1} steps", steps, "enumeration budget", ENUM_BUDGET)
    y, _ = X.scaled_ints()
    b = colex(y, k)
    coeffs = {j: [binomial(k - m, j) for m in range(k + 1)] for j in js}
    eigs = {j: bose_mesner_eigenvalue(n, k, j) for j in js}
    mism = {j: 0 for j in js}
    witness: dict = {}
    for S, bs in zip(subsets_colex(n, k), b):
        prof = _overlap_pass(y, k, frozenset(S))
        for j in js:
            lhs = sum(c * p for c, p in zip(coeffs[j], prof))
            if lhs != eigs[j] * bs:
                mism[j] += 1
                if j not in witness:
                    witness[j] = {
                        "S": list(S),
                        "lhs": lhs,
                        "rhs": eigs[j] * bs,
                    }
    claims = [
        claim(
            f"(Wbar^T W) b == {eigs[j]} * b componentwise at j={j}",
            mism[j],
            "==",
            0,
            note=f"eigenvalue -C(k-1,{j}-1)*C(n-{j}-1,k-1) = {eigs[j]}",
        )
        for j in js
    ]
    nonzero = claim("b is not the zero vector", sum(1 for v in b if v != 0), ">", 0)
    return [nonzero] + claims, witness


def verify_eigenvector(X: WeightVector, j: int, k: int) -> LemmaReport:
    """Check the j-th product matrix maps b to eigenvalue * b, exactly.

    Matrix-free: for each row the intersection-size profile of b comes from
    one state pass and is contracted against the closed-form coefficients.
    """
    n = X.n
    if not (1 <= k <= n and 0 <= j <= k):
        raise ValueError(f"need 1 <= k <= n and 0 <= j <= k, got n={n}, k={k}, j={j}")
    claims, witness = _eigen_claims(X, k, [j])
    return LemmaReport(
        name="subset-sum-eigenvector",
        preconditions=tuple(_param_echo(n=n, j=j, k=k)),
        claims=tuple(claims),
        witness=witness.get(j),
    )


def verify_eigenvector_all(X: WeightVector, k: int) -> LemmaReport:
    """Eigenvector check for every j in [0, k] with one profile pass."""
    n = X.n
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    js = list(range(k + 1))
    claims, witness = _eigen_claims(X, k, js)
    return LemmaReport(
        name="subset-sum-eigenvector",
        preconditions=tuple(_param_echo(n=n, k=k)),
        claims=tuple(claims),
        witness=witness or None,
    )


def verify_wilson_identities(X: WeightVector, j: int, k: int) -> LemmaReport:
    """Exact checks of the three inclusion/Kneser product identities.

    (a) W_jk W_1k^T is two-valued: C(n-j, k-j) where the singleton lies in
        the j-subset, C(n-j-1, k-j-1) elsewhere.
    (b) W_jk W_1k^T x = C(n-j-1, k-j) W_1j^T x.
    (c) Wbar_jk^T W_1j^T x = -C(n-k-1, j-1) W_1k^T x.

    For (a) the rows of W_jk and W_1k are packed, C(n, j) + n rows of
    C(n, k) bits, and each entry is one AND and a popcount.
    """
    n = X.n
    if not (1 <= k <= n and 0 <= j <= k):
        raise ValueError(f"need 1 <= k <= n and 0 <= j <= k, got n={n}, k={k}, j={j}")
    _check_budget(binomial(n, j) + n, n, k)
    steps = binomial(n, j) * n * (k + 1)
    _check_work(f"C({n},{j}) passes of {n}*{k + 1} steps", steps, "enumeration budget", ENUM_BUDGET)
    y, _ = X.scaled_ints()
    jm = masks_colex(n, j)
    km = masks_colex(n, k)
    b = colex(y, k)
    bj = colex(y, j)

    # (a) entries of W_jk W_1k^T: count k-supersets of (j-subset union singleton)
    in_val = binomial(n - j, k - j)
    out_val = binomial(n - j - 1, k - j - 1)
    rows = [_pack([ym & sm == ym for sm in km]) for ym in jm]
    singles = [_pack([sm >> t & 1 for sm in km]) for t in range(n)]
    mism_a = 0
    witness_a = None
    for s, (row, ym) in enumerate(zip(rows, jm)):
        for t, single in enumerate(singles):
            got = (row & single).bit_count()
            want = in_val if ym >> t & 1 else out_val
            if got != want:
                mism_a += 1
                if witness_a is None:
                    witness_a = {"S": list(subsets_colex(n, j)[s]), "t": t, "got": got, "want": want}

    # (b) (W_jk b)_Y, the k-subsets meeting Y in j places, against C(n-j-1, k-j) * b_Y
    coef_b = binomial(n - j - 1, k - j)
    mism_b = 0
    for Y, bY in zip(subsets_colex(n, j), bj):
        if _overlap_pass(y, k, frozenset(Y))[j] != coef_b * bY:
            mism_b += 1

    # (c) Wbar_jk^T (W_1j^T x) against -C(n-k-1, j-1) * (k-subset sums)
    coef_c = -binomial(n - k - 1, j - 1)
    mism_c = 0
    for s, smask in enumerate(km):
        lhs = sum(bv for jmask, bv in zip(jm, bj) if jmask & smask == 0)
        if lhs != coef_c * b[s]:
            mism_c += 1

    cj = binomial(n, j)
    return LemmaReport(
        name="inclusion-product-identities",
        preconditions=tuple(_param_echo(n=n, j=j, k=k)),
        claims=(
            claim(
                f"W_jk W_1k^T two-valued ({in_val} inside, {out_val} outside) on {cj * n} entries",
                mism_a,
                "==",
                0,
            ),
            claim(f"W_jk W_1k^T x == {coef_b} * W_1j^T x on {cj} entries", mism_b, "==", 0),
            claim(
                f"Wbar_jk^T W_1j^T x == {coef_c} * W_1k^T x on {binomial(n, k)} entries",
                mism_c,
                "==",
                0,
            ),
        ),
        witness=witness_a,
    )
