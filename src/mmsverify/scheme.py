"""Johnson-scheme structure matrices and exact operator identities.

The inclusion matrix W has a 1 at (Y, S) when the j-subset Y lies inside the
k-subset S; the Kneser variant Wbar marks Y disjoint from S. Their exact
integer product Wbar^T W depends only on intersection sizes, and the vector
of k-subset sums of a zero-sum weight vector is an eigenvector of it.
Subsets are indexed in combinat.colex order. The checks pack, once, the n
rows "subsets holding i" into one int each, bit c for the c-th subset; an
inclusion row is the AND of its subset's rows, a Kneser row the complement
of their OR, and an inner product is an AND and a popcount. A
StructureMatrix keeps its rows packed the same way, and the CLI prints each
from its int; its row and column index arrays are ColexIndex objects,
made as they are printed. Sums of b by overlap with a block come from
counting's divided pass. A k-subset's own pass depends on it only through
its sum b_S, and so does its overlap profile, so the eigenvector check
makes one divided pass per distinct b_S. Before any work, ENUM_BUDGET
caps the entries built or packed, the pass steps and the factorization's
pairs.
"""

from __future__ import annotations

from itertools import chain, combinations
from operator import mul
from typing import Sequence

from .combinat import _Record, binomial, charge, colex
from .counting import _divided_pass, _divided_steps, _pass_steps, _size_pass
from .report import BitRow, Claim, ColexIndex, LemmaReport, Precondition, claim
from .weights import WeightVector

__all__ = [
    "StructureMatrix",
    "bose_mesner_eigenvalue",
    "build_structure_matrix",
    "verify_eigenvector",
    "verify_eigenvector_all",
    "verify_factorization",
    "verify_wilson_identities",
]


def subsets_colex(n: int, m: int) -> list[tuple[int, ...]]:
    """All m-subsets of {0..n-1} in colex order (m = 0 gives the empty set)."""
    return colex([(i,) for i in range(n)], m, ())


def masks_colex(n: int, m: int) -> list[int]:
    """Bitmasks of all m-subsets of {0..n-1} in colex order."""
    return colex([1 << i for i in range(n)], m)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _pack(bits: list[int]) -> int:
    """The int whose bit c is bits[c] (0 or 1), in time linear in len(bits)."""
    return int(bytes(bits[::-1]).translate(_DIGITS), 2)


def _unpack(row: int, width: int) -> tuple[int, ...]:
    """The bits 0..width-1 of row, low bit first; the inverse of _pack."""
    return tuple(format(row, f"0{width}b")[::-1].encode().translate(_BITS))


def _singletons(n: int, m: int) -> tuple[list[int], int]:
    """(rows, full) over the colex m-subsets of range(n): row i packs those holding i, full all of them.

    The m-subsets holding every index of Y are the AND of Y's rows
    (_meet); those missing every index of Y are the complement of their
    OR (_miss).
    """
    masks = masks_colex(n, m)
    return [_pack([sm >> i & 1 for sm in masks]) for i in range(n)], (1 << len(masks)) - 1


def _meet(rows: list[int], full: int, Y: Sequence[int]) -> int:
    for i in Y:
        full &= rows[i]
    return full


def _miss(rows: list[int], full: int, Y: Sequence[int]) -> int:
    hit = 0
    for i in Y:
        hit |= rows[i]
    return full ^ hit


class StructureMatrix(_Record):
    """0/1 matrix over (j-subsets) x (k-subsets), colex indexed, one packed int per row.

    Bit c of rows[r] is entry (r, c): 1 when the r-th j-subset lies in
    (inclusion) or misses (kneser) the c-th k-subset. dense_rows() gives
    the rows as tuples of 0/1 entries.
    """

    kind: str  # inclusion | kneser
    n: int
    j: int
    k: int
    rows: tuple[int, ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), binomial(self.n, self.k)

    def dense_rows(self) -> tuple[tuple[int, ...], ...]:
        """The rows unpacked, entry c of row r being bit c of rows[r]."""
        width = binomial(self.n, self.k)
        return tuple(_unpack(row, width) for row in self.rows)

    def to_dict(self) -> dict:
        width = binomial(self.n, self.k)
        return {
            "type": "structure-matrix",
            "kind": self.kind,
            "n": self.n,
            "j": self.j,
            "k": self.k,
            "shape": [len(self.rows), width],
            "row_index": ColexIndex(self.n, self.j),
            "col_index": ColexIndex(self.n, self.k),
            "rows": [BitRow(row, width) for row in self.rows],
        }


def build_structure_matrix(kind: str, n: int, j: int, k: int) -> StructureMatrix:
    """The inclusion or Kneser matrix, each row packed from the singleton rows."""
    if kind not in ("inclusion", "kneser"):
        raise ValueError(f"unknown kind {kind!r}")
    if not (0 <= j <= k <= n):
        raise ValueError(f"need 0 <= j <= k <= n, got j={j}, k={k}, n={n}")
    charge(binomial(n, j) * binomial(n, k), f"entries of C({n},{j}) x C({n},{k}) rows")
    # at j = 0 the one row, the empty set's, is all ones for either kind;
    # for 0 < j < n the n singleton rows are no more than the C(n, j) rows
    singles, full = _singletons(n, k) if j else ([], (1 << binomial(n, k)) - 1)
    row_of = _meet if kind == "inclusion" else _miss
    rows = tuple(row_of(singles, full, Y) for Y in subsets_colex(n, j))
    return StructureMatrix(kind, n, j, k, rows)


def bose_mesner_eigenvalue(n: int, k: int, j: int) -> int:
    """Eigenvalue of the subset-sum eigenvector: -C(k-1, j-1) * C(n-j-1, k-1)."""
    return -binomial(k - 1, j - 1) * binomial(n - j - 1, k - 1)


def _param_echo(**kwargs: int) -> list[Precondition]:
    return [Precondition(name, value, True) for name, value in kwargs.items()]


def verify_factorization(n: int, j: int, k: int) -> LemmaReport:
    """Multiply Kneser^T by inclusion and compare with the closed form.

    Column S of each 0/1 matrix is packed over the j-subset axis from the
    j-subset singleton rows: the j-subsets inside S miss every index
    outside S, and the Kneser ones miss S. Entry (S, T) of the product
    is the popcount of one AND, charged one step.
    """
    if not (0 <= j <= k <= n):
        raise ValueError(f"need 0 <= j <= k <= n, got j={j}, k={k}, n={n}")
    columns = binomial(n, k)
    charge((binomial(n, j) + columns) * columns, f"C({n},{j}) x C({n},{k}) entries and C({n},{k})^2 pairs")
    km = masks_colex(n, k)
    ksets = subsets_colex(n, k)
    singles, full = _singletons(n, j)
    incl_cols = [_miss(singles, full, [i for i in range(n) if i not in S]) for S in ksets]
    knes_cols = [_miss(singles, full, S) for S in ksets]
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
    """Claims and witnesses of the eigenvector check at each j in js.

    One (count, sum) pass over y, then a divided pass, (k+1)^2 steps, and a
    contraction of k+1 steps per j for each distinct k-subset sum b_S: the
    pass over S's own k items is (C(k, a), C(k-1, a-1) b_S) at every size
    a, so the overlap profile of S, and each j's left-hand side, depends
    on S only through b_S. Every S is compared with eig_j * b_S, and the
    witness is the first failing S in colex order. The charge, an upper
    bound, is that pass and C(n, k) times the larger of n(k+1) and those
    per-sum steps.
    """
    n = X.n
    if X.is_zero():
        raise ValueError("eigenvector check needs a nonzero weight vector")
    if k == n:
        raise ValueError(
            f"eigenvector check needs k < n, got k = n = {n}: the only k-subset is the whole "
            "ground set, whose sum is 0, so b is the zero vector"
        )
    per_subset = max(n * (k + 1), _divided_steps(k, k) + (k + 1) * len(js))
    charge(
        _pass_steps(n, k) + binomial(n, k) * per_subset,
        f"steps of one pass over {n} items and C({n},{k}) subsets of {per_subset} steps",
    )
    y, _ = X.scaled_ints()
    b = colex(y, k)
    coeffs = {j: [binomial(k - m, j) for m in range(k + 1)] for j in js}
    eigs = {j: bose_mesner_eigenvalue(n, k, j) for j in js}
    mism = {j: 0 for j in js}
    witness: dict = {}
    full = _size_pass(y, k)
    lhs_of: dict[int, dict[int, int]] = {}  # b_S -> the left-hand side at each j
    for S, bs in zip(subsets_colex(n, k), b):
        lhs = lhs_of.get(bs)
        if lhs is None:
            prof = _divided_pass(full, [y[i] for i in S], k)
            lhs = lhs_of[bs] = {j: sum(map(mul, coeffs[j], prof)) for j in js}
        for j in js:
            if lhs[j] != eigs[j] * bs:
                mism[j] += 1
                if j not in witness:
                    witness[j] = {
                        "S": list(S),
                        "lhs": lhs[j],
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
    one divided pass per distinct subset sum and is contracted against the
    closed-form coefficients.
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


def _kneser_apply(n: int, j: int, k: int, bj: Sequence[int]) -> list[int]:
    """Wbar_jk^T bj: entry S, over the colex k-subsets, sums bj over the j-subsets missing S.

    By inclusion-exclusion on the actual bj, entry S is the sum over A
    inside S with |A| <= j of (-1)^|A| U(A), where U(A) sums bj over the
    j-subsets holding A. The signed U comes from one walk over each
    j-subset's 2^j subsets: C(n, j) 2^j <= C(n, j) C(n, k) visits, since
    2^j <= C(2j, j) <= C(n, k) when j <= k and j <= n - k. When j > n - k
    no j-subset misses a k-subset and every entry is 0, with no visits.
    Otherwise, by Vandermonde, the sum over |A| <= j takes at most C(n, j)
    lookups per S. Both stay within the C(n, j) C(n, k) entries that
    verify_wilson_identities charges for its packed rows.
    """
    if j > n - k:
        return [0] * binomial(n, k)
    signed: dict[int, int] = {}
    for ym, bv in zip(masks_colex(n, j), bj):
        sub = ym
        while True:
            signed[sub] = signed.get(sub, 0) + (-bv if sub.bit_count() & 1 else bv)
            if not sub:
                break
            sub = (sub - 1) & ym
    get, sizes = signed.__getitem__, range(j + 1)
    return [
        sum(map(get, map(sum, chain.from_iterable([combinations(bits, a) for a in sizes]))))
        for bits in colex([(1 << i,) for i in range(n)], k, ())
    ]


def verify_wilson_identities(X: WeightVector, j: int, k: int) -> LemmaReport:
    """Exact checks of the three inclusion/Kneser product identities.

    (a) W_jk W_1k^T is two-valued: C(n-j, k-j) where the singleton lies in
        the j-subset, C(n-j-1, k-j-1) elsewhere.
    (b) W_jk W_1k^T x = C(n-j-1, k-j) W_1j^T x.
    (c) Wbar_jk^T W_1j^T x = -C(n-k-1, j-1) W_1k^T x.

    For (a) the n rows of W_1k are packed, one int of C(n, k) bits each,
    and each row of W_jk is the AND of its j-subset's rows, so each entry
    is one AND and a popcount. (b) takes one pass over y and one divided
    pass per j-subset, and (c) comes from _kneser_apply. The C(n, j) + n
    packed rows of C(n, k) entries are charged, and so are the steps of
    (b)'s passes.
    """
    n = X.n
    if not (1 <= k <= n and 0 <= j <= k):
        raise ValueError(f"need 1 <= k <= n and 0 <= j <= k, got n={n}, k={k}, j={j}")
    charge((binomial(n, j) + n) * binomial(n, k), f"entries of C({n},{j}) + {n} packed rows of C({n},{k})")
    charge(
        _pass_steps(n, k) + binomial(n, j) * _divided_steps(j, k),
        f"steps of one pass over {n} items and C({n},{j}) divided passes",
    )
    y, _ = X.scaled_ints()
    jsets = subsets_colex(n, j)
    b = colex(y, k)
    bj = colex(y, j)

    # (a) entries of W_jk W_1k^T: count k-supersets of (j-subset union singleton)
    in_val = binomial(n - j, k - j)
    out_val = binomial(n - j - 1, k - j - 1)
    singles, full = _singletons(n, k)
    mism_a = 0
    witness_a = None
    for Y in jsets:
        row = _meet(singles, full, Y)
        for t, single in enumerate(singles):
            got = (row & single).bit_count()
            want = in_val if t in Y else out_val
            if got != want:
                mism_a += 1
                if witness_a is None:
                    witness_a = {"S": list(Y), "t": t, "got": got, "want": want}

    # (b) (W_jk b)_Y, the k-subsets meeting Y in j places, against C(n-j-1, k-j) * b_Y
    coef_b = binomial(n - j - 1, k - j)
    full_pass = _size_pass(y, k)
    mism_b = 0
    for Y, bY in zip(jsets, bj):
        if _divided_pass(full_pass, [y[i] for i in Y], k)[j] != coef_b * bY:
            mism_b += 1

    # (c) Wbar_jk^T (W_1j^T x) against -C(n-k-1, j-1) * (k-subset sums)
    coef_c = -binomial(n - k - 1, j - 1)
    mism_c = sum(1 for lhs, bs in zip(_kneser_apply(n, j, k, bj), b) if lhs != coef_c * bs)

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
