"""Johnson-scheme structure matrices and exact operator identities.

The inclusion matrix W has a 1 at (Y, S) when the j-subset Y lies inside the
k-subset S; the Kneser variant Wbar marks Y disjoint from S. Their exact
integer product Wbar^T W depends only on intersection sizes, and the vector
of k-subset sums of a zero-sum weight vector is an eigenvector of it.
Subsets are indexed in combinat.colex order, and the kernels here are
built on colex's own recursion: the m-subsets with top index t are the
first C(t, m-1) colex (m-1)-subsets, each joined to t. The checks pack,
once and by shifts, the n rows "subsets holding i" into one int each, bit c
for the c-th subset; an inclusion row is the AND of its subset's rows, a
Kneser row the complement of their OR, and an inner product is an AND and
a popcount. A StructureMatrix keeps its rows packed the same way, and the
CLI prints each from its int; its row and column index arrays are
ColexIndex objects, made as they are printed. Sums of b by overlap with a
block come from counting's divided pass, which is affine in the block's sum
(_affine): one divided pass gives the left-hand side a + slope b_S of every
row of the eigenvector check and of Wilson's identities (b) and (c). A row
fails unless its sum is the one root of a + slope s = coef s, so the
failures are counted from subset sums (_mismatches) and no subset is
listed; for a zero-sum x, a is 0 and the verdict rests on slope = coef.
Wilson's identity (a) takes two values fixed by (n, j, k), read off two
short passes. Before any work, ENUM_BUDGET caps the entries built or
packed, the pass steps and the factorization's pairs.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod
from operator import mul
from typing import Sequence

from .combinat import _Record, binomial, charge, colex, subsets_colex
from .counting import _count_exact, _divided_pass, _divided_steps, _pass_steps, _size_pass
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


_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _unpack(row: int, width: int) -> tuple[int, ...]:
    """The bits 0..width-1 of row, low bit first."""
    return tuple(format(row, f"0{width}b")[::-1].encode().translate(_BITS))


def _singletons(n: int, m: int) -> tuple[list[int], int]:
    """(rows, full) over the colex m-subsets of range(n): row i packs those holding i, full all of them.

    Built level by level, as colex builds its lists: the r-subsets with
    top index t are the first C(t, r-1) colex (r-1)-subsets, each joined
    to t, at bits C(t, r) on. So row t gains C(t, r-1) ones there and
    each row i < t the low C(t, r-1) bits of its level r-1 row, shifted
    into place: m n^2 / 2 shifts of packed ints, where testing each
    subset's mask for each i takes C(n, m) n steps.

    The m-subsets holding every index of Y are the AND of Y's rows
    (_meet); those missing every index of Y are the complement of their
    OR (_miss).
    """
    rows = [0] * n  # level 0, the empty set, holds no index
    for r in range(1, m + 1):
        nxt = [0] * n
        for t in range(r - 1, n - m + r):
            at, low = binomial(t, r), (1 << binomial(t, r - 1)) - 1
            for i in range(t):
                nxt[i] |= (rows[i] & low) << at
            nxt[t] = low << at
        rows = nxt
    return rows, (1 << binomial(n, m)) - 1


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
    km = colex([1 << i for i in range(n)], k)
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


def _affine(full: tuple[list[int], list[int]], size: int, level: int) -> tuple[list[int], list[int]]:
    """(alpha, slope): entry t of the divided pass of any block of size items with sum s is alpha[t] + slope[t] * s.

    full is a (count, sum) pass over y to level or beyond; the division
    reads it only to level. A block's own pass is (C(size, a),
    C(size-1, a-1) s) at every size a, and the division is linear in the
    sum series, so the blocks of size zeros and of a one and size-1 zeros
    give alpha and alpha + slope. When full's sums are all zero, as for a
    zero-sum y, alpha is 0 with no pass: the block of zeros has s_in = 0,
    so the division's s_out = s_full - (c_in s_out + s_in c_out) is 0 term
    by term, and so is every entry s_in c_out + c_in s_out. The empty
    block has sum 0 and a zero slope, so at most one pass is made for
    a zero-sum y.
    """
    alpha = _divided_pass(full, [0] * size, level) if any(full[1]) else [0] * (min(size, level) + 1)
    if not size:
        return alpha, [0] * len(alpha)
    one = _divided_pass(full, [1] + [0] * (size - 1), level)
    return alpha, [u - a for u, a in zip(one, alpha)]


def _mismatches(y: Sequence[int], m: int, a: int, slope: int, coef: int) -> int:
    """The m-subsets S of y whose left-hand side a + slope b_S is not coef b_S.

    With slope = coef that is none when a = 0 and every one otherwise;
    else every one but those whose sum b_S is the root -a / (slope - coef),
    counted by counting._count_exact. No subset is listed.
    """
    if slope == coef:
        return binomial(len(y), m) if a else 0
    return binomial(len(y), m) - _count_exact(y, m, Fraction(-a, slope - coef))


def _eigen_claims(X: WeightVector, k: int, js: Sequence[int]) -> tuple[list[Claim], dict]:
    """Claims and witnesses of the eigenvector check at each j in js.

    Row S of (Wbar^T W) b is the contraction, against C(k - t, j), of
    the divided pass of S's own k items, so each j's left-hand side is
    a_j + slope_j b_S, contracted from _affine, and _mismatches counts the
    failing rows from the sums alone. x sums to zero, so a_j is 0 and a
    row fails exactly when slope_j != eig_j and b_S != 0. The first colex
    subset, S = range(k), holds the k largest entries, and for a nonzero
    zero-sum x with k < n their sum is positive: so that row fails
    whenever any row does, and it is the witness. The charge is one pass
    over y, one divided pass and its two contractions at each j; the
    counts of zero sums are charged by counting._count.
    """
    n = X.n
    if X.is_zero():
        raise ValueError("eigenvector check needs a nonzero weight vector")
    if k == n:
        raise ValueError(
            f"eigenvector check needs k < n, got k = n = {n}: the only k-subset is the whole "
            "ground set, whose sum is 0, so b is the zero vector"
        )
    charge(
        _pass_steps(n, k) + _divided_steps(k, k) + 2 * (k + 1) * len(js),
        f"steps of one pass over {n} items, a divided pass of {k} items and its contractions",
    )
    y, _ = X.scaled_ints()
    nonzero = claim("b is not the zero vector", binomial(n, k) - _count_exact(y, k, 0), ">", 0)
    alpha, slopes = _affine(_size_pass(y, k), k, k)
    bs = sum(y[:k])
    claims, witness = [nonzero], {}
    for j in js:
        coeffs, eig = [binomial(k - m, j) for m in range(k + 1)], bose_mesner_eigenvalue(n, k, j)
        a, slope = sum(map(mul, coeffs, alpha)), sum(map(mul, coeffs, slopes))
        mism = _mismatches(y, k, a, slope, eig)
        if mism:
            witness[j] = {"S": list(range(k)), "lhs": a + slope * bs, "rhs": eig * bs}
        note = f"eigenvalue -C(k-1,{j}-1)*C(n-{j}-1,k-1) = {eig}"
        claims.append(claim(f"(Wbar^T W) b == {eig} * b componentwise at j={j}", mism, "==", 0, note=note))
    return claims, witness


def verify_eigenvector(X: WeightVector, j: int, k: int) -> LemmaReport:
    """Check the j-th product matrix maps b to eigenvalue * b, exactly.

    Matrix-free: each row's left-hand side is affine in its subset sum,
    read off _affine's divided pass contracted against the closed-form
    coefficients.
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


def _two_valued(n: int, j: int, k: int, in_val: int, out_val: int) -> tuple[int, dict | None]:
    """(mismatches, witness) of W_jk W_1k^T held to in_val where t lies in Y and out_val elsewhere.

    Entry (Y, t) counts the k-supersets of Y | {t}, so it depends only on
    m = |Y | {t}|, j or j + 1: it is 0 when m > k, and otherwise the
    number of (k - m)-subsets of the other n - m items, or of their
    complements, the (n - k)-subsets: C(n - m, r) at the lower level r,
    the product of r falling factors over r!, a route apart from the
    math.comb values it is held to. Each of the C(n, j) rows has j
    entries inside and n - j outside. The first entry in row-major colex
    order is (range(j), 0), inside unless j = 0, and the first outside
    one is (range(j), j).
    """
    cj = binomial(n, j)
    mism, witness = 0, None
    for m, t, want, entries in ((j, 0, in_val, j * cj), (j + 1, j, out_val, (n - j) * cj)):
        r = min(k - m, n - k)
        got = prod(range(n - m - r + 1, n - m + 1)) // factorial(r) if m <= k else 0
        if entries and got != want:
            mism += entries
            witness = witness or {"S": list(range(j)), "t": t, "got": got, "want": want}
    return mism, witness


def verify_wilson_identities(X: WeightVector, j: int, k: int) -> LemmaReport:
    """Exact checks of the three inclusion/Kneser product identities.

    (a) W_jk W_1k^T is two-valued: C(n-j, k-j) where the singleton lies in
        the j-subset, C(n-j-1, k-j-1) elsewhere.
    (b) W_jk W_1k^T x = C(n-j-1, k-j) W_1j^T x.
    (c) Wbar_jk^T W_1j^T x = -C(n-k-1, j-1) W_1k^T x.

    (a) does not depend on x: _two_valued computes both values, charged
    one step per factor. (W_jk b)_Y sums b over the k-subsets meeting Y
    in j places, entry j of Y's divided pass; (Wbar_jk^T bj)_S sums bj
    over the j-subsets missing S, entry 0 of S's divided pass at level j.
    Both are affine in the block's sum, so after one pass over y each
    identity takes one divided pass from _affine, one serving both when
    j = k, and _mismatches counts its failing rows from the sums. The
    steps of every pass are charged.
    """
    n = X.n
    if not (1 <= k <= n and 0 <= j <= k):
        raise ValueError(f"need 1 <= k <= n and 0 <= j <= k, got n={n}, k={k}, j={j}")
    charge(
        _pass_steps(n, k) + _divided_steps(j, k) + (j < k) * _divided_steps(k, j)
        + sum(min(k - m, n - k) for m in (j, j + 1) if m <= k),
        f"steps of the passes over {n} items and of the divided passes of blocks of {j} and {k} items",
    )
    y, _ = X.scaled_ints()
    in_val = binomial(n - j, k - j)
    out_val = binomial(n - j - 1, k - j - 1)
    mism_a, witness_a = _two_valued(n, j, k, in_val, out_val)

    # (b) (W_jk b)_Y against C(n-j-1, k-j) * b_Y, and (c) (Wbar_jk^T bj)_S
    # against -C(n-k-1, j-1) * b_S; the pass over y to level k serves level j
    passes = _size_pass(y, k)
    alpha_b, slope_b = _affine(passes, j, k)
    alpha_c, slope_c = (alpha_b, slope_b) if j == k else _affine(passes, k, j)
    coef_b = binomial(n - j - 1, k - j)
    mism_b = _mismatches(y, j, alpha_b[j], slope_b[j], coef_b)
    coef_c = -binomial(n - k - 1, j - 1)
    mism_c = _mismatches(y, k, alpha_c[0], slope_c[0], coef_c)

    cj = binomial(n, j)
    checks = (
        (f"W_jk W_1k^T two-valued ({in_val} inside, {out_val} outside) on {cj * n} entries", mism_a),
        (f"W_jk W_1k^T x == {coef_b} * W_1j^T x on {cj} entries", mism_b),
        (f"Wbar_jk^T W_1j^T x == {coef_c} * W_1k^T x on {binomial(n, k)} entries", mism_c),
    )
    return LemmaReport(
        name="inclusion-product-identities",
        preconditions=tuple(_param_echo(n=n, j=j, k=k)),
        claims=tuple(claim(what, mism, "==", 0) for what, mism in checks),
        witness=witness_a,
    )
