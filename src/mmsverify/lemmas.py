"""Instance verifiers for the counting bounds behind the main theorem.

Each verifier takes an explicit weight vector (and sometimes a distinguished
subset) and evaluates the claimed identities and inequalities in exact
arithmetic, returning a report. A 'violated' verdict on met preconditions
means the mathematical claim failed on that instance, not a tooling error.

Index blocks, for a sorted vector: A is the top block {0..k-1}; C is the
k-set {0} U {k..2k-2}, the largest-sum k-set meeting A only in the top index.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .combinat import ENUM_BUDGET, KSubset, binomial, charge
from .counting import Restriction, count_nonnegative, nonnegative_family, overlap_sums, star_family_size
from .report import LemmaReport, Precondition, claim, vacuous
from .weights import WeightVector

__all__ = [
    "simulate_partition",
    "single_overlap_coefficient",
    "verify_contains_top_bound",
    "verify_disjoint_bound",
    "verify_intersecting_bound",
    "verify_mms_bound",
    "verify_scalar_inequalities",
    "verify_second_block_bound",
]

WITNESS_FAMILY_CAP = 4096


def top_block(k: int) -> tuple[int, ...]:
    return tuple(range(k))


def second_block(k: int) -> tuple[int, ...]:
    return (0,) + tuple(range(k, 2 * k - 1))


def single_overlap_coefficient(n: int, k: int) -> int:
    """Coefficient of b_A in the sum of b_S over |S & A| = 1.

    Equals C(n-k-1, k-1) - (k-1) C(n-k-1, k-2); nonnegative exactly when
    n >= k^2.
    """
    return binomial(n - k - 1, k - 1) - (k - 1) * binomial(n - k - 1, k - 2)


def _b_at(X: WeightVector, indices: tuple[int, ...]) -> Fraction:
    return sum((X.values[i] for i in indices), Fraction(0))


def verify_intersecting_bound(X: WeightVector, k: int) -> LemmaReport:
    """Sums and count of nonnegative k-subsets meeting the top block.

    Exact identities: the sum of b_S over S disjoint from A is
    -C(n-k-1, k-1) b_A, and over S meeting A it is +C(n-k-1, k-1) b_A.
    Count bound: strictly more than C(n-k-1, k-1) nonnegative subsets meet A.
    The count bound needs k >= 2 (for k = 1 only one subset meets A at all).
    """
    n = X.n
    pre = (
        Precondition("n >= 2k", n, n >= 2 * k),
        Precondition("k >= 2", k, k >= 2),
        Precondition("X is nonzero", not X.is_zero(), not X.is_zero()),
    )
    if any(not p.satisfied for p in pre):
        return LemmaReport("intersecting-bound", pre, ())
    A = top_block(k)
    b_A = _b_at(X, A)
    coef = binomial(n - k - 1, k - 1)
    sums = overlap_sums(X, k, A)
    meets = count_nonnegative(X, k, Restriction.intersects(*A)).nonnegative_count
    return LemmaReport(
        name="intersecting-bound",
        preconditions=pre,
        claims=(
            claim(
                "sum of b_S over S disjoint from A == -C(n-k-1,k-1) * b_A",
                sums[0],
                "==",
                -coef * b_A,
            ),
            claim(
                "sum of b_S over S meeting A == C(n-k-1,k-1) * b_A",
                sum(sums[1:], Fraction(0)),
                "==",
                coef * b_A,
            ),
            claim(
                "nonnegative subsets meeting A exceed C(n-k-1,k-1)",
                meets,
                ">",
                coef,
            ),
        ),
        extra={"b_A": b_A, "coefficient": coef},
    )


def verify_second_block_bound(X: WeightVector, k: int) -> LemmaReport:
    """Single-overlap sum identity and the conditional lower bound on b_C.

    Unconditional: sum of b_S over |S & A| = 1 equals
    (C(n-k-1,k-1) - (k-1) C(n-k-1,k-2)) b_A. Conditional: when n >= k^2 and
    the nonnegative count is at most C(n-1,k-1), the second block C keeps
    b_C >= (1 - (2k-1)(k-1)/(n-2k+1)) b_A.
    """
    n = X.n
    if k < 1:  # k > n fails the n >= 2k precondition
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    pre = (
        Precondition("n >= 2k", n, n >= 2 * k),
        Precondition("X is nonzero", not X.is_zero(), not X.is_zero()),
    )
    if any(not p.satisfied for p in pre):
        return LemmaReport("second-block-bound", pre, ())
    A = top_block(k)
    b_A = _b_at(X, A)
    b_C = _b_at(X, second_block(k))
    gamma = single_overlap_coefficient(n, k)
    sums = overlap_sums(X, k, A)
    ident = claim(
        "sum of b_S over |S & A| == 1 equals the single-overlap coefficient times b_A",
        sums[1],
        "==",
        gamma * b_A,
    )
    count = count_nonnegative(X, k).nonnegative_count
    bound = star_family_size(n, k)
    if n >= k * k and count <= bound:
        rhs = (1 - Fraction((2 * k - 1) * (k - 1), n - 2 * k + 1)) * b_A
        cond = claim("b_C >= (1 - (2k-1)(k-1)/(n-2k+1)) * b_A", b_C, ">=", rhs)
    else:
        reason = "n < k^2" if n < k * k else f"count {count} exceeds C(n-1,k-1) = {bound}"
        cond = vacuous(
            "b_C >= (1 - (2k-1)(k-1)/(n-2k+1)) * b_A",
            f"vacuous: hypothesis not met ({reason})",
        )
    return LemmaReport(
        name="second-block-bound",
        preconditions=pre,
        claims=(ident, cond),
        extra={"b_A": b_A, "b_C": b_C, "count": count, "bound": bound, "coefficient": gamma},
    )


def verify_contains_top_bound(X: WeightVector, k: int) -> LemmaReport:
    """Conditional floor on nonnegative subsets through the top index.

    If the total nonnegative count is at most C(n-1,k-1), then at least
    (1 - (6k-3)(k-1)/(n-2k+1)) C(n-1,k-1) of them contain index 0.
    """
    n = X.n
    pre = (
        Precondition("n >= k^2", n, n >= k * k),
        Precondition("X is nonzero", not X.is_zero(), not X.is_zero()),
    )
    if any(not p.satisfied for p in pre):
        return LemmaReport("contains-top-bound", pre, ())
    count = count_nonnegative(X, k).nonnegative_count
    bound = star_family_size(n, k)
    if count <= bound:
        through_top = count_nonnegative(X, k, Restriction.contains(0)).nonnegative_count
        rhs = (1 - Fraction((6 * k - 3) * (k - 1), n - 2 * k + 1)) * bound
        cond = claim(
            "nonnegative subsets containing index 0 >= (1 - (6k-3)(k-1)/(n-2k+1)) * C(n-1,k-1)",
            Fraction(through_top),
            ">=",
            rhs,
        )
        extra = {"count": count, "bound": bound, "through_top": through_top}
    else:
        cond = vacuous(
            "nonnegative subsets containing index 0 >= (1 - (6k-3)(k-1)/(n-2k+1)) * C(n-1,k-1)",
            f"vacuous: count {count} exceeds C(n-1,k-1) = {bound}",
        )
        extra = {"count": count, "bound": bound}
    return LemmaReport(
        name="contains-top-bound",
        preconditions=pre,
        claims=(cond,),
        extra=extra,
    )


def verify_disjoint_bound(X: WeightVector, k: int, T: KSubset) -> LemmaReport:
    """Nonnegative k-subsets avoiding a negative-sum k-set T.

    At least C(n-2k, k-1) of them exist, and that floor itself dominates
    (1 - (2k-1)(k-1)/(n-2k+1)) C(n-1,k-1).
    """
    n = X.n
    if T.n != n or T.k != k:
        raise ValueError(f"T must be a {k}-subset of the same ground set (n={n})")
    b_T = _b_at(X, T.indices)
    pre = (
        Precondition("b_T < 0", b_T, b_T < 0),
        Precondition("n >= 3k-1", n, n >= 3 * k - 1),
    )
    if any(not p.satisfied for p in pre):
        return LemmaReport("disjoint-bound", pre, (), extra={"T": list(T.indices), "b_T": b_T})
    floor = binomial(n - 2 * k, k - 1)
    disjoint_count = count_nonnegative(
        X, k, Restriction.disjoint(*T.indices)
    ).nonnegative_count
    scalar_rhs = (1 - Fraction((2 * k - 1) * (k - 1), n - 2 * k + 1)) * star_family_size(n, k)
    return LemmaReport(
        name="disjoint-bound",
        preconditions=pre,
        claims=(
            claim(
                "nonnegative subsets disjoint from T >= C(n-2k,k-1)",
                disjoint_count,
                ">=",
                floor,
            ),
            claim(
                "C(n-2k,k-1) >= (1 - (2k-1)(k-1)/(n-2k+1)) * C(n-1,k-1)",
                Fraction(floor),
                ">=",
                scalar_rhs,
            ),
        ),
        extra={"T": list(T.indices), "b_T": b_T, "disjoint_count": disjoint_count},
    )


def simulate_partition(
    X: WeightVector, k: int, T: KSubset, trials: int = 10_000, seed: int = 0
) -> LemmaReport:
    """Sample random k-block partitions avoiding an augmented negative set.

    With n = mk + r, the set U is T plus the r smallest leftover weights
    (value ties resolved toward larger indices). Each trial shuffles the
    remaining (m-1)k indices in place and splits the order into m-1
    consecutive blocks; Z counts blocks with nonnegative sum. All trials
    draw from one random.Random(seed): they are consecutive Fisher-Yates
    passes over the same list, each uniform whatever order it starts from.
    The passes make the draws of CPython's random.Random.shuffle (as 3.10
    and 3.11 implement it), inlined, and swap the leftover scaled values
    rather than their indices; only the three witness trials swap the
    indices, so every report is the one that shuffling the indices in
    every trial gives. From trial 3 on each block's sum is added up as
    the pass fixes its positions, and Z is counted from those sums
    without slicing the list. Python does not promise shuffle's draws across
    versions; test_simulate_partition_is_one_stream_of_consecutive_shuffles
    replays random.Random.shuffle itself and guards the equivalence.
    Z >= 1 must hold in every trial, and the empirical mean is held against the
    exact expectation (m-1) |F| / C((m-1)k, k) within five standard errors.
    With zero sample variance, a mean equal to it is claimed as that
    equality; a mean that differs means every trial drew the same Z, an
    empty band, and the claim is recorded as vacuous, a sampling artefact
    rather than a violation. Before any count or
    trial, the trials * (m-1) * k indices shuffled in all are checked
    against ENUM_BUDGET, and a refusal names the largest trials that fit.
    """
    n = X.n
    if T.n != n or T.k != k:
        raise ValueError(f"T must be a {k}-subset of the same ground set (n={n})")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:  # random.Random(-s) draws the stream of random.Random(s)
        raise ValueError(f"seed must be >= 0, got {seed}")
    b_T = _b_at(X, T.indices)
    if b_T >= 0:
        raise ValueError(f"T must have negative sum, got b_T = {b_T}")
    m, r = divmod(n, k)
    if m < 2:
        raise ValueError(f"need n >= 2k for at least one leftover block, got n={n}, k={k}")
    charge(
        trials * (m - 1) * k,
        f"indices shuffled by trials={trials} of {(m - 1) * k} each",
        f"at most {ENUM_BUDGET // ((m - 1) * k)} trials fit at n={n}, k={k}",
    )
    in_T = set(T.indices)
    tail: list[int] = []
    if r:
        for i in range(n - 1, -1, -1):
            if i not in in_T:
                tail.append(i)
                if len(tail) == r:
                    break
    U = tuple(sorted(in_T | set(tail)))
    in_U = set(U)
    rest = [i for i in range(n) if i not in in_U]
    y, _ = X.scaled_ints()
    if sum(y[i] for i in U) >= 0:
        raise AssertionError("U = T + smallest leftovers must keep a negative sum")

    fam = count_nonnegative(X, k, Restriction.disjoint(*U)).nonnegative_count
    blocks = m - 1
    exact_e = Fraction(blocks * fam, binomial(blocks * k, k))

    rng = random.Random(seed)
    draw = rng.getrandbits
    # random.Random.shuffle's own draws, inlined: from the last position i
    # down to 1, j = getrandbits((i + 1).bit_length()), redrawn while j > i,
    # then positions i and j swap
    plan = [(i, i + 1, (i + 1).bit_length()) for i in range(len(rest) - 1, 0, -1)]
    # a pass fixes position i once it has swapped, and block b is positions
    # bk..bk+k-1, so from trial 3 on the value swapped into i joins its
    # block's sum. block_plans holds the plan's steps block by block, top
    # block first; the bottom block's lack position 0 (all of it at k = 1),
    # whose value joins that block's sum when the pass ends
    block_plans = [plan[a : a + k] for a in range(0, blocks * k, k)]
    perm = rest[:]
    cuts = range(0, blocks * k, k)
    tally = [0] * (blocks + 1)
    samples: list[dict] = []
    for t in range(trials):
        if t < 3:  # the witness trials swap the indices; trial 0 binds vals
            for i, bound, width in plan:
                j = draw(width)
                while j >= bound:
                    j = draw(width)
                perm[i], perm[j] = perm[j], perm[i]
            vals = [y[i] for i in perm]
            z = 0
            for a in cuts:
                if sum(vals[a : a + k]) >= 0:
                    z += 1
            parts = [sorted(perm[a : a + k]) for a in cuts]
            samples.append({"trial": t, "permutation": perm[:], "parts": parts, "Z": z})
        else:
            sums = []
            for steps in block_plans:
                s = 0
                for i, bound, width in steps:
                    j = draw(width)
                    while j >= bound:
                        j = draw(width)
                    v = vals[j]
                    vals[j] = vals[i]
                    vals[i] = v
                    s += v
                sums.append(s)
            sums[-1] += vals[0]
            z = 0
            for s in sums:
                if s >= 0:
                    z += 1
        tally[z] += 1
    sum_z = sum(z * c for z, c in enumerate(tally))
    sum_z2 = sum(z * z * c for z, c in enumerate(tally))
    min_z = next(z for z, c in enumerate(tally) if c)

    mean = Fraction(sum_z, trials)
    if trials > 1:
        variance = (Fraction(sum_z2) - trials * mean * mean) / (trials - 1)
    else:
        variance = Fraction(0)
    se = math.sqrt(float(variance) / trials)
    pigeonhole = claim("Z >= 1 in every trial", min_z, ">=", 1)
    band = "abs(empirical mean - exact expectation) <= 5 standard errors"
    if se == 0.0 and mean == exact_e:
        tolerance = claim(
            "empirical mean equals the exact expectation (zero sample variance)",
            mean,
            "==",
            exact_e,
        )
    elif se == 0.0:  # every trial drew the same Z: a sampling artefact, not a verdict
        tolerance = vacuous(
            band,
            f"vacuous: zero sample variance leaves the five-standard-error band empty; "
            f"exact expectation {exact_e}, empirical mean {mean}",
        )
    else:
        tolerance = claim(
            band,
            abs(float(mean - exact_e)),
            "<=",
            5.0 * se,
            note=f"exact expectation {exact_e}, empirical mean {mean}, se {se!r}",
        )
    return LemmaReport(
        name="partition-average",
        preconditions=(
            Precondition("b_T < 0", b_T, True),
            Precondition("m >= 2", m, True),
        ),
        claims=(pigeonhole, tolerance),
        witness=samples,
        extra={
            "m": m,
            "r": r,
            "U": list(U),
            "family_size": fam,
            "exact_expectation": exact_e,
            "empirical_mean": mean,
            "std_error": se,
            "min_Z": min_z,
            "trials": trials,
            "seed": seed,
        },
    )


def verify_scalar_inequalities(n: int, k: int) -> LemmaReport:
    """The scalar identity and inequality chain used by the final bound.

    (a) C(n-k-1,k-1) - (k-1) C(n-k-1,k-2) == (1 - (k-1)^2/(n-2k+1)) C(n-k-1,k-1),
        exact in rationals.
    (b) C(n-k-1,k-1)/C(n-1,k-1) >= (1 - k/(n-k+1))^(k-1) >= 1 - k(k-1)/(n-k+1),
        strict for k >= 3, equalities at k <= 2.
    (c) 2 - (8k-4)(k-1)/(n-2k+1) > 1 whenever n >= 8k^2.
    """
    pre = (
        Precondition("n >= 2k+1", n, n >= 2 * k + 1),
        Precondition("k >= 1", k, k >= 1),
    )
    if any(not p.satisfied for p in pre):
        return LemmaReport("scalar-inequalities", pre, ())
    coef = single_overlap_coefficient(n, k)
    factored = (1 - Fraction((k - 1) ** 2, n - 2 * k + 1)) * binomial(n - k - 1, k - 1)
    ident = claim(
        "single-overlap coefficient == (1 - (k-1)^2/(n-2k+1)) * C(n-k-1,k-1)",
        Fraction(coef),
        "==",
        factored,
    )
    ratio = Fraction(binomial(n - k - 1, k - 1), binomial(n - 1, k - 1))
    middle = Fraction(n - 2 * k + 1, n - k + 1) ** (k - 1)
    tail = 1 - Fraction(k * (k - 1), n - k + 1)
    rel = ">" if k >= 3 else ">="
    note = "" if k >= 3 else "equality at k <= 2, strict for k >= 3"
    chain1 = claim(
        "C(n-k-1,k-1)/C(n-1,k-1) dominates (1 - k/(n-k+1))^(k-1)", ratio, rel, middle, note
    )
    chain2 = claim(
        "(1 - k/(n-k+1))^(k-1) dominates 1 - k(k-1)/(n-k+1)", middle, rel, tail, note
    )
    final_val = 2 - Fraction((8 * k - 4) * (k - 1), n - 2 * k + 1)
    if n >= 8 * k * k:
        final = claim("2 - (8k-4)(k-1)/(n-2k+1) > 1 for n >= 8k^2", final_val, ">", 1)
    else:
        final = vacuous(
            "2 - (8k-4)(k-1)/(n-2k+1) > 1 for n >= 8k^2",
            f"vacuous: n = {n} < 8k^2 = {8 * k * k}; value is {final_val}",
        )
    return LemmaReport(
        name="scalar-inequalities",
        preconditions=pre,
        claims=(ident, chain1, chain2, final),
        extra={"single_overlap_coefficient": coef, "final_value": final_val},
    )


def verify_mms_bound(X: WeightVector, k: int) -> LemmaReport:
    """The headline count bound, with the equality case pinned to the star.

    Checks nonnegative count >= C(n-1,k-1); on equality, checks the family
    is exactly the k-subsets through index 0. Outside the n >= 8k^2
    hypothesis the counts are still reported, flagged by the precondition.
    """
    n = X.n
    pre = (Precondition("n >= 8k^2", n, n >= 8 * k * k),)
    cr = count_nonnegative(X, k)
    bound = star_family_size(n, k)
    count = cr.nonnegative_count
    main = claim("nonnegative count >= C(n-1,k-1)", count, ">=", bound)
    if count == bound:
        star = claim(
            "equality case: the family is the star on index 0",
            cr.star_equality,
            "==",
            True,
        )
    else:
        star = vacuous(
            "equality case: the family is the star on index 0",
            f"vacuous: count {count} != bound {bound}",
        )
    witness = None
    if binomial(n, k) <= WITNESS_FAMILY_CAP:
        witness = [list(s) for s in nonnegative_family(X, k)]
    return LemmaReport(
        name="count-bound",
        preconditions=pre,
        claims=(main, star),
        witness=witness,
        extra={"count": count, "bound": bound},
    )
