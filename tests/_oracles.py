"""Brute-force reference implementations, kept independent of the package.

Everything here goes through itertools.combinations and direct Fraction
sums so that a bug in the library's generation or DP machinery cannot hide
behind itself.
"""

from fractions import Fraction
from itertools import combinations, groupby, product
from math import comb, prod
from sys import int_info


class BinomialTable:
    """Pascal-rule table of C(a, b) for 0 <= b <= a <= n_max.

    Built by integer additions only, which makes it an independent
    cross-check for binomial() (math.comb under the hood).
    """

    def __init__(self, n_max):
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        self.n_max = n_max
        rows = [[1]]
        for a in range(1, n_max + 1):
            prev = rows[-1]
            rows.append([1] + [prev[b - 1] + prev[b] for b in range(1, a)] + [1])
        self._rows = rows

    def get(self, a, b):
        """Table lookup with the same zero extension as binomial()."""
        if a < 0 or b < 0 or b > a:
            return 0
        if a > self.n_max:
            raise ValueError(f"a={a} exceeds table bound n_max={self.n_max}")
        return self._rows[a][b]


_ATOM_WANTS = {
    "contains": lambda hits: hits == 1,
    "intersects": lambda hits: hits >= 1,
    "disjoint": lambda hits: hits == 0,
}


def satisfies(atoms, subset):
    """Whether a subset meets every atom (anything with .kind and .indices)."""
    return all(_ATOM_WANTS[a.kind](len(a.indices & set(subset))) for a in atoms)


def brute_count(values, k, pred=None):
    n = len(values)
    total = 0
    for subset in combinations(range(n), k):
        if pred is not None and not pred(subset):
            continue
        if sum((values[i] for i in subset), Fraction(0)) >= 0:
            total += 1
    return total


def brute_family(values, k, pred=None):
    n = len(values)
    out = []
    for subset in combinations(range(n), k):
        if pred is not None and not pred(subset):
            continue
        if sum((values[i] for i in subset), Fraction(0)) >= 0:
            out.append(subset)
    return out


def brute_restricted_sum(values, k, pred):
    n = len(values)
    total = Fraction(0)
    for subset in combinations(range(n), k):
        if pred(subset):
            total += sum((values[i] for i in subset), Fraction(0))
    return total


def brute_colex_rank(indices, n):
    k = len(indices)
    ordered = sorted(combinations(range(n), k), key=lambda t: t[::-1])
    return ordered.index(tuple(indices))


def rank_colex(subset):
    """Colex rank of a k-subset (a KSubset or increasing indices): sum over positions i of C(s_i, i+1).

    The rank does not depend on the ambient n, so lists over different
    ground sets agree on shared prefixes.
    """
    indices = tuple(getattr(subset, "indices", subset))
    if any(a >= b for a, b in zip(indices, indices[1:])):
        raise ValueError("indices must be strictly increasing")
    return sum(comb(s, pos + 1) for pos, s in enumerate(indices))


def unrank_colex(r, k, n):
    """The k-subset of {0..n-1} with colex rank r, as an increasing tuple.

    Greedy from the top position down: the largest c with C(c, pos) <= the
    remaining rank is the element at pos.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    if not 0 <= r < comb(n, k):
        raise ValueError(f"rank {r} outside [0, {comb(n, k)}) for (n={n}, k={k})")
    out = [0] * k
    rem = r
    c = n
    for pos in range(k, 0, -1):
        c -= 1
        while comb(c, pos) > rem:
            c -= 1
        rem -= comb(c, pos)
        out[pos - 1] = c
    return tuple(out)


def size_pass_closed_form(items, k):
    """(counts, sums) for j = 0..k: the number of j-subsets of items and the sum of their sums.

    There are C(m, j) of them, and each of the m items lies in C(m-1, j-1),
    so their sums total C(m-1, j-1) * sum(items); the sum is 0 at j = 0 or
    m = 0, and both are 0 for j > m.
    """
    m, total = len(items), sum(items)
    counts = [comb(m, j) for j in range(k + 1)]
    sums = [comb(m - 1, j - 1) * total if j and m else 0 for j in range(k + 1)]
    return counts, sums


def brute_overlap_profile(values, k, block):
    """Entry t, for t = 0..min(k, |block|): the sum of the subset sums of
    the k-subsets that meet block in exactly t places."""
    block = set(block)
    out = [0] * (min(k, len(block)) + 1)
    for subset in combinations(range(len(values)), k):
        out[len(block & set(subset))] += sum(values[i] for i in subset)
    return out


def brute_counts_all_k(int_values):
    """Nonnegative subset counts for every size at once, one sweep of 2^n."""
    n = len(int_values)
    counts = [0] * (n + 1)
    for mask in range(1 << n):
        s = 0
        size = 0
        m = mask
        i = 0
        while m:
            if m & 1:
                s += int_values[i]
                size += 1
            m >>= 1
            i += 1
        if s >= 0:
            counts[size] += 1
    return counts


def eigen_per_subset(y, k, eigs, size_pass, divided_pass):
    """({j: mismatches}, {j: first witness}) of the eigenvector check, one divided pass per k-subset.

    The per-subset loop of the check, given the package's two passes: for
    every k-subset S of range(len(y)), in colex order by sorting, the
    overlap profile of S is divided_pass(size_pass(y, k), S's values, k),
    and its contraction with C(k - t, j) at each j in eigs is held
    against eigs[j] * b_S.
    """
    full = size_pass(y, k)
    mism = {j: 0 for j in eigs}
    witness = {}
    for S in sorted(combinations(range(len(y)), k), key=lambda t: t[::-1]):
        bs = sum(y[i] for i in S)
        prof = divided_pass(full, [y[i] for i in S], k)
        for j, eig in eigs.items():
            lhs = sum(comb(k - t, j) * p for t, p in enumerate(prof))
            if lhs != eig * bs:
                mism[j] += 1
                witness.setdefault(j, {"S": list(S), "lhs": lhs, "rhs": eig * bs})
    return mism, witness


def brute_inclusion_matrix(n, j, k):
    """Rows indexed by j-sets, columns by k-sets, both in colex order."""
    jsets = sorted(combinations(range(n), j), key=lambda t: t[::-1])
    ksets = sorted(combinations(range(n), k), key=lambda t: t[::-1])
    return [
        [1 if set(J) <= set(K) else 0 for K in ksets]
        for J in jsets
    ]


def brute_kneser_matrix(n, j, k):
    jsets = sorted(combinations(range(n), j), key=lambda t: t[::-1])
    ksets = sorted(combinations(range(n), k), key=lambda t: t[::-1])
    return [
        [1 if not set(J) & set(K) else 0 for K in ksets]
        for J in jsets
    ]


def bose_mesner_entry(S, T, j):
    """Closed-form entry C(k - |S intersect T|, j) of the j-th product matrix, for two KSubsets."""
    if S.n != T.n or S.k != T.k:
        raise ValueError("S and T must be k-subsets of the same ground set")
    return comb(S.k - len(set(S.indices) & set(T.indices)), j)


def matmul(A, B):
    rows = len(A)
    inner = len(B)
    cols = len(B[0])
    out = [[0] * cols for _ in range(rows)]
    for r in range(rows):
        Ar = A[r]
        for i in range(inner):
            a = Ar[i]
            if a:
                Bi = B[i]
                row = out[r]
                for c in range(cols):
                    row[c] += a * Bi[c]
    return out


def transpose(A):
    return [list(col) for col in zip(*A)]


def filtered_candidates(n, max_distinct, value_range):
    """The search grid's candidates, built head by head and filtered after.

    Every strictly decreasing head tuple in [-value_range, value_range] is
    taken from itertools.combinations; the zero-sum last value is solved
    from it and the candidate kept only when that value stays below the
    last head. Yields (multiplicities, values scaled by the last
    multiplicity, that multiplicity), in the search's order.
    """
    yield (n,), (0,), 1
    grid = range(value_range, -value_range - 1, -1)
    for d in range(2, max_distinct + 1):
        for cuts in combinations(range(1, n), d - 1):
            mults = tuple(b - a for a, b in zip((0,) + cuts, cuts + (n,)))
            den = mults[-1]
            for heads in combinations(grid, d - 1):
                num = -sum(m * v for m, v in zip(mults, heads))
                if num < heads[-1] * den:
                    yield mults, tuple(v * den for v in heads) + (num,), den


def space_candidates(space):
    """(multiplicities, values scaled by the last multiplicity, that multiplicity) per candidate.

    The single value 0 first, then each of space.rows() flattened, the last
    head v running from hi down to lo with the last value (base - m_head * v) / den.
    """
    yield (space.n,), (0,), 1
    for mults, prefix, base, hi, lo in space.rows():
        m_head, den = mults[-2:]
        for v in range(hi, lo - 1, -1):
            yield mults, tuple(h * den for h in prefix) + (v * den, base - m_head * v), den


def threshold_count(mults, scaled, k):
    """The search's count of one candidate, by a per-prefix threshold.

    The candidate has d >= 2 strictly decreasing integer values scaled with
    multiplicities mults. For each prefix (c_1..c_{d-2}) of a composition of
    k, the sum rises with c_{d-1} by w_{d-1} - w_d > 0, so the nonnegative
    compositions are those with c_{d-1} at or past one threshold, found by
    a floor division; each is weighted by its product of math.comb
    factors. Builds no table and shares no code with the package.
    """
    *head, m_last, m_final = mults
    w_last, w_final = scaled[-2:]
    dw = w_last - w_final
    total = 0
    for prefix in product(*(range(min(m, k) + 1) for m in head)):
        rem = k - sum(prefix)
        base = sum(c * w for c, w in zip(prefix, scaled)) + rem * w_final
        weight = prod(comb(m, c) for m, c in zip(head, prefix))
        for c in range(max(0, rem - m_final, -(base // dw)), min(m_last, rem) + 1):
            total += weight * comb(m_last, c) * comb(m_final, rem - c)
    return total


def pattern_pairs(values):
    """The (value, multiplicity) runs of a sorted vector: the pairs of its MultiplicityPattern."""
    return tuple((v, len(list(run))) for v, run in groupby(values))


def dp_updates(pairs, k):
    """Dict updates the pattern DP makes on (scaled value, multiplicity) pairs, in their order.

    Before the i-th value, level j holds the distinct sums of the
    j-multisets of the earlier values (at most m copies of each) that the
    values after the last one used can still fill to k, listed here by
    brute force. Each state takes one update per copy count c from
    max(1, k - j - rest) to min(m, k - j), rest being the multiplicity
    after the i-th value.
    """
    rests = [sum(m for _, m in pairs[i + 1:]) for i in range(len(pairs))]
    updates = 0
    for i, (_, m) in enumerate(pairs):
        seen = pairs[:i]
        for j in range(k):
            sums = set()
            for cs in product(*(range(mm + 1) for _, mm in seen)):
                used = [t for t, c in enumerate(cs) if c]
                if sum(cs) == j and (not used or k - j <= rests[used[-1]]):
                    sums.add(sum(c * w for c, (w, _) in zip(cs, seen)))
            updates += len(sums) * len(range(max(1, k - j - rests[i]), min(m, k - j) + 1))
    return updates


def gf_units(items, j):
    """(bits held, bits written, shift-adds) of the generating-function loop, counted as it runs.

    The loop adds the items in ascending order, P[s+1] += P[s] << (v - lo)*w
    over s descending, with w one bit more than the largest C(m, s), s <= j.
    Each shift-add writes level s + 1 whole: its slots are its bit length
    rounded up to w, because every slot holds less than 2^(w-1).
    """
    items = sorted(items)
    m = len(items)
    if not 1 <= j <= m:
        return 0, 0, 0
    w = comb(m, min(j, m // 2)).bit_length() + 1

    def slots(level):
        return -(-level.bit_length() // w) * w

    P = [1] + [0] * j
    written = ops = 0
    for seen, v in enumerate(items):
        for s in range(min(seen, j - 1), -1, -1):
            P[s + 1] += P[s] << (v - items[0]) * w
            written += slots(P[s + 1])
            ops += 1
    return sum(map(slots, P)), written, ops


def colex_entries(items, k, empty, built):
    """colex(items, k, empty), rebuilt level by level; appends the entries it builds, level 0 included, to built."""
    n = len(items)
    level = [empty]
    count = 1
    for j in range(1, k + 1):
        level = [s + items[t] for t in range(j - 1, n - k + j) for s in level[: comb(t, j - 1)]]
        count += len(level)
    built.append(count)
    return level


def pass_steps(items, k):
    """Inner steps of the (count, sum) pass over items up to size k, counted as it runs."""
    steps = 0
    for seen in range(len(items)):
        steps += len(range(min(seen, k - 1), -1, -1))
    return steps


def divided_steps(items, k):
    """Inner steps of the divided pass for a block of items: its own pass, the division and the profile."""
    top = min(k, len(items))
    division = sum(len(range(1, min(u, top) + 1)) for u in range(k + 1))
    return pass_steps(items, k) + division + top + 1


def dp_steps(pairs, k, step_bits):
    """(updates, steps) of the pattern DP on (scaled value, multiplicity) pairs, counted as it runs.

    One per level dict past 0, and per update one plus a * b //
    (step_bits * bits_per_digit) for the bit lengths a and b of the ways and
    the binomial it multiplies.
    """
    n = sum(m for _, m in pairs)
    levels = [{0: 1}] + [{} for _ in range(k)]
    updates, steps, seen = 0, k, 0
    for w, m in pairs:
        rest = n - seen - m
        for j in range(min(seen, k - 1), -1, -1):
            for c in range(max(1, k - j - rest), min(m, k - j) + 1):
                times = comb(m, c)
                for s, ways in levels[j].items():
                    levels[j + c][s + c * w] = levels[j + c].get(s + c * w, 0) + ways * times
                    updates += 1
                    steps += 1 + ways.bit_length() * times.bit_length() // (step_bits * int_info.bits_per_digit)
        seen += m
    return updates, steps


def replay_partition(values, k, rest, rng, trials):
    """Z over consecutive shuffles of one list by one generator, recomputed directly.

    Each trial shuffles the same list (a copy of rest) in place with rng,
    splits the order into consecutive k-blocks and counts the blocks whose
    Fraction sum is >= 0. Returns (least Z, mean Z as a Fraction, the
    first three orders as tuples).
    """
    perm = list(rest)
    zs = []
    firsts = []
    for t in range(trials):
        rng.shuffle(perm)
        blocks = [perm[a : a + k] for a in range(0, len(perm), k)]
        zs.append(sum(1 for b in blocks if sum((values[i] for i in b), Fraction(0)) >= 0))
        if t < 3:
            firsts.append(tuple(perm))
    return min(zs), Fraction(sum(zs), trials), firsts


def render_text(doc):
    """The text report as one string, line list joined at the end; tuples are arrays."""
    lines = [f"{key}: {doc[key]}" for key in ("command", "verdict", "runtime_ms")]
    for key in ("inputs", "report"):
        lines.append(f"{key}:")
        _text_lines(doc[key], 1, lines)
    return "\n".join(lines) + "\n"


def _text_lines(value, indent, lines):
    pad = "  " * indent
    containers = (dict, list, tuple)
    if isinstance(value, dict):
        for key in sorted(value):
            item = value[key]
            if isinstance(item, containers) and item:
                lines.append(f"{pad}{key}:")
                _text_lines(item, indent + 1, lines)
            else:
                rendered = item if not isinstance(item, containers) else "{}" if item == {} else "[]"
                lines.append(f"{pad}{key}: {rendered}")
    elif isinstance(value, (list, tuple)):
        for item in value:
            if isinstance(item, containers):
                lines.append(f"{pad}-")
                _text_lines(item, indent + 1, lines)
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
