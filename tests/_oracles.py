"""Brute-force reference implementations, kept independent of the package.

Everything here goes through itertools.combinations and direct Fraction
sums so that a bug in the library's generation or DP machinery cannot hide
behind itself.
"""

from fractions import Fraction
from itertools import combinations


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


def revolving_door(n, k):
    """The revolving-door list R(n, k) by its recursive definition.

    R(n, k) = R(n-1, k) ++ [S + {n-1} for S in reversed(R(n-1, k-1))], with
    singleton lists at k == 0 and k == n (Knuth, TAOCP 4A, 7.2.1.3).
    """
    if k == 0 or k == n:
        return [tuple(range(k))]
    head = revolving_door(n - 1, k)
    tail = [S + (n - 1,) for S in reversed(revolving_door(n - 1, k - 1))]
    return head + tail


def revolving_door_deltas(n, k):
    """(removed, added) transitions between consecutive subsets of R(n, k)."""
    order = revolving_door(n, k)
    out = []
    for prev, cur in zip(order, order[1:]):
        (rem,) = set(prev) - set(cur)
        (add,) = set(cur) - set(prev)
        out.append((rem, add))
    return out


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
