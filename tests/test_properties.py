from fractions import Fraction
from itertools import combinations

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmsverify.combinat import KSubset, binomial, rank_colex, unrank_colex
from mmsverify.counting import (
    Atom,
    MultiplicityPattern,
    Restriction,
    _gf_count,
    _walk_count,
    count_nonnegative,
    count_nonnegative_dp,
    overlap_sums,
    restricted_sum,
)
from mmsverify.lemmas import single_overlap_coefficient
from mmsverify.scheme import verify_eigenvector_all
from mmsverify.weights import normalize, subset_sums

from _oracles import brute_count, brute_restricted_sum, satisfies


@st.composite
def nk(draw, n_max=12):
    n = draw(st.integers(min_value=1, max_value=n_max))
    k = draw(st.integers(min_value=1, max_value=n))
    return n, k


@st.composite
def zero_sum_vectors(draw, n_min=2, n_max=9, magnitude=9):
    n = draw(st.integers(min_value=n_min, max_value=n_max))
    head = draw(
        st.lists(
            st.integers(min_value=-magnitude, max_value=magnitude),
            min_size=n - 1,
            max_size=n - 1,
        )
    )
    return normalize(head + [-sum(head)])


@given(nk(), st.data())
def test_colex_rank_unrank_round_trip(pair, data):
    n, k = pair
    r = data.draw(st.integers(min_value=0, max_value=binomial(n, k) - 1))
    subset = unrank_colex(r, k, n)
    assert rank_colex(subset) == r
    assert subset.n == n and subset.k == k


@given(st.integers(min_value=-6, max_value=12), st.integers(min_value=-6, max_value=12))
def test_extended_binomial_pascal_rule(a, b):
    assume(not (a == 0 and b == 0))
    assert binomial(a, b) == binomial(a - 1, b - 1) + binomial(a - 1, b)


@given(zero_sum_vectors(), st.data())
def test_count_matches_brute_oracle(X, data):
    k = data.draw(st.integers(min_value=1, max_value=X.n))
    assert count_nonnegative(X, k).nonnegative_count == brute_count(X.values, k)


@given(zero_sum_vectors(), st.data())
def test_top_block_sum_is_always_counted(X, data):
    # the k largest of a zero-sum vector always have nonnegative sum
    k = data.draw(st.integers(min_value=1, max_value=X.n))
    assert sum(X.values[:k]) >= 0
    assert count_nonnegative(X, k).nonnegative_count >= 1


@given(zero_sum_vectors(n_min=3), st.data())
def test_subset_sums_telescope_to_zero(X, data):
    k = data.draw(st.integers(min_value=1, max_value=X.n - 1))
    ss = subset_sums(X, k)
    assert sum(ss) == 0


@given(zero_sum_vectors(n_min=4, n_max=8), st.data())
def test_restriction_conjunction_matches_predicate(X, data):
    n = X.n
    k = data.draw(st.integers(min_value=1, max_value=n))
    i = data.draw(st.integers(min_value=0, max_value=n - 1))
    j = data.draw(st.integers(min_value=0, max_value=n - 1))
    assume(i != j)
    restriction = Restriction.contains(i) & Restriction.disjoint(j)
    got = count_nonnegative(X, k, restriction).nonnegative_count
    assert got == brute_count(X.values, k, lambda s: i in s and j not in s)


@given(zero_sum_vectors(n_min=4, n_max=8), st.data())
def test_overlap_sums_partition_the_restricted_sum(X, data):
    n = X.n
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    block = tuple(range(data.draw(st.integers(min_value=1, max_value=min(3, n - 1)))))
    sums = overlap_sums(X, k, block)
    meets = restricted_sum(X, k, Restriction.intersects(*block))
    assert sum(sums[1:], Fraction(0)) == meets
    assert sums[0] == brute_restricted_sum(
        X.values, k, lambda s: not set(block) & set(s)
    )


@given(zero_sum_vectors(n_min=2, n_max=10), st.data())
def test_dp_agrees_with_enumeration_both_orders(X, data):
    k = data.draw(st.integers(min_value=1, max_value=X.n))
    pattern = MultiplicityPattern.from_weights(X)
    y, _ = X.scaled_ints()
    _, direct = _walk_count(y, X.n, k, ())
    assert count_nonnegative_dp(pattern, k) == direct
    assert count_nonnegative_dp(pattern, k, reverse=True) == direct


@st.composite
def rational_vectors(draw, n_max=9):
    """Zero-sum vectors whose entries share a denominator drawn from 1, 2, 3, 6, 10."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    den = draw(st.sampled_from((1, 2, 3, 6, 10)))
    head = draw(st.lists(st.integers(min_value=-12, max_value=12), min_size=n - 1, max_size=n - 1))
    return normalize([Fraction(v, den) for v in head] + [Fraction(-sum(head), den)])


@st.composite
def conjunctions(draw, n):
    """Up to four atoms of any kind; index sets of any size, so disjoint may drop most of the set."""
    atoms = []
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        kind = draw(st.sampled_from(("contains", "intersects", "disjoint")))
        indices = draw(st.sets(st.integers(min_value=0, max_value=n - 1), min_size=1, max_size=n))
        atoms.append(Atom(kind, frozenset(indices)))
    return tuple(atoms)


@settings(max_examples=300, deadline=None)
@given(rational_vectors(), st.data())
def test_generating_function_equals_walk_equals_brute(X, data):
    n = X.n
    k = data.draw(st.integers(min_value=1, max_value=n))
    atoms = data.draw(conjunctions(n))
    y, _ = X.scaled_ints()
    gf = _gf_count(y, n, k, atoms)
    walk = _walk_count(y, n, k, atoms)
    total = sum(1 for s in combinations(range(n), k) if satisfies(atoms, s))
    brute = brute_count(X.values, k, lambda s: satisfies(atoms, s))
    assert gf == walk == (total, brute)
    restriction = Restriction(atoms)
    assert restricted_sum(X, k, restriction) == brute_restricted_sum(
        X.values, k, lambda s: satisfies(atoms, s)
    )


@given(st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=8))
def test_shift_to_zero_subtracts_the_mean(head):
    total = sum(head)
    assume(total >= 0)
    X = normalize(head, mode="shift-to-zero")
    assert X.shift == Fraction(total, len(head))
    assert sum(X.values) == 0


@given(nk(n_max=30))
def test_single_overlap_coefficient_factored_form(pair):
    n, k = pair
    assume(n >= 2 * k)
    lhs = Fraction(single_overlap_coefficient(n, k))
    rhs = (1 - Fraction((k - 1) ** 2, n - 2 * k + 1)) * binomial(n - k - 1, k - 1)
    assert lhs == rhs


@settings(max_examples=40, deadline=None)
@given(zero_sum_vectors(n_min=4, n_max=7, magnitude=12), st.data())
def test_eigenvector_identities_hold_for_any_zero_sum_vector(X, data):
    assume(not X.is_zero())
    k = data.draw(st.integers(min_value=1, max_value=X.n - 1))
    assert verify_eigenvector_all(X, k).verdict == "verified"


@given(zero_sum_vectors(n_min=3, n_max=9), st.data())
def test_nonnegative_and_negative_counts_are_complementary(X, data):
    k = data.draw(st.integers(min_value=1, max_value=X.n))
    flipped = normalize([-v for v in X.values])
    nonneg = count_nonnegative(X, k).nonnegative_count
    # sums of -X that are strictly positive are exactly the negatives of X
    strictly_pos = sum(1 for s in subset_sums(flipped, k) if s > 0)
    assert nonneg + strictly_pos == binomial(X.n, k)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
def test_colex_rank_is_ambient_independent(start, k):
    # the rank of a subset does not depend on n
    indices = tuple(range(start, start + k))
    small = KSubset(indices, start + k)
    large = KSubset(indices, start + k + 7)
    assert rank_colex(small) == rank_colex(large)
