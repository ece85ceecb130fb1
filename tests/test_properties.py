from collections import Counter
from fractions import Fraction
from itertools import combinations, groupby
from math import prod
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from mmsverify import counting, scheme
from mmsverify.combinat import KSubset, binomial, colex
from mmsverify.counting import (
    Atom,
    MultiplicityPattern,
    Restriction,
    _divided_pass,
    _dp_updates,
    _gf_count,
    _size_pass,
    _split_count,
    count_nonnegative,
    count_nonnegative_dp,
    overlap_sums,
    restricted_sum,
)
from mmsverify.lemmas import single_overlap_coefficient
from mmsverify.scheme import verify_eigenvector, verify_eigenvector_all, verify_wilson_identities
from mmsverify.weights import gen_random_zero_sum, gen_star, normalize

from _oracles import (
    brute_count,
    brute_family,
    brute_overlap_profile,
    brute_restricted_sum,
    colex_entries,
    divided_steps,
    dp_steps,
    dp_updates,
    eigen_per_subset,
    gf_units,
    pass_steps,
    pattern_pairs,
    rank_colex,
    satisfies,
    size_pass_closed_form,
    unrank_colex,
    wilson_b_per_subset,
)


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
    assert len(subset) == k and subset[-1] < n


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
    y, _ = X.scaled_ints()
    assert sum(colex(y, k)) == 0


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


@st.composite
def rational_vectors(draw, n_max=9):
    """Zero-sum vectors whose entries share a denominator drawn from 1, 2, 3, 6, 10."""
    n = draw(st.integers(min_value=1, max_value=n_max))
    den = draw(st.sampled_from((1, 2, 3, 6, 10)))
    head = draw(st.lists(st.integers(min_value=-12, max_value=12), min_size=n - 1, max_size=n - 1))
    return normalize([Fraction(v, den) for v in head] + [Fraction(-sum(head), den)])


@given(st.one_of(zero_sum_vectors(n_min=2, n_max=10), rational_vectors()), st.data())
def test_dp_agrees_with_enumeration_both_orders(X, data):
    # shared denominators make different values reach equal sums, so states merge
    k = data.draw(st.integers(min_value=1, max_value=X.n))
    pattern = MultiplicityPattern(pattern_pairs(X.values))
    y, _ = X.scaled_ints()
    _, direct = _split_count(y, X.n, k, ())
    assert count_nonnegative_dp(pattern, k) == direct
    assert count_nonnegative_dp(pattern, k, reverse=True) == direct


@given(rational_vectors(), st.data())
def test_dp_budget_bounds_the_updates_in_both_orders(X, data):
    k = data.draw(st.integers(min_value=1, max_value=X.n))
    y, _ = X.scaled_ints()
    pairs = [(w, len(list(run))) for w, run in groupby(y)]
    for order in (pairs, pairs[::-1]):
        assert _dp_updates(order, k) >= dp_updates(order, k)


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
    split = _split_count(y, n, k, atoms)
    total = sum(1 for s in combinations(range(n), k) if satisfies(atoms, s))
    brute = brute_count(X.values, k, lambda s: satisfies(atoms, s))
    assert gf == split == (total, brute)
    restriction = Restriction(atoms)
    assert restricted_sum(X, k, restriction) == brute_restricted_sum(
        X.values, k, lambda s: satisfies(atoms, s)
    )


@settings(max_examples=300, deadline=None)
@given(rational_vectors(n_max=7), st.data())
def test_star_equality_agrees_with_the_brute_family(X, data):
    # equality with C(n-1, k-1) holds on about two in five of these draws,
    # and about one in eight of those families is not the star
    n = X.n
    k = data.draw(st.integers(min_value=1, max_value=n))
    report = count_nonnegative(X, k)
    if report.nonnegative_count != binomial(n - 1, k - 1):
        assert report.star_equality is None
    else:
        star = [s for s in combinations(range(n), k) if 0 in s]
        assert report.star_equality == (brute_family(X.values, k) == star)


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
    y, _ = flipped.scaled_ints()
    strictly_pos = sum(1 for s in colex(y, k) if s > 0)
    assert nonneg + strictly_pos == binomial(X.n, k)


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=12))
def test_colex_rank_is_ambient_independent(start, k):
    # the rank of a subset does not depend on n
    indices = tuple(range(start, start + k))
    small = KSubset(indices, start + k)
    large = KSubset(indices, start + k + 7)
    assert rank_colex(small) == rank_colex(large)


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=12), st.data())
def test_size_pass_matches_its_closed_form(items, data):
    # the pass adds item by item; the closed form counts C(m, j) subsets
    # and C(m-1, j-1) * sum(items) in their sums
    k = data.draw(st.integers(min_value=0, max_value=len(items) + 3))
    assert _size_pass(items, k) == size_pass_closed_form(items, k)


@given(st.lists(st.integers(min_value=-50, max_value=50), max_size=9), st.data())
def test_divided_pass_matches_brute_profiles(y, data):
    # the rest's (count, sum) series is the whole's divided by the block's
    n = len(y)
    k = data.draw(st.integers(min_value=0, max_value=n))
    block = data.draw(st.sets(st.sampled_from(range(n))) if n else st.just(set()))
    got = _divided_pass(_size_pass(y, k), [y[i] for i in sorted(block)], k)
    assert got == brute_overlap_profile(y, k, block)


@pytest.mark.parametrize(
    "k,block",
    [(2, set()), (3, {0, 1, 2, 3, 4}), (5, {0, 1, 2, 3, 4}), (4, {0, 2, 3}), (5, {1})],
)
def test_divided_pass_at_the_edges(k, block):
    # the empty block, the whole set, and k > n - |block|, where every
    # k-subset meets the block in at least k - (n - |block|) places
    y = [3, -1, 4, -1, -5]
    got = _divided_pass(_size_pass(y, k), [y[i] for i in sorted(block)], k)
    assert got == brute_overlap_profile(y, k, block)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=-(10**9), max_value=10**9), max_size=8))
def test_divided_pass_is_affine_in_the_block_sum(y):
    # any integers, not only zero-sum vectors: at every level, every block's
    # divided pass is alpha + slope * (block sum) entry for entry, with the
    # kernel given a pass over y to a level at or above its own
    n = len(y)
    full = _size_pass(y, n)
    for level in range(n + 1):
        own = _size_pass(y, level)
        kernels = [scheme._affine(full, size, level) for size in range(n + 1)]
        for mask in range(1 << n):
            items = [v for i, v in enumerate(y) if mask >> i & 1]
            alpha, slope = kernels[len(items)]
            assert _divided_pass(own, items, level) == [a + b * sum(items) for a, b in zip(alpha, slope)]


@given(zero_sum_vectors(n_max=8, magnitude=40), st.data())
def test_wilson_b_matches_the_per_subset_oracle(X, data):
    # the affine kernel and the count from subset sums give Wilson (b)'s
    # mismatches as one divided pass per j-subset does, with the true
    # coefficient and with one off by one
    n = X.n
    k = data.draw(st.integers(min_value=1, max_value=n))
    j = data.draw(st.integers(min_value=0, max_value=k))
    y, _ = X.scaled_ints()
    coef = binomial(n - j - 1, k - j)
    alpha, slope = scheme._affine(_size_pass(y, k), j, k)
    for off in (0, 1):
        want = wilson_b_per_subset(y, j, k, coef + off, _size_pass, _divided_pass)
        assert scheme._mismatches(y, j, alpha[j], slope[j], coef + off) == want
        if not off:
            assert verify_wilson_identities(X, j, k).claims[1].lhs == want == 0


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(min_value=-30, max_value=30), max_size=9), st.data())
def test_exact_sums_and_mismatches_match_the_tally(y, data):
    # any integers, not only zero-sum or sorted ones, at every size m, 0
    # included: the exact-sum counts are the Counter of all m-subset sums,
    # and the mismatch count is the tally of the failing sums, at an
    # integer root, a root between two integers, slope = coef with a != 0
    # and with a = 0, and one drawn line
    n = len(y)
    m = data.draw(st.integers(min_value=0, max_value=n))
    tally = Counter(colex(y, m))
    for s in sorted(tally) + [min(tally) - 1, max(tally) + 1, Fraction(1, 2), Fraction(-7, 3)]:
        assert counting._count_exact(y, m, s) == tally[s], s
    coef = data.draw(st.integers(min_value=-5, max_value=5))
    root = data.draw(st.sampled_from(sorted(tally)))
    drawn = tuple(data.draw(st.integers(min_value=-40, max_value=40)) for _ in range(2))
    for a, slope in ((-3 * root, coef + 3), (-2 * root - 1, coef + 2), (1, coef), (0, coef), drawn):
        want = sum(c for s, c in tally.items() if a + slope * s != coef * s)
        assert scheme._mismatches(y, m, a, slope, coef) == want, (a, slope, coef)


@settings(max_examples=150, deadline=None)
@given(st.one_of(rational_vectors(), zero_sum_vectors(n_max=12, magnitude=500)), st.data())
def test_gf_and_two_list_charges_equal_the_units_they_count(X, data):
    # the GF's bits held, bits written and shift-adds, and every entry colex
    # builds for the two lists, counted by oracles that rerun each loop
    n = X.n
    k = data.draw(st.integers(min_value=1, max_value=n))
    atoms = data.draw(conjunctions(n))
    y, _ = X.scaled_ints()
    terms = counting._terms(n, atoms)
    for _, items, j, _ in counting._plain(y, terms, k):
        assert counting._gf_size(items, j) == gf_units(items, j)
    built = []
    with patch.object(counting, "colex", lambda items, c, empty=0: colex_entries(items, c, empty, built)):
        assert _split_count(y, n, k, atoms) == _gf_count(y, n, k, atoms)
    assert sum(built) == counting._listed(terms, k)


def _charges(module, call):
    """The works charged through module.charge while call runs."""
    charged = []
    real = module.charge

    def spy(work, what, hint=""):
        charged.append(work)
        real(work, what, hint)

    with patch.object(module, "charge", spy):
        call()
    return charged


@settings(max_examples=100, deadline=None)
@given(zero_sum_vectors(n_max=8, magnitude=50), st.data())
def test_pass_and_dp_charges_bound_the_units_they_count(X, data):
    n = X.n
    y, _ = X.scaled_ints()
    k = data.draw(st.integers(min_value=0, max_value=n))
    block = sorted(data.draw(st.sets(st.sampled_from(range(n)))))
    (charged,) = _charges(counting, lambda: overlap_sums(X, k, block))
    assert pass_steps(y, k) + divided_steps([y[i] for i in block], k) <= charged
    k = max(k, 1)
    j = data.draw(st.integers(min_value=0, max_value=k))
    counted, divided = [], []

    def size_pass(items, k):
        counted.append(pass_steps(items, k))
        return _size_pass(items, k)

    def divided_pass(full, items, k):
        counted.append(divided_steps(items, k))
        divided.append(len(items))
        return _divided_pass(full, items, k)

    def product(factors):
        factors = list(factors)
        counted.append(len(factors))
        return prod(factors)

    with patch.multiple(scheme, _size_pass=size_pass, _divided_pass=divided_pass, prod=product):
        (charged,) = _charges(scheme, lambda: verify_wilson_identities(X, j, k))
    # one pass over y and, for identity (a), a product of C(n - j, .)'s
    # factors and one of C(n - j - 1, .)'s (none when j = k); one divided
    # pass of j items (none if j = 0) and one of k items, shared with the
    # first when j = k
    assert len(counted) - len(divided) == 2 + (j < k)
    assert sorted(divided) == sorted([j] * (j > 0) + [k] * (j < k))
    assert sum(counted) <= charged
    pairs = [(w, len(list(run))) for w, run in groupby(y)]
    for order in (pairs, pairs[::-1]):
        assert dp_steps(order, k, counting._STEP_BITS)[1] <= _dp_updates(order, k)


@pytest.mark.parametrize("n", range(2, 13))
def test_eigenvector_charges_bound_the_steps_they_count(n):
    # every pass, division and contraction step, at every k < n and j <= k,
    # with the true eigenvalues and with each one off by one: exactly one
    # divided pass per call, and no subset listed (colex is not called);
    # the counts of zero sums charge counting's own budget
    X = gen_random_zero_sum(n, 20, seed=n)
    counted = []
    divided = []

    def size_pass(items, k):
        counted.append(pass_steps(items, k))
        return _size_pass(items, k)

    def divided_pass(full, items, k):
        counted.append(divided_steps(items, k))
        divided.append(k)
        return _divided_pass(full, items, k)

    def mul(a, b):
        counted.append(1)
        return a * b

    def listed(*args, **kwargs):
        raise AssertionError("the eigenvector check listed subsets")

    real = scheme.bose_mesner_eigenvalue
    for off in (0, 1):
        with patch.multiple(
            scheme,
            _size_pass=size_pass,
            _divided_pass=divided_pass,
            mul=mul,
            colex=listed,
            subsets_colex=listed,
            bose_mesner_eigenvalue=lambda n, k, j: real(n, k, j) + off,
        ):
            for k in range(1, n):
                for call in [lambda: verify_eigenvector_all(X, k)] + [
                    lambda j=j: verify_eigenvector(X, j, k) for j in range(k + 1)
                ]:
                    counted.clear()
                    divided.clear()
                    (charged,) = _charges(scheme, call)
                    assert len(divided) == 1 and sum(counted) <= charged, (n, k, off)


@st.composite
def two_valued_vectors(draw, n_max=9):
    """p copies of (n - p) * c and n - p copies of -p * c: zero-sum, two values."""
    n = draw(st.integers(min_value=2, max_value=n_max))
    p = draw(st.integers(min_value=1, max_value=n - 1))
    c = draw(st.sampled_from((1, 3, Fraction(1, 2))))
    return normalize([(n - p) * c] * p + [-p * c] * (n - p))


eigen_vectors = st.one_of(
    zero_sum_vectors(n_min=2, n_max=9, magnitude=12),
    rational_vectors(n_max=9),
    st.integers(min_value=2, max_value=9).map(gen_star),
    two_valued_vectors(),
)


@settings(max_examples=120, deadline=None)
@given(eigen_vectors, st.data())
def test_per_sum_profiles_match_the_per_subset_oracle(X, data):
    # the mismatch counts and witnesses of every j, with the true eigenvalues
    # and with each patched off by one, are the oracle's, and each call makes
    # exactly one divided pass, of a one and k - 1 zeros: x sums to zero,
    # so the pass of k zeros is known to be 0
    assume(X.n >= 2 and not X.is_zero())
    n = X.n
    k = data.draw(st.integers(min_value=1, max_value=n - 1))
    y, _ = X.scaled_ints()
    real = scheme.bose_mesner_eigenvalue
    calls = []

    def divided_pass(full, items, k):
        calls.append(sum(items))
        return _divided_pass(full, items, k)

    for off in (0, 1):
        eigs = {j: real(n, k, j) + off for j in range(k + 1)}
        mism, witness = eigen_per_subset(y, k, eigs, _size_pass, _divided_pass)
        assert off or not any(mism.values())
        with patch.multiple(
            scheme, _divided_pass=divided_pass, bose_mesner_eigenvalue=lambda n, k, j: real(n, k, j) + off
        ):
            calls.clear()
            report = verify_eigenvector_all(X, k)
            assert calls == [1]
            assert [c.lhs for c in report.claims[1:]] == [mism[j] for j in range(k + 1)]
            assert (report.witness or {}) == witness
            for j in range(k + 1):
                calls.clear()
                report = verify_eigenvector(X, j, k)
                assert calls == [1]
                assert report.claims[1].lhs == mism[j] and report.witness == witness.get(j)


def test_dp_charge_weighs_wide_products():
    # counts of up to about 600 and 300 bits make products worth more than
    # one step each, and the charge still bounds the steps
    pairs = [(1, 300), (0, 300), (-1, 300)]
    for order in (pairs, pairs[::-1]):
        updates, steps = dp_steps(order, 450, counting._STEP_BITS)
        assert updates < steps <= _dp_updates(order, 450)
