import time
from fractions import Fraction

import pytest

from mmsverify import scheme
from mmsverify.combinat import KSubset, binomial, colex
from mmsverify.counting import _size_pass
from mmsverify.scheme import (
    bose_mesner_eigenvalue,
    build_structure_matrix,
    subsets_colex,
    verify_eigenvector,
    verify_eigenvector_all,
    verify_factorization,
    verify_wilson_identities,
)
from mmsverify.weights import gen_random_zero_sum, gen_star, normalize

from _oracles import (
    bose_mesner_entry,
    brute_inclusion_matrix,
    brute_kneser_matrix,
    matmul,
    singleton_rows,
    transpose,
    two_valued_per_entry,
)


def test_subsets_colex_ordering():
    got = subsets_colex(4, 2)
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert subsets_colex(5, 0) == [()]


def test_shifted_singleton_rows_match_the_mask_testing_oracle():
    for n in range(11):
        for m in range(n + 1):
            assert scheme._singletons(n, m) == singleton_rows(n, m), (n, m)


def test_structure_matrices_match_brute():
    # row r packs entry (r, c) in bit c; dense_rows() gives the entries back
    for n in range(2, 9):
        for k in range(1, n + 1):
            for j in range(0, k + 1):
                for kind, brute in (("inclusion", brute_inclusion_matrix), ("kneser", brute_kneser_matrix)):
                    want = brute(n, j, k)
                    M = build_structure_matrix(kind, n, j, k)
                    assert M.rows == tuple(sum(v << c for c, v in enumerate(r)) for r in want)
                    assert M.dense_rows() == tuple(tuple(r) for r in want)
                    assert M.shape == (binomial(n, j), binomial(n, k))


def test_build_structure_matrix_input_errors():
    with pytest.raises(ValueError):
        build_structure_matrix("inclusion", 4, 3, 2)  # j > k
    with pytest.raises(ValueError):
        build_structure_matrix("projection", 4, 1, 2)
    with pytest.raises(ValueError):
        build_structure_matrix("inclusion", 40, 3, 8)


def test_build_at_j_0_packs_no_singleton_rows():
    # one row of C(1500,2) = 1,124,250 entries; packing 1,500 singleton rows
    # for it would take 1,500 times the charged entries
    started = time.perf_counter()
    for kind in ("inclusion", "kneser"):
        assert build_structure_matrix(kind, 1500, 0, 2).rows == ((1 << binomial(1500, 2)) - 1,)
    assert time.perf_counter() - started < 2.0


def test_bose_mesner_entry_is_kneser_times_inclusion():
    n, j, k = 6, 2, 3
    W = brute_inclusion_matrix(n, j, k)
    Wbar = brute_kneser_matrix(n, j, k)
    product = matmul(transpose(Wbar), W)
    subsets = subsets_colex(n, k)
    for a, S in enumerate(subsets):
        for b, T in enumerate(subsets):
            entry = bose_mesner_entry(KSubset(S, n), KSubset(T, n), j)
            assert entry == product[a][b]
            assert entry == binomial(k - len(set(S) & set(T)), j)


def test_verify_factorization_small_grid():
    for n in range(2, 7):
        for k in range(1, min(4, n) + 1):
            for j in range(0, k + 1):
                report = verify_factorization(n, j, k)
                assert report.verdict == "verified", (n, j, k)


def test_eigenvalue_closed_form():
    assert bose_mesner_eigenvalue(8, 3, 0) == 0
    assert bose_mesner_eigenvalue(8, 3, 1) == -binomial(6, 2)
    assert bose_mesner_eigenvalue(9, 3, 2) == -2 * binomial(6, 2)


def _dense_apply(n, k, j, values):
    """Multiply the dense operator by the subset-sum vector directly."""
    subsets = subsets_colex(n, k)
    b = [sum((values[i] for i in S), Fraction(0)) for S in subsets]
    out = []
    for S in subsets:
        acc = Fraction(0)
        for T, bT in zip(subsets, b):
            acc += bose_mesner_entry(KSubset(S, n), KSubset(T, n), j) * bT
        out.append(acc)
    return b, out


def test_eigenvector_identity_against_dense_multiply():
    for n, k in ((5, 2), (6, 3), (7, 2)):
        X = gen_random_zero_sum(n, 10, seed=n + k)
        for j in range(0, k + 1):
            b, out = _dense_apply(n, k, j, X.values)
            lam = bose_mesner_eigenvalue(n, k, j)
            assert out == [lam * v for v in b], (n, k, j)
            report = verify_eigenvector(X, j, k)
            assert report.verdict == "verified"


def test_eigenvector_all_covers_each_j():
    X = gen_random_zero_sum(8, 10, seed=3)
    report = verify_eigenvector_all(X, 3)
    assert report.verdict == "verified"
    descriptions = " ".join(c.description for c in report.claims)
    for j in range(0, 4):
        assert f"j={j}" in descriptions


def test_eigenvector_rejects_zero_vector_and_bad_j():
    zero = normalize([0, 0, 0, 0])
    with pytest.raises(ValueError):
        verify_eigenvector(zero, 1, 2)
    X = gen_random_zero_sum(6, 5, seed=1)
    with pytest.raises(ValueError):
        verify_eigenvector(X, 3, 2)  # j > k
    with pytest.raises(ValueError):
        verify_eigenvector(X, -1, 2)


def test_wilson_identities_verified_on_randoms():
    # j = 0 packs one all-ones row, for the empty set
    for n, j, k in ((6, 1, 2), (6, 2, 3), (7, 2, 2), (8, 3, 3), (6, 0, 3), (5, 0, 5)):
        X = gen_random_zero_sum(n, 8, seed=n * 10 + j)
        report = verify_wilson_identities(X, j, k)
        assert report.verdict == "verified", (n, j, k)


def test_wilson_identity_b_against_brute_matrices():
    # identity (b): W_jk (W_1k)^T x == C(n-j-1, k-j) * (W_1j)^T x
    n, j, k = 6, 2, 3
    X = gen_random_zero_sum(n, 7, seed=5)
    x = list(X.values)
    W_jk = brute_inclusion_matrix(n, j, k)
    W_1k = brute_inclusion_matrix(n, 1, k)
    W_1j = brute_inclusion_matrix(n, 1, j)
    bk = [sum((row[i] * x[i] for i in range(n)), Fraction(0)) for row in transpose(W_1k)]
    bj = [sum((row[i] * x[i] for i in range(n)), Fraction(0)) for row in transpose(W_1j)]
    lhs = [sum((row[i] * bk[i] for i in range(len(bk))), Fraction(0)) for row in W_jk]
    coef = binomial(n - j - 1, k - j)
    assert lhs == [coef * v for v in bj]


def test_wilson_identity_c_against_brute_matrices():
    # identity (c)'s lhs, Wbar_jk^T bj, is entry 0 of each k-subset's divided
    # pass at level j, alpha + slope * b_S from the pass over y to level k;
    # for j > n - k no j-subset misses a k-subset and every entry is 0
    for n in range(2, 8):
        X = gen_random_zero_sum(n, 9, seed=n)
        y, _ = X.scaled_ints()
        for k in range(1, n + 1):
            full = _size_pass(y, k)
            for j in range(0, k + 1):
                bj = colex(y, j)
                columns = transpose(brute_kneser_matrix(n, j, k))
                want = [sum(w * b for w, b in zip(col, bj)) for col in columns]
                alpha, slope = scheme._affine(full, k, j)
                assert [alpha[0] + slope[0] * bs for bs in colex(y, k)] == want, (n, j, k)
                assert verify_wilson_identities(X, j, k).verdict == "verified", (n, j, k)


def test_star_is_genuine_eigenvector_case():
    report = verify_eigenvector_all(gen_star(9), 2)
    assert report.verdict == "verified"


def test_pair_loops_refuse_over_budget_fast():
    # C(24,12)^2 pairs are far over the enumeration budget, although the
    # factorization's C(24,0) x C(24,12) entries fit it; the eigenvector
    # checks visit no subset, but their count of the zero sums among the
    # C(5000,30) k-sums is over it for both counting engines
    X = gen_random_zero_sum(5000, 10, seed=1)
    for check in (
        lambda: verify_factorization(24, 0, 12),
        lambda: verify_eigenvector(X, 2, 30),
        lambda: verify_eigenvector_all(X, 30),
    ):
        started = time.perf_counter()
        with pytest.raises(ValueError, match="enumeration budget"):
            check()
        assert time.perf_counter() - started < 1.0


def test_factorization_charges_one_step_per_pair():
    # C(16,5)^2 = 19.1M pairs fit the old pair budget of 4e7 and took 3.1 s
    # unguarded; one step per pair puts them over ENUM_BUDGET
    with pytest.raises(ValueError, match=r"C\(16,5\)\^2 pairs = \d+, over the enumeration budget of 10000000$"):
        verify_factorization(16, 2, 5)
    assert verify_factorization(12, 2, 5).verdict == "verified"  # 627,264 pairs


class _Admitted(Exception):
    pass


def test_step_rule_admits_eigenvector_all_at_16_5_and_18_5(monkeypatch):
    # the step rule is checked before the first pass, so reaching a pass
    # means admitted; no check runs here. One pass over 20 items and a
    # divided pass of 5 are a few hundred steps.
    def reached(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(scheme, "_divided_pass", reached)
    for n in (16, 18, 20):
        with pytest.raises(_Admitted):
            verify_eigenvector_all(gen_random_zero_sum(n, 10, seed=1), 5)


def test_eigenvector_all_at_1581_1_answers_fast():
    # one pass over 1,581 items to level 1 and one divided pass of one item
    X = gen_random_zero_sum(1581, 100, seed=1)
    started = time.perf_counter()
    assert verify_eigenvector_all(X, 1).verdict == "verified"
    assert time.perf_counter() - started < 1.0


def test_eigenvector_answers_where_pairs_were_refused():
    # C(16,6)^2 and C(18,5)^2 pairs were over the old pair budget
    assert verify_eigenvector_all(gen_random_zero_sum(16, 50, seed=2), 6).verdict == "verified"
    assert verify_eigenvector(gen_random_zero_sum(18, 50, seed=3), 2, 5).verdict == "verified"


def test_planted_eigenvalue_error_is_caught_with_the_same_witness(monkeypatch):
    # eigenvalue + 1 breaks row S wherever b_S != 0 (83 rows here); the
    # witnesses were computed pair by pair over all C(9,3)^2 (S, T)
    true_value = scheme.bose_mesner_eigenvalue
    monkeypatch.setattr(scheme, "bose_mesner_eigenvalue", lambda n, k, j: true_value(n, k, j) + 1)
    X = gen_random_zero_sum(9, 20, seed=4)
    one = verify_eigenvector(X, 2, 3)
    assert one.verdict == "violated"
    assert one.witness == {"S": [0, 1, 2], "lhs": -1860, "rhs": -1798}
    assert [c.lhs for c in one.claims] == [83, 83]
    every = verify_eigenvector_all(X, 3)
    assert every.verdict == "violated"
    assert every.witness == {
        0: {"S": [0, 1, 2], "lhs": 0, "rhs": 62},
        1: {"S": [0, 1, 2], "lhs": -1302, "rhs": -1240},
        2: {"S": [0, 1, 2], "lhs": -1860, "rhs": -1798},
        3: {"S": [0, 1, 2], "lhs": -620, "rhs": -558},
    }
    assert [c.lhs for c in every.claims] == [83] * 5


def test_wilson_refuses_passes_over_budget_fast():
    # at j = k = n = 2600 the pass over y and one divided pass of n items
    # are over budget, as they are from n = 2,582 on
    started = time.perf_counter()
    with pytest.raises(ValueError, match="divided passes .* over the enumeration budget"):
        verify_wilson_identities(gen_random_zero_sum(2600, 10, seed=1), 2600, 2600)
    assert time.perf_counter() - started < 1.0


def test_wilson_answers_where_per_subset_passes_were_refused():
    # one divided pass per j-subset charged C(37,34) passes, 10,311,493 steps
    # in all; the affine passes take a few thousand
    assert verify_wilson_identities(gen_random_zero_sum(37, 100, seed=1), 34, 37).verdict == "verified"


def test_wilson_answers_where_the_pair_of_divided_passes_was_refused():
    # a zero-sum x needs no pass of a block of zeros: at (1491, 1490, 1491)
    # the pass over y and two pairs of divided passes were 10,010,570 steps
    X = gen_random_zero_sum(1491, 10, seed=1)
    assert verify_wilson_identities(X, 1490, 1491).verdict == "verified"


@pytest.mark.parametrize("n", range(1, 10))
def test_two_valued_matches_the_per_entry_oracle(n):
    # identity (a)'s mismatch count and first witness from its two values
    # are the packed-row loop's, with the true values and each off by one
    for k in range(1, n + 1):
        for j in range(k + 1):
            in_val, out_val = binomial(n - j, k - j), binomial(n - j - 1, k - j - 1)
            for d_in, d_out in ((0, 0), (1, 0), (0, 1), (-1, 1)):
                got = scheme._two_valued(n, j, k, in_val + d_in, out_val + d_out)
                assert got == two_valued_per_entry(n, j, k, in_val + d_in, out_val + d_out), (n, j, k)
