import time
from fractions import Fraction

import pytest

from mmsverify import scheme
from mmsverify.combinat import KSubset, binomial
from mmsverify.scheme import (
    DenseBudgetError,
    StructureMatrix,
    bose_mesner_eigenvalue,
    bose_mesner_entry,
    build_structure_matrix,
    subsets_colex,
    verify_eigenvector,
    verify_eigenvector_all,
    verify_factorization,
    verify_wilson_identities,
)
from mmsverify.weights import gen_random_zero_sum, gen_star, normalize

from _oracles import brute_inclusion_matrix, brute_kneser_matrix, matmul, transpose


def test_subsets_colex_ordering():
    got = subsets_colex(4, 2)
    assert got == [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)]
    assert subsets_colex(5, 0) == [()]


def test_structure_matrices_match_brute():
    for n in range(2, 7):
        for k in range(1, min(3, n) + 1):
            for j in range(0, k + 1):
                inc = build_structure_matrix("inclusion", n, j, k)
                assert inc.rows == tuple(
                    tuple(r) for r in brute_inclusion_matrix(n, j, k)
                )
                kn = build_structure_matrix("kneser", n, j, k)
                assert kn.rows == tuple(tuple(r) for r in brute_kneser_matrix(n, j, k))


def test_structure_matrix_validates_row_sums():
    # each inclusion row must sum to C(n-j, k-j) = 3; these sum to 4
    with pytest.raises(ValueError):
        StructureMatrix("inclusion", 4, 1, 2, ((1, 1, 1, 1, 0, 0),) * 4)


def test_build_structure_matrix_input_errors():
    with pytest.raises(ValueError):
        build_structure_matrix("inclusion", 4, 3, 2)  # j > k
    with pytest.raises(ValueError):
        build_structure_matrix("projection", 4, 1, 2)
    with pytest.raises(DenseBudgetError):
        build_structure_matrix("inclusion", 40, 3, 8)


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


def test_star_is_genuine_eigenvector_case():
    report = verify_eigenvector_all(gen_star(9), 2)
    assert report.verdict == "verified"


def test_pair_loops_refuse_over_budget_fast():
    # C(24,12)^2 pairs are far over the pair budget, although the
    # factorization's C(24,0) x C(24,12) entries fit the dense budget; the
    # eigenvector checks' C(30,5) passes of 30 * 6^2 steps (1.5e8) are far
    # over the enumeration budget
    X = gen_random_zero_sum(30, 10, seed=1)
    for check, budget in (
        (lambda: verify_factorization(24, 0, 12), "pair budget"),
        (lambda: verify_eigenvector(X, 2, 5), "enumeration budget"),
        (lambda: verify_eigenvector_all(X, 5), "enumeration budget"),
    ):
        started = time.perf_counter()
        with pytest.raises(DenseBudgetError, match=budget):
            check()
        assert time.perf_counter() - started < 1.0


class _Admitted(Exception):
    pass


def test_step_rule_admits_eigenvector_all_at_16_5_and_18_5(monkeypatch):
    # the step rule is checked before the first pass, so reaching a pass
    # means admitted; no check runs here
    def reached(*args, **kwargs):
        raise _Admitted

    monkeypatch.setattr(scheme, "_overlap_pass", reached)
    for n in (16, 18):
        with pytest.raises(_Admitted):
            verify_eigenvector_all(gen_random_zero_sum(n, 10, seed=1), 5)


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
    # C(20,10) passes of 20 * 20 * 11 steps for identity (b), although the
    # packed rows fit the dense budget
    started = time.perf_counter()
    with pytest.raises(DenseBudgetError, match="enumeration budget"):
        verify_wilson_identities(gen_random_zero_sum(20, 10, seed=1), 10, 19)
    assert time.perf_counter() - started < 1.0
