import json
from fractions import Fraction

import pytest

from mmsverify.combinat import binomial, colex
from mmsverify.weights import (
    WeightVector,
    gen_random_zero_sum,
    gen_star,
    load_weights,
    normalize,
    parse_rational,
)

from _oracles import brute_family, rank_colex


def F(x):
    return Fraction(x)


def test_parse_rational_accepts_exact_forms():
    assert parse_rational(7) == 7
    assert parse_rational("-3") == -3
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational(Fraction(5, 3)) == Fraction(5, 3)


@pytest.mark.parametrize("bad", [True, 0.5, "1/0", "abc", None, [1]])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad, position=3)


def test_parse_rational_error_mentions_position():
    with pytest.raises(ValueError, match="entry 4"):
        parse_rational("pi", position=4)


def test_normalize_sorts_and_validates():
    X = normalize([-1, "3", "-4/2"])
    assert X.values == (F(3), F(-1), F(-2))
    assert X.shift == 0


def test_normalize_rejects_nonzero_sum_with_residual():
    with pytest.raises(ValueError, match="residual is 1/2"):
        normalize([1, "-1/2"])


def test_normalize_shift_mode():
    X = normalize([5, 1, 0], mode="shift-to-zero")
    assert X.shift == 2
    assert X.values == (F(3), F(-1), F(-2))
    assert sum(X.values) == 0
    with pytest.raises(ValueError, match="nonnegative sum"):
        normalize([-1, -2], mode="shift-to-zero")


def test_normalize_unknown_mode():
    with pytest.raises(ValueError, match="unknown mode"):
        normalize([0], mode="fix-it")


def test_weight_vector_validation():
    with pytest.raises(ValueError):
        WeightVector((F(-1), F(1)))  # increasing
    with pytest.raises(ValueError):
        WeightVector((F(1), F(1)))  # nonzero sum
    with pytest.raises(TypeError):
        WeightVector((1, -1))  # raw ints
    with pytest.raises(ValueError):
        WeightVector(())


def test_scaled_ints_reconstructs_values():
    X = normalize(["1/6", "1/10", "-4/15"])
    ints, scale = X.scaled_ints()
    assert scale > 0
    assert [Fraction(y, scale) for y in ints] == list(X.values)
    assert sum(ints) == 0


def test_load_weights_file_round_trip(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": ["2", "-1", "-1"], "mode": "require-zero-sum"}))
    X = load_weights(path)
    assert X.values == (F(2), F(-1), F(-1))
    assert X.shift == 0
    assert X == load_weights({"weights": ["2", "-1", "-1"]})


def test_load_weights_mapping_and_errors(tmp_path):
    X = load_weights({"weights": [1, 0, -1]})
    assert X.n == 3
    with pytest.raises(ValueError, match="'weights' list"):
        load_weights({"values": [1, -1]})
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ValueError, match="not valid JSON"):
        load_weights(bad)
    with pytest.raises(TypeError):
        load_weights(42)


def test_gen_star():
    X = gen_star(6)
    assert X.values == (F(5), F(-1), F(-1), F(-1), F(-1), F(-1))
    with pytest.raises(ValueError):
        gen_star(1)


def test_gen_random_zero_sum_deterministic():
    a = gen_random_zero_sum(9, 12, seed=4)
    b = gen_random_zero_sum(9, 12, seed=4)
    c = gen_random_zero_sum(9, 12, seed=5)
    assert a.values == b.values
    assert a.values != c.values
    assert sum(a.values) == 0
    assert all(v.denominator == 1 for v in a.values)
    assert list(a.values) == sorted(a.values, reverse=True)


def subset_sums(X, k):
    """Every k-subset sum of X in colex order, from its scaled integers."""
    y, scale = X.scaled_ints()
    return [Fraction(v, scale) for v in colex(y, k)]


def test_subset_sums_against_brute():
    X = gen_random_zero_sum(8, 9, seed=13)
    ss = subset_sums(X, 3)
    nonneg = [s for s in ss if s >= 0]
    assert len(nonneg) == len(brute_family(X.values, 3))
    assert sum(ss) == 0


def test_subset_sums_star_frozen_multiset():
    # star on 6 points: C(5,1)=5 pairs through the top sum to 4, the other
    # C(5,2)=10 pairs sum to -2
    ss = subset_sums(gen_star(6), 2)
    assert sorted(ss).count(F(-2)) == 10
    assert sorted(ss).count(F(4)) == 5


def test_subset_sum_vector_entry_lookup():
    X = gen_random_zero_sum(7, 6, seed=2)
    ss = subset_sums(X, 2)
    assert ss[rank_colex((0, 3))] == X.values[0] + X.values[3]
    assert max(ss) == X.values[0] + X.values[1]


def test_subset_sum_vector_validation():
    # the list has C(n, k) entries totalling zero (each element lies in
    # C(n-1, k-1) subsets); k outside 0..n is refused
    X = gen_random_zero_sum(7, 6, seed=2)
    for k in range(1, 8):
        ss = subset_sums(X, k)
        assert isinstance(ss, list) and len(ss) == binomial(7, k) and sum(ss) == 0
    for k in (-1, 8):
        with pytest.raises(ValueError):
            subset_sums(X, k)
