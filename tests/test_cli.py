import gc
import hashlib
import importlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from conftest import REPO_ROOT, run_captured

from mmsverify import cli, lemmas, search
from mmsverify.__main__ import launch
from mmsverify.counting import CountReport
from mmsverify.weights import gen_random_zero_sum, load_weights


def run_json(*argv):
    out, err, code = run_captured([*argv, "--format", "json"])
    assert err == "", err
    return json.loads(out), code


def test_count_star_example():
    doc, code = run_json("count", "--star", "--n", "32", "-k", "2")
    assert code == 0
    assert doc["verdict"] == "verified"
    assert doc["report"]["nonnegative_count"] == "31"
    assert doc["report"]["star_equality"] is True
    assert doc["report"]["bound_comparisons"][0]["value"] == "31"
    assert doc["report"]["engine"] == "generating-function"
    assert doc["runtime_ms"] is None
    assert doc["command"] == "count --star --n 32 -k 2"


def test_command_echo_drops_format():
    doc, _ = run_json("count", "--star", "--n", "8", "-k", "2")
    assert doc["command"] == "count --star --n 8 -k 2"


def test_count_star_far_above_the_recursion_limit():
    doc, code = run_json("count", "--star", "--n", "5000", "-k", "1")
    assert code == 0
    assert doc["verdict"] == "verified"
    assert doc["report"]["nonnegative_count"] == "1"


def test_walk_over_budget_exits_2_with_a_message(tmp_path):
    # 1/p over 59 distinct primes: the LCM has about 400 bits, so the
    # generating function is as far over its budget as the 1.1e8 sums the two
    # lists would hold at C(60,10) are over the enumeration budget
    primes = [p for p in range(2, 300) if all(p % q for q in range(2, p))][:59]
    head = [Fraction(1, p) for p in primes]
    path = tmp_path / "huge_lcm.json"
    path.write_text(json.dumps({"weights": [str(v) for v in head + [-sum(head)]]}))
    started = time.perf_counter()
    out, err, code = run_captured(["verify", "--lemma", "2", "--weights", str(path), "-k", "10"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "enumeration budget" in err
    assert "generating-function counter" in err


def test_generators_over_size_limit_exit_2_before_allocating():
    for generator in ("--star", "--random"):
        started = time.perf_counter()
        out, err, code = run_captured(["count", generator, "--n", "100000000", "-k", "1"])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert "needs 2 <= n <= 100000 (ENUM_BUDGET / 100), got n=100000000" in err


def test_eigenvector_over_pair_budget_exits_2_with_a_message():
    # the count of zero k-sums behind "b is not the zero vector" is over
    # budget for both counting engines at C(5000, 30)
    for extra in ([], ["-j", "2"]):
        started = time.perf_counter()
        out, err, code = run_captured(["verify", "--lemma", "eigenvector", "--random", "--n", "5000", "-k", "30", *extra])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert "enumeration budget" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--lemma", "eigenvector", "--random", "--n", "128", "-k", "4"],
        ["verify", "--lemma", "wilson", "--random", "--n", "128", "-j", "2", "-k", "4"],
    ],
)
def test_operator_identities_answer_at_n_8k_squared(argv):
    # neither check lists a k-subset, so C(128, 4) = 10.7M rows are no refusal
    doc, code = run_json(*argv)
    assert code == 0
    assert doc["verdict"] == "verified"


@pytest.mark.parametrize("k", [4, 5, 6, 7])
def test_theorem_answers_at_n_8k_squared(k):
    n = 8 * k * k
    for source in ("--random", "--star"):
        started = time.perf_counter()
        doc, code = run_json("verify", "--lemma", "theorem", source, "--n", str(n), "-k", str(k))
        assert time.perf_counter() - started < 1.0, source
        assert code == 0, source
        assert doc["verdict"] == "verified", source
        assert doc["report"]["preconditions"][0]["satisfied"] is True
    # the star attains the bound, and its equality case is checked, not vacuous
    assert doc["report"]["extra"]["count"] == doc["report"]["extra"]["bound"]
    assert doc["report"]["claims"][1]["lhs"] is True  # star_equality of the count
    assert doc["report"]["claims"][1]["satisfied"] is True


@pytest.mark.parametrize("lemma", ["theorem", "3", "lotson1"])
def test_lemmas_answer_at_n_8k_squared_with_k_16(lemma):
    # the generating function is charged the slots it writes, about 1.2M
    # steps here, well inside the budget
    started = time.perf_counter()
    doc, code = run_json("verify", "--lemma", lemma, "--random", "--n", "2048", "-k", "16")
    assert time.perf_counter() - started < 3.0
    assert code == 0
    assert doc["verdict"] == "verified"


def test_first_refused_k_at_n_8k_squared_exits_2_fast():
    # seed 0 at (4608, 24) balances with a negative outlier, so every shift
    # is wide and the generating function is charged over 30M steps
    started = time.perf_counter()
    out, err, code = run_captured(["verify", "--lemma", "theorem", "--random", "--n", "4608", "-k", "24"])
    assert time.perf_counter() - started < 1.0
    assert (out, code) == ("", 2)
    assert "enumeration budget" in err and "generating-function counter" in err


def test_count_star_at_n_8k_squared_reports_star_equality():
    doc, code = run_json("count", "--star", "--n", "392", "-k", "7")
    assert code == 0
    assert doc["report"]["star_equality"] is True
    assert doc["report"]["engine"] == "generating-function"


def test_count_with_k_near_n_answers():
    # the two lists would hold 615,486 sums, within the enumeration budget, and
    # the generating function costs less; the count (4457891, the number of 5-subsets with sum <= 0 by brute force)
    # is below C(66,61), which is no contradiction for k > n/2
    doc, code = run_json("count", "--random", "--n", "67", "-k", "62")
    assert code == 1
    assert doc["verdict"] == "violated"
    assert doc["report"]["engine"] == "generating-function"
    assert doc["report"]["nonnegative_count"] == "4457891"
    assert doc["report"]["bound_comparisons"][0]["value"] == "8936928"


def test_count_with_k_one_below_a_large_n_walks_single_items():
    # C(15000,14999) = 15,000 subsets: each half lists its single items or
    # their complements, about 15,000 sums, not a level of C(15001,14999) entries.
    # A 14999-subset is nonnegative exactly when the index it leaves out is <= 0.
    started = time.perf_counter()
    doc, code = run_json("count", "--random", "--n", "15000", "-k", "14999", "--seed", "1")
    assert time.perf_counter() - started < 1.0
    left_out = gen_random_zero_sum(15000, 100, seed=1).values
    assert code == 1
    assert doc["verdict"] == "violated"
    assert doc["report"]["engine"] == "enumeration"
    assert doc["report"]["total_checked"] == "15000"
    assert doc["report"]["nonnegative_count"] == str(sum(1 for v in left_out if v <= 0)) == "7594"
    assert doc["report"]["bound_comparisons"][0]["value"] == "14999"


def test_count_with_restrictions():
    doc, code = run_json(
        "count", "--random", "--n", "10", "-k", "3", "--seed", "1",
        "--restrict", "contains:0", "--restrict", "disjoint:8,9",
    )
    assert code == 0
    assert doc["report"]["restriction"] == "contains(0) & disjoint(8,9)"


def test_verify_each_lemma_token_dispatches():
    cases = [
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "eigenvector"),
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "eigenvector", "-j", "1"),
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "wilson", "-j", "1"),
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "2"),
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "3"),
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "lotson1"),
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "4"),
        ("verify", "--star", "--n", "10", "-k", "2", "--lemma", "partition", "--trials", "60"),
        ("verify", "--lemma", "scalar", "--n", "32", "-k", "2"),
        ("verify", "--star", "--n", "32", "-k", "2", "--lemma", "theorem"),
    ]
    for argv in cases:
        doc, code = run_json(*argv)
        assert code == 0, argv
        assert doc["verdict"] == "verified", argv


def test_verify_every_lemma_token_refuses_k_outside_the_ground_set():
    # a refusal or a preconditions-not-met report, never an internal error
    for lemma in cli.LEMMA_TOKENS:
        for k in (-1, 0, 10):
            argv = ["verify", "--lemma", lemma, "--star", "--n", "9", "-k", str(k)]
            argv += ["-j", "1"] if lemma == "wilson" else []
            out, err, code = run_captured(argv)
            assert code == 2, (argv, err)
            # a refusal names the k given, not one derived from it
            assert out or (err.startswith("mmsverify: error: ") and f" k={k}," in err), (argv, err)
    out, err, code = run_captured(["verify", "--lemma", "3", "--star", "--n", "9", "-k", "0"])
    assert (out, err, code) == ("", "mmsverify: error: need 1 <= k <= n, got k=0, n=9\n", 2)
    out, err, code = run_captured(["verify", "--lemma", "4", "--star", "--n", "9", "-k", "-1"])
    assert (out, err, code) == ("", "mmsverify: error: need 1 <= k <= n, got k=-1, n=9\n", 2)


def test_verify_tset_flag():
    doc, code = run_json(
        "verify", "--star", "--n", "12", "-k", "2", "--lemma", "4", "--tset", "4,7"
    )
    assert code == 0
    assert doc["inputs"]["tset"] == [4, 7]


def test_verify_default_tset_is_bottom_block():
    doc, _ = run_json("verify", "--star", "--n", "12", "-k", "3", "--lemma", "4")
    assert doc["inputs"]["tset"] == [9, 10, 11]


def test_spectrum_dump():
    doc, code = run_json("spectrum", "--kind", "kneser", "--n", "5", "-j", "1", "-k", "2")
    assert code == 0
    assert doc["report"]["type"] == "structure-matrix"
    assert doc["report"]["kind"] == "kneser"


def test_search_subcommand():
    doc, code = run_json(
        "search", "--n", "6", "-k", "2", "--max-distinct", "2", "--value-range", "6"
    )
    assert code == 0
    assert doc["report"]["best_count"] == "5"
    assert doc["report"]["violation"] is False


def test_gen_writes_loadable_file(tmp_path):
    out_path = tmp_path / "w.json"
    doc, code = run_json(
        "gen", "--random", "--n", "9", "--magnitude", "7", "--seed", "4",
        "--out", str(out_path),
    )
    assert code == 0
    X = load_weights(out_path)
    assert X.n == 9
    assert sum(X.values) == 0


def test_gen_out_file_is_indented_dumps(tmp_path):
    out_path = tmp_path / "w.json"
    _, code = run_json("gen", "--random", "--n", "9", "--seed", "4", "--out", str(out_path))
    assert code == 0
    doc, _ = run_json("gen", "--random", "--n", "9", "--seed", "4")
    expected = json.dumps(doc["report"]["weight_file"], sort_keys=True, indent=2) + "\n"
    assert out_path.read_bytes() == expected.encode()


def test_gen_stdout_document_round_trips():
    doc, code = run_json("gen", "--star", "--n", "7")
    assert code == 0
    X = load_weights(doc["report"]["weight_file"])
    assert X.values[0] == 6


def test_weights_file_input(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [3, -1, -1, -1]}))
    doc, code = run_json("count", "--weights", str(path), "-k", "2")
    assert code == 0
    assert doc["inputs"] == {"source": str(path)}


def test_shift_to_zero_document_reports_its_shift(tmp_path):
    # (3, 1, 0) sums to 4, so each entry drops by 4/3: (5/3, -1/3, -4/3)
    path = tmp_path / "w.json"
    path.write_text(json.dumps({"weights": [3, 1, 0], "mode": "shift-to-zero"}))
    doc, code = run_json("count", "--weights", str(path), "-k", "2")
    assert code == 0
    assert doc["inputs"] == {"source": str(path), "mode": "shift-to-zero", "shift": "4/3"}
    assert doc["report"]["nonnegative_count"] == "2"  # {0,1} and {0,2} of the shifted vector
    path.write_text(json.dumps({"weights": [5, 1, 0], "mode": "shift-to-zero"}))
    doc, _ = run_json("verify", "--lemma", "2", "--weights", str(path), "-k", "1")
    assert doc["inputs"]["shift"] == "2"
    # a document that already sums to zero is not shifted, so nothing is added
    path.write_text(json.dumps({"weights": [3, -1, -1, -1], "mode": "shift-to-zero"}))
    doc, _ = run_json("count", "--weights", str(path), "-k", "2")
    assert doc["inputs"] == {"source": str(path)}


def test_usage_errors_exit_2():
    bad = [
        [],
        ["count", "--star", "-k", "2"],  # missing --n
        ["count", "--star", "--random", "--n", "6", "-k", "2"],  # two sources
        ["count", "--n", "6", "-k", "2"],  # no source
        ["verify", "--star", "--n", "8", "-k", "2", "--lemma", "nope"],
        ["verify", "--star", "--n", "8", "-k", "2", "--lemma", "wilson"],  # no -j
        ["verify", "--lemma", "scalar", "-k", "2"],  # no --n
        ["count", "--star", "--n", "8", "-k", "2", "--restrict", "between:1"],
        ["count", "--star", "--n", "8", "-k", "2", "--restrict", "contains:a"],
        ["search", "-k", "2"],  # no --n, not counterexample
        ["search", "--counterexample", "-k", "7"],  # no -r
    ]
    for argv in bad:
        out, err, code = run_captured(argv)
        assert code == 2, argv
        assert not out


def test_many_intersects_atoms_exit_2_fast():
    restrict = [arg for i in range(20) for arg in ("--restrict", f"intersects:{i},{i + 5}")]
    started = time.perf_counter()
    out, err, code = run_captured(["count", "--random", "--n", "30", "-k", "8", *restrict])
    assert (out, code) == ("", 2)
    assert "enumeration budget" in err
    assert time.perf_counter() - started < 1.0


def test_negative_seed_exits_2():
    # random.Random(-3) draws the stream of random.Random(3), so -3 would repeat seed 3
    out, err, code = run_captured(["count", "--random", "--n", "6", "-k", "2", "--seed", "-3"])
    assert (out, code) == ("", 2)
    assert "seed must be >= 0" in err


def test_partition_negative_seed_exits_2():
    argv = ["verify", "--lemma", "partition", "--star", "--n", "12", "-k", "2", "--trials", "50", "--seed", "-3"]
    out, err, code = run_captured(argv)
    assert (out, code) == ("", 2)
    assert "seed must be >= 0" in err


@pytest.mark.parametrize("trials", range(1, 6))
def test_partition_with_zero_sample_variance_is_not_a_violation(trials):
    # Z = 3 in each of the first trials, away from E[Z] = 79/28: the
    # five-standard-error band is empty, so the claim is vacuous, not failed
    doc, code = run_json("verify", "--lemma", "partition", "--random", "--n", "12", "-k", "3",
                         "--trials", str(trials))
    assert code == 0 and doc["verdict"] == "verified"
    report = doc["report"]
    assert report["extra"]["std_error"] == 0.0 and report["extra"]["min_Z"] == "3"
    assert (report["extra"]["empirical_mean"], report["extra"]["exact_expectation"]) == ("3", "79/28")
    tolerance = report["claims"][1]
    assert tolerance["satisfied"] is True and tolerance["lhs"] is None
    assert tolerance["note"].startswith("vacuous: zero sample variance leaves the five-standard-error band empty")


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--n", "26", "-k", "5", "--lemma", "partition", "--trials", "3000", "--seed", "17"],
         "681b030b7cef7482bdea32af9c7f78c40b5dd7442911fb6ab36bc10824afb326"),
        (["--n", "19", "-k", "3", "--magnitude", "30", "--lemma", "partition", "--trials", "4",
          "--seed", "2"],
         "e0550f94faff2e5da36e3d223b8ecbd9e3f55c1d3b19240bf7c6251fab9cab36"),
    ],
    ids=["n26-k5-trials3000-seed17", "n19-k3-m30-trials4-seed2"],
)
def test_partition_json_is_pinned(argv, digest):
    # the statistics and witnesses are those of random.Random.shuffle called on
    # the indices in every trial; the band claim's lhs and rhs are exact Fractions
    out, err, code = run_captured(["verify", "--random", *argv, "--format", "json"])
    assert (err, code) == ("", 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["--counterexample", "-k", "7", "-r", "1", "--n", "30"], "--n"),
        (["--counterexample", "-k", "7", "-r", "1", "--max-distinct", "2"], "--max-distinct"),
        (["--n", "5", "-k", "2", "-r", "1"], "-r"),
    ],
)
def test_search_refuses_flags_it_would_ignore(argv, flag):
    out, err, code = run_captured(["search", *argv, "--format", "json"])
    assert (out, code) == ("", 2)
    assert f"error: {flag} " in err or f"drop {flag}\n" in err


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--counterexample", "-k", "7", "-r", "1", "--value-range", "20"],
         "06f322991971b151869132efecd48bf4e199350966d184637e121af6105e6a12"),
        (["--n", "22", "-k", "7", "--max-distinct", "3", "--value-range", "10"],
         "bfa58c6c6ed926356fdf68098a24a513320ef70d89e3aceed26c15830beb12de"),
        (["--n", "14", "-k", "4", "--max-distinct", "4", "--value-range", "4"],
         "26972134faa89746eb9955a4336a7dc6638d0676fe26aa0c8928210ab9ae1dd6"),
    ],
    ids=["counterexample-k7-r1-v20", "n22-k7-d3-v10", "n14-k4-d4-v4"],
)
def test_benchmark_search_json_is_pinned(argv, digest):
    # the whole report byte for byte: the winner and its tie-break, the
    # candidates examined and the engines that re-counted the winner
    out, err, code = run_captured(["search", *argv, "--format", "json"])
    assert err == "" and code in (0, 1)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["spectrum", "--kind", "inclusion", "--n", "16", "-j", "2", "-k", "5"],
         "a5c1235899b21c72dfcda9f4735a5d088305c65d07bee043a958792ba23e9748"),
        (["spectrum", "--kind", "kneser", "--n", "12", "-j", "3", "-k", "4"],
         "424b009b7a4c8dbda3794ffc1ab86fce3a48eae9086b1fbafbf5fc0c4f1188b8"),
        (["spectrum", "--kind", "kneser", "--n", "8", "-j", "0", "-k", "3"],
         "e19783177129e6519a28d20bdd91ccdf0a1d78cb2f1604f207d78b449cfe4ca7"),
        (["verify", "--lemma", "eigenvector", "--random", "--n", "15", "-k", "5", "--seed", "11"],
         "a5fce80aecf3b6b58cb196b25a4d8eb857aff470c47b87abfa563782e42ca1e7"),
        (["verify", "--lemma", "eigenvector", "--random", "--n", "12", "-j", "3", "-k", "4",
          "--seed", "5"],
         "03eb2aadad6a543e850b2edfb8c2d60739fe6f57a430910d466fe98af9aa2b34"),
        (["verify", "--lemma", "wilson", "-j", "2", "--random", "--n", "17", "-k", "5", "--seed", "11"],
         "05026f38ab4d9353c6989805e5261fb6f280711e05d22b7caa00ae5d2faac0fe"),
    ],
    ids=["spectrum-inclusion-n16-j2-k5", "spectrum-kneser-n12-j3-k4", "spectrum-kneser-n8-j0-k3",
         "eigenvector-n15-k5-seed11", "eigenvector-n12-j3-k4-seed5", "wilson-j2-n17-k5-seed11"],
)
def test_scheme_json_is_pinned(argv, digest):
    # digests taken with every 0/1 entry computed by one mask compare and
    # one state pass over each block and its complement: the packed
    # singleton rows and the divided pass keep the output byte for byte
    out, err, code = run_captured([*argv, "--format", "json"])
    assert (err, code) == ("", 0)
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv,digest",
    [
        (["--kind", "inclusion", "--n", "16", "-j", "2", "-k", "5"],
         "d303fb3ed0030ed6862fdffc9c06c5df1df7be2132f9d978a51b0c662f372d1e"),
        (["--kind", "kneser", "--n", "12", "-j", "3", "-k", "4"],
         "afe3c232f5768f836bb091c9532f6d138efc6716fe8b53f151ca5ed615c901b0"),
        (["--kind", "kneser", "--n", "8", "-j", "0", "-k", "3"],
         "96489119573f3d8413836d35c5b9b59cfadf9bde40b916e19ee3fc5e8b4ae8c6"),
    ],
    ids=["inclusion-n16-j2-k5", "kneser-n12-j3-k4", "kneser-n8-j0-k3"],
)
def test_spectrum_text_is_pinned(argv, digest):
    # every line but the measured runtime, byte for byte
    out, err, code = run_captured(["spectrum", *argv, "--format", "text"])
    assert (err, code) == ("", 0)
    command, verdict, runtime, rest = out.split("\n", 3)
    assert runtime.startswith("runtime_ms: ")
    timeless = "\n".join((command, verdict, rest))
    assert hashlib.sha256(timeless.encode()).hexdigest() == digest


def test_input_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    out, err, code = run_captured(["count", "--weights", str(missing), "-k", "2"])
    assert code == 2
    assert "error" in err
    bad_sum = tmp_path / "bad.json"
    bad_sum.write_text(json.dumps({"weights": [1, 1]}))
    out, err, code = run_captured(["count", "--weights", str(bad_sum), "-k", "1"])
    assert code == 2
    assert "residual" in err


def test_eigenvector_at_k_equal_n_exits_2_with_a_message():
    # at k = n the only k-subset is the whole ground set, so b is zero
    for extra in ([], ["-j", "0"]):
        out, err, code = run_captured(["verify", "--lemma", "eigenvector", "--star", "--n", "5", "-k", "5", *extra])
        assert code == 2, extra
        assert out == ""
        assert "needs k < n" in err and "zero vector" in err


def test_partition_trials_over_budget_exits_2_fast():
    # 3,000,000 trials at n = 12, k = 2 shuffle 30M indices in all
    started = time.perf_counter()
    out, err, code = run_captured(["verify", "--lemma", "partition", "--star", "--n", "12", "-k", "2",
                          "--trials", "3000000"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "trials=3000000" in err and "enumeration budget" in err
    # the largest admitted count is ENUM_BUDGET // ((m - 1) * k) = 10^7 // 10
    assert "at most 1000000 trials fit at n=12, k=2" in err


def _raise(exc):
    def boom(*args, **kwargs):
        raise exc

    return boom


def test_internal_errors_exit_3(monkeypatch):
    # an internal fault is neither a violation (1) nor a refusal (2)
    monkeypatch.setattr(search, "count_nonnegative_dp", _raise(RuntimeError("count disagreement")))
    out, err, code = run_captured(["search", "--n", "8", "-k", "2", "--format", "json"])
    assert (out, code) == ("", 3)
    assert err == "mmsverify: internal error: RuntimeError: count disagreement\n"
    monkeypatch.setattr(lemmas, "count_nonnegative", _raise(AssertionError("U must keep a negative sum")))
    out, err, code = run_captured(["verify", "--lemma", "partition", "--star", "--n", "8", "-k", "2"])
    assert (out, code) == ("", 3)
    assert err == "mmsverify: internal error: AssertionError: U must keep a negative sum\n"


def test_a_wrong_recount_of_the_search_winner_exits_3(monkeypatch):
    # a wrong count, not an exception, from the second engine must never
    # pass for a verdict (0 or 1)
    real = search.count_nonnegative

    def off_by_one(X, k, restriction=None):
        report = real(X, k, restriction)
        return CountReport(**{**vars(report), "nonnegative_count": report.nonnegative_count + 1})

    monkeypatch.setattr(search, "count_nonnegative", off_by_one)
    out, err, code = run_captured(["search", "--n", "8", "-k", "2", "--format", "json"])
    assert (out, code) == ("", 3)
    assert err.startswith("mmsverify: internal error: RuntimeError: count disagreement")


def test_internal_error_process_exit_status_is_3(cli_runner, tmp_path):
    (tmp_path / "sitecustomize.py").write_text(
        "from mmsverify import search\n"
        "def boom(*args, **kwargs):\n"
        "    raise RuntimeError('injected')\n"
        "search.count_nonnegative_dp = boom\n"
    )
    done = cli_runner("search", "--n", "8", "-k", "2", extra_path=tmp_path)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == "mmsverify: internal error: RuntimeError: injected\n"


def test_render_fault_exits_3_with_a_truncated_report(monkeypatch):
    monkeypatch.setattr(cli, "_dispatch", lambda args, parser: ({}, {"value": object()}, "verified"))
    out, err, code = run_captured(["count", "--star", "--n", "8", "-k", "2", "--format", "json"])
    assert code == 3
    assert err == "mmsverify: internal error: TypeError: Object of type object is not JSON serializable\n"
    assert out.startswith("{") and not out.endswith("\n")


def _spawn(argv, stdout):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.Popen([sys.executable, "-m", "mmsverify", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, text=True, env=env, cwd=REPO_ROOT)


def _assert_write_failure(proc, err):
    # 1 would read as a violated claim, 0 as a complete report
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert err.startswith("mmsverify: error: cannot write the report: ")
    assert err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
def test_full_device_exits_2_without_a_traceback():
    with open("/dev/full", "w") as full:
        proc = _spawn(["count", "--star", "--n", "8", "-k", "2", "--format", "json"], full)
        _, err = proc.communicate()
    _assert_write_failure(proc, err)
    assert "No space left on device" in err


def test_closed_pipe_exits_2_without_a_traceback():
    # 6 MB of report, far more than a pipe holds, so a write must meet the closed end
    proc = _spawn(["spectrum", "--kind", "inclusion", "--n", "16", "-j", "2", "-k", "5",
                   "--format", "json"], subprocess.PIPE)
    proc.stdout.close()
    _, err = proc.communicate()
    _assert_write_failure(proc, err)
    assert "Broken pipe" in err


class _BrokenStdout:
    """A stdout whose every write and flush fails, over a real file descriptor."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, chunk=None):
        raise BrokenPipeError(32, "Broken pipe")

    flush = write

    def fileno(self):
        return self.fd


def test_stdout_that_stays_broken_is_pointed_at_devnull(monkeypatch, capsys, tmp_path):
    # the interpreter flushes stdout once more at exit; that flush must not fail again
    fd = os.open(tmp_path / "out", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _BrokenStdout(fd))
        assert cli.main(["count", "--star", "--n", "8", "-k", "2"]) == 2
        assert os.fstat(fd).st_rdev == os.stat(os.devnull).st_rdev
    finally:
        os.close(fd)
    assert capsys.readouterr().err == "mmsverify: error: cannot write the report: [Errno 32] Broken pipe\n"


def test_preconditions_not_met_exits_2():
    out, err, code = run_captured(["verify", "--lemma", "scalar", "--n", "5", "-k", "3",
                          "--format", "json"])
    assert code == 2
    assert json.loads(out)["verdict"] == "preconditions-not-met"


def test_violation_exits_1():
    # the counterexample sweep finds patterns under the bound at n = 22
    out, err, code = run_captured(["search", "--counterexample", "-k", "7", "-r", "1",
                          "--value-range", "40", "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "violated"
    assert doc["report"]["violation"] is True


@pytest.mark.parametrize(
    "weights,argv,count,bound,code",
    [
        # C(n-1, k-1) - 1 nonnegative pairs: 1 + 1 against a bound of 2
        ([1, 1, -2], ["-k", "2"], 1, 2, 1),
        # p = 6 entries n - p and n - p entries -p at (n, k) = (8, 3): 20 against 21
        ([2] * 6 + [-6] * 2, ["-k", "3"], 20, 21, 1),
        # the star meets the bound exactly: 7 = 7 at (8, 2)
        (None, ["--star", "--n", "8", "-k", "2"], 7, 7, 0),
    ],
    ids=["one-below-at-n3-k2", "two-valued-n8-k3-p6", "star-n8-k2"],
)
def test_count_exit_code_at_the_bound(tmp_path, weights, argv, count, bound, code):
    if weights is not None:
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": weights}))
        argv = ["--weights", str(path), *argv]
    doc, exit_code = run_json("count", *argv)
    report = doc["report"]
    assert (report["nonnegative_count"], report["bound_comparisons"][0]["value"]) == (str(count), str(bound))
    assert exit_code == code


@pytest.mark.parametrize(
    "argv,count,bound,code",
    [
        (["--n", "5", "-k", "2", "--max-distinct", "3", "--value-range", "4"], 3, 4, 1),
        (["--n", "10", "-k", "3", "--max-distinct", "3", "--value-range", "4"], 35, 36, 1),
        (["--n", "6", "-k", "2"], 5, 5, 0),
    ],
    ids=["one-below-n5-k2", "one-below-n10-k3", "default-grid-meets-n6-k2"],
)
def test_search_exit_code_at_the_bound(argv, count, bound, code):
    doc, exit_code = run_json("search", *argv)
    report = doc["report"]
    assert (report["best_count"], report["bound"], exit_code) == (str(count), str(bound), code)


@pytest.mark.parametrize(
    "weights,argv,count,bound,satisfied,verdict",
    [
        ([1, 1, -2], ["-k", "2"], 1, 2, False, "preconditions-not-met"),
        ([2] * 6 + [-6] * 2, ["-k", "3"], 20, 21, False, "preconditions-not-met"),
        (None, ["--star", "--n", "8", "-k", "2"], 7, 7, True, "preconditions-not-met"),
        (None, ["--star", "--n", "32", "-k", "2"], 31, 31, True, "verified"),
    ],
    ids=["one-below-at-n3-k2", "two-valued-n8-k3-p6", "star-n8-k2", "star-n32-k2"],
)
def test_theorem_claim_at_the_bound(tmp_path, weights, argv, count, bound, satisfied, verdict):
    # below n >= 8k^2 the verdict, and so the exit code, is 2 whatever the
    # count, so the main claim's own flag is what holds the count to the bound
    if weights is not None:
        path = tmp_path / "weights.json"
        path.write_text(json.dumps({"weights": weights}))
        argv = ["--weights", str(path), *argv]
    doc, exit_code = run_json("verify", "--lemma", "theorem", *argv)
    report = doc["report"]
    main = report["claims"][0]
    assert main["description"] == "nonnegative count >= C(n-1,k-1)"
    assert (report["extra"]["count"], report["extra"]["bound"]) == (str(count), str(bound))
    assert (main["lhs"], main["rhs"], main["satisfied"]) == (str(count), str(bound), satisfied)
    assert (doc["verdict"], exit_code) == (verdict, 0 if verdict == "verified" else 2)


def test_text_format_has_runtime():
    out, err, code = run_captured(["count", "--star", "--n", "8", "-k", "2"])
    assert code == 0
    assert out.startswith("command: count --star --n 8 -k 2\n")
    assert "runtime_ms: None" not in out
    assert "verdict: verified" in out
    # the generating function takes 15 shift-adds, fewer steps than the 32
    # entries the two lists build
    assert "  engine: generating-function\n" in out


def test_json_runs_are_byte_identical(cli_runner):
    argv = ("count", "--random", "--n", "12", "-k", "3", "--seed", "5",
            "--format", "json")
    first = cli_runner(*argv)
    second = cli_runner(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout


def test_launcher_freezes_the_heap_before_the_process_exits(cli_runner, tmp_path):
    # shutdown's collections skip the permanent generation; the atexit hook
    # runs after launch() returns and before those collections
    (tmp_path / "sitecustomize.py").write_text(
        "import atexit, gc, sys\n"
        "atexit.register(lambda: sys.stderr.write(f'{gc.get_freeze_count()}\\n'))\n"
    )
    done = cli_runner("count", "--star", "--n", "8", "-k", "2", extra_path=tmp_path)
    assert done.returncode == 0
    assert int(done.stderr) > 0


def test_main_and_run_leave_the_heap_unfrozen(capsys):
    # tests call them in process, where a freeze would pin pytest's heap
    before = gc.get_freeze_count()
    assert cli.main(["count", "--star", "--n", "8", "-k", "2"]) == 0
    assert run_captured(["count", "--star", "--n", "8", "-k", "2"])[2] == 0
    assert gc.get_freeze_count() == before
    assert capsys.readouterr().out.startswith("command: count --star --n 8 -k 2\n")


def test_console_script_is_the_launcher():
    tomllib = pytest.importorskip("tomllib")
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["mmsverify"]
    module, name = target.split(":")
    assert getattr(importlib.import_module(module), name) is launch


@pytest.mark.parametrize("argv", [
    ("count", "--random", "--n", "12", "-k", "3", "--seed", "5"),
    ("verify", "--lemma", "wilson", "--random", "--n", "9", "-j", "2", "-k", "4"),
    ("spectrum", "--kind", "kneser", "--n", "6", "-j", "1", "-k", "2"),
    ("search", "--counterexample", "-k", "7", "-r", "1", "--value-range", "20"),
    ("gen", "--random", "--n", "6", "--seed", "3"),
], ids=lambda argv: argv[0])
def test_launcher_prints_the_bytes_run_prints(argv):
    argv = [*argv, "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    done = subprocess.run([sys.executable, "-m", "mmsverify", *argv], capture_output=True,
                          env=env, cwd=REPO_ROOT)
    out, err, code = run_captured(argv)
    assert (done.stdout, done.stderr, done.returncode) == (out.encode(), err.encode(), code)
