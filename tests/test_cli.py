import json
import time
from fractions import Fraction

import pytest

from mmsverify import lemmas, search
from mmsverify.cli import run
from mmsverify.weights import load_weights


def run_json(*argv):
    out, err, code = run([*argv, "--format", "json"])
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
    # generating function is as far over its budget as C(60,10) is over the walk's
    primes = [p for p in range(2, 300) if all(p % q for q in range(2, p))][:59]
    head = [Fraction(1, p) for p in primes]
    path = tmp_path / "huge_lcm.json"
    path.write_text(json.dumps({"weights": [str(v) for v in head + [-sum(head)]]}))
    started = time.perf_counter()
    out, err, code = run(["verify", "--lemma", "2", "--weights", str(path), "-k", "10"])
    assert time.perf_counter() - started < 1.0
    assert code == 2
    assert out == ""
    assert "enumeration budget" in err
    assert "generating-function counter" in err


def test_eigenvector_over_pair_budget_exits_2_with_a_message():
    for extra in ([], ["-j", "2"]):
        started = time.perf_counter()
        out, err, code = run(["verify", "--lemma", "eigenvector", "--random", "--n", "30", "-k", "5", *extra])
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert out == ""
        assert "enumeration budget" in err


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


def test_count_star_at_n_8k_squared_reports_star_equality():
    doc, code = run_json("count", "--star", "--n", "392", "-k", "7")
    assert code == 0
    assert doc["report"]["star_equality"] is True
    assert doc["report"]["engine"] == "generating-function"


def test_count_with_k_near_n_answers():
    # C(67,62) is within the walk's subset budget but its table is not; the
    # count (4457891, the number of 5-subsets with sum <= 0 by brute force)
    # is below C(66,61), which is no contradiction for k > n/2
    doc, code = run_json("count", "--random", "--n", "67", "-k", "62")
    assert code == 1
    assert doc["verdict"] == "violated"
    assert doc["report"]["engine"] == "generating-function"
    assert doc["report"]["nonnegative_count"] == "4457891"
    assert doc["report"]["bound_comparisons"][0]["value"] == "8936928"


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
        out, err, code = run(argv)
        assert code == 2, argv
        assert not out


def test_input_errors_exit_2(tmp_path):
    missing = tmp_path / "nope.json"
    out, err, code = run(["count", "--weights", str(missing), "-k", "2"])
    assert code == 2
    assert "error" in err
    bad_sum = tmp_path / "bad.json"
    bad_sum.write_text(json.dumps({"weights": [1, 1]}))
    out, err, code = run(["count", "--weights", str(bad_sum), "-k", "1"])
    assert code == 2
    assert "residual" in err


def test_eigenvector_at_k_equal_n_exits_2_with_a_message():
    # at k = n the only k-subset is the whole ground set, so b is zero
    for extra in ([], ["-j", "0"]):
        out, err, code = run(["verify", "--lemma", "eigenvector", "--star", "--n", "5", "-k", "5", *extra])
        assert code == 2, extra
        assert out == ""
        assert "needs k < n" in err and "zero vector" in err


def test_partition_trials_over_budget_exits_2_fast():
    # 3,000,000 trials at n = 12, k = 2 shuffle 30M indices in all
    started = time.perf_counter()
    out, err, code = run(["verify", "--lemma", "partition", "--star", "--n", "12", "-k", "2",
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
    out, err, code = run(["search", "--n", "8", "-k", "2", "--format", "json"])
    assert (out, code) == ("", 3)
    assert err == "mmsverify: internal error: RuntimeError: count disagreement\n"
    monkeypatch.setattr(lemmas, "count_nonnegative", _raise(AssertionError("U must keep a negative sum")))
    out, err, code = run(["verify", "--lemma", "partition", "--star", "--n", "8", "-k", "2"])
    assert (out, code) == ("", 3)
    assert err == "mmsverify: internal error: AssertionError: U must keep a negative sum\n"


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


def test_preconditions_not_met_exits_2():
    out, err, code = run(["verify", "--lemma", "scalar", "--n", "5", "-k", "3",
                          "--format", "json"])
    assert code == 2
    assert json.loads(out)["verdict"] == "preconditions-not-met"


def test_violation_exits_1():
    # the counterexample sweep finds patterns under the bound at n = 22
    out, err, code = run(["search", "--counterexample", "-k", "7", "-r", "1",
                          "--value-range", "40", "--format", "json"])
    assert code == 1
    doc = json.loads(out)
    assert doc["verdict"] == "violated"
    assert doc["report"]["violation"] is True


def test_text_format_has_runtime():
    out, err, code = run(["count", "--star", "--n", "8", "-k", "2"])
    assert code == 0
    assert out.startswith("command: count --star --n 8 -k 2\n")
    assert "runtime_ms: None" not in out
    assert "verdict: verified" in out
    # 28 subsets: walking them is cheaper than setting up the generating function
    assert "  engine: enumeration\n" in out


def test_json_runs_are_byte_identical(cli_runner):
    argv = ("count", "--random", "--n", "12", "-k", "3", "--seed", "5",
            "--format", "json")
    first = cli_runner(*argv)
    second = cli_runner(*argv)
    assert first.returncode == 0
    assert first.stdout == second.stdout

