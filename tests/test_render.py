"""The json format's bytes are those of json.dumps(doc, sort_keys=True, indent=2).

The text format's are those of the one-string renderer in the oracles, and
both are written chunk by chunk, never held whole.
"""

import json
import sys
import tracemalloc
from itertools import combinations

import pytest
from _oracles import render_text
from conftest import run_captured
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsverify import cli
from mmsverify.report import BitRow, ColexIndex

TRICKY_TEXT = ('quo"te', "back\\slash", "tab\tnew\nline\x00\x1f", "café ∀ε", "\U0001d49c", "")

scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from((0.0, -0.0, 1e300, -1e-300))
    | st.text()
    | st.sampled_from(TRICKY_TEXT)
)
keys = st.text(max_size=6) | st.sampled_from(TRICKY_TEXT)
documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(keys, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(keys, documents, max_size=6))
def test_rendered_json_equals_indented_dumps(doc):
    assert "".join(cli._render(doc, "json")) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_tuples_render_as_arrays():
    doc = {"pair": (1, (2, 3)), "empty": (), "rows": [(0, 1), {"z": (), "a": [None]}]}
    assert "".join(cli._render(doc, "json")) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _text_doc(report, inputs=None):
    return {"command": "c", "verdict": "verified", "runtime_ms": 1.5,
            "inputs": inputs or {}, "report": report}


def test_tuples_render_as_arrays_in_text():
    as_tuples = _text_doc({"t": (1, 2), "nested": [(3, (4,)), ()], "empty": ()})
    as_lists = _text_doc({"t": [1, 2], "nested": [[3, [4]], []], "empty": []})
    text = "".join(cli._render(as_tuples, "text"))
    assert text == "".join(cli._render(as_lists, "text"))
    assert "  t:\n    - 1\n    - 2\n" in text
    assert "  empty: []\n" in text


text_documents = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=5).map(tuple)
    | st.dictionaries(keys, inner, max_size=5),
    max_leaves=40,
)


@settings(max_examples=200, deadline=None)
@given(text_documents, text_documents)
def test_streamed_text_equals_one_string_renderer(inputs, report):
    doc = _text_doc(report, inputs)
    assert "".join(cli._render(doc, "text")) == render_text(doc)


def _bits(value):
    """json.dumps's default hook: a BitRow is the list of its entries, a ColexIndex the list of its subsets."""
    if isinstance(value, BitRow):
        return [value.bits >> c & 1 for c in range(value.width)]
    if isinstance(value, ColexIndex):
        return [list(subset) for subset in value]
    raise TypeError(f"{type(value).__name__} is not JSON serializable")


def _unpacked(value):
    """value with every BitRow and ColexIndex replaced by the list _bits makes of it."""
    if isinstance(value, dict):
        return {key: _unpacked(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_unpacked(item) for item in value]
    return _bits(value) if isinstance(value, (BitRow, ColexIndex)) else value


bit_rows = st.integers(0, 140).flatmap(
    lambda width: st.integers(0, (1 << width) - 1).map(lambda bits: BitRow(bits, width))
)
colex_indexes = st.integers(0, 7).flatmap(lambda n: st.integers(0, n).map(lambda m: ColexIndex(n, m)))


@settings(max_examples=100, deadline=None)
@given(st.recursive(bit_rows | colex_indexes | scalars, lambda inner: st.lists(inner, max_size=4)
                    | st.dictionaries(keys, inner, max_size=4), max_leaves=12))
def test_bit_rows_render_as_arrays_of_their_entries(report):
    # width 0 and a top bit of 0 included; bit c is entry c. A ColexIndex
    # renders as the array of its subsets, m = 0 (one empty subset) included
    doc = _text_doc(report)
    want = json.dumps(doc, sort_keys=True, indent=2, default=_bits) + "\n"
    assert "".join(cli._render(doc, "json")) == want
    assert "".join(cli._render(doc, "text")) == render_text(_unpacked(doc))


def test_colex_index_lists_the_subsets_in_colex_order():
    for n in range(7):
        for m in range(n + 1):
            want = sorted(combinations(range(n), m), key=lambda t: t[::-1])
            index = ColexIndex(n, m)
            assert list(index) == want and len(index) == len(want)


def test_every_subcommand_document_renders_as_indented_dumps(monkeypatch, tmp_path):
    seen = []
    render = cli._render

    def recording(doc, fmt):
        seen.append(doc)
        return render(doc, fmt)

    monkeypatch.setattr(cli, "_render", recording)
    commands = [
        ("count", "--random", "--n", "12", "-k", "3", "--restrict", "contains:0"),
        ("count", "--star", "--n", "9", "-k", "2"),
        ("verify", "--lemma", "scalar", "--n", "20", "-k", "3"),
        ("spectrum", "--kind", "kneser", "--n", "7", "-j", "2", "-k", "3"),
        ("search", "--n", "8", "-k", "2", "--max-distinct", "3", "--value-range", "3"),
        ("gen", "--random", "--n", "6", "--seed", "2"),
        ("gen", "--star", "--n", "5", "--out", str(tmp_path / "w.json")),
    ]
    for lemma in cli.LEMMA_TOKENS:
        if lemma != "scalar":
            commands.append(("verify", "--random", "--n", "11", "-k", "2", "--seed", "3",
                             "--lemma", lemma, "-j", "1", "--trials", "50"))
    for argv in commands:
        out, err, code = run_captured([*argv, "--format", "json"])
        assert err == "" and code in (0, 1, 2), argv
        assert out == json.dumps(seen[-1], sort_keys=True, indent=2, default=_bits) + "\n", argv
    assert len(seen) == len(commands)


class _CountingSink:
    def __init__(self):
        self.chars = 0

    def write(self, chunk):
        self.chars += len(chunk)

    def flush(self):
        pass


# tracemalloc peak of one spectrum run at (16, 2, 5): 513 kB (json) and
# 503 kB (text) in a fresh process on Python 3.11; json took 730-890 kB when
# the column index was a whole list of 4,368 tuples, and the rows took
# 4.2 MB when they were tuples of 0/1 entries
@pytest.mark.parametrize("fmt,bound", [("json", 650_000), ("text", 650_000)], ids=["json", "text"])
def test_spectrum_prints_within_a_fixed_peak(monkeypatch, fmt, bound):
    argv = ["spectrum", "--kind", "inclusion", "--n", "16", "-j", "2", "-k", "5", "--format", fmt]
    sink = _CountingSink()
    monkeypatch.setattr(sys, "stdout", sink)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.chars > 5_000_000
    assert peak <= bound, peak
