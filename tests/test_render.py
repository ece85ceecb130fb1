"""The json format's bytes are those of json.dumps(doc, sort_keys=True, indent=2).

The text format's are those of the one-string renderer in the oracles, and
both are written chunk by chunk, never held whole.
"""

import json
import sys
import tracemalloc

import pytest
from _oracles import render_text
from conftest import run_captured
from hypothesis import given, settings
from hypothesis import strategies as st

from mmsverify import cli
from mmsverify.scheme import build_structure_matrix

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
        assert out == json.dumps(seen[-1], sort_keys=True, indent=2) + "\n", argv
    assert len(seen) == len(commands)


class _CountingSink:
    def __init__(self):
        self.chars = 0

    def write(self, chunk):
        self.chars += len(chunk)

    def flush(self):
        pass


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_spectrum_prints_within_one_and_a_half_matrices(monkeypatch, fmt):
    # a renderer that joins the report into one string peaks at about 4 (json) and 12 (text) matrices
    argv = ["spectrum", "--kind", "inclusion", "--n", "16", "-j", "2", "-k", "5", "--format", fmt]
    sink = _CountingSink()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = build_structure_matrix("inclusion", 16, 2, 5)
        size = tracemalloc.get_traced_memory()[0] - before
        del matrix
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert sink.chars > 5_000_000
    assert peak <= 1.5 * size, (peak, size)
