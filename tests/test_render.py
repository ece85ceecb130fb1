"""The json format's bytes are those of json.dumps(doc, sort_keys=True, indent=2)."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from mmsverify import cli

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
    assert cli._render(doc, "json") == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_tuples_render_as_arrays():
    doc = {"pair": (1, (2, 3)), "empty": (), "rows": [(0, 1), {"z": (), "a": [None]}]}
    assert cli._render(doc, "json") == json.dumps(doc, sort_keys=True, indent=2) + "\n"


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
        out, err, code = cli.run([*argv, "--format", "json"])
        assert err == "" and code in (0, 1, 2), argv
        assert out == json.dumps(seen[-1], sort_keys=True, indent=2) + "\n", argv
    assert len(seen) == len(commands)
