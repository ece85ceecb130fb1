"""The benchmark's library runner calls only names the package has.

perfbench/child.py reaches the library as m.<name> (and mmsverify.<name>),
so a public name it uses could be deleted with every other test still green.
"""

import ast

from conftest import REPO_ROOT

import mmsverify


def test_every_library_name_the_benchmark_calls_exists():
    tree = ast.parse((REPO_ROOT / "perfbench" / "child.py").read_text())
    used = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in ("m", "mmsverify")
    }
    assert {"count_nonnegative", "restricted_sum", "load_weights"} <= used
    assert sorted(name for name in used if not hasattr(mmsverify, name)) == []
