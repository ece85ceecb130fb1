from conftest import REPO_ROOT
from mutants import MUTANTS


def test_each_mutant_target_occurs_once_in_src():
    # tests/mutants.py applies each mutant by text replacement, so a target
    # that vanishes or repeats after an edit must fail here, not go stale
    sources = [path.read_text() for path in (REPO_ROOT / "src").rglob("*.py")]
    for path, target, replacement, _ in MUTANTS:
        assert sum(text.count(target) for text in sources) == 1, target
        assert (REPO_ROOT / path).read_text().count(target) == 1, (path, target)
        assert replacement != target
