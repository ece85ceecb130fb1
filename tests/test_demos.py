import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import run_captured

REPO_ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def test_the_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_clean(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    done = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, cwd=REPO_ROOT
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_python_blocks_run():
    # a README example that calls a retired name fails here
    blocks = re.findall(r"^```python\n(.*?)^```", (REPO_ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    for block in blocks:
        done = subprocess.run(
            [sys.executable, "-c", block], capture_output=True, text=True, env=env, cwd=REPO_ROOT
        )
        assert done.returncode == 0, (block, done.stderr)


def test_readme_cli_example_prints_what_the_cli_prints():
    # the first shell example and the JSON document shown under it
    text = (REPO_ROOT / "README.md").read_text()
    command, shown = re.search(r"^```sh\nmmsverify (.*?)\n```\n\n```json\n(.*?)^```", text, re.M | re.S).groups()
    assert run_captured(command.split()) == (shown, "", 0)
