import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mmsverify import cli

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_captured(argv):
    """cli.run in this process with the report caught: (stdout text, stderr text, exit code)."""
    out = io.StringIO()
    err, code = cli.run(argv, out)
    return out.getvalue(), err, code


@pytest.fixture(scope="session")
def cli_runner():
    """Run the CLI in a subprocess against the in-tree sources.

    extra_path, when given, is appended to PYTHONPATH (a test may put a
    sitecustomize module there to inject a fault into the process).
    """

    def run(*argv: str, extra_path: Path | None = None) -> subprocess.CompletedProcess:
        env = dict(os.environ)
        paths = [REPO_ROOT / "src"] + ([extra_path] if extra_path else [])
        env["PYTHONPATH"] = os.pathsep.join(str(p) for p in paths)
        return subprocess.run(
            [sys.executable, "-m", "mmsverify", *argv],
            capture_output=True,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )

    return run
