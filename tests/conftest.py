import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent


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
