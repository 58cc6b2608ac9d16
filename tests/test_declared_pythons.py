"""The other interpreters the package declares (requires-python >= 3.10)
give the same acceptance reports as the one running the tests, apart from
`elapsed_ms`.  An interpreter is looked for on PATH and then under the
pyenv version directories; one that is found nowhere, or does not start, is
skipped by name."""

import os
import re
import shutil
import subprocess
import sys
from importlib import resources
from pathlib import Path

import pytest

SRC = str(resources.files("ufdlab").parent)
OTHERS = ("python3.10", "python3.12", "python3.13")


def _interpreter(name: str):
    """The first `name` that starts: the one on PATH (a pyenv shim there may
    not), else one in `$PYENV_ROOT/versions/*/bin` (`~/.pyenv` by default)."""
    root = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found = [shutil.which(name), *map(str, sorted(root.glob(f"versions/*/bin/{name}")))]
    for python in filter(None, found):
        if subprocess.run([python, "-c", "pass"], capture_output=True, timeout=60).returncode == 0:
            return python
    return None


def _run_all(python: str) -> str:
    """The acceptance suite's report text under `python`, each `elapsed_ms`
    set to 0."""
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0", PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run([python, "-m", "ufdlab.cli", "claim", "run-all", "--suite", "acceptance"],
                          capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    return re.sub(r'"elapsed_ms": \d+', '"elapsed_ms": 0', done.stdout)


@pytest.fixture(scope="module")
def own_reports():
    return _run_all(sys.executable)


@pytest.mark.parametrize("name", OTHERS)
def test_declared_python_gives_the_same_reports(name, own_reports):
    python = _interpreter(name)
    if python is None:
        pytest.skip(f"{name} is neither on PATH nor under the pyenv versions, or does not start")
    assert _run_all(python) == own_reports
