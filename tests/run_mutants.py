"""Run the mutant table: show that each check in it can fail.

Each row of tests/mutants.json names a file, an exact anchor text that
occurs once in it, the replacement that breaks the code, and the tests
expected to catch the break.  For every row this script applies the
replacement in a temporary copy of the repository, runs the named tests
there and reports the mutant as killed (a named test failed), survived (all
of them passed) or error (pytest could not run them, or ran past
TIMEOUT_S seconds).

    python tests/run_mutants.py

The exit status is 0 when every mutant is killed and 1 otherwise.  This is
not part of the tier-1 suite, which only checks that every anchor still
occurs exactly once (tests/test_mutant_table.py).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIMEOUT_S = 600.0  # per mutant


def run_row(copy: Path, row: dict) -> str:
    target = copy / row["file"]
    original = target.read_text(encoding="utf-8")
    if original.count(row["anchor"]) != 1:
        return "error: the anchor does not occur exactly once"
    target.write_text(original.replace(row["anchor"], row["replacement"]), encoding="utf-8")
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *row["tests"]],
            cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return f"error: timed out after {TIMEOUT_S:g} s"
    finally:
        target.write_text(original, encoding="utf-8")
    if done.returncode == 1:  # pytest's "some tests failed"
        return "killed"
    if done.returncode == 0:
        return "survived"
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"error: pytest exited {done.returncode}: {' '.join(tail)}"


def main() -> int:
    rows = json.loads(TABLE.read_text(encoding="utf-8"))
    failed = 0
    with tempfile.TemporaryDirectory(prefix="ufdlab-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        for row in rows:
            status = run_row(copy, row)
            failed += status != "killed"
            print(f"{status:9} {row['id']}", flush=True)
    print(f"{len(rows) - failed} of {len(rows)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
