"""Run the mutant table: show that each check in it can fail.

Each row of tests/mutants.json names a file, an exact anchor text that
occurs once in it, the replacement that breaks the code, and the tests
expected to catch the break.  For every row this script applies the
replacement in a temporary copy of the repository, runs the named tests
there and reports the mutant as killed (a named test failed), survived (all
of them passed) or error (pytest could not run them, or ran past the row's
time limit).  Each row's tests first run once on the unmutated copy: a row
whose tests fail there is an error, and the mutated run may take ten times
as long as that clean run, but at least MIN_TIMEOUT_S seconds, so a mutant
that makes a test loop cannot hold the table for long.

    python tests/run_mutants.py [FILE ...]

With no argument every row runs.  Given files, only the rows whose `file`
is one of them run, so a change to one module re-runs only that module's
mutants; a path is taken relative to the current directory, and one that
no row names is an error (exit status 2).  The exit status is 0 when every
mutant that ran is killed and 1 otherwise.  This is not part of the tier-1
suite, which only checks that every anchor still occurs exactly once and
which rows a list of files selects (tests/test_mutant_table.py).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "mutants.json"
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
CLEAN_TIMEOUT_S = 600.0  # for the unmutated run of a row's tests
MIN_TIMEOUT_S = 60.0  # the mutated run's floor, whatever the clean run took
TIMEOUT_FACTOR = 10  # the mutated run's limit in clean-run times


def _pytest(copy: Path, tests: list[str], timeout: float) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, capture_output=True, text=True, timeout=timeout,
    )


def _exit_text(done: subprocess.CompletedProcess) -> str:
    tail = (done.stdout + done.stderr).strip().splitlines()[-1:]
    return f"pytest exited {done.returncode}: {' '.join(tail)}"


def run_row(copy: Path, row: dict) -> str:
    target = copy / row["file"]
    original = target.read_text(encoding="utf-8")
    if original.count(row["anchor"]) != 1:
        return "error: the anchor does not occur exactly once"
    start = time.monotonic()
    try:
        clean = _pytest(copy, row["tests"], CLEAN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return f"error: the unmutated run timed out after {CLEAN_TIMEOUT_S:g} s"
    if clean.returncode != 0:
        return f"error: the unmutated run failed, {_exit_text(clean)}"
    timeout = max(MIN_TIMEOUT_S, TIMEOUT_FACTOR * (time.monotonic() - start))
    target.write_text(original.replace(row["anchor"], row["replacement"]), encoding="utf-8")
    try:
        done = _pytest(copy, row["tests"], timeout)
    except subprocess.TimeoutExpired:
        return f"error: timed out after {timeout:.0f} s"
    finally:
        target.write_text(original, encoding="utf-8")
    if done.returncode == 1:  # pytest's "some tests failed"
        return "killed"
    if done.returncode == 0:
        return "survived"
    return f"error: {_exit_text(done)}"


def select_rows(rows: list[dict], files: list[str]) -> list[dict]:
    """The rows whose file is one of `files`, or every row for no files; a
    file that no row names raises ValueError."""
    if not files:
        return rows
    wanted = {Path(f).resolve() for f in files}
    unknown = wanted - {(ROOT / row["file"]).resolve() for row in rows}
    if unknown:
        raise ValueError(f"no mutant row names {', '.join(sorted(map(str, unknown)))}")
    return [row for row in rows if (ROOT / row["file"]).resolve() in wanted]


def main(files: list[str]) -> int:
    try:
        rows = select_rows(json.loads(TABLE.read_text(encoding="utf-8")), files)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
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
    sys.exit(main(sys.argv[1:]))
