"""The mutant table (tests/mutants.json) cannot rot silently: each anchor
occurs exactly once in its file, and each test a row names is defined.
tests/run_mutants.py applies the rows; this only keeps them applicable
and checks which rows the runner picks for the files it is given."""

import importlib.util
import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = json.loads((ROOT / "tests" / "mutants.json").read_text(encoding="utf-8"))


def test_row_ids_are_distinct():
    assert len({row["id"] for row in ROWS}) == len(ROWS)


@pytest.mark.parametrize("row", ROWS, ids=[row["id"] for row in ROWS])
def test_anchor_occurs_once_and_named_tests_exist(row):
    text = (ROOT / row["file"]).read_text(encoding="utf-8")
    assert text.count(row["anchor"]) == 1
    assert row["replacement"] != row["anchor"]
    assert row["tests"]
    for node in row["tests"]:
        path, name = node.split("::")
        name = name.split("[")[0]  # a parametrised case: its function
        source = (ROOT / path).read_text(encoding="utf-8")
        assert re.search(rf"^def {re.escape(name)}\(", source, re.M), node


def test_runner_selects_the_rows_of_the_files_given(monkeypatch):
    spec = importlib.util.spec_from_file_location("run_mutants", ROOT / "tests" / "run_mutants.py")
    runner = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(runner)
    select_rows = runner.select_rows
    assert select_rows(ROWS, []) == ROWS
    monkeypatch.chdir(ROOT / "src")
    omega = select_rows(ROWS, ["ufdlab/omega.py"])
    assert omega and omega == [row for row in ROWS if row["file"] == "src/ufdlab/omega.py"]
    both = select_rows(ROWS, ["ufdlab/omega.py", str(ROOT / "src" / "ufdlab" / "poly.py")])
    assert both == [row for row in ROWS
                    if row["file"] in ("src/ufdlab/omega.py", "src/ufdlab/poly.py")]
    with pytest.raises(ValueError, match="no mutant row names .*nosuch.py$"):
        select_rows(ROWS, ["ufdlab/omega.py", "nosuch.py"])
