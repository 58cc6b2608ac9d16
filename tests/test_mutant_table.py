"""The mutant table (tests/mutants.json) cannot rot silently: each anchor
occurs exactly once in its file, and each test a row names is defined.
tests/run_mutants.py applies the rows; this only keeps them applicable."""

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
