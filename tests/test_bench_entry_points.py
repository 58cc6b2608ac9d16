"""Every ufdlab name the benchmark harness calls or wraps still exists.

The tracer wraps functions and methods by name, and the workloads call
module attributes through `from ufdlab import ...` aliases.  Renaming or
deleting one of them would otherwise surface only in a benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def tracer(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def alias_reads(source: str) -> set[tuple[str, str]]:
    """(module, attribute) for every `alias.attr` read on a name bound by
    `from ufdlab import module [as alias]`."""
    tree = ast.parse(source)
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ufdlab":
            aliases.update((a.asname or a.name, f"ufdlab.{a.name}") for a in node.names)
    return {
        (aliases[node.value.id], node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in aliases
    }


def test_alias_scan_sees_reads():
    source = "def f():\n    from ufdlab import omega as om, poly\n    om.a(poly.b.c)\n"
    assert alias_reads(source) == {("ufdlab.omega", "a"), ("ufdlab.poly", "b")}


def test_tracer_wrap_targets_resolve(tracer):
    missing = [
        f"{module}.{attr}"
        for _, _, targets in tracer.FUNCTIONS
        for module, attr in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    for _, _, module, cls, methods in tracer.METHODS:
        owner = getattr(importlib.import_module(module), cls, None)
        missing += [f"{module}.{cls}.{m}" for m in methods if not hasattr(owner, m)]
    assert missing == []


def test_workload_reads_resolve():
    reads = alias_reads((BENCH / "workloads.py").read_text())
    assert ("ufdlab.omega", "normal_form") in reads
    missing = [
        f"{module}.{attr}"
        for module, attr in sorted(reads)
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []
