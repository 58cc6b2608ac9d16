"""Every cap hit names its site, cap, limit and size: no package module
other than `errors` constructs `CapExceeded` itself, so each one is raised
through `errors.too_large`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ufdlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "errors.py")


def cap_constructions(source: str) -> list[int]:
    """Line numbers of the calls `CapExceeded(...)` or `x.CapExceeded(...)`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "CapExceeded":
                found.append(node.lineno)
    return found


def test_scan_sees_a_cap_construction():
    source = ("from .errors import CapExceeded, too_large\n"
              "def a():\n    raise CapExceeded('too big')\n"
              "def b():\n    raise errors.CapExceeded('too big')\n"
              "def c():\n    raise too_large('c', 'terms', 1, 2)\n"
              "def d():\n    try:\n        c()\n    except CapExceeded:\n        pass\n")
    assert cap_constructions(source) == [3, 5]


def test_errors_module_is_the_one_construction():
    assert cap_constructions((PACKAGE / "errors.py").read_text()) != []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_module_constructs_cap_exceeded(path):
    assert cap_constructions(path.read_text()) == []
