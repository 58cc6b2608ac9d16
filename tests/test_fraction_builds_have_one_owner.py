"""A Fraction built without normalising it is trusted to be in lowest terms,
so only `coeff` may build one that way: no other package module calls
`object.__new__(Fraction)` (or any call given the class `Fraction` first),
`Fraction._from_coprime_ints` or `Fraction(..., _normalize=False)`, or
assigns `_numerator`/`_denominator`."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ufdlab"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "coeff.py")
SLOTS = {"_numerator", "_denominator"}


def unnormalised_builds(source: str) -> list[int]:
    """Line numbers of the constructs that can build a Fraction in a form
    its constructor did not reduce."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            if node.attr == "_from_coprime_ints" or (
                    node.attr in SLOTS and isinstance(node.ctx, ast.Store)):
                found.append(node.lineno)
        elif isinstance(node, ast.Call):
            first = node.args[0] if node.args else None
            if (isinstance(first, ast.Name) and first.id == "Fraction"  # object.__new__(Fraction)
                    or any(k.arg == "_normalize" for k in node.keywords)):
                found.append(node.lineno)
            elif (isinstance(node.func, ast.Name) and node.func.id == "setattr"
                  and len(node.args) > 1 and isinstance(node.args[1], ast.Constant)
                  and node.args[1].value in SLOTS):
                found.append(node.lineno)
    return sorted(found)


def test_scan_sees_an_unnormalised_build():
    source = ("from fractions import Fraction\n"
              "def a():\n    r = object.__new__(Fraction)\n    r._numerator = 2\n"
              "    r._denominator = 4\n    return r\n"
              "def b():\n    return Fraction(2, 4, _normalize=False)\n"
              "def c():\n    return Fraction._from_coprime_ints(1, 2)\n"
              "def d(r):\n    setattr(r, '_denominator', 4)\n"
              "new = object.__new__\n"
              "def e(r):\n    return new(Fraction)\n"
              "def f(r):\n    return isinstance(r, Fraction) and Fraction(2, 4) + r._numerator\n")
    assert unnormalised_builds(source) == [3, 4, 5, 8, 10, 12, 15]


def test_coeff_is_the_one_module_that_builds_them():
    assert unnormalised_builds((PACKAGE / "coeff.py").read_text()) != []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_other_module_builds_an_unnormalised_fraction(path):
    assert unnormalised_builds(path.read_text()) == []
