"""Every top-level def and class of the package is reached from outside the tests.

A def counts as reached when its name appears in `perfbench/*.py`, in the
module-level code of a package module (the claim registry, the CLI entry
point), or in the body of a def already reached.  The scan matches names,
not resolved bindings, so it can only err towards "reached".  Code kept for
a planned use sits on ALLOWLIST with the ROADMAP item it waits for.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "ufdlab").glob("*.py"))
BENCH = sorted((ROOT / "perfbench").glob("*.py"))

ALLOWLIST = {
    "constructions.check_condition_P": "ROADMAP item 5, the samuel.condition-p claim",
    "constructions.ConditionPReport": "ROADMAP item 5, the samuel.condition-p claim",
    "constructions.Clause": "ROADMAP item 5, the samuel.condition-p claim",
    "constructions.present_extension": "ROADMAP item 5, the samuel.condition-p claim",
    "poly.laurent_iso": "ROADMAP item 5, the laurent.iso claim",
}


def _names(tree: ast.AST) -> set[str]:
    """Every identifier a tree names: variables, attributes, imported names
    and string constants (the tracer wraps its targets by name)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unreached(package: dict[str, str], bench: list[str]) -> list[str]:
    """`module.name` of each top-level def/class of `package` (module name ->
    source) that no root reaches; the roots are the `bench` sources and the
    module-level statements of the package other than imports."""
    reached = set().union(*(_names(ast.parse(source)) for source in bench))
    pending = {}
    for module, source in package.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                pending[f"{module}.{node.name}"] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= _names(node)
    grew = True
    while grew:
        grew = False
        for key, node in list(pending.items()):
            if node.name in reached:
                reached |= _names(node)
                del pending[key]
                grew = True
    return sorted(pending)


def test_scan_sees_an_unreached_def():
    package = {
        "a": "from b import used\nclass K:\n    pass\ndef helper():\n    return K()\n"
             "def dead():\n    return helper()\nTABLE = {'x': used}\n",
        "b": "def used():\n    return 1\ndef wrapped():\n    pass\ndef orphan():\n    pass\n",
    }
    bench = ["from a import helper\nTARGETS = [('b', 'wrapped')]\n"]
    assert unreached(package, bench) == ["a.dead", "b.orphan"]


def test_every_def_is_reached_or_allowlisted():
    package = {p.stem: p.read_text() for p in PACKAGE}
    bench = [p.read_text() for p in BENCH]
    missing = unreached(package, bench)
    assert [key for key in missing if key not in ALLOWLIST] == []
    # an allowlisted def that something now reaches leaves the list
    assert sorted(ALLOWLIST) == [key for key in missing if key in ALLOWLIST]
