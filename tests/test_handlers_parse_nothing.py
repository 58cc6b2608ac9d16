"""No claim handler parses its own parameters: the runner parses every one
through the claim's parameter table, so a handler calls neither
`field_from_name` nor a `.parse` method."""

import ast
from pathlib import Path

CLAIMS = Path(__file__).resolve().parent.parent / "src" / "ufdlab" / "claims.py"
PARSERS = {"field_from_name", "parse"}


def parsing_handlers(source: str) -> list[str]:
    """`handler: callee` for each call of a parser inside an `_h_*` def."""
    found = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_h_"):
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in PARSERS:
                    found.append(f"{node.name}: {name}")
    return found


def test_scan_sees_a_parsing_handler():
    source = ("def _h_a(params):\n    return field_from_name(params['field'])\n"
              "def _h_b(params):\n    return params['ring'].parse('x')\n"
              "def _poly(value, parsed):\n    return parsed['vars'].parse(value)\n")
    assert parsing_handlers(source) == ["_h_a: field_from_name", "_h_b: parse"]


def test_no_handler_parses_its_parameters():
    assert parsing_handlers(CLAIMS.read_text()) == []
