"""Each rule on the caller's data is worded once: no message that
`constructions` (the builders and their checkers) raises is raised in
`claims` too, so a claim leaves each rule to the builder's checker instead
of copying its check."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "ufdlab"


def raised_messages(source: str) -> set[str]:
    """The message of each `raise X(message, ...)` whose message is written
    out: a string literal as it is, an f-string with `{}` for each field."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                and node.exc.args):
            continue
        message = node.exc.args[0]
        if isinstance(message, ast.Constant) and isinstance(message.value, str):
            found.add(message.value)
        elif isinstance(message, ast.JoinedStr):
            found.add("".join(part.value if isinstance(part, ast.Constant) else "{}"
                              for part in message.values))
    return found


def test_scan_sees_literal_and_formatted_messages():
    source = ("def a(n):\n    raise ValueError('need three blocks')\n"
              "def b(n):\n    raise HypothesisError(f'got {n} blocks, ' f'need {3}')\n"
              "def c(err):\n    raise UsageError(err) from err\n"
              "def d():\n    raise\n")
    assert raised_messages(source) == {"need three blocks", "got {} blocks, need {}"}


def test_claims_raise_no_message_of_the_builders():
    builders = raised_messages((PACKAGE / "constructions.py").read_text())
    claims = raised_messages((PACKAGE / "claims.py").read_text())
    assert "(D.1) violated: need at least three exponent blocks" in builders
    assert builders & claims == set()
