"""Size caps shared by the heavier engines.

The defaults (total degree 64, 20000 terms) are deliberately small: every
instance this tool is meant for fits far below them, and anything above is a
sign the caller asked for something the desk-scale algorithms cannot finish.
Override with the environment variable UFDLAB_CAPS, each value a positive
integer, e.g.

    UFDLAB_CAPS="degree=128,terms=50000"
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass

DEFAULT_DEGREE_CAP = 64
DEFAULT_TERM_CAP = 20000


@dataclass(frozen=True)
class Caps:
    degree: int = DEFAULT_DEGREE_CAP
    terms: int = DEFAULT_TERM_CAP


def current_caps() -> Caps:
    """Read the active caps (environment override wins)."""
    return _parse_caps(os.environ.get("UFDLAB_CAPS", ""))


@functools.lru_cache(maxsize=8)
def _parse_caps(raw: str) -> Caps:
    """The caps that a UFDLAB_CAPS value sets, parsed once per distinct value
    (the engines ask on every call); a malformed value raises each time, as
    lru_cache does not keep exceptions."""
    degree, terms = DEFAULT_DEGREE_CAP, DEFAULT_TERM_CAP
    for piece in raw.split(","):
        piece = piece.strip()
        if not piece:
            continue
        key, _, value = piece.partition("=")
        key = key.strip()
        try:
            number = int(value)
        except ValueError as exc:
            raise ValueError(f"bad UFDLAB_CAPS entry {piece!r}") from exc
        if number < 1:
            raise ValueError(f"bad UFDLAB_CAPS entry {piece!r}: a cap must be at least 1")
        if key == "degree":
            degree = number
        elif key == "terms":
            terms = number
        else:
            raise ValueError(f"unknown UFDLAB_CAPS key {key!r}")
    return Caps(degree=degree, terms=terms)
