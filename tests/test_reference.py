"""Byte-identity against the benchmark's recorded outputs.

`perfbench/reference.json` holds a digest of every shipped claim report and
of the two depth-3 expansions, captured by `perfbench/capture_reference.py`.
A digest is the first 16 hex digits of the sha256 of the text; a report's
text is its JSON with `elapsed_ms` dropped and the keys sorted, as
`perfbench/workloads.report_digest` computes it.  This file only reads the
reference.
"""

import hashlib
import json
from pathlib import Path

import pytest

from ufdlab import counterexample
from ufdlab.claims import REGISTRY, report_schema, run_claim
from ufdlab.cli import _checked_json

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "reference.json").read_text()
)


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_reference_covers_every_claim():
    assert sorted(REFERENCE["suite"]) == sorted(REGISTRY)


@pytest.mark.parametrize("cid", list(REGISTRY))
def test_shipped_report_matches_reference_digest(cid):
    doc = _checked_json(run_claim(cid), report_schema())
    stable = {k: v for k, v in doc.items() if k != "elapsed_ms"}
    assert _digest(json.dumps(stable, sort_keys=True)) == REFERENCE["suite"][cid]


@pytest.mark.parametrize("name", ["expand_z0", "expand_z0_bprime"])
def test_depth_three_expansion_matches_reference_digest(name):
    p = getattr(counterexample, name)(3)
    assert _digest(str(p)) == REFERENCE["rewrite"][name]
