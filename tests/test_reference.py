"""Byte-identity against the benchmark's recorded outputs.

`perfbench/reference.json` holds a digest of every shipped claim report, of
the two depth-3 expansions and of the reduced bases of the fixed benchmark
ideals, captured by `perfbench/capture_reference.py`.
A digest is the first 16 hex digits of the sha256 of the text; a report's
text is its JSON with `elapsed_ms` dropped and the keys sorted, as
`perfbench/workloads.report_digest` computes it; a basis's text is its
elements' text, one per line, as `perfbench/workloads.basis_digest` computes
it.  This file only reads the reference and the benchmark's sources.
"""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from ufdlab import counterexample
from ufdlab.claims import REGISTRY, report_schema, run_claim
from ufdlab.cli import _checked_json
from ufdlab.coeff import field_from_name
from ufdlab.groebner import buchberger
from ufdlab.poly import poly_ring

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
REFERENCE = json.loads((BENCH / "reference.json").read_text())


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


@pytest.fixture
def instances(monkeypatch):
    monkeypatch.setattr("sys.dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_instances", BENCH / "instances.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "family, n, field_name",
    [("cyclic", 4, "GF(32003)"), ("katsura", 4, "GF(32003)"), ("katsura", 3, "Q"),
     ("katsura", 4, "Q")],
)
def test_fixed_reduced_basis_matches_reference_digest(instances, family, n, field_name):
    # reduced bases are canonical, so any change to division or to the pair
    # handling that alters one is a bug
    names, texts = getattr(instances, family)(n)
    ring = poly_ring(field_from_name(field_name), names)
    basis = buchberger([ring.parse(t) for t in texts])
    text = "\n".join(str(g) for g in basis)
    assert _digest(text) == REFERENCE["fixed"][f"{family}-{n}/{field_name}"]
