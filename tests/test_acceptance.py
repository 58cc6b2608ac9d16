"""Acceptance suite: ten end-to-end criteria, one verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Criterion 4 checks the W-chain W_0 = J_0 = (1), W_i = b*J_{i-1} + (s^i),
J_i = (W_i : t) on two instances. For the chain built from
(b, s, t) = (u, v, 1) it asserts J_i = W_i = (u, v)^i: colon by the unit
t = 1 is the identity, so J_i = W_i, and by induction
W_i = u*(u, v)^{i-1} + (v^i) = (u, v)^i. The expected ideals are built with
`ideal_power` and confirmed by elimination (`lemma_level_check`). The
statement first written for this instance, W_i = (u) + (v^i) and
J_i = (1), is false (already J_1 = (u, v)); it is asserted as refuted.
"""

import json
import subprocess
import sys
import time

import jsonschema
import pytest

from ufdlab.claims import report_schema, run_claim
from ufdlab.coeff import QQ
from ufdlab.constructions import lemma_level_check, trinomial_ring, w_chain
from ufdlab.errors import HypothesisError
from ufdlab.groebner import ideal, ideal_equal, ideal_power
from ufdlab.poly import poly_ring


def _line(num: int, label: str, ok: bool, seconds: float, budget: float) -> None:
    verdict = "PASS" if ok else "FAIL"
    print(f"[{verdict}] criterion {num:2d}: {label} "
          f"({seconds:.2f}s, budget {budget:.0f}s)")


def _claims(*claim_ids):
    reports = [run_claim(cid) for cid in claim_ids]
    seconds = sum(r.elapsed_ms for r in reports) / 1000.0
    ok = all(r.status == "verified" for r in reports)
    return reports, seconds, ok


def test_criterion_01_groebner_soundness():
    reports, seconds, ok = _claims("groebner.soundness")
    witness = reports[0].witness
    ok = ok and witness["membership_agreements"] >= 100 and seconds < 10
    _line(1, "Ideal basis soundness vs membership oracle", ok, seconds, 10)
    assert reports[0].status == "verified", reports[0].witness
    assert witness["s_polynomials_reduced"] > 0
    assert witness["membership_agreements"] >= 100
    assert seconds < 10


def test_criterion_02_prime_avoidance_exhaustive():
    reports, seconds, ok = _claims("coeff.prime-avoid")
    witness = reports[0].witness
    ok = ok and witness["box"] == [-6, 6] and seconds < 5
    _line(2, "prime avoidance exhaustive box", ok, seconds, 5)
    assert reports[0].status == "verified", witness
    assert witness["tuples_checked"] > 10_000
    assert seconds < 5


def test_criterion_03_localization_kernel_saturated():
    reports, seconds, ok = _claims("samuel.kernel")
    witness = reports[0].witness
    ok = ok and witness["saturation_index"] == 0 and seconds < 1
    _line(3, "localization kernel already saturated", ok, seconds, 1)
    assert reports[0].status == "verified", witness
    assert witness["saturation_index"] == 0
    assert seconds < 1


def test_criterion_04_w_chain_level_identities():
    start = time.monotonic()
    ring = poly_ring(QQ, ("u", "v", "w"))
    u, v, w = ring.gens()
    W, J = w_chain(ring, u, v, w, 5)
    uv = ideal(ring, u, v)
    regular_ok = all(
        ideal_equal(W[i], ideal_power(uv, i))
        and ideal_equal(J[i], W[i])
        for i in range(1, 6)
    )

    small = poly_ring(QQ, ("u", "v"))
    us, vs = small.gens()
    unit_W, unit_J = w_chain(small, us, vs, small.one(), 5)
    uv_small = ideal(small, us, vs)
    unit_w_ok = all(
        ideal_equal(unit_W[i], ideal_power(uv_small, i)) for i in range(1, 6)
    )
    unit_j_ok = all(
        ideal_equal(unit_J[i], unit_W[i]) for i in range(1, 6)
    )
    # the contraction of (v^i, vX - u) to QQ[u, v] equals W_i at every level
    elimination = lemma_level_check(small, us, vs, small.one(), 5)
    elimination_ok = all(elimination) and elimination == [True] * 6
    # the statement first written for this instance, W_i = (u) + (v^i) and
    # J_i = (1), is false: W_2 = (u^2, uv, v^2) and J_1 = (u, v)
    refuted = (
        not ideal_equal(unit_W[2], ideal(small, us, vs**2))
        and not unit_J[1].is_trivial()
    )

    seconds = time.monotonic() - start
    ok = (regular_ok and unit_w_ok and unit_j_ok and elimination_ok
          and refuted and seconds < 5)
    _line(4, "W-chain level identities", ok, seconds, 5)
    assert regular_ok
    assert seconds < 5
    assert unit_w_ok, (
        "W_i = (u, v)^i for t = 1: by induction "
        "W_i = u*(u, v)^{i-1} + (v^i) = (u, v)^i"
    )
    assert unit_j_ok, "J_i = (W_i : 1) = W_i: colon by a unit is the identity"
    assert elimination_ok, elimination
    assert refuted, "W_2 = (u) + (v^2) and J_1 = (1) must both be false"


def test_criterion_05_levelwise_elimination():
    reports, seconds, ok = _claims("lemma32.levels")
    witness = reports[0].witness
    ok = ok and witness["levels"] == [True] * 5 and seconds < 10
    _line(5, "level-wise elimination matches the chain", ok, seconds, 10)
    assert reports[0].status == "verified", witness
    assert witness["levels"] == [True] * 5  # levels 0 through 4 inclusive
    assert seconds < 10


def test_criterion_06_rewriting_suite():
    reports, seconds, ok = _claims(
        "omega.basis", "omega.z-relations", "omega.confluence"
    )
    basis, relations, confluence = reports
    ok = ok and confluence.witness["identical"] == 100 and seconds < 20
    _line(6, "rewriting suite: basis form, x-membership, confluence",
          ok, seconds, 20)
    assert basis.status == "verified", basis.witness
    assert basis.witness["normal_form"] == "deg 2: [(0, 2, -1), (2, 4, -1)]"
    assert relations.status == "verified", relations.witness
    assert relations.witness["non_members"] == [0, 1, 2, 3, 4]
    assert confluence.status == "verified", confluence.witness
    assert confluence.witness["identical"] == 100
    assert seconds < 20


def test_criterion_07_order_certificates_and_coordinates():
    reports, seconds, ok = _claims(
        "cex.m-order", "cex.x-order", "cex.coords", "cex.sseq"
    )
    m_order, x_order, coords, sseq = reports
    ok = ok and seconds < 30
    _line(7, "order certificates and coordinate identities", ok, seconds, 30)
    assert m_order.status == "verified", m_order.witness
    assert m_order.witness["log_sizes"][10] == 55  # n(n+1)/2 entries at n=10
    assert m_order.witness["exact_floors"] == {"1": 1, "2": 2, "3": 3}
    assert x_order.status == "verified", x_order.witness
    assert x_order.witness["exact_orders"]["2"] == {"divisible": 2, "sharp": True}
    assert coords.status == "verified", coords.witness
    assert coords.witness["levels"]["3"] == {
        "composite_linearizes": True,
        "mod_x_matches": True,
        "mod_y_matches": True,
    }
    assert sseq.status == "verified", sseq.witness
    assert sseq.witness["values"] == [2, 3, 6, 24, 180]
    assert seconds < 30


def test_criterion_08_jacobian_rank_and_tangent():
    reports, seconds, ok = _claims("jacobian.rank")
    witness = reports[0].witness
    ok = ok and witness["rank"] == 0 and witness["tangent_dim"] == 4 and seconds < 1
    _line(8, "jacobian rank and tangent dimension", ok, seconds, 1)
    assert reports[0].status == "verified", witness
    assert witness["rank"] == 0
    assert witness["tangent_dim"] == 4
    assert witness["exponent_one_rejected"]
    assert seconds < 1


def test_criterion_09_graded_builders_and_irreducibility():
    start = time.monotonic()
    reports, claim_seconds, ok = _claims(
        "trinomial.validate", "pham.cases", "groebner.irreducible"
    )
    trinomial, pham, irreducible = reports
    with pytest.raises(HypothesisError, match=r"\(D\.2\)"):
        trinomial_ring(QQ, [[2], [2], [3]], [1])
    seconds = time.monotonic() - start
    ok = ok and seconds < 10
    _line(9, "graded builders and irreducibility search", ok, seconds, 10)
    assert trinomial.status == "verified", trinomial.witness
    assert trinomial.witness["step_gradings"][0]["weights"] == {"t0": 3, "t1": 2}
    assert trinomial.witness["step_gradings"][0]["degree"] == 6
    assert trinomial.witness["gcd_last_exponent_vs_degree"] == 1
    assert pham.status == "verified", pham.witness
    assert pham.witness["chain"]["case"].startswith("case (1)")
    assert pham.witness["reject"]["rejected"]
    assert irreducible.status == "verified", irreducible.witness
    assert irreducible.witness["verdict"] == "irreducible"
    assert seconds < 10


def test_criterion_10_cli_end_to_end(tmp_path):
    start = time.monotonic()
    out = tmp_path / "reports.json"
    proc = subprocess.run(
        [sys.executable, "-m", "ufdlab.cli", "claim", "run-all",
         "--suite", "acceptance", "--out", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    seconds = time.monotonic() - start
    docs = json.loads(out.read_text()) if out.exists() else []
    schema = report_schema()
    schema_ok = True
    for doc in docs:
        try:
            jsonschema.validate(doc, schema)
        except jsonschema.ValidationError:
            schema_ok = False
    ok = proc.returncode == 0 and schema_ok and len(docs) == 17 and seconds < 120
    _line(10, "CLI run-all on shipped parameters", ok, seconds, 120)
    assert proc.returncode == 0, proc.stderr
    assert len(docs) == 17
    assert schema_ok
    assert all(d["status"] == "verified" for d in docs)
    assert seconds < 120
