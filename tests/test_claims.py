"""Claim registry and runner: statuses, witnesses, bounds, determinism."""

import dataclasses
import itertools
import json
import math
import random
import sys

import jsonschema
import pytest
from oracles import buchberger

from ufdlab import claims, constructions, groebner
from ufdlab.claims import (
    REGISTRY,
    ClaimReport,
    Param,
    UsageError,
    _parse_params,
    default_params,
    exit_code,
    report_schema,
    run_claim,
    suite_claims,
)
from ufdlab.cli import _checked_json
from ufdlab.coeff import field_from_name
from ufdlab.constructions import w_chain
from ufdlab.errors import HypothesisError
from ufdlab.omega import OmegaPoly
from ufdlab.poly import Polynomial, poly_ring


def test_registry_is_nonempty_and_self_describing():
    assert len(REGISTRY) == 17
    for cid, spec in REGISTRY.items():
        assert spec.claim_id == cid
        assert spec.statement.strip()
        assert isinstance(spec.params, dict)
        assert all(isinstance(p, Param) for p in spec.params.values())


def test_acceptance_suite_covers_the_whole_registry():
    assert suite_claims("acceptance") == list(REGISTRY)


def test_every_claim_ships_fixture_parameters():
    for cid, spec in REGISTRY.items():
        params = default_params(cid)
        assert isinstance(params, dict)
        assert set(params) <= set(spec.params)


def test_shipped_parameters_pass_their_own_validation():
    for cid, spec in REGISTRY.items():
        _parse_params(spec, default_params(cid))


CHECKERS = ("relatively_prime", "common_radical", "chain_exponents", "units",
            "trinomial_blocks", "trinomial_constants", "pham_case")


def _checker_calls(run) -> dict:
    """The calls of each builder checker that are made while `run()` runs,
    counted by code object, so a reference held under any name is seen."""
    codes = {getattr(constructions, name).__code__: name for name in CHECKERS}
    calls = dict.fromkeys(CHECKERS, 0)

    def profile(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            calls[codes[frame.f_code]] += 1

    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
    return {name: n for name, n in calls.items() if n}


def test_checker_calls_are_counted():
    field = field_from_name("Q")
    held = constructions.units  # a reference taken before the count starts is counted too
    assert _checker_calls(lambda: held(field, [1, 2])) == {"units": 1}
    built = _checker_calls(lambda: constructions.trinomial_ring(field, [[2], [3], [5]], [1]))
    assert built == {"trinomial_blocks": 1, "trinomial_constants": 1, "units": 1}


@pytest.mark.parametrize("cid, calls", [
    ("lemma32.levels", {"relatively_prime": 2}),
    # jacobian.rank builds twice: its instance, and the exponent-one instance
    # that reject_exponent_one expects to be refused
    ("jacobian.rank", {"common_radical": 2, "chain_exponents": 2, "units": 4}),
    ("trinomial.validate", {"trinomial_blocks": 1, "trinomial_constants": 1, "units": 1}),
    # three builds: coprime_triple, chain and reject
    ("pham.cases", {"pham_case": 3}),
])
def test_each_hypothesis_is_checked_once_per_build(cid, calls):
    assert _checker_calls(lambda: run_claim(cid)) == calls


def test_parsing_checks_no_hypothesis():
    for cid, spec in REGISTRY.items():
        assert _checker_calls(lambda: _parse_params(spec, default_params(cid))) == {}, cid


def test_default_params_returns_a_fresh_copy():
    first = default_params("pham.cases")
    first["chain"].append(99)
    first["triple_weights"]["Z"] = 0
    first["field"] = "GF(7)"
    assert default_params("pham.cases")["chain"] == [2, 3, 4, 5]
    assert default_params("pham.cases")["triple_weights"]["Z"] == 6
    assert default_params("pham.cases")["field"] == "Q"
    assert run_claim("pham.cases").status == "verified"


def test_unfilled_parameters_stay_absent():
    # filling the shipped expectations in would refute these instances
    rep = run_claim("pham.cases", {"coprime_triple": [2, 3, 7]})
    assert rep.status == "verified", rep.witness
    assert set(rep.witness) == {"coprime_triple"}
    assert rep.params == {"coprime_triple": [2, 3, 7]}
    rep = run_claim("trinomial.validate", {"beta": [[2], [3], [7]], "lambdas": [1]})
    assert rep.status == "verified", rep.witness


@pytest.mark.parametrize("cid, params, match", [
    ("groebner.soundness", {"trials": 0}, "must be >= 1, got 0"),
    ("groebner.soundness", {"trials": -1}, "must be >= 1, got -1"),
    ("cex.m-order", {"n_max": -1}, "must be >= 0, got -1"),
    ("wchain.regular", {"i_max": 0}, "must be >= 1, got 0"),
    ("coeff.prime-avoid", {"lo": 1, "hi": 0}, "empty box"),
    ("samuel.kernel", {"field": "Q"}, "samuel.kernel is required"),
    ("jacobian.rank", {"a": ["x"]}, "exponents must be positive integers"),
    ("jacobian.rank", {"b": [True]}, "exponents must be positive integers"),
    ("jacobian.rank", {"p": [3]}, "must be given as text, got int"),
    ("trinomial.validate", {"beta": [[2], [3], ["5"]], "lambdas": [1]},
     "exponents must be positive integers"),
    ("trinomial.validate", {"beta": [2, 3, 5], "lambdas": [1]},
     "each exponent block must be a list"),
    ("pham.cases", {"coprime_triple": [2, "3", 5]}, "exponents must be positive integers"),
    ("jacobian.rank", {"u": [None]}, "None is not an element of Q"),
    ("jacobian.rank", {"u": [True]}, "True is not an element of Q"),
    ("jacobian.rank", {"field": "GF(7)", "p": ["x"], "u": [2.5], "v": [1]},
     r"2\.5 is not an element of GF\(7\)"),
    ("jacobian.rank", {"field": "GF(7)", "p": ["x + 1/7"], "q": "x"},
     r"Fraction\(1, 7\) is not an element of GF\(7\)"),
    ("trinomial.validate", {"beta": [[2], [3], [5]], "lambdas": [[1]]},
     r"\[1\] is not an element of Q"),
    ("coeff.prime-avoid", {"lo": 0, "hi": 0}, "holds no admissible tuple"),
    ("pham.cases", {"field": "Q"}, "no instance was given"),
    ("pham.cases", {"chain": [2, 3, 4, 5], "triple_weights": {"X1": 1}},
     "triple_weights' of claim pham.cases: was given without its instance coprime_triple"),
    ("samuel.kernel", {"a": "X", "b": "u"}, "must not involve the adjoined variable 'X'"),
    ("samuel.kernel", {"vars": [], "a": "1", "b": "1"}, "must end with the adjoined variable"),
    ("jacobian.rank", {"a": ["2"]}, "parameter 'a' of claim jacobian.rank: exponents must be"),
    ("pham.cases", {"reject": [2, 3]}, "parameter 'reject' .*: must list 3 or more exponents"),
    ("pham.cases", {"chain_weights": {"Z": 1}}, "'chain_weights' .*without its instance chain"),
    ("jacobian.rank", {"u": ["a"]}, "parameter 'u' of claim jacobian.rank: 'a' is not an element"),
    ("jacobian.rank", {"field": "GF(7)", "p": ["x"], "u": [1], "v": ["1/7"]},
     r"parameter 'v' of claim jacobian.rank: '1/7' is not an element of GF\(7\)"),
    ("trinomial.validate", {"beta": [[2], [3], [5]], "lambdas": ["x"]},
     "parameter 'lambdas' of claim trinomial.validate: 'x' is not an element of Q"),
    ("groebner.irreducible", {"poly": "3"},
     "parameter 'poly' of claim groebner.irreducible: must be nonconstant"),
    ("groebner.irreducible", {"poly": "x^6 + y", "max_deg": 2},
     r"parameter 'max_deg' of claim groebner.irreducible: must be >= deg\(poly\) // 2 = 3"),
    ("trinomial.validate", {"beta": [[2], [3], [5]], "lambdas": [0]},
     r"parameter 'lambdas' of claim trinomial.validate: entries must be nonzero, got \[0\]"),
    ("trinomial.validate", {"beta": [[2], [3], [5]], "lambdas": [1, 2]},
     r"parameter 'lambdas' of claim trinomial.validate: \(D.1\) violated: need len\(beta\) - 2 "
     r"constants, got 2"),
    ("trinomial.validate", {"beta": [[2], [3], [5], [7]], "lambdas": [1, 1]},
     r"parameter 'lambdas' of claim trinomial.validate: \(D.3\) violated: constants must be "
     r"distinct, got \[1, 1\]"),
    ("jacobian.rank", {"u": [0]},
     r"parameter 'u' of claim jacobian.rank: entries must be nonzero, got \[0\]"),
    ("jacobian.rank", {"v": [0]},
     r"parameter 'v' of claim jacobian.rank: entries must be nonzero, got \[0\]"),
    ("lemma32.levels", {"b": "u*v"},
     r"parameter 'b' of claim lemma32.levels: must be relatively prime to s\*t = u\*v"),
    ("lemma32.levels", {"s": "u", "t": "u"},
     "parameter 't' of claim lemma32.levels: must be relatively prime to s = u"),
    ("lemma32.levels", {"s": "u^2", "t": "v", "b": "u + u*v"},
     r"parameter 'b' of claim lemma32.levels: must be relatively prime to s\*t = u\^2\*v"),
    ("trinomial.validate", {"beta": [], "lambdas": []},
     r"parameter 'beta' of claim trinomial.validate: \(D.1\) violated: need at least three"),
    ("trinomial.validate", {"beta": [[2], [3]], "lambdas": []},
     r"parameter 'beta' of claim trinomial.validate: \(D.1\) violated: need at least three"),
    ("trinomial.validate", {"beta": [[2], [], [5]], "lambdas": [1]},
     r"parameter 'beta' .*: must list 1 or more exponents, got 0"),
    ("trinomial.validate", {"beta": [[2], [3], [0]], "lambdas": [1]},
     r"parameter 'beta' .*: exponents must be positive integers, got \[0\]"),
    ("trinomial.validate", {"beta": [[2], [3], [True]], "lambdas": [1]},
     r"parameter 'beta' .*: exponents must be positive integers, got \[True\]"),
    ("trinomial.validate", {"beta": [[2], 3, [5]], "lambdas": [1]},
     r"parameter 'beta' .*: \(D.1\) violated: each exponent block must be a list"),
    ("pham.cases", {"field": "GF(7)"},
     r"^claim pham.cases: no instance was given \(coprime_triple, chain or reject\)$"),
])
def test_out_of_range_or_missing_parameters_are_usage_errors(cid, params, match):
    with pytest.raises(UsageError, match=match):
        run_claim(cid, params)


def test_prime_avoid_box_parses_iff_it_holds_an_admissible_tuple():
    spec = REGISTRY["coeff.prime-avoid"]
    for lo in range(-4, 5):
        for hi in range(lo, 5):
            box = range(lo, hi + 1)
            admissible = any(math.gcd(a1, a2, b) == 1 and c
                             for a1, a2, b, c in itertools.product(box, repeat=4))
            try:
                _parse_params(spec, {"lo": lo, "hi": hi})
            except UsageError:
                assert not admissible, (lo, hi)
            else:
                assert admissible, (lo, hi)


def test_unknown_claim_and_unknown_suite_are_usage_errors():
    with pytest.raises(UsageError, match="unknown claim"):
        run_claim("no.such.claim")
    with pytest.raises(UsageError, match="unknown suite"):
        suite_claims("bogus")


def test_parameter_validation_rejects_unknown_keys_and_bad_types():
    with pytest.raises(UsageError, match="unknown parameter"):
        run_claim("cex.sseq", {"frobnicate": 1})
    with pytest.raises(UsageError, match="must be int"):
        run_claim("cex.sseq", {"n": "five"})


def test_parameter_validation_rejects_json_booleans_for_integers():
    with pytest.raises(UsageError, match="must be int, got bool"):
        run_claim("groebner.soundness", {"trials": True, "queries": True})


def test_whole_acceptance_suite_verifies_and_reports_validate():
    schema = report_schema()
    reports = [run_claim(cid) for cid in suite_claims("acceptance")]
    assert [r.claim_id for r in reports] == list(REGISTRY)
    for rep in reports:
        assert rep.status == "verified", (rep.claim_id, rep.witness)
        assert rep.witness is not None
        assert rep.tool_version
        assert rep.elapsed_ms >= 0
        jsonschema.validate(rep.to_json(), schema)
    assert exit_code(reports) == 0


_GOOD_REPORT = {"claim_id": "cex.sseq", "params": {}, "status": "verified", "bound": None,
                "witness": {"values": [2]}, "elapsed_ms": 0, "tool_version": "0.1.0"}


def _doc(fields):
    # as ClaimReport.to_json writes it: no "bound" key for bound None
    return {k: v for k, v in fields.items() if k != "bound" or v is not None}


@pytest.mark.parametrize("change", [
    {"status": "ok"},
    {"status": "unknown"},
    {"status": "verified", "witness": None},
    {"elapsed_ms": -1},
    {"elapsed_ms": True},
    {"elapsed_ms": "3"},
    {"status": "unknown", "bound": True},
    {"status": "unknown", "bound": 1.5},
    {"claim_id": ""},
    {"claim_id": 7},
    {"tool_version": ""},
    {"params": ["n", 5]},
])
def test_report_rules_reject_what_the_schema_rejects(change):
    jsonschema.validate(_doc(_GOOD_REPORT), report_schema())
    ClaimReport(**_GOOD_REPORT)
    fields = {**_GOOD_REPORT, **change}
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(_doc(fields), report_schema())
    with pytest.raises(ValueError, match="invalid report"):
        ClaimReport(**fields)


@pytest.mark.parametrize("reshape", [
    lambda doc: {**doc, "stats": {"pairs": 3}},
    lambda doc: {k: v for k, v in doc.items() if k != "witness"},
])
def test_checked_json_rejects_keys_the_schema_does_not_allow(reshape):
    class Reshaped(ClaimReport):
        def to_json(self):
            return reshape(super().to_json())

    report = Reshaped(**_GOOD_REPORT)
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(report.to_json(), report_schema())
    with pytest.raises(ValueError, match="does not fit the schema"):
        _checked_json(report, report_schema())


def test_report_rules_and_schema_accept_every_shipped_report():
    schema = report_schema()
    reports = [run_claim(cid) for cid in suite_claims("acceptance")] + [
        run_claim("cex.sseq", {"expect": [1]}),          # refuted
        run_claim("cex.coords", {"n_max": 9}),           # unknown, bound "cap"
        run_claim("coeff.prime-avoid", timeout=0.001),   # unknown, bound "timeout"
    ]
    assert len(reports) == len(REGISTRY) + 3
    assert {r.status for r in reports} == {"verified", "refuted", "unknown"}
    for rep in reports:
        doc = _checked_json(rep, schema)
        assert doc == rep.to_json()
        jsonschema.validate(doc, schema)


def test_reports_are_deterministic_modulo_elapsed_ms():
    def stripped(rep):
        doc = rep.to_json()
        doc.pop("elapsed_ms")
        return json.dumps(doc, sort_keys=True)

    for cid in ("cex.sseq", "omega.confluence", "groebner.soundness"):
        assert stripped(run_claim(cid)) == stripped(run_claim(cid))


@pytest.mark.parametrize("trials, queries", [(20, 5), (3, 100)])
def test_soundness_runs_exactly_the_queries_asked_for(trials, queries):
    rep = run_claim("groebner.soundness", {"trials": trials, "queries": queries})
    assert rep.status == "verified"
    assert rep.witness["ideals"] == trials
    assert rep.witness["membership_agreements"] == queries


def test_soundness_without_a_certificate_up_to_the_bound_is_unknown():
    # at bound 0 the oracle cannot certify members that `reduce` finds, such
    # as 3*u^2*v + u; its False means only "no certificate up to the bound"
    rep = run_claim("groebner.soundness", {"member_bound": 0})
    assert rep.status == "unknown"
    assert rep.bound == 0
    assert "3*u^2*v + u" in rep.witness["uncertified_members"]
    assert (rep.witness["membership_agreements"] + len(rep.witness["uncertified_members"])
            == default_params("groebner.soundness")["queries"])
    assert "uncertified_members" not in run_claim("groebner.soundness").witness


def test_soundness_refutes_a_reduce_that_misses_a_certified_member(monkeypatch):
    real_divide = claims.divide

    def lying_divide(p, basis):
        # a one-element basis has no S-pairs, so only membership queries see the lie
        return (p, [p.ring.zero()]) if len(basis) == 1 else real_divide(p, basis)

    monkeypatch.setattr(claims, "divide", lying_divide)
    rep = run_claim("groebner.soundness")
    assert rep.status == "refuted"
    assert rep.witness["reason"] == "membership disagreement"
    assert rep.witness["oracle_says"] and not rep.witness["reduce_says"]


@pytest.mark.parametrize("field", ["Q", "GF(2)", "GF(5)", "GF(32003)"])
def test_soundness_audits_the_ideal_engine_which_buchberger_reproduces(monkeypatch, field):
    # the claim reads its basis from `Ideal`: with `groebner.buchberger` gone
    # it still runs, and with the tests' Buchberger oracle behind `Ideal` it
    # gives the same reports
    engine_calls = []

    def buchberger_engine(gens, order):
        engine_calls.append(order)
        return buchberger(gens, order, interreduce=False)

    def stripped(params):
        doc = run_claim("groebner.soundness", params).to_json()
        doc.pop("elapsed_ms")
        return doc

    for seed in (1, 2, 3):
        params = {"field": field, "seed": seed, "trials": 4, "queries": 8, "member_bound": 3}
        with monkeypatch.context() as m:
            m.setattr(groebner, "buchberger", None)
            via_signatures = stripped(params)
        with monkeypatch.context() as m:
            m.setattr(groebner, "signature_basis", buchberger_engine)
            via_buchberger = stripped(params)
        assert via_signatures == via_buchberger
        assert via_signatures["status"] != "refuted", via_signatures
    assert len(engine_calls) == 3 * 4


@pytest.mark.parametrize("field", ["Q", "GF(5)", "GF(32003)"])
def test_soundness_refutes_an_engine_that_drops_a_basis_element(monkeypatch, field):
    real_signature_basis = groebner.signature_basis

    def lossy_engine(gens, order):
        return real_signature_basis(gens, order)[1:]

    monkeypatch.setattr(groebner, "signature_basis", lossy_engine)
    rep = run_claim("groebner.soundness", {"field": field})
    assert rep.status == "refuted"
    assert rep.witness["reason"] == "membership disagreement"


def test_refutation_carries_the_counterexample():
    rep = run_claim("cex.sseq", {"n": 5, "expect": [2, 3, 6, 24, 181]})
    assert rep.status == "refuted"
    assert rep.witness["values"] == [2, 3, 6, 24, 180]
    assert exit_code([rep]) == 1


def test_cap_exceeded_becomes_unknown_with_bound():
    rep = run_claim("cex.coords", {"n_max": 9})
    assert rep.status == "unknown"
    assert rep.bound == "cap"
    jsonschema.validate(rep.to_json(), report_schema())
    assert exit_code([rep]) == 2


def test_confluence_over_the_degree_cap_is_unknown():
    # normal_form checks the z-size before it sizes any work by it
    rep = run_claim("omega.confluence", {"max_size": 1000, "trials": 1})
    assert rep.status == "unknown"
    assert rep.bound == "cap"
    assert rep.witness == ("instance too large: normal_form reached degree 361, "
                           "over the degree cap of 64")


def _summed_random_poly(ring, rng, max_deg, max_terms):
    """`claims._random_poly` as a sum of one-term polynomials through `+`,
    drawing from rng in the same order; also returns how many terms met an
    exponent already in the sum and how many of those cancelled it."""
    p, repeats, cancels = ring.zero(), 0, 0
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = [rng.randint(0, max_deg) for _ in range(ring.nvars)]
            if sum(exps) <= max_deg:
                break
        term = ring.monomial(dict(zip(ring.names, exps)), ring.field.sample(rng))
        if term and tuple(exps) in p.terms:
            repeats += 1
            cancels += tuple(exps) not in (p + term).terms
        p = p + term
    return p, repeats, cancels


@pytest.mark.parametrize("field", ["GF(2)", "GF(5)", "Q"])
def test_random_poly_is_the_sum_of_its_terms(field):
    # the same polynomial, with its terms in the same order, as the sum of
    # its one-term polynomials, and the generator left in the same state
    fld = field_from_name(field)
    repeats = cancels = 0
    for seed in range(150):
        ring = poly_ring(fld, ("u", "v", "w")[: 1 + seed % 3])
        ours, theirs = random.Random(seed), random.Random(seed)
        for max_deg, max_terms in ((3, 4), (1, 6), (0, 5)):
            got = claims._random_poly(ring, ours, max_deg, max_terms)
            want, r, k = _summed_random_poly(ring, theirs, max_deg, max_terms)
            assert got == want and list(got.terms.items()) == list(want.terms.items())
            assert ours.getstate() == theirs.getstate()
            repeats, cancels = repeats + r, cancels + k
    assert repeats > 100
    # over GF(2) every repeat cancels; over GF(5) and Q only some do
    assert cancels == repeats if field == "GF(2)" else 0 < cancels < repeats


def _product_built_monomials(seed, trials, max_size, max_index):
    """The monomials of `omega.confluence`, built as OmegaPoly products
    from the same draws."""
    rng = random.Random(seed)
    out = []
    for _ in range(trials):
        exps = {}
        budget = rng.randint(1, max_size)
        while budget > 0:
            idx = rng.randint(0, max_index)
            take = rng.randint(1, budget)
            exps[idx] = exps.get(idx, 0) + take
            budget -= take
        p = OmegaPoly.x(power=rng.randint(0, 3))
        for idx, e in exps.items():
            p = p * OmegaPoly.z(idx) ** e
        out.append(p)
    return out


@pytest.mark.parametrize("seed", [default_params("omega.confluence")["seed"], 1, 2, 3])
def test_confluence_monomials_are_the_product_built_ones(monkeypatch, seed):
    # the report never names its monomials, so record what normal_form sees
    seen = []
    real_normal_form = claims.normal_form

    def recording_normal_form(p, pivot):
        if pivot == "largest":
            seen.append(p)
        return real_normal_form(p, pivot)

    monkeypatch.setattr(claims, "normal_form", recording_normal_form)
    params = default_params("omega.confluence") | {"seed": seed}
    assert run_claim("omega.confluence", params).status == "verified"
    want = _product_built_monomials(seed, params["trials"], params["max_size"],
                                    params["max_index"])
    assert [(p.poly.ring, p.poly.terms) for p in seen] == [
        (p.poly.ring, p.poly.terms) for p in want]
    assert {e[0] for p in seen for e in p.poly.terms} == {0, 1, 2, 3}


def test_jacobian_rank_takes_one_p_of_high_degree():
    rep = run_claim("jacobian.rank", {"p": ["x^9"], "q": "x"})
    assert rep.status == "verified"
    assert (rep.witness["rank"], rep.witness["tangent_dim"]) == (0, 4)


def test_jacobian_rank_takes_powers_of_one_prime_at_the_default_caps():
    # the common radical is checked by gcds, so no power x^81 is built
    params = {"p": ["x^8", "x^9"], "a": [2, 2], "b": [3, 3], "q": "x", "expect_tangent_dim": 5}
    rep = run_claim("jacobian.rank", params)
    assert rep.status == "verified"
    assert (rep.witness["rank"], rep.witness["tangent_dim"]) == (0, 5)


def test_a_colon_ideal_with_a_remainder_is_an_internal_error(monkeypatch):
    # an intersection with (f) that holds a non-multiple of f is a bug, not a
    # caller mistake: it must not surface as a usage error (exit 3)
    monkeypatch.setattr(groebner, "intersect",
                        lambda a, b: groebner.Ideal(a.ring, (a.ring.one(),)))
    ring = poly_ring(field_from_name("GF(5)"), ("u", "v"))
    u = ring.var("u")
    with pytest.raises(AssertionError, match="is not a multiple of u"):
        groebner.ideal_quotient(groebner.ideal(ring, u), u)
    with pytest.raises(AssertionError, match="is not a multiple of"):
        run_claim("samuel.kernel")


def _raising(error):
    def handler(params):
        raise error
    return handler


def test_after_parsing_only_a_hypothesis_error_is_a_usage_error(monkeypatch):
    spec = REGISTRY["cex.sseq"]
    monkeypatch.setitem(REGISTRY, "cex.sseq", dataclasses.replace(
        spec, handler=_raising(HypothesisError("n must be odd"))))
    with pytest.raises(UsageError, match="^claim cex.sseq: n must be odd$"):
        run_claim("cex.sseq")


@pytest.mark.parametrize("param, named", [
    ("n", "parameter 'n' of claim cex.sseq"),
    # a name that is not one of the claim's parameters is not repeated
    ("m", "claim cex.sseq"),
])
def test_a_hypothesis_error_names_the_parameter_it_carries(param, named, monkeypatch):
    spec = REGISTRY["cex.sseq"]
    monkeypatch.setitem(REGISTRY, "cex.sseq", dataclasses.replace(
        spec, handler=_raising(HypothesisError("n must be odd", param))))
    with pytest.raises(UsageError) as caught:
        run_claim("cex.sseq")
    assert str(caught.value) == f"{named}: n must be odd"


@pytest.mark.parametrize("error", [ValueError("a bug"), KeyError("a bug")],
                         ids=lambda err: type(err).__name__)
def test_handler_errors_other_than_hypotheses_are_internal(error, monkeypatch):
    # a handler's ValueError or KeyError is a bug, not the caller's mistake:
    # run_claim passes it on unchanged instead of turning it into exit 3
    spec = REGISTRY["cex.sseq"]
    monkeypatch.setitem(REGISTRY, "cex.sseq", dataclasses.replace(spec, handler=_raising(error)))
    with pytest.raises(type(error)) as caught:
        run_claim("cex.sseq")
    assert caught.value is error


def test_prime_avoid_box_over_its_cap_is_unknown(monkeypatch):
    rep = run_claim("coeff.prime-avoid", {"hi": 100}, timeout=5)
    assert (rep.status, rep.bound) == ("unknown", "cap")
    assert rep.witness == ("instance too large: coeff.prime-avoid reached tuples 131079601, "
                           "over the tuples cap of 1000000")
    # the cap counts the box's tuples: the shipped box of 13^4 sits on it
    monkeypatch.setattr(claims, "PRIME_AVOID_CAP", 13**4)
    assert run_claim("coeff.prime-avoid").status == "verified"
    rep = run_claim("coeff.prime-avoid", {"lo": -6, "hi": 7})
    assert rep.witness == ("instance too large: coeff.prime-avoid reached tuples 38416, "
                           "over the tuples cap of 28561")


def test_soundness_member_bound_over_the_terms_cap_is_unknown(monkeypatch):
    # the oracle's span for 3 variables and target degree 103 has C(106, 3) rows
    rep = run_claim("groebner.soundness", {"member_bound": 100}, timeout=5)
    assert (rep.status, rep.bound) == ("unknown", "cap")
    assert rep.witness == ("instance too large: brute_force_member reached terms 192920, "
                           "over the terms cap of 20000")
    # the shipped instance's largest span has C(12, 3) = 220 rows
    monkeypatch.setenv("UFDLAB_CAPS", "terms=220")
    assert run_claim("groebner.soundness").status == "verified"
    monkeypatch.setenv("UFDLAB_CAPS", "terms=219")
    rep = run_claim("groebner.soundness")
    assert (rep.status, rep.bound) == ("unknown", "cap")
    assert rep.witness.startswith("instance too large: brute_force_member reached terms 220")


def test_timeout_becomes_unknown_with_bound_timeout():
    rep = run_claim("coeff.prime-avoid", timeout=0.001)
    assert rep.status == "unknown"
    assert rep.bound == "timeout"
    jsonschema.validate(rep.to_json(), report_schema())


@pytest.mark.parametrize("timeout", [float("inf"), float("nan"), 0, -1, 1e300])
def test_timeout_outside_the_timer_range_is_usage_error(timeout, monkeypatch):
    def handler(params):
        raise AssertionError("the handler ran")

    spec = REGISTRY["cex.sseq"]
    monkeypatch.setitem(REGISTRY, "cex.sseq", dataclasses.replace(spec, handler=handler))
    with pytest.raises(UsageError, match="timeout"):
        run_claim("cex.sseq", timeout=timeout)


def test_large_prime_field_runs_a_claim():
    rep = run_claim("wchain.regular", {"field": "GF(1000000000000000003)"}, timeout=3)
    assert rep.status == "verified"


def test_exit_code_priorities():
    verified = run_claim("cex.sseq")
    refuted = run_claim("cex.sseq", {"expect": [1]})
    unknown = run_claim("cex.coords", {"n_max": 9})
    assert exit_code([verified]) == 0
    assert exit_code([verified, unknown]) == 2
    assert exit_code([verified, unknown, refuted]) == 1


def test_hypothesis_violations_in_parameters_surface_verbatim():
    with pytest.raises(UsageError, match="relatively prime"):
        run_claim("lemma32.levels", {"s": "u", "t": "u+v", "b": "u"})


def test_field_name_alias_f5_accepted():
    rep = run_claim("samuel.kernel", {"field": "F5", "a": "u", "b": "v"})
    assert rep.status == "verified"
    assert rep.witness["saturation_index"] == 0


def test_wchain_regular_witness_records_every_level():
    rep = run_claim("wchain.regular", {"i_max": 3})
    levels = rep.witness["levels"]
    assert [lv["i"] for lv in levels] == [1, 2, 3]
    assert all(lv["W_is_power"] and lv["J_equals_W"] for lv in levels)


def test_wchain_regular_builds_each_power_from_the_last(monkeypatch):
    # Level i multiplies the i generators of (u, v)^(i-1) by u and v: 30
    # products at the shipped i_max 5, where rebuilding (u, v)^i from the
    # unit ideal at every level makes 70.  Counted as the products the claim
    # makes beyond those of w_chain itself.
    products = []
    mul = Polynomial.__mul__

    def counting_mul(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Polynomial, "__mul__", counting_mul)
    params = default_params("wchain.regular")
    ring = poly_ring(field_from_name(params["field"]), ("u", "v", "w"))
    w_chain(ring, *ring.gens(), params["i_max"])
    chain = len(products)
    products.clear()
    assert run_claim("wchain.regular").status == "verified"
    assert len(products) - chain == 30


def test_groebner_irreducible_refutes_a_reducible_instance():
    rep = run_claim(
        "groebner.irreducible",
        {"field": "GF(5)", "vars": ["x", "y"], "poly": "x^2 - y^2", "max_deg": 1},
    )
    assert rep.status == "refuted"
    assert len(rep.witness["factors"]) == 2
