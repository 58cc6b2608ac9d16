"""Every claim driven through edge-case parameters.

Each run must give a report that the schema accepts and that did not time
out, or a UsageError that names a parameter of the claim; nothing else may
be raised.  After parsing only a builder's HypothesisError is the caller's
mistake, so anything else a handler raises is a bug, and a kind that lets a
bad value through shows up here as a builder's error that names no
parameter.  A builder checks each hypothesis once, and its HypothesisError
carries the parameter that breaks the rule, so a combination of parameters
that breaks a hypothesis is refused naming one of them too; only the
`pham.cases` row may meet an error that need only name the claim (no
instance was given).
"""

import dataclasses
import itertools

import jsonschema
import pytest

from ufdlab.claims import REGISTRY, UsageError, default_params, report_schema, run_claim

GENERIC = [0, -1, 1, 2, 5, 100, "", "0", "x", "1/0", "x^-1",
           [], [0], [1, 1], [[]], ["x"], None, True, 1.5, {}]
SCHEMA = report_schema()


@pytest.fixture(autouse=True)
def tight_caps(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "degree=64,terms=2000")


def _fault(cid: str, params: dict, hypotheses: bool = False, timeout: float = 1):
    """What is wrong with running claim `cid` on `params`, or None.  With
    `hypotheses` a usage error need only name the claim."""
    try:
        report = run_claim(cid, params, timeout=timeout)
    except UsageError as err:
        names = [f"parameter {key!r} of claim {cid}" for key in REGISTRY[cid].params]
        if hypotheses:
            names.append(f"claim {cid}: ")
        return None if any(name in str(err) for name in names) else f"UsageError: {err}"
    except Exception as err:
        return f"{type(err).__name__}: {err}"
    if report.bound == "timeout":
        return "timed out"
    try:
        jsonschema.validate(report.to_json(), SCHEMA)
    except jsonschema.ValidationError as err:
        return f"report fails the schema: {err.message}"
    return None


def _faults(cid: str, variants, hypotheses: bool = False) -> list:
    return [(params, fault) for params in variants
            if (fault := _fault(cid, params, hypotheses)) is not None]


def test_fault_sees_each_wrong_outcome(monkeypatch):
    assert _fault("cex.sseq", {}) is None
    assert _fault("cex.sseq", {"n": 0}) is None  # "parameter 'n' of claim cex.sseq: ..."
    assert _fault("pham.cases", {"field": "Q"}).startswith("UsageError: claim pham.cases")
    assert _fault("pham.cases", {"field": "Q"}, hypotheses=True) is None
    assert _fault("coeff.prime-avoid", {}, timeout=0.001) == "timed out"

    def handler(params):
        raise KeyError("n")

    spec = REGISTRY["cex.sseq"]
    monkeypatch.setitem(REGISTRY, "cex.sseq", dataclasses.replace(spec, handler=handler))
    assert _fault("cex.sseq", {}) == "KeyError: 'n'"


@pytest.mark.parametrize("cid", list(REGISTRY))
def test_every_parameter_takes_every_generic_value(cid):
    variants = [{**default_params(cid), key: value}
                for key in REGISTRY[cid].params for value in GENERIC]
    assert _faults(cid, variants) == []


def test_lemma32_levels_s_t_and_b_together():
    # lemma_level_check's two hypotheses name t and b when they fail, so
    # every refusal names a parameter
    polys = ["u", "v", "u*v", "u + v", "1"]
    variants = [{"s": s, "t": t, "b": b} for s, t, b in itertools.product(polys, repeat=3)]
    assert _faults("lemma32.levels", variants) == []


def test_trinomial_validate_beta_and_lambdas_together():
    betas = [[[2], [3], [5]], [[2], [3], [5], [7]], [[2, 2], [3], [5]], [[1], [1], [1]],
             [[2], [4], [5]], [[6], [10], [15]], [[2], [3]]]
    lambdas = [[1], [1, 2], [2, 2], [0], [], ["1/2"]]
    variants = [{"beta": beta, "lambdas": lam} for beta, lam in itertools.product(betas, lambdas)]
    assert _faults("trinomial.validate", variants) == []


def test_jacobian_rank_p_a_and_b_together():
    # entries >= 2 and q = x meet jacobian_tangent_dim's own hypotheses
    # whenever threefold_family takes p, so every refusal names a parameter
    ps = [["x"], ["x^3"], ["x", "x^2"], ["x", "x + 1"], ["x^2 + x", "x^3"], ["x^8", "x^9"],
          ["x", "3"], ["x^2", "x", "x^4 + x^3"]]
    exponents = [[2], [3], [2, 3], [3, 2], [2, 2], [4, 6], [3, 5, 7], [2, 3, 5]]
    variants = [{"p": p, "a": a, "b": b, "q": "x"}
                for p, a, b in itertools.product(ps, exponents, exponents)]
    assert _faults("jacobian.rank", variants) == []


def test_pham_cases_instance_keys_together():
    shipped = default_params("pham.cases")
    non_coprime = {"coprime_triple": [2, 4, 5], "chain": [2, 4, 6, 8], "reject": [2, 3, 5]}
    keys = [key for key in shipped if key != "field"]
    variants = []
    for n in range(len(keys) + 1):
        for chosen in itertools.combinations(keys, n):
            variants.append({key: shipped[key] for key in chosen})
            variants.append({key: non_coprime.get(key, shipped[key]) for key in chosen})
    assert _faults("pham.cases", variants, hypotheses=True) == []
