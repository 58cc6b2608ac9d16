"""Claim registry and runner: finite, re-runnable verifications with reports.

Each claim couples a one-line mathematical statement with a handler that
decides it for concrete parameters.  A handler returns one of three statuses:

  verified  the statement holds; the witness is re-checkable data
  refuted   a concrete counterexample was found; the witness exhibits it
  unknown   the search was truncated (size cap or timeout); `bound` says how

Handlers are pure library calls, so a report is deterministic given its
parameters and the tool version (`elapsed_ms` excepted).  Each claim is
registered with one parameter table (`Param` rows: how to parse a value, the
shipped value, whether the runner fills it in).  The runner parses every
parameter through it, so a handler receives fields, rings and polynomials,
and `default_params` reads the shipped values from it.
"""

from __future__ import annotations

import copy
import json
import math
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from importlib import resources
from typing import Callable, NamedTuple, Optional

from . import __version__
from .caps import current_caps
from .coeff import QQ, PrimeField, field_from_name, is_int, prime_avoid
from .constructions import (
    exponent_list,
    jacobian_tangent_dim,
    lemma_level_check,
    pham_brieskorn,
    threefold_family,
    trinomial_ring,
    w_chain,
)
from .counterexample import (
    coordinate_checks,
    expand_z0,
    expand_z0_bprime,
    m_order_certificate,
    min_xy_degree,
    s_sequence,
    x_order_certificate_bprime,
)
from .errors import CapExceeded, HypothesisError, too_large
from .groebner import (
    GREVLEX,
    _s_poly,
    brute_force_irreducible,
    brute_force_member,
    buchberger,
    divide,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    saturation,
)
from .omega import (
    OmegaPoly,
    defining_relation,
    expansion_poly,
    expansion_text,
    in_x_omega,
    normal_form,
    omega_ring,
)
from .poly import Polynomial, _adopt, _merged, poly_ring


class UsageError(Exception):
    """Bad claim id, suite name, or parameters: the caller's fault, exit 3."""


STATUSES = ("verified", "refuted", "unknown")

# the most (hi - lo + 1)^4 tuples a coeff.prime-avoid box may hold: its loop
# takes about 1 us a tuple, so about a second's work
PRIME_AVOID_CAP = 10**6


@dataclass(frozen=True)
class ClaimReport:
    """One claim verification, held to the rules of
    `schema/claim_report.schema.json` when it is built.

    A report that breaks a rule comes from a faulty handler or runner, so the
    constructor raises ValueError (an internal error), never UsageError.
    """

    claim_id: str
    params: dict
    status: str  # one of STATUSES
    bound: Optional[object]  # int, or a string like "timeout" / "cap"
    witness: object
    elapsed_ms: int
    tool_version: str

    def __post_init__(self):
        rules = (
            ("claim_id must be a non-empty str",
             isinstance(self.claim_id, str) and self.claim_id),
            ("tool_version must be a non-empty str",
             isinstance(self.tool_version, str) and self.tool_version),
            ("params must be a dict", isinstance(self.params, dict)),
            (f"status must be one of {', '.join(STATUSES)}", self.status in STATUSES),
            ("bound must be None, an int or a str",
             self.bound is None or is_int(self.bound) or isinstance(self.bound, str)),
            ("an unknown report needs a bound",
             self.status != "unknown" or self.bound is not None),
            ("a verified report needs a witness",
             self.status != "verified" or self.witness is not None),
            ("elapsed_ms must be an int >= 0",
             is_int(self.elapsed_ms) and self.elapsed_ms >= 0),
        )
        broken = [rule for rule, ok in rules if not ok]
        if broken:
            raise ValueError(f"invalid report for claim {self.claim_id!r}: "
                             + "; ".join(broken))

    def to_json(self) -> dict:
        doc = {
            "claim_id": self.claim_id,
            "params": self.params,
            "status": self.status,
            "witness": self.witness,
            "elapsed_ms": self.elapsed_ms,
            "tool_version": self.tool_version,
        }
        if self.bound is not None:
            doc["bound"] = self.bound
        return doc


class Param(NamedTuple):
    """One row of a claim's parameter table.

    `kind(value, parsed)` turns a JSON value into what the handler receives,
    where `parsed` holds the parameters above it in the table, already
    parsed; it raises ValueError for a value it cannot take.  A kind only
    parses (JSON shapes, polynomials, list lengths): a builder's hypotheses
    are checked once, by the builder the handler calls, whose
    HypothesisError names the parameter.  `default` is the shipped value; every
    parameter ships one.  With `fill` the runner hands the shipped value to
    the handler when the caller leaves the parameter out; a parameter
    without it is optional (left out, its check is skipped) or derived by
    the handler from the others, unless it is `required`, when leaving it
    out is a usage error.
    """

    kind: Callable[[object, dict], object]
    default: object
    fill: bool = True
    required: bool = False


def _json(typ: type, least: Optional[int] = None):
    """A JSON value of type `typ` (a JSON boolean is not an int), passed on
    as given; an int must not be below `least`."""
    def parse(value, parsed):
        if not (is_int(value) if typ is int else isinstance(value, typ)):
            raise ValueError(f"must be {typ.__name__}, got {type(value).__name__}")
        if least is not None and value < least:
            raise ValueError(f"must be >= {least}, got {value}")
        return value
    return parse


def _each(kind, typ: type = list):
    """A JSON list, or a table (dict), whose entries `kind` parses."""
    def parse(value, parsed):
        entries = _json(typ)(value, parsed)
        if typ is dict:
            return {key: kind(entry, parsed) for key, entry in entries.items()}
        return [kind(entry, parsed) for entry in entries]
    return parse


def _field(value, parsed):
    return field_from_name(value)


def _prime_field(value, parsed):
    """A field name that names a prime field GF(p)."""
    fld = field_from_name(value)
    if not isinstance(fld, PrimeField):
        raise ValueError(f"must be a prime field GF(p), got {value!r}")
    return fld


def _vars(value, parsed):
    """The polynomial ring over parameter `field` on the listed names."""
    return poly_ring(parsed["field"], _json(list)(value, parsed))


def _extension_vars(value, parsed):
    """`_vars` whose last name is the variable adjoined to the others."""
    ring = _vars(value, parsed)
    if not ring.names:
        raise ValueError(f"must end with the adjoined variable, got {value!r}")
    return ring


def _poly(names: Optional[tuple[str, ...]] = None, must_be: Optional[str] = None):
    """Polynomial text in k[names] over parameter `field`, or in the ring of
    parameter `vars` without names; must_be "nonzero" refuses 0, and
    "nonconstant" every constant."""
    def parse(value, parsed):
        ring = parsed["vars"] if names is None else poly_ring(parsed["field"], names)
        p = ring.parse(value)
        if must_be and (p.is_constant() if must_be == "nonconstant" else not p):
            raise ValueError(f"must be {must_be}, got {value!r}")
        return p
    return parse


def _below_adjoined(kind):
    """A polynomial `kind` parses that does not involve the last variable of
    parameter `vars`, the one adjoined to the others."""
    def parse(value, parsed):
        p = kind(value, parsed)
        adjoined = parsed["vars"].names[-1]
        if adjoined in p.support():
            raise ValueError(f"must not involve the adjoined variable {adjoined!r}, got {value!r}")
        return p
    return parse


def _box_top(key: str):
    """A JSON int, the top of the `coeff.prime-avoid` box whose bottom is
    parameter `key`.  The box holds an admissible tuple (gcd(a1, a2, b) = 1,
    c != 0) iff lo < hi, e.g. (lo, lo, lo + 1, c), or lo = hi = 1 or -1."""
    def parse(value, parsed):
        value = _json(int)(value, parsed)
        lo = parsed[key]
        if value < lo:
            raise ValueError(f"empty box: {value} is below {key} = {lo}")
        if value == lo and abs(lo) != 1:
            raise ValueError(f"the box [{lo}, {value}] holds no admissible tuple")
        return value
    return parse


def _weights_of(key: str):
    """A table of int weights, the expectation for the instance in
    parameter `key`, which must be given too."""
    def parse(value, parsed):
        if key not in parsed:
            raise ValueError(f"was given without its instance {key}")
        return _each(_json(int), dict)(value, parsed)
    return parse


def _factor_degree(key: str):
    """A JSON int >= 1 that is at least deg(f) // 2 for the polynomial f in
    parameter `key`: a proper factor of f has at most that degree."""
    def parse(value, parsed):
        value = _json(int, 1)(value, parsed)
        least = parsed[key].total_degree() // 2
        if value < least:
            raise ValueError(f"must be >= deg({key}) // 2 = {least}, got {value}")
        return value
    return parse


def _one_per(key: str, kind=_json(list)):
    """A JSON list that `kind` parses, with one entry per entry of
    parameter `key`."""
    def parse(value, parsed):
        entries = kind(value, parsed)
        if len(entries) != len(parsed[key]):
            raise ValueError(f"must have one entry per entry of {key} "
                             f"({len(parsed[key])}), got {len(entries)}")
        return entries
    return parse


@dataclass(frozen=True)
class ClaimSpec:
    claim_id: str
    statement: str
    params: dict[str, Param]
    handler: Callable[[dict], tuple[str, Optional[object], object]]


# ---------------------------------------------------------------------------
# handlers (each returns (status, bound, witness))
# ---------------------------------------------------------------------------


def _random_poly(ring, rng: random.Random, max_deg: int, max_terms: int) -> Polynomial:
    """The sum of up to max_terms random terms of degree <= max_deg, folded
    into one dict by `_merged` as `+` would fold them, one term at a time: a
    zero coefficient adds nothing, and a term that cancels leaves the dict."""
    add = ring.field.add
    terms: dict = {}
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = tuple(rng.randint(0, max_deg) for _ in range(ring.nvars))
            if sum(exps) <= max_deg:
                break
        c = ring.field.sample(rng)
        if c:
            _merged(terms, ((exps, c),), add)
    return _adopt(ring, terms)


def _h_groebner_soundness(params):
    fld = params["field"]
    rng = random.Random(params["seed"])
    trials = params["trials"]
    queries = params["queries"]
    member_bound = params["member_bound"]
    names = ("u", "v", "w")
    s_polys = 0
    agreements = 0
    uncertified = []
    for trial in range(trials):
        ring = poly_ring(fld, names[: rng.randint(1, 3)])
        gens = [_random_poly(ring, rng, 3, 4) for _ in range(rng.randint(1, 4))]
        gb = buchberger(gens)
        keyfn = GREVLEX.key_for(ring)
        leads = [g.leading(keyfn)[0] for g in gb]
        for i in range(len(gb)):
            for j in range(i):
                s = _s_poly(gb[i], leads[i], gb[j], leads[j])
                s_polys += 1
                if s and divide(s, gb)[0]:
                    return "refuted", None, {
                        "reason": "S-polynomial does not reduce to zero",
                        "basis": [str(g) for g in gb],
                        "pair": [str(gb[j]), str(gb[i])],
                    }
        # exactly `queries` queries in all, the remainder on the first ideals
        for _ in range(queries // trials + (trial < queries % trials)):
            q = _random_poly(ring, rng, 3, 4)
            via_basis = not divide(q, gb)[0] if gb else not q
            via_oracle = brute_force_member(q, gens, member_bound)
            if via_basis and not via_oracle:
                # the oracle's False only means "no certificate up to the bound"
                uncertified.append(str(q))
                continue
            if via_basis != via_oracle:
                return "refuted", None, {
                    "reason": "membership disagreement",
                    "query": str(q),
                    "generators": [str(g) for g in gens],
                    "reduce_says": via_basis,
                    "oracle_says": via_oracle,
                }
            agreements += 1
    witness = {
        "ideals": trials,
        "s_polynomials_reduced": s_polys,
        "membership_agreements": agreements,
        "member_bound": member_bound,
        "seed": params["seed"],
    }
    if uncertified:
        witness["uncertified_members"] = uncertified
        return "unknown", member_bound, witness
    return "verified", None, witness


def _h_prime_avoid(params):
    lo, hi = params["lo"], params["hi"]
    tuples = (hi - lo + 1) ** 4
    if tuples > PRIME_AVOID_CAP:
        raise too_large("coeff.prime-avoid", "tuples", PRIME_AVOID_CAP, tuples)
    checked = 0
    nonzero_c = [c for c in range(lo, hi + 1) if c]
    for a1 in range(lo, hi + 1):
        for a2 in range(lo, hi + 1):
            a = (a1, a2)
            for b in range(lo, hi + 1):
                if math.gcd(a1, a2, b) != 1:
                    continue
                for c in nonzero_c:
                    m = prime_avoid(a, b, c)
                    if math.gcd(c, b + m[0] * a1 + m[1] * a2) != 1:
                        return "refuted", None, {
                            "a": [a1, a2], "b": b, "c": c, "m": list(m),
                        }
                    checked += 1
    return "verified", None, {"tuples_checked": checked, "box": [lo, hi]}


def _h_samuel_kernel(params):
    ring = params["vars"]
    a, b = params["a"], params["b"]
    gen = a * ring.var(ring.names[-1]) - b
    target = ideal(ring, gen)
    sat, index = saturation(target, a)
    ok = ideal_equal(sat, target)
    witness = {
        "generator": str(gen),
        "saturation_index": index,
        "saturated_basis": [str(g) for g in sat.groebner()],
    }
    return ("verified" if ok else "refuted"), None, witness


def _h_wchain_regular(params):
    i_max = params["i_max"]
    ring = poly_ring(params["field"], ("u", "v", "w"))
    u, v, w = ring.gens()
    W, J = w_chain(ring, u, v, w, i_max)
    uv = ideal(ring, u, v)
    power = ideal_power(uv, 0)
    levels = []
    for i in range(1, i_max + 1):
        power = ideal_product(power, uv)
        w_ok = ideal_equal(W[i], power)
        j_ok = ideal_equal(J[i], W[i])
        levels.append({"i": i, "W_is_power": w_ok, "J_equals_W": j_ok,
                       "W_basis": [str(g) for g in W[i].groebner()]})
        if not (w_ok and j_ok):
            return "refuted", None, levels[-1]
    return "verified", None, {"levels": levels}


def _h_wchain_absorbing(params):
    i_max = params["i_max"]
    ring = poly_ring(params["field"], ("u", "v"))
    u = ring.var("u")
    W, J = w_chain(ring, u, u, u, i_max)
    principal = ideal(ring, u)
    levels = []
    for i in range(1, i_max + 1):
        w_ok = ideal_equal(W[i], principal)
        j_ok = J[i].is_trivial()
        levels.append({"i": i, "W_is_principal": w_ok, "J_trivial": j_ok})
        if not (w_ok and j_ok):
            return "refuted", None, levels[-1]
    return "verified", None, {"levels": levels}


def _h_lemma32_levels(params):
    s, t, b = params["s"], params["t"], params["b"]
    levels = lemma_level_check(s.ring, b, s, t, params["i_max"])
    witness = {"levels": levels, "b": str(b), "s": str(s), "t": str(t)}
    return ("verified" if all(levels) else "refuted"), None, witness


def _h_omega_basis(params):
    square = OmegaPoly.z(0) ** 2
    nf = normal_form(square)
    expected = square - defining_relation(0)
    ok = expansion_poly(nf, QQ) == expected
    witness = {"normal_form": expansion_text(nf), "expected": "-(z1) - x^2*z2"}
    return ("verified" if ok else "refuted"), None, witness


def _h_omega_z_relations(params):
    i_max = params["i_max"]
    not_in_max = params["not_in_max"]
    floors = {}
    for i in range(1, i_max + 1):
        p = OmegaPoly.z(i) + OmegaPoly.z(0) ** (2**i)
        if not in_x_omega(p):
            return "refuted", None, {"member_fails_at": i}
        floors[str(i)] = 1
    outside = []
    for i in range(0, not_in_max + 1):
        if in_x_omega(OmegaPoly.z(i)):
            return "refuted", None, {"non_member_fails_at": i}
        outside.append(i)
    witness = {"members": floors, "non_members": outside}
    return "verified", None, witness


def _h_omega_confluence(params):
    rng = random.Random(params["seed"])
    trials = params["trials"]
    max_size = params["max_size"]
    max_index = params["max_index"]
    for n in range(trials):
        exps: dict[int, int] = {}
        budget = rng.randint(1, max_size)
        while budget > 0:
            idx = rng.randint(0, max_index)
            take = rng.randint(1, budget)
            exps[idx] = exps.get(idx, 0) + take
            budget -= take
        # x^r * prod z_idx^e, written down in the ring of its top z-index
        x_power = {"x": rng.randint(0, 3)}
        p = OmegaPoly(omega_ring(QQ, max(exps)).monomial(
            x_power | {f"z{idx}": e for idx, e in exps.items()}))
        big = expansion_text(normal_form(p, "largest"))
        small = expansion_text(normal_form(p, "smallest"))
        if big != small:
            return "refuted", None, {
                "monomial": str(p), "largest": big, "smallest": small,
            }
    return "verified", None, {"trials": trials, "identical": trials,
                              "seed": params["seed"]}


def _h_cex_m_order(params):
    n_max = params["n_max"]
    exact_max = params["exact_max"]
    log_sizes = []
    for n in range(n_max + 1):
        cert = m_order_certificate(n)
        if not cert.accepted:
            return "refuted", None, {"rejected_at": n}
        log_sizes.append(len(cert.log))
    exact = {}
    for n in range(1, exact_max + 1):
        floor = min_xy_degree(expand_z0(n))
        exact[str(n)] = floor
        if floor < n:
            return "refuted", None, {"n": n, "min_xy_degree": floor}
    return "verified", None, {"certificates": n_max + 1, "log_sizes": log_sizes,
                              "exact_floors": exact}


def _h_cex_x_order(params):
    n_max = params["n_max"]
    exact_max = params["exact_max"]
    for n in range(n_max + 1):
        cert = x_order_certificate_bprime(n)
        if not cert.accepted:
            return "refuted", None, {"rejected_at": n}
    exact = {}
    for n in range(1, exact_max + 1):
        q = expand_z0_bprime(n)
        ix = q.ring.names.index("x")
        # x^k divides q iff k <= the least x-exponent of its terms
        order = min(e[ix] for e in q.terms)
        if order < n:
            return "refuted", None, {"n": n, "reason": f"not divisible by x^{n}"}
        exact[str(n)] = {"divisible": n, "sharp": order == n}
    return "verified", None, {"certificates": n_max + 1, "exact_orders": exact}


def _h_cex_coords(params):
    n_max = params["n_max"]
    levels = {}
    for n in range(n_max + 1):
        result = coordinate_checks(n)
        levels[str(n)] = result
        if not all(result.values()):
            return "refuted", None, {"n": n, **result}
    return "verified", None, {"levels": levels}


def _h_cex_sseq(params):
    n = params["n"]
    expect = params["expect"]
    values = list(s_sequence(n).values())
    ok = values == list(expect)
    return ("verified" if ok else "refuted"), None, {"values": values,
                                                     "expected": list(expect)}


def _h_jacobian_rank(params):
    fld = params["field"]
    ps = params["p"]
    a = params["a"]
    b = params["b"]
    q = params["q"]
    family = threefold_family(fld, ps, params.get("u", [1] * len(ps)),
                              params.get("v", [1] * len(ps)), a, b)
    rank, dim = jacobian_tangent_dim(family, q)
    if not isinstance(fld, PrimeField) and q.total_degree() >= 2:
        # the rank is taken over k[x]/(q), a field only for an irreducible q
        return "unknown", f"q = {q} is not checked to be irreducible over {fld}", None
    expect_rank = params["expect_rank"]
    expect_dim = params["expect_tangent_dim"]
    witness = {"rank": rank, "tangent_dim": dim}
    if (rank, dim) != (expect_rank, expect_dim):
        witness["expected"] = [expect_rank, expect_dim]
        return "refuted", None, witness
    if params["reject_exponent_one"]:
        try:
            bad = threefold_family(fld, ps, [1] * len(ps), [1] * len(ps),
                                   [1] + list(a)[1:], b)
            jacobian_tangent_dim(bad, q)
            witness["exponent_one_rejected"] = False
            return "refuted", None, witness
        except HypothesisError as err:
            witness["exponent_one_rejected"] = str(err)
    return "verified", None, witness


def _h_trinomial_validate(params):
    ring = trinomial_ring(params["field"], params["beta"], params["lambdas"])
    steps = ring.notes["step_gradings"]
    first = steps[0]
    witness = {
        "relations": [str(r) for r in ring.relations],
        "step_gradings": steps,
        "block_gcds": ring.notes["d"],
    }
    expect_deg = params.get("expect_degree")
    if expect_deg is not None and first["degree"] != expect_deg:
        witness["expected_degree"] = expect_deg
        return "refuted", None, witness
    expect_weights = params.get("expect_weights")
    if expect_weights is not None and first["weights"] != expect_weights:
        witness["expected_weights"] = expect_weights
        return "refuted", None, witness
    last_gcd = math.gcd(first["degree"], *params["beta"][-1])
    witness["gcd_last_exponent_vs_degree"] = last_gcd
    if last_gcd != 1:
        return "refuted", None, witness
    return "verified", None, witness


def _h_pham_cases(params):
    fld = params["field"]
    # every instance is built, and so checked, before any expectation is compared
    built = []
    for key, weights_key in (("coprime_triple", "triple_weights"),
                             ("chain", "chain_weights")):
        if key in params:
            try:
                built.append((key, pham_brieskorn(fld, params[key]), params.get(weights_key)))
            except HypothesisError as err:
                err.param = key
                raise
    reject = params.get("reject")
    if reject is not None:
        # a malformed list is the caller's mistake, so only the gcd hypothesis may fail
        exponent_list(reject, 3, "reject")
    witness = {}
    for key, ring, expect in built:
        table = dict(ring.grading)
        witness[key] = {"case": ring.notes["case"], "weights": table,
                        "relation": str(ring.relations[0])}
        if expect is not None and table != expect:
            witness[key]["expected_weights"] = expect
            return "refuted", None, witness
    if reject is not None:
        try:
            pham_brieskorn(fld, reject)
            witness["reject"] = {"accepted": True}
            return "refuted", None, witness
        except HypothesisError as err:
            witness["reject"] = {"rejected": str(err)}
    if not witness:
        raise UsageError("claim pham.cases: no instance was given "
                         "(coprime_triple, chain or reject)")
    return "verified", None, witness


def _h_groebner_irreducible(params):
    f = params["poly"]
    factors = brute_force_irreducible(f, params["max_deg"])
    witness = {"poly": str(f), "searched_degree": params["max_deg"]}
    if factors is None:
        witness["verdict"] = "irreducible"
        return "verified", None, witness
    witness["verdict"] = "reducible"
    witness["factors"] = [str(g) for g in factors]
    return "refuted", None, witness


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SEED = Param(_json(int), 20250814)

REGISTRY: dict[str, ClaimSpec] = {}


def _register(claim_id: str, statement: str, params: dict[str, Param], handler) -> None:
    REGISTRY[claim_id] = ClaimSpec(claim_id, statement, params, handler)


_register(
    "groebner.soundness",
    "Buchberger output passes the S-polynomial test and agrees with the "
    "linear-algebra membership oracle on random ideals over a prime field.",
    {"field": Param(_field, "GF(5)"), "seed": _SEED, "trials": Param(_json(int, 1), 20),
     "queries": Param(_json(int, 1), 100), "member_bound": Param(_json(int, 0), 6)},
    _h_groebner_soundness,
)
_register(
    "coeff.prime-avoid",
    "For every (a1, a2, b, c) in the box with gcd(a1, a2, b) = 1 and c != 0, "
    "the returned shift m gives gcd(c, b + m1*a1 + m2*a2) = 1.",
    {"lo": Param(_json(int), -6), "hi": Param(_box_top("lo"), 6)},
    _h_prime_avoid,
)
_register(
    "samuel.kernel",
    "(a*X - b) is already saturated at a: ((a*X - b) : a^infinity) = (a*X - b).",
    {"field": Param(_field, "GF(5)"), "vars": Param(_extension_vars, ["u", "v", "X"]),
     "a": Param(_below_adjoined(_poly(must_be="nonzero")), "u", fill=False, required=True),
     "b": Param(_below_adjoined(_poly()), "v", fill=False, required=True)},
    _h_samuel_kernel,
)
_register(
    "wchain.regular",
    "For b, s, t three independent variables, W_i = (b, s)^i and J_i = W_i "
    "up to the level bound.",
    {"field": Param(_field, "Q"), "i_max": Param(_json(int, 1), 5)},
    _h_wchain_regular,
)
_register(
    "wchain.absorbing",
    "For b = s = t = u the chain stabilizes: W_i = (u) and J_i = (1) for "
    "every level i >= 1 up to the bound.",
    {"field": Param(_field, "Q"), "i_max": Param(_json(int, 1), 5)},
    _h_wchain_absorbing,
)
_register(
    "lemma32.levels",
    "Level-wise elimination identity: eliminating X from (s^i, s*t*X - b) "
    "recovers W_i at every level up to the bound.",
    {"field": Param(_field, "GF(5)"), "s": Param(_poly(("u", "v"), "nonzero"), "u"),
     "t": Param(_poly(("u", "v"), "nonzero"), "v"),
     "b": Param(_poly(("u", "v"), "nonzero"), "u+v"),
     "i_max": Param(_json(int, 1), 4)},
    _h_lemma32_levels,
)
_register(
    "omega.basis",
    "normal_form(z0^2) = -(z1) - x^2*z2, exactly.",
    {},
    _h_omega_basis,
)
_register(
    "omega.z-relations",
    "z_i + z0^(2^i) lies in x*Omega for i up to the bound, while z_i itself "
    "never does.",
    {"i_max": Param(_json(int, 1), 3), "not_in_max": Param(_json(int, 0), 4)},
    _h_omega_z_relations,
)
_register(
    "omega.confluence",
    "Rewriting is pivot-independent: largest- and smallest-pivot strategies "
    "give byte-identical normal forms on random monomials.",
    {"seed": _SEED, "trials": Param(_json(int, 1), 100), "max_size": Param(_json(int, 1), 6),
     "max_index": Param(_json(int, 0), 4)},
    _h_omega_confluence,
)
_register(
    "cex.m-order",
    "The (x, y)-order certificate is accepted for every n up to the bound, "
    "and at small depth the full expansion has min (x, y)-degree >= n.",
    {"n_max": Param(_json(int, 0), 10), "exact_max": Param(_json(int, 1), 3)},
    _h_cex_m_order,
)
_register(
    "cex.x-order",
    "After the substitution y = x*T the order certificate is accepted for "
    "every n up to the bound, and at small depth the expansion is exactly "
    "divisible by x^n.",
    {"n_max": Param(_json(int, 0), 10), "exact_max": Param(_json(int, 1), 2)},
    _h_cex_x_order,
)
_register(
    "cex.coords",
    "All three coordinate identities hold for the truncated relation ideals: "
    "the shear composite linearizes, and the ideals match mod x and mod y.",
    {"n_max": Param(_json(int, 0), 3)},
    _h_cex_coords,
)
_register(
    "cex.sseq",
    "The exponent sequence begins 2, 3, 6, 24, 180.",
    {"n": Param(_json(int, 1), 5), "expect": Param(_each(_json(int)), [2, 3, 6, 24, 180])},
    _h_cex_sseq,
)
_register(
    "jacobian.rank",
    "The relation Jacobian at the distinguished point has the expected rank "
    "and tangent dimension, and exponent 1 in the a-slot is rejected.",
    # u and v are derived from p when left out
    {"field": Param(_field, "Q"),
     "p": Param(_each(_poly(("x",))), ["x"]),
     "u": Param(_one_per("p"), [1], fill=False), "v": Param(_one_per("p"), [1], fill=False),
     "a": Param(_one_per("p"), [2]), "b": Param(_one_per("p"), [3]),
     "q": Param(_poly(("x",), "nonconstant"), "x"),
     "expect_rank": Param(_json(int), 0), "expect_tangent_dim": Param(_json(int), 4),
     "reject_exponent_one": Param(_json(bool), True)},
    _h_jacobian_rank,
)
_register(
    "trinomial.validate",
    "The trinomial data validates: the first step grading has the expected "
    "weights and degree, and the last exponent block is coprime to it.",
    # a missing expectation is not checked
    {"field": Param(_field, "Q"),
     "beta": Param(_json(list), [[2], [3], [5]], fill=False, required=True),
     "lambdas": Param(_json(list), [1], fill=False, required=True),
     "expect_degree": Param(_json(int), 6, fill=False),
     "expect_weights": Param(_each(_json(int), dict), {"t0": 3, "t1": 2}, fill=False)},
    _h_trinomial_validate,
)
_register(
    "pham.cases",
    "Diagonal-hypersurface data builds under the right case with the "
    "expected weight table; non-coprime data is rejected.",
    # each instance, expectation and rejection is checked only when given
    {"field": Param(_field, "Q"),
     "coprime_triple": Param(_json(list), [2, 3, 5], fill=False),
     "triple_weights": Param(_weights_of("coprime_triple"), {"X1": 15, "X2": 10, "Z": 6},
                            fill=False),
     "chain": Param(_json(list), [2, 3, 4, 5], fill=False),
     "chain_weights": Param(_weights_of("chain"), {"X1": 30, "X2": 20, "X3": 15, "Z": 12},
                            fill=False),
     "reject": Param(_json(list), [2, 2, 3], fill=False)},
    _h_pham_cases,
)
_register(
    "groebner.irreducible",
    "Exhaustive factor search certifies irreducibility over a prime field "
    "at the stated degree bound.",
    {"field": Param(_prime_field, "GF(5)"), "vars": Param(_vars, ["x", "y"]),
     "poly": Param(_poly(must_be="nonconstant"), "x^2 + y^3", fill=False, required=True),
     "max_deg": Param(_factor_degree("poly"), 2)},
    _h_groebner_irreducible,
)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


DEFAULT_TIMEOUT_S = 60.0


class _Timeout(Exception):
    pass


@contextmanager
def _alarm(seconds: Optional[float]):
    """SIGALRM-based soft timeout; inert off the main thread or when None.
    A time the interval timer cannot take raises UsageError before the body
    runs."""
    if seconds is None or threading.current_thread() is not threading.main_thread():
        yield
        return

    def _raise(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, _raise)
    try:
        signal.setitimer(signal.ITIMER_REAL, seconds)
    except (OverflowError, ValueError) as err:
        signal.signal(signal.SIGALRM, old)
        raise UsageError(f"timeout {seconds} s: {err}") from err
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)


def _spec(claim_id: str) -> ClaimSpec:
    spec = REGISTRY.get(claim_id)
    if spec is None:
        raise UsageError(f"unknown claim {claim_id!r}")
    return spec


def default_params(claim_id: str) -> dict:
    """A fresh copy of the parameters shipped for a claim, in table order."""
    table = _spec(claim_id).params
    return copy.deepcopy({key: p.default for key, p in table.items()})


def report_schema() -> dict:
    """The JSON schema every emitted report must validate against."""
    res = resources.files("ufdlab").joinpath("schema/claim_report.schema.json")
    return json.loads(res.read_text())


def suite_claims(name: str) -> list[str]:
    """The claim ids of a suite; the one suite, "acceptance", is every claim."""
    if name != "acceptance":
        raise UsageError(f"unknown suite {name!r}")
    return list(REGISTRY)


def _parse_params(spec: ClaimSpec, given: dict) -> dict:
    """The given parameters parsed by their kinds, in table order; a
    required parameter left out is a usage error."""
    parsed = {}
    for key, param in spec.params.items():
        if key in given:
            try:
                parsed[key] = param.kind(given[key], parsed)
            except ValueError as err:
                raise UsageError(f"parameter {key!r} of claim {spec.claim_id}: {err}") from err
        elif param.required:
            raise UsageError(f"parameter {key!r} of claim {spec.claim_id} is required")
    return parsed


def run_claim(claim_id: str, params: Optional[dict] = None,
              timeout: Optional[float] = DEFAULT_TIMEOUT_S) -> ClaimReport:
    """Dispatch one claim and assemble its report.

    With params=None the shipped parameters are used.  Otherwise the given
    parameters go on top of the shipped values of the filled parameters;
    the report records the parameters exactly as given.  Each is parsed by
    its kind in table order before the handler runs, and the handler sees
    the parsed values.  A cap or timeout downgrades the status to unknown
    with the bound saying which; timeout=None runs without a time limit.
    Parameter-level failures (unknown claim, unknown parameters, required
    parameters left out, values their kind cannot parse, a timeout that is
    not a finite number of seconds > 0 the interval timer accepts, a
    malformed UFDLAB_CAPS) raise UsageError instead.  After parsing, only
    a builder's HypothesisError is the caller's mistake, also raised as
    UsageError, which names the parameter the error carries when it is one
    of the claim's; any other exception is a bug and propagates unchanged.
    """
    spec = _spec(claim_id)
    if timeout is not None and not (math.isfinite(timeout) and timeout > 0):
        raise UsageError(f"timeout must be a finite number of seconds > 0, got {timeout}")
    shipped = default_params(claim_id)
    if params is None:
        params = shipped
    for key in params:
        if key not in spec.params:
            raise UsageError(f"unknown parameter {key!r} for claim {claim_id}")
    filled = {key: value for key, value in shipped.items() if spec.params[key].fill}
    try:
        current_caps()
    except ValueError as err:
        raise UsageError(f"claim {claim_id}: {err}") from err
    start = time.monotonic()
    try:
        with _alarm(timeout):
            status, bound, witness = spec.handler(_parse_params(spec, {**filled, **params}))
    except _Timeout:
        status, bound, witness = "unknown", "timeout", None
    except CapExceeded as err:
        status, bound, witness = "unknown", "cap", str(err)
    except HypothesisError as err:
        raise UsageError(f"parameter {err.param!r} of claim {claim_id}: {err}"
                         if err.param in spec.params else f"claim {claim_id}: {err}") from err
    elapsed = int((time.monotonic() - start) * 1000)
    return ClaimReport(claim_id, dict(params), status, bound, witness,
                       elapsed, __version__)


def exit_code(reports: list[ClaimReport]) -> int:
    """0 all verified, 1 any refuted, 2 any unknown without a refutation."""
    statuses = {r.status for r in reports}
    if "refuted" in statuses:
        return 1
    if "unknown" in statuses:
        return 2
    return 0
