"""Claim registry and runner: finite, re-runnable verifications with reports.

Each claim couples a one-line mathematical statement with a handler that
decides it for concrete parameters.  A handler returns one of three statuses:

  verified  the statement holds; the witness is re-checkable data
  refuted   a concrete counterexample was found; the witness exhibits it
  unknown   the search was truncated (size cap or timeout); `bound` says how

Handlers are pure library calls, so a report is deterministic given its
parameters and the tool version (`elapsed_ms` excepted).  Each claim is
registered with one parameter table (`Param` rows: type, shipped value, lower
bound, whether the runner fills it in); the runner validates against it and
`default_params` reads the shipped values from it.
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
from .coeff import GF, QQ, field_from_name, is_int, prime_avoid
from .constructions import (
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
from .errors import CapExceeded, HypothesisError
from .groebner import (
    GREVLEX,
    _s_poly,
    brute_force_irreducible,
    brute_force_member,
    buchberger,
    ideal,
    ideal_equal,
    ideal_power,
    reduce,
    saturation,
)
from .omega import OmegaPoly, expansion_poly, expansion_text, in_x_omega, normal_form
from .poly import Polynomial, poly_ring


class UsageError(Exception):
    """Bad claim id, suite name, or parameters: the caller's fault, exit 3."""


STATUSES = ("verified", "refuted", "unknown")


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

    `kind` is the JSON type a value must have (a JSON boolean is not an int),
    `default` the shipped value (None when nothing ships) and `min` a lower
    bound for an int.  With `fill` the runner hands the shipped value to the
    handler when the caller leaves the parameter out; a parameter without it
    is required, optional (left out, its check is skipped) or derived by the
    handler from the others.
    """

    kind: type
    default: object = None
    min: Optional[int] = None
    fill: bool = True


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
    p = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        while True:
            exps = [rng.randint(0, max_deg) for _ in range(ring.nvars)]
            if sum(exps) <= max_deg:
                break
        p = p + ring.monomial(dict(zip(ring.names, exps)), ring.field.sample(rng))
    return p


def _h_groebner_soundness(params):
    fld = field_from_name(params["field"])
    rng = random.Random(params["seed"])
    trials = params["trials"]
    queries = params["queries"]
    member_bound = params["member_bound"]
    names = ("u", "v", "w")
    s_polys = 0
    agreements = 0
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
                if s and reduce(s, gb):
                    return "refuted", None, {
                        "reason": "S-polynomial does not reduce to zero",
                        "basis": [str(g) for g in gb],
                        "pair": [str(gb[j]), str(gb[i])],
                    }
        # exactly `queries` queries in all, the remainder on the first ideals
        for _ in range(queries // trials + (trial < queries % trials)):
            q = _random_poly(ring, rng, 3, 4)
            via_basis = not reduce(q, gb) if gb else not q
            via_oracle = brute_force_member(q, gens, member_bound)
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
    return "verified", None, witness


def _h_prime_avoid(params):
    lo, hi = params["lo"], params["hi"]
    if lo > hi:
        raise ValueError(f"empty box: lo = {lo} exceeds hi = {hi}")
    checked = 0
    for a1 in range(lo, hi + 1):
        for a2 in range(lo, hi + 1):
            for b in range(lo, hi + 1):
                if math.gcd(a1, a2, b) != 1:
                    continue
                for c in range(lo, hi + 1):
                    if c == 0:
                        continue
                    m = prime_avoid([a1, a2], b, c)
                    if math.gcd(c, b + m[0] * a1 + m[1] * a2) != 1:
                        return "refuted", None, {
                            "a": [a1, a2], "b": b, "c": c, "m": list(m),
                        }
                    checked += 1
    return "verified", None, {"tuples_checked": checked, "box": [lo, hi]}


def _h_samuel_kernel(params):
    fld = field_from_name(params["field"])
    names = tuple(params["vars"])
    ring = poly_ring(fld, names)
    a = ring.parse(params["a"])
    b = ring.parse(params["b"])
    gen = a * ring.var(names[-1]) - b
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
    fld = field_from_name(params["field"])
    i_max = params["i_max"]
    ring = poly_ring(fld, ("u", "v", "w"))
    u, v, w = ring.gens()
    chain = w_chain(ring, u, v, w, i_max)
    uv = ideal(ring, u, v)
    levels = []
    for i in range(1, i_max + 1):
        w_ok = ideal_equal(chain.W(i), ideal_power(uv, i))
        j_ok = ideal_equal(chain.J(i), chain.W(i))
        levels.append({"i": i, "W_is_power": w_ok, "J_equals_W": j_ok,
                       "W_basis": [str(g) for g in chain.W(i).groebner()]})
        if not (w_ok and j_ok):
            return "refuted", None, levels[-1]
    return "verified", None, {"levels": levels}


def _h_wchain_absorbing(params):
    fld = field_from_name(params["field"])
    i_max = params["i_max"]
    ring = poly_ring(fld, ("u", "v"))
    u = ring.var("u")
    chain = w_chain(ring, u, u, u, i_max)
    principal = ideal(ring, u)
    levels = []
    for i in range(1, i_max + 1):
        w_ok = ideal_equal(chain.W(i), principal)
        j_ok = chain.J(i).is_trivial()
        levels.append({"i": i, "W_is_principal": w_ok, "J_trivial": j_ok})
        if not (w_ok and j_ok):
            return "refuted", None, levels[-1]
    return "verified", None, {"levels": levels}


def _h_lemma32_levels(params):
    fld = field_from_name(params["field"])
    ring = poly_ring(fld, ("u", "v"))
    s = ring.parse(params["s"])
    t = ring.parse(params["t"])
    b = ring.parse(params["b"])
    i_max = params["i_max"]
    report = lemma_level_check(ring, b, s, t, i_max)
    witness = {"levels": report.levels, "b": str(b), "s": str(s), "t": str(t)}
    return ("verified" if report.ok else "refuted"), None, witness


def _h_omega_basis(params):
    z0, z1, z2 = (OmegaPoly.z(i) for i in range(3))
    nf = normal_form(z0 * z0)
    expected = -(z1 + OmegaPoly.x(power=2) * z2)
    ok = expansion_poly(nf, QQ) == expected
    witness = {"normal_form": expansion_text(nf), "expected": "-(z1) - x^2*z2"}
    return ("verified" if ok else "refuted"), None, witness


def _h_omega_z_relations(params):
    if "i" in params:
        i_max = not_in_max = params["i"]
    else:
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
        p = OmegaPoly.x(power=rng.randint(0, 3))
        for idx, e in exps.items():
            p = p * OmegaPoly.z(idx) ** e
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
    values = list(s_sequence(n).values)
    ok = values == list(expect)
    return ("verified" if ok else "refuted"), None, {"values": values,
                                                     "expected": list(expect)}


def _h_jacobian_rank(params):
    fld = field_from_name(params["field"])
    xring = poly_ring(fld, ("x",))
    ps = [xring.parse(s) for s in params["p"]]
    a = params["a"]
    b = params["b"]
    q = xring.parse(params["q"])
    family = threefold_family(fld, ps, params.get("u", [1] * len(ps)),
                              params.get("v", [1] * len(ps)), a, b)
    rank, dim = jacobian_tangent_dim(family, q)
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
    fld = field_from_name(params["field"])
    ring = trinomial_ring(fld, params["beta"], params["lambdas"])
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
    fld = field_from_name(params["field"])
    witness = {}
    for key, weights_key in (("coprime_triple", "triple_weights"),
                             ("chain", "chain_weights")):
        exps = params.get(key)
        if exps is None:
            continue
        ring = pham_brieskorn(fld, exps)
        table = dict(ring.grading.weights)
        witness[key] = {"case": ring.notes["case"], "weights": table,
                        "relation": str(ring.relations[0])}
        expect = params.get(weights_key)
        if expect is not None and table != expect:
            witness[key]["expected_weights"] = expect
            return "refuted", None, witness
    reject = params.get("reject")
    if reject is not None:
        try:
            pham_brieskorn(fld, reject)
            witness["reject"] = {"accepted": True}
            return "refuted", None, witness
        except HypothesisError as err:
            witness["reject"] = {"rejected": str(err)}
    return "verified", None, witness


def _h_groebner_irreducible(params):
    fld = field_from_name(params["field"])
    ring = poly_ring(fld, tuple(params["vars"]))
    f = ring.parse(params["poly"])
    verdict = brute_force_irreducible(f, params["max_deg"])
    witness = {"poly": str(f), "searched_degree": params["max_deg"]}
    if verdict.irreducible:
        witness["verdict"] = "irreducible"
        return "verified", None, witness
    g, h = verdict.factors
    witness["verdict"] = "reducible"
    witness["factors"] = [str(g), str(h)]
    return "refuted", None, witness


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_SEED = Param(int, 20250814)

REGISTRY: dict[str, ClaimSpec] = {}


def _register(claim_id: str, statement: str, params: dict[str, Param], handler) -> None:
    REGISTRY[claim_id] = ClaimSpec(claim_id, statement, params, handler)


_register(
    "groebner.soundness",
    "Buchberger output passes the S-polynomial test and agrees with the "
    "linear-algebra membership oracle on random ideals over a prime field.",
    {"field": Param(str, "GF(5)"), "seed": _SEED, "trials": Param(int, 20, 1),
     "queries": Param(int, 100, 1), "member_bound": Param(int, 6, 0)},
    _h_groebner_soundness,
)
_register(
    "coeff.prime-avoid",
    "For every (a1, a2, b, c) in the box with gcd(a1, a2, b) = 1 and c != 0, "
    "the returned shift m gives gcd(c, b + m1*a1 + m2*a2) = 1.",
    {"lo": Param(int, -6), "hi": Param(int, 6)},
    _h_prime_avoid,
)
_register(
    "samuel.kernel",
    "(a*X - b) is already saturated at a: ((a*X - b) : a^infinity) = (a*X - b).",
    {"field": Param(str, "GF(5)"), "vars": Param(list, ["u", "v", "X"]),
     "a": Param(str, "u", fill=False), "b": Param(str, "v", fill=False)},
    _h_samuel_kernel,
)
_register(
    "wchain.regular",
    "For b, s, t three independent variables, W_i = (b, s)^i and J_i = W_i "
    "up to the level bound.",
    {"field": Param(str, "Q"), "i_max": Param(int, 5, 1)},
    _h_wchain_regular,
)
_register(
    "wchain.absorbing",
    "For b = s = t = u the chain stabilizes: W_i = (u) and J_i = (1) for "
    "every level i >= 1 up to the bound.",
    {"field": Param(str, "Q"), "i_max": Param(int, 5, 1)},
    _h_wchain_absorbing,
)
_register(
    "lemma32.levels",
    "Level-wise elimination identity: eliminating X from (s^i, s*t*X - b) "
    "recovers W_i at every level up to the bound.",
    {"field": Param(str, "GF(5)"), "s": Param(str, "u"), "t": Param(str, "v"),
     "b": Param(str, "u+v"), "i_max": Param(int, 4, 1)},
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
    # i, when given, sets both bounds
    {"i": Param(int, None, 1, fill=False), "i_max": Param(int, 3, 1),
     "not_in_max": Param(int, 4, 0)},
    _h_omega_z_relations,
)
_register(
    "omega.confluence",
    "Rewriting is pivot-independent: largest- and smallest-pivot strategies "
    "give byte-identical normal forms on random monomials.",
    {"seed": _SEED, "trials": Param(int, 100, 1), "max_size": Param(int, 6, 1),
     "max_index": Param(int, 4, 0)},
    _h_omega_confluence,
)
_register(
    "cex.m-order",
    "The (x, y)-order certificate is accepted for every n up to the bound, "
    "and at small depth the full expansion has min (x, y)-degree >= n.",
    {"n_max": Param(int, 10, 0), "exact_max": Param(int, 3, 1)},
    _h_cex_m_order,
)
_register(
    "cex.x-order",
    "After the substitution y = x*T the order certificate is accepted for "
    "every n up to the bound, and at small depth the expansion is exactly "
    "divisible by x^n.",
    {"n_max": Param(int, 10, 0), "exact_max": Param(int, 2, 1)},
    _h_cex_x_order,
)
_register(
    "cex.coords",
    "All three coordinate identities hold for the truncated relation ideals: "
    "the shear composite linearizes, and the ideals match mod x and mod y.",
    {"n_max": Param(int, 3, 0)},
    _h_cex_coords,
)
_register(
    "cex.sseq",
    "The exponent sequence begins 2, 3, 6, 24, 180.",
    {"n": Param(int, 5, 1), "expect": Param(list, [2, 3, 6, 24, 180])},
    _h_cex_sseq,
)
_register(
    "jacobian.rank",
    "The relation Jacobian at the distinguished point has the expected rank "
    "and tangent dimension, and exponent 1 in the a-slot is rejected.",
    # u and v are derived from p when left out
    {"field": Param(str, "Q"), "p": Param(list, ["x"]),
     "u": Param(list, [1], fill=False), "v": Param(list, [1], fill=False),
     "a": Param(list, [2]), "b": Param(list, [3]), "q": Param(str, "x"),
     "expect_rank": Param(int, 0), "expect_tangent_dim": Param(int, 4),
     "reject_exponent_one": Param(bool, True)},
    _h_jacobian_rank,
)
_register(
    "trinomial.validate",
    "The trinomial data validates: the first step grading has the expected "
    "weights and degree, and the last exponent block is coprime to it.",
    # beta and lambdas are required; a missing expectation is not checked
    {"field": Param(str, "Q"), "beta": Param(list, [[2], [3], [5]], fill=False),
     "lambdas": Param(list, [1], fill=False),
     "expect_degree": Param(int, 6, fill=False),
     "expect_weights": Param(dict, {"t0": 3, "t1": 2}, fill=False)},
    _h_trinomial_validate,
)
_register(
    "pham.cases",
    "Diagonal-hypersurface data builds under the right case with the "
    "expected weight table; non-coprime data is rejected.",
    # each instance, expectation and rejection is checked only when given
    {"field": Param(str, "Q"),
     "coprime_triple": Param(list, [2, 3, 5], fill=False),
     "triple_weights": Param(dict, {"X1": 15, "X2": 10, "Z": 6}, fill=False),
     "chain": Param(list, [2, 3, 4, 5], fill=False),
     "chain_weights": Param(dict, {"X1": 30, "X2": 20, "X3": 15, "Z": 12}, fill=False),
     "reject": Param(list, [2, 2, 3], fill=False)},
    _h_pham_cases,
)
_register(
    "groebner.irreducible",
    "Exhaustive factor search certifies irreducibility over a prime field "
    "at the stated degree bound.",
    {"field": Param(str, "GF(5)"), "vars": Param(list, ["x", "y"]),
     "poly": Param(str, "x^2 + y^3", fill=False), "max_deg": Param(int, 2, 1)},
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
    """SIGALRM-based soft timeout; inert off the main thread or when None."""
    usable = (
        seconds is not None
        and seconds > 0
        and threading.current_thread() is threading.main_thread()
    )
    if not usable:
        yield
        return

    def _raise(signum, frame):
        raise _Timeout()

    old = signal.signal(signal.SIGALRM, _raise)
    signal.setitimer(signal.ITIMER_REAL, seconds)
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
    return copy.deepcopy({key: p.default for key, p in table.items()
                          if p.default is not None})


def report_schema() -> dict:
    """The JSON schema every emitted report must validate against."""
    res = resources.files("ufdlab").joinpath("schema/claim_report.schema.json")
    return json.loads(res.read_text())


def suite_claims(name: str) -> list[str]:
    """The claim ids of a suite; the one suite, "acceptance", is every claim."""
    if name != "acceptance":
        raise UsageError(f"unknown suite {name!r}")
    return list(REGISTRY)


def _validate_params(spec: ClaimSpec, params: dict) -> None:
    for key, value in params.items():
        param = spec.params.get(key)
        if param is None:
            raise UsageError(f"unknown parameter {key!r} for claim {spec.claim_id}")
        if not (is_int(value) if param.kind is int else isinstance(value, param.kind)):
            raise UsageError(
                f"parameter {key!r} of claim {spec.claim_id} must be "
                f"{param.kind.__name__}, got {type(value).__name__}"
            )
        if param.min is not None and value < param.min:
            raise UsageError(
                f"parameter {key!r} of claim {spec.claim_id} must be "
                f">= {param.min}, got {value}"
            )


def run_claim(claim_id: str, params: Optional[dict] = None,
              timeout: Optional[float] = DEFAULT_TIMEOUT_S) -> ClaimReport:
    """Dispatch one claim and assemble its report.

    With params=None the shipped parameters are used.  Otherwise the given
    parameters are checked against the claim's table (type and lower bound)
    and the handler sees them on top of the shipped values of the filled
    parameters; the report records the parameters exactly as given.  A cap
    or timeout downgrades the status to unknown with the bound saying which.
    Parameter-level failures (unknown claim, wrong types, out-of-range
    values, a malformed UFDLAB_CAPS, hypothesis errors raised while setting
    the instance up) raise UsageError instead.
    """
    spec = _spec(claim_id)
    shipped = default_params(claim_id)
    if params is None:
        params = shipped
    _validate_params(spec, params)
    filled = {key: value for key, value in shipped.items() if spec.params[key].fill}
    try:
        current_caps()
    except ValueError as err:
        raise UsageError(f"claim {claim_id}: {err}") from err
    start = time.monotonic()
    try:
        with _alarm(timeout):
            status, bound, witness = spec.handler({**filled, **params})
    except _Timeout:
        status, bound, witness = "unknown", "timeout", None
    except CapExceeded as err:
        status, bound, witness = "unknown", "cap", str(err)
    except (HypothesisError, ValueError, KeyError) as err:
        raise UsageError(f"claim {claim_id}: {err}") from err
    elapsed = int((time.monotonic() - start) * 1000)
    return ClaimReport(claim_id, dict(params), status, bound, witness,
                       elapsed, __version__)


def run_suite(name: str, timeout: Optional[float] = DEFAULT_TIMEOUT_S) -> list[ClaimReport]:
    return [run_claim(cid, timeout=timeout) for cid in suite_claims(name)]


def exit_code(reports: list[ClaimReport]) -> int:
    """0 all verified, 1 any refuted, 2 any unknown without a refutation."""
    statuses = {r.status for r in reports}
    if "refuted" in statuses:
        return 1
    if "unknown" in statuses:
        return 2
    return 0
