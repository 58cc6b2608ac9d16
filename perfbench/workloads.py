"""The four benchmark workloads.

Each `setup_<name>(seed, reference)` builds the inputs of one workload from
its seed and returns a `Workload`: the fixed list of operations one pass
runs, set-up failures, and a check that runs after the timed phase.  An
operation returns its result; its check (outside the timed interval) returns
None when the result is right and a reason otherwise.

Every library call goes through a module attribute (`groebner.buchberger`,
not a name bound here), so the tracer's wrappers see it.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
import threading
from dataclasses import dataclass, field
from typing import Callable, Optional

import instances

CLAIM_TIMEOUT_S = 60.0  # the CLI's default --timeout


@dataclass
class Op:
    """One timed call: `run(*inputs())`, with `inputs` called outside the
    timer, so an op can get fresh arguments on every pass."""

    name: str
    run: Callable[..., object]
    check: Callable[[object], Optional[str]]
    # suite ops carry the claim runner's own SIGALRM timeout; the others get
    # one from the worker
    own_timeout: bool = False
    inputs: Callable[[], tuple] = tuple


@dataclass
class Workload:
    ops: list[Op]
    setup_failures: list[str] = field(default_factory=list)
    post_check: Callable[[], list[str]] = lambda: []


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def basis_digest(basis) -> str:
    return digest("\n".join(str(g) for g in basis))


def report_digest(doc: dict) -> str:
    """Digest of a report with its one nondeterministic field dropped."""
    stable = {k: v for k, v in doc.items() if k != "elapsed_ms"}
    return digest(json.dumps(stable, sort_keys=True))


def parse_all(fld_name: str, names, texts):
    """The ring and the parsed polynomials of one generated instance."""
    from ufdlab import coeff, poly

    ring = poly.poly_ring(coeff.field_from_name(fld_name), names)
    return ring, [ring.parse(t) for t in texts]


def usable_pool(reference: dict) -> list[int]:
    return [k for k, d in enumerate(reference["pool"]) if d is not None]


# ---------------------------------------------------------------------------
# suite: the acceptance claims through the `claim run-all` path
# ---------------------------------------------------------------------------


def setup_suite(seed: int, reference: dict) -> Workload:
    from ufdlab import claims, cli

    schema = claims.report_schema()
    order = claims.suite_claims("acceptance")
    random.Random(seed).shuffle(order)
    expected = reference["suite"]
    failures = [f"suite claim {cid} has no reference" for cid in order if cid not in expected]

    def run(cid):
        if threading.current_thread() is not threading.main_thread():
            raise RuntimeError("claims must run on the main thread for their timeout")
        report = claims.run_claim(cid, timeout=CLAIM_TIMEOUT_S)
        doc = cli._checked_json(report, schema)
        json.dumps(doc, indent=2)
        return doc

    def check(doc):
        if doc["status"] != "verified":
            return f"{doc['claim_id']}: {doc['status']} ({doc.get('bound')})"
        if report_digest(doc) != expected.get(doc["claim_id"]):
            return f"{doc['claim_id']}: report differs from the reference"
        return None

    ops = [Op(cid, lambda cid=cid: run(cid), check, own_timeout=True) for cid in order]
    return Workload(ops, failures)


# ---------------------------------------------------------------------------
# gb: fresh Groebner bases (the write path of groebner)
# ---------------------------------------------------------------------------

FIXED_GB = [
    ("cyclic-4", instances.GF_NAME, instances.cyclic(4)),
    ("katsura-4", instances.GF_NAME, instances.katsura(4)),
    ("katsura-3", instances.QQ_NAME, instances.katsura(3)),
    ("katsura-4", instances.QQ_NAME, instances.katsura(4)),
    ("cyclic-5", instances.GF_NAME, instances.cyclic(5)),
]
GB_RANDOM = 600


def fixed_key(name: str, fld_name: str) -> str:
    return f"{name}/{fld_name}"


def setup_gb(seed: int, reference: dict) -> Workload:
    from ufdlab import groebner

    def op(name, fld_name, names, texts, want):
        parse_all(fld_name, names, texts)  # parsing the input is set-up work

        def check(basis):
            if basis_digest(basis) != want:
                return f"{name}: basis differs from the reference"
            return None

        # Each pass parses the generators again, outside the timer, so no
        # cache an earlier run left on the polynomials speeds up a later one.
        return Op(name, lambda gens: groebner.buchberger(gens), check,
                  inputs=lambda: (parse_all(fld_name, names, texts)[1],))

    drawn = instances.pick_pool(random.Random(seed), usable_pool(reference),
                                reference["pool_ms"], GB_RANDOM)
    random.Random(seed).shuffle(drawn)  # mix the fields and the strata
    randoms = [op(f"pool-{k}", *instances.pool_ideal(k), reference["pool"][k]) for k in drawn]
    fixed = [op(fixed_key(name, fld_name), fld_name, names, texts,
                reference["fixed"][fixed_key(name, fld_name)])
             for name, fld_name, (names, texts) in FIXED_GB]
    # The small random ideals are timed in two halves, before and after the
    # fixed instances (cyclic-5 alone is most of the pass).
    half = len(randoms) // 2
    return Workload(randoms[:half] + fixed + randoms[half:])


# ---------------------------------------------------------------------------
# reduce: membership and normal forms against cached bases (the read path)
# ---------------------------------------------------------------------------

REDUCE_KATSURA_QUERIES = 60  # per field, half members
REDUCE_POOL_IDEALS = 16
REDUCE_POOL_QUERIES = 6
REDUCE_MAX_BUILD_MS = 50.0
COFACTOR_DEGREE = 2
COFACTOR_TERMS = 2
CROSS_CHECK_SAMPLE = 6


def _standard_monomials(ring, basis, max_deg: int):
    from ufdlab import groebner, poly

    keyfn = groebner.GREVLEX.key_for(ring)
    leads = [g.leading(keyfn)[0] for g in basis]
    monos = [e for e in itertools.product(range(max_deg + 1), repeat=ring.nvars)
             if sum(e) <= max_deg]
    return [e for e in monos if not any(poly.mono_divides(lead, e) for lead in leads)]


def setup_reduce(seed: int, reference: dict) -> Workload:
    from ufdlab import groebner, poly

    rng = random.Random(seed)
    # nontrivial ideals (they have non-members), cheap enough to build that
    # the draw does not swing set-up time
    trivial = basis_digest(["1"])
    usable = [k for k in usable_pool(reference) if reference["pool"][k] != trivial
              and reference["pool_ms"][k] <= REDUCE_MAX_BUILD_MS]
    chosen = [
        ("katsura-4", fld_name, instances.katsura(4),
         reference["fixed"][fixed_key("katsura-4", fld_name)], REDUCE_KATSURA_QUERIES)
        for fld_name in (instances.GF_NAME, instances.QQ_NAME)
    ]
    for k in instances.pick_pool(rng, usable, reference["pool_ms"], REDUCE_POOL_IDEALS):
        fld_name, names, texts = instances.pool_ideal(k)
        chosen.append((f"pool-{k}", fld_name, (names, texts), reference["pool"][k],
                       REDUCE_POOL_QUERIES))

    ops, failures, samples = [], [], []
    for name, fld_name, (names, texts), want, count in chosen:
        ring, gens = parse_all(fld_name, names, texts)
        ideal = groebner.Ideal(ring, gens)
        basis = ideal.groebner()
        if basis_digest(basis) != want:
            failures.append(f"{name}: cached basis differs from the reference")
            continue
        std = _standard_monomials(ring, basis, 3)
        for i in range(count):
            q = ring.zero()
            while not q:
                for g in gens:
                    q = q + ring.parse(instances.random_poly_text(
                        rng, names, fld_name, COFACTOR_DEGREE, COFACTOR_TERMS,
                        COFACTOR_TERMS)) * g
            tag = f"{name}#{i}"
            if i % 2 == 0:
                ops.append(Op(f"{tag}/contains", lambda I=ideal, q=q: I.contains(q),
                              lambda r, tag=tag: None if r is True else f"{tag}: member rejected"))
                samples.append((q, gens, True))
            else:
                r0 = ring.zero()
                for e in rng.sample(std, min(len(std), rng.randint(1, 2))):
                    r0 = r0 + poly.Polynomial(ring, {e: ring.field.of(rng.randint(1, 9))})
                q = q + r0
                ops.append(Op(f"{tag}/normal_form", lambda I=ideal, q=q: I.normal_form(q),
                              lambda r, r0=r0, tag=tag: None if r == r0
                              else f"{tag}: normal form differs from the constructed one"))
                samples.append((q, gens, False))

    sample = rng.sample(samples, min(CROSS_CHECK_SAMPLE, len(samples)))

    def cross_check():
        """Members must have a degree-bounded certificate; the oracle must
        not find one for a non-member."""
        bad = []
        for q, gens, member in sample:
            if groebner.brute_force_member(q, gens, COFACTOR_DEGREE) != member:
                bad.append(f"brute_force_member disagrees on {q}")
        return bad

    return Workload(ops, failures, cross_check)


# ---------------------------------------------------------------------------
# rewrite: omega normal forms and the counterexample expanders
# ---------------------------------------------------------------------------

REWRITE_ELEMENTS = 120
MIN_SIZE, MAX_SIZE = 8, 24  # z-size of the products
EXPAND_DEPTH = 3  # EXPAND_DEPTH_CAP
IDENTITY_DEPTH = 2  # IDENTITY_DEPTH_CAP
COORDINATE_N = 3  # COORDINATE_CAP


def setup_rewrite(seed: int, reference: dict) -> Workload:
    from ufdlab import counterexample as cx
    from ufdlab import omega

    rng = random.Random(seed)
    ops = []
    for i in range(REWRITE_ELEMENTS):
        # Each element is a product a * b, so omega.mul runs in the op.  The
        # z-sizes follow a fixed schedule over 8..24: normal-form cost grows
        # steeply with size, and random sizes made the pass time swing by a
        # quarter from seed to seed.
        size = MIN_SIZE + (MAX_SIZE - MIN_SIZE) * i // (REWRITE_ELEMENTS - 1)
        a = omega.parse_omega(instances.omega_element_text(rng, size // 2, 2))
        b = omega.parse_omega(instances.omega_element_text(rng, size - size // 2, 1))
        seen: dict[str, str] = {}

        def check(nf, pivot, seen=seen, i=i):
            # the "largest" op runs first; "smallest" must reproduce its result
            text = omega.expansion_text(nf)
            if pivot == "largest":
                seen["largest"] = text
                return None
            if seen.pop("largest", None) != text:
                return f"element {i}: pivots give different normal forms"
            return None

        for pivot in ("largest", "smallest"):
            ops.append(Op(f"omega-{i}/{pivot}",
                          lambda a=a, b=b, pivot=pivot: omega.normal_form(a * b, pivot),
                          lambda nf, pivot=pivot, check=check: check(nf, pivot)))

    def matches(key):
        want = reference["rewrite"][key]
        return lambda p: None if digest(str(p)) == want else f"{key} differs"

    def certified(n):
        return lambda cert: (None if cert.accepted and cert.order == n
                             else f"certificate {n} rejected")

    n_m, n_x = rng.randint(16, cx.ORDER_CAP), rng.randint(16, cx.ORDER_CAP)
    ops += [
        Op("expand_z0", lambda: cx.expand_z0(EXPAND_DEPTH), matches("expand_z0")),
        Op("expand_z0_bprime", lambda: cx.expand_z0_bprime(EXPAND_DEPTH),
           matches("expand_z0_bprime")),
        Op("check_expansion_identity", lambda: cx.check_expansion_identity(IDENTITY_DEPTH),
           lambda ok: None if ok is True else "expansion identity fails"),
        Op(f"m_order_certificate({n_m})", lambda: cx.m_order_certificate(n_m), certified(n_m)),
        Op(f"x_order_certificate_bprime({n_x})", lambda: cx.x_order_certificate_bprime(n_x),
           certified(n_x)),
        Op("coordinate_checks", lambda: cx.coordinate_checks(COORDINATE_N),
           lambda res: None if all(res.values()) else f"coordinate checks fail: {res}"),
    ]
    return Workload(ops)


SETUPS = {
    "suite": setup_suite,
    "gb": setup_gb,
    "reduce": setup_reduce,
    "rewrite": setup_rewrite,
}
