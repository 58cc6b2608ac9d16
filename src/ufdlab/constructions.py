"""Builders and hypothesis checkers for the ring families under study.

A PresentedRing is a polynomial ring plus a list of nonzero relations (and
optionally a grading, one integer weight per variable, making every
relation homogeneous).
The builders each construct one family — fraction-style extensions
A[X]/(aX-b), radical extensions A[Z]/(Z^c-F), the hypersurface threefold
chains, the three-term-relation rings — and verify every finitely
checkable hypothesis on the way, recording verdicts in `notes`.  A rule on
the caller's data has one checker, which runs once per builder call; its
HypothesisError carries the claim-facing name of the argument that breaks
the rule (`param`), so the claim runner can name that parameter.

Checks that would require deciding primality of an ideal in general are
deliberately tri-state: bounded searches report refuted-with-witness or
unknown-at-bound, never a guessed "verified".
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .coeff import (
    Field,
    PrimeField,
    field_from_name,
    gcd_bezout,
    is_int,
)
from .errors import HypothesisError, too_large
from .groebner import (
    GREVLEX,
    Ideal,
    _monomials_up_to,
    brute_force_irreducible,
    divide,
    elim_ideal,
    ideal_equal,
    ideal_power,
    ideal_quotient,
    intersect,
    row_echelon,
    saturation,
)
from .poly import (
    Polynomial,
    PolyRing,
    RingMap,
    degree_of,
    derivative,
    mono_divides,
    poly_ring,
)

W_CHAIN_CAP = 32


def exponent_list(values: Sequence, least: int = 0, param: Optional[str] = None) -> list[int]:
    """`values`, the argument named `param`, as a list of at least `least`
    ints >= 1 (a bool is no int)."""
    exps = list(values)
    if not all(is_int(x) and x >= 1 for x in exps):
        raise HypothesisError(f"exponents must be positive integers, got {exps!r}", param)
    if len(exps) < least:
        raise HypothesisError(f"must list {least} or more exponents, got {len(exps)}", param)
    return exps


def units(field: Field, values: Sequence, param: Optional[str] = None) -> list:
    """`values`, the argument named `param`, as elements of `field`, none of
    them zero."""
    try:
        out = [field.of(x) for x in values]
    except ValueError as err:
        raise HypothesisError(str(err), param) from err
    if field.zero() in out:
        raise HypothesisError(f"entries must be nonzero, got {list(values)!r}", param)
    return out


# ---------------------------------------------------------------------------
# presented rings
# ---------------------------------------------------------------------------


@dataclass
class PresentedRing:
    """ring + relations (+ optional grading: weight per variable), as a presentation."""

    ring: PolyRing
    relations: tuple[Polynomial, ...]
    grading: Optional[dict[str, int]] = None
    tag: str = ""
    notes: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.relations = tuple(self.relations)
        if self.grading is not None:
            for n in (*self.ring.names, *self.grading):
                w = self.grading.get(n)
                if n not in self.ring.names or not is_int(w):
                    raise ValueError(f"a grading gives one int weight to each ring variable "
                                     f"and to no other name: {n!r} has {w!r}")
        for r in self.relations:
            if not r:
                raise ValueError("zero relation")
            if r.ring != self.ring:
                raise ValueError("relation lives in the wrong ring")
            if self.grading is not None and degree_of(r, self.grading) is None:
                raise ValueError(f"relation not homogeneous: {r}")


def free_ring(field: Field, names: Sequence[str], grading: Optional[dict[str, int]] = None,
              tag: str = "") -> PresentedRing:
    return PresentedRing(poly_ring(field, names), (), grading, tag)


# ---------------------------------------------------------------------------
# fraction-style extension A[X]/(aX - b)
# ---------------------------------------------------------------------------


def relatively_prime(A: PresentedRing, a: Polynomial, b: Polynomial):
    """Check aA cap bA = abA modulo A's relations; returns (ok, offender)."""
    ring = A.ring
    ia = Ideal(ring, A.relations + (a,))
    ib = Ideal(ring, A.relations + (b,))
    cap = intersect(ia, ib)
    prod = Ideal(ring, A.relations + (a * b,))
    for g in cap.gens:
        if not prod.contains(g):
            return False, g
    return True, None


def present_extension(A: PresentedRing, a: Polynomial, b: Polynomial) -> PresentedRing:
    """Present A[b/a] as A[X]/(relations + aX - b).

    Requires a, b nonzero and relatively prime (aA cap bA = abA); then also
    verifies that the presented ideal is already saturated at a — i.e. it
    equals the kernel of the evaluation X -> b/a — and records the verdict
    in notes["saturation_index"] / notes["kernel_equals_presentation"].
    """
    if not a or not b:
        raise ValueError("a and b must be nonzero")
    ok, offender = relatively_prime(A, a, b)
    if not ok:
        raise HypothesisError(
            f"a and b are not relatively prime: {offender} lies in (a) cap (b) but not in (ab)"
        )
    big, X = A.ring.adjoin("X")
    rels = tuple(r.lift(big) for r in A.relations)
    new_rel = a.lift(big) * X - b.lift(big)
    presented = Ideal(big, rels + (new_rel,))
    sat, index = saturation(presented, a.lift(big))
    stable = ideal_equal(sat, presented)
    out = PresentedRing(
        big,
        rels + (new_rel,),
        None,
        tag=A.tag + "+fraction" if A.tag else "fraction-extension",
    )
    out.notes["saturation_index"] = index
    out.notes["kernel_equals_presentation"] = stable
    out.notes["new_variable"] = big.names[-1]
    return out


# ---------------------------------------------------------------------------
# the four-clause pair condition
# ---------------------------------------------------------------------------


@dataclass
class Clause:
    status: str  # "verified" | "refuted" | "unknown"
    bound: Optional[int] = None
    witness: Optional[str] = None
    note: str = ""


@dataclass
class ConditionPReport:
    clauses: dict[str, Clause]
    primes: list[str]
    excluded: list[str]

    def overall(self) -> str:
        statuses = {c.status for c in self.clauses.values()}
        if "refuted" in statuses:
            return "refuted"
        if "unknown" in statuses:
            return "unknown"
        return "verified"


def _standard_monomials(ring: PolyRing, gb, max_deg: int) -> list[Polynomial]:
    """Monomials of degree 1..max_deg reducible by no basis leading term."""
    keyfn = GREVLEX.key_for(ring)
    leads = [g.leading(keyfn)[0] for g in gb]
    out = []
    for e in _monomials_up_to(ring, max_deg):
        if any(e) and not any(mono_divides(l, e) for l in leads):
            out.append(Polynomial(ring, {e: ring.field.one()}))
    return out


def check_condition_P(
    A: PresentedRing,
    a: Polynomial,
    b: Polynomial,
    prime_factors_of_a: Sequence[Polynomial],
    N: int,
) -> ConditionPReport:
    """Check the four clauses of the pair condition on (A, (a, b)).

    (i)  aA cap bA = abA, with the supplied factorization reproducing a.
    (ii) for each listed prime p (with pA+bA proper), a bounded search for
         zero divisors in A/(pA+bA) among pairs of standard monomials of
         degree <= N: refuted on a witness, otherwise unknown at bound N.
    (iii) for non-associate listed primes p, q: q not in pA+bA, decided
         exactly by reduction.
    (iv) truncated: the test element p does not lie in (pA+bA)^N.

    The prime list is trusted (primality in a quotient is not decided
    here); the report says which primes were excluded because pA+bA = A.
    Primes equal up to a scalar are one class, and each class builds its
    quotient ideal pA+bA once, for every clause to read.
    """
    ring = A.ring
    fld = ring.field
    product = ring.one()
    for p in prime_factors_of_a:
        product = product * p
    if not product or not a:
        raise HypothesisError("factor product does not equal a")
    _, ac = a.leading()
    _, pc = product.leading()
    scale = fld.div(ac, pc)
    if product * scale != a:
        raise HypothesisError("factor product does not equal a")
    factor_str = " * ".join(str(p) for p in prime_factors_of_a) or "1"

    clauses: dict[str, Clause] = {}

    # clause (i): relative primality plus the validated factorization
    ok, offender = relatively_prime(A, a, b)
    if ok:
        clauses["i"] = Clause(
            "verified",
            witness=f"(a) cap (b) = (ab); a = {fld.render(scale)} * ({factor_str})",
        )
    else:
        clauses["i"] = Clause(
            "refuted", witness=f"{offender} lies in (a) cap (b) but not in (ab)"
        )

    # one quotient ideal pA+bA per class of primes equal up to a scalar
    monics: list[Polynomial] = []
    primes: list[tuple[Polynomial, Ideal]] = []
    excluded: list[str] = []
    for p in prime_factors_of_a:
        if p.monic() in monics:
            continue
        monics.append(p.monic())
        ideal_p = Ideal(ring, A.relations + (p, b))
        if ideal_p.is_trivial():
            excluded.append(f"{p}: pA+bA = A, not in the prime set")
        else:
            primes.append((p, ideal_p))

    # clause (iii): exact pairwise non-membership
    pairs = [(p, ideal_p, q) for p, ideal_p in primes for q, _ in primes if q is not p]
    lines = []
    for p, ideal_p, q in pairs:
        nf = ideal_p.normal_form(q)
        if not nf:
            clauses["iii"] = Clause("refuted", witness=f"{q} lies in ({p}) + ({b})")
            break
        lines.append(f"{q} mod ({p},{b}) = {nf}")
    else:
        clauses["iii"] = (Clause("verified", witness="; ".join(lines)) if pairs else
                          Clause("verified", note="vacuous: no non-associate prime pairs"))
    if not primes:
        for key in ("ii", "iv"):
            clauses[key] = Clause("verified", note="vacuous: prime set empty")
        return ConditionPReport(clauses, [], excluded)

    # clause (ii): bounded zero-divisor search in A/(pA+bA)
    found = next(
        ((p, m1, m2)
         for p, ideal_p in primes
         for m1, m2 in itertools.product(
             _standard_monomials(ring, ideal_p.groebner(), N), repeat=2)
         if not ideal_p.normal_form(m1 * m2)),
        None,
    )
    if found:
        p, m1, m2 = found
        clauses["ii"] = Clause("refuted", witness=f"zero divisors mod ({p})+({b}): "
                                                  f"{m1} * {m2} = 0 with both factors nonzero")
    else:
        clauses["ii"] = Clause("unknown", bound=N,
                               note="no zero divisor among standard-monomial pairs")

    # clause (iv): truncated power-intersection check with test element p
    lines = []
    for p, _ in primes:
        delta = min(min(sum(e) for e in p.terms), min(sum(e) for e in b.terms))
        test = p
        if test.total_degree() >= N * delta and b.total_degree() < N * delta:
            test = b
        if test.total_degree() >= N * delta:
            clauses["iv"] = Clause(
                "unknown", bound=N, note="no test element below the power degree bound"
            )
            break
        power = ideal_power(Ideal(ring, (p, b)), N)
        if Ideal(ring, A.relations + power.gens).contains(test):
            clauses["iv"] = Clause(
                "refuted", bound=N, witness=f"{test} lies in (({p})+({b}))^{N}"
            )
            break
        lines.append(f"{test} not in (({p})+({b}))^{N}")
    else:
        clauses["iv"] = Clause(
            "verified", bound=N, witness="; ".join(lines), note="truncated at level N"
        )
    return ConditionPReport(clauses, [str(p) for p, _ in primes], excluded)


# ---------------------------------------------------------------------------
# the two-parameter ideal chain W_i = b*J_{i-1} + (s^i),  J_i = (W_i : t)
# ---------------------------------------------------------------------------


def w_chain(
    ring: PolyRing, b: Polynomial, s: Polynomial, t: Polynomial, N: int
) -> tuple[list[Ideal], list[Ideal]]:
    """Compute the descending chain W_0=(1)=J_0, W_i = b*J_{i-1} + (s^i),
    J_i = (W_i : t), verifying the nesting W_{i+1} <= W_i, J_{i+1} <= J_i.
    Returns the lists (W, J), indexed by i = 0..N."""
    if not b or not s or not t:
        raise ValueError("b, s, t must be nonzero")
    if N > W_CHAIN_CAP:
        raise too_large("w_chain", "depth", W_CHAIN_CAP, N)
    one = Ideal(ring, (ring.one(),))
    W, J = [one], [one]
    for i in range(1, N + 1):
        w = Ideal(ring, tuple(b * g for g in J[-1].gens) + (s**i,))
        j = ideal_quotient(w, t)
        for g in w.gens:
            if not W[-1].contains(g):
                raise HypothesisError(f"nesting failure: {g} in W_{i} but not W_{i-1}")
        for g in j.gens:
            if not J[-1].contains(g):
                raise HypothesisError(f"nesting failure: {g} in J_{i} but not J_{i-1}")
        W.append(w)
        J.append(j)
    return W, J


def lemma_level_check(
    ring: PolyRing, b: Polynomial, s: Polynomial, t: Polynomial, N: int
) -> list[bool]:
    """Verify, level by level, that contracting (s^i) + (aX - b) to the base
    ring recovers W_i, where a = s*t; the i-th entry is level i's verdict.

    Preconditions checked: s,t relatively prime and a,b relatively prime,
    both via exact ideal intersection; a refusal names t or b.
    """
    a = s * t
    free = PresentedRing(ring, ())
    for param, name, other, p in (("t", "s", s, t), ("b", "s*t", a, b)):
        ok, offender = relatively_prime(free, other, p)
        if not ok:
            raise HypothesisError(f"must be relatively prime to {name} = {other}: {offender} "
                                  f"lies in ({other}) cap ({p}) but not in their product", param)
    W, _ = w_chain(ring, b, s, t, N)
    big, X = ring.adjoin("X")
    rel = a.lift(big) * X - b.lift(big)
    levels = []
    for i in range(N + 1):
        lhs = elim_ideal(Ideal(big, (s.lift(big) ** i, rel)), ring.names)
        levels.append(ideal_equal(lhs, W[i]))
    return levels


# ---------------------------------------------------------------------------
# radical extensions A[Z]/(Z^c - F) and the diagonal-hypersurface corollary
# ---------------------------------------------------------------------------


def radical_extension(A: PresentedRing, F: Polynomial, c: int) -> PresentedRing:
    """Adjoin a c-th root of a homogeneous F: A[Z]/(relations + Z^c - F),
    graded by (old weights) * c with the new variable of weight deg F.
    Requires gcd(c, deg F) = 1."""
    if c < 1:
        raise ValueError("c must be a positive integer")
    if A.grading is None:
        raise HypothesisError("graded ring required")
    if not F:
        raise ValueError("F must be nonzero")
    omega = degree_of(F, A.grading)
    if omega is None:
        raise HypothesisError("F not homogeneous")
    if math.gcd(c, abs(omega)) != 1:
        raise HypothesisError(f"gcd(c, deg F) = gcd({c}, {omega}) != 1")
    big, Z = A.ring.adjoin("Z")
    zname = big.names[-1]
    new_grading = {**{n: c * w for n, w in A.grading.items()}, zname: omega}
    rels = tuple(r.lift(big) for r in A.relations)
    root_rel = Z**c - F.lift(big)
    out = PresentedRing(
        big, rels + (root_rel,), new_grading,
        tag=(A.tag + "+root" if A.tag else "radical-extension"),
    )
    out.notes["deg_F"] = omega
    out.notes["c"] = c
    out.notes["new_variable"] = zname
    return out


def pham_case(exponents: Sequence[int]) -> str:
    """The case that a_1..a_n meet: (1) n >= 4 and gcd(a_n, a_1*...*a_{n-1})
    = 1, or (2) n = 3 and the exponents pairwise relatively prime."""
    exps = exponent_list(exponents, 3)
    if len(exps) == 3:
        for (i, ai), (j, aj) in itertools.combinations(enumerate(exps, 1), 2):
            if (g := math.gcd(ai, aj)) != 1:
                raise HypothesisError(f"case (2) fails: gcd(a_{i}, a_{j}) = {g} != 1")
        return "case (2): n = 3, pairwise relatively prime"
    if (g := math.gcd(exps[-1], math.prod(exps[:-1]))) != 1:
        raise HypothesisError(f"case (1) fails: gcd(a_n, a_1*...*a_{{n-1}}) = {g} != 1")
    return "case (1): n >= 4, gcd(a_n, product) = 1"


def pham_brieskorn(field: Field, exponents: Sequence[int]) -> PresentedRing:
    """The diagonal-hypersurface presentation k[X1..X_{n-1}, Z]/(Z^{a_n} + sum X_i^{a_i}).

    Accepted exactly under the two hypotheses of `pham_case`.  Weights:
    lcm/a_i on the X_i (then scaled by a_n by the root extension), deg Z =
    lcm(a_1..a_{n-1}).
    """
    exps = list(exponents)
    case = pham_case(exps)
    head, last = exps[:-1], exps[-1]
    omega = math.lcm(*head)
    names = tuple(f"X{i+1}" for i in range(len(head)))
    grading = {name: omega // e for name, e in zip(names, head)}
    A = free_ring(field, names, grading, tag="diagonal-base")
    F = A.ring.zero()
    for name, e in zip(names, head):
        F = F - A.ring.var(name) ** e
    out = radical_extension(A, F, last)
    out.tag = "pham-brieskorn"
    out.notes["case"] = case
    out.notes["omega"] = omega
    out.notes["exponents"] = exps
    return out


# ---------------------------------------------------------------------------
# the hypersurface chain over k[x]
# ---------------------------------------------------------------------------


def chain_exponents(a: Sequence[int], b: Sequence[int]) -> None:
    """Check that a and b hold ints >= 1 with gcd(a_i, b_1*...*b_i) = 1 for each i."""
    exponent_list(a, param="a")
    exponent_list(b, param="b")
    prod_b = 1
    for i, (ai, bi) in enumerate(zip(a, b), 1):
        prod_b *= bi
        if (g := math.gcd(ai, prod_b)) != 1:
            raise HypothesisError(f"gcd(a_{i}, b_1*...*b_{i}) = {g} != 1", "b")


def _gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """A gcd of f and g in k[x], by Euclid's algorithm."""
    while g:
        f, g = g, divide(f, [g])[0]
    return f


def common_radical(ps: Sequence[Polynomial]) -> None:
    """Check that the polynomials `ps` of k[x] are nonconstant and share one
    radical: rad(p_i) divides rad(p_j) iff stripping gcd(p_i, p_j) from p_i,
    again and again, leaves a constant."""
    if any(p.is_constant() for p in ps):
        raise HypothesisError("p_i must be nonconstant", "p")
    for pi, pj in itertools.permutations(ps, 2):
        rest = pi
        while not (g := _gcd(rest, pj)).is_constant():
            rest = divide(rest, [g])[1][0]
        if not rest.is_constant():
            raise HypothesisError(
                f"p_i do not share a common radical: {pi} has the factor {rest}, prime to {pj}",
                "p")


def threefold_family(
    field: Field,
    p_list: Sequence[Polynomial],
    u: Sequence,
    v: Sequence,
    a: Sequence[int],
    b: Sequence[int],
    kappa: Optional[Polynomial] = None,
) -> PresentedRing:
    """Present k[x][z_0..z_{n+1}] / (p_i(x) z_{i+1} + u_i z_i^{a_i} + v_i z_{i-1}^{b_i}).

    Hypotheses checked: u_i, v_i nonzero scalars; gcd(a_i, b_1*...*b_i) = 1
    for every i; all p_i nonconstant and sharing one radical.  With kappa
    (a prime of k[x] dividing every p_i)
    supplied, additionally verifies the quotient-shape identity
    (kappa) + (relations) = (kappa) + (u_i z_i^{a_i} + v_i z_{i-1}^{b_i})
    and that z_n stays outside the reduced relation ideal I_n.
    """
    n = len(p_list)
    if n < 1:
        raise ValueError("need at least one relation")
    if not (len(u) == len(v) == len(a) == len(b) == n):
        raise ValueError("u, v, a, b must all have the same length as p_list")
    xring = poly_ring(field, ("x",))
    if any(p.ring != xring for p in p_list):
        raise ValueError("each p_i must live in k[x]")
    common_radical(p_list)
    u_c, v_c = units(field, u, "u"), units(field, v, "v")
    chain_exponents(a, b)
    znames = tuple(f"z{i}" for i in range(n + 2))
    ring = poly_ring(field, ("x",) + znames)
    zs = [ring.var(z) for z in znames]
    # reduced[i-1] = u_i z_i^a_i + v_i z_(i-1)^b_i, the tail of relation i
    reduced = [u_c[i] * zs[i + 1] ** a[i] + v_c[i] * zs[i] ** b[i] for i in range(n)]
    rels = [p.lift(ring) * zs[i + 2] + tail for i, (p, tail) in enumerate(zip(p_list, reduced))]
    out = PresentedRing(ring, tuple(rels), None, tag="hypersurface-chain")
    out.notes["params"] = {
        "p": list(p_list),
        "u": [str(x) for x in u_c],
        "v": [str(x) for x in v_c],
        "a": list(a),
        "b": list(b),
        "n": n,
    }
    if kappa is not None:
        if kappa.ring != xring or kappa.is_constant() or not kappa:
            raise ValueError("kappa must be a nonconstant element of k[x]")
        if any(divide(p, [kappa])[0] for p in p_list):
            raise HypothesisError("kappa does not divide every p_i")
        kap = kappa.lift(ring)
        lhs = Ideal(ring, (kap,) + tuple(rels))
        rhs = Ideal(ring, (kap,) + tuple(reduced))
        out.notes["quotient_shape_ok"] = ideal_equal(lhs, rhs)
        small = poly_ring(field, znames[: n + 1])
        in_small = [g.lift(small) for g in reduced]
        i_n = Ideal(small, in_small)
        out.notes["zn_outside_In"] = not i_n.contains(small.var(f"z{n}"))
        out.notes["kappa"] = kappa
    return out


def jacobian_tangent_dim(B: PresentedRing, q: Polynomial) -> tuple[int, int]:
    """Rank of the relation Jacobian at the closed point (q(x), z_0, ..., z_{n+1})
    and the resulting embedding dimension (n+3) - rank.

    Hypotheses (checked): every a_i, b_i >= 2, and q divides every p_i
    (nonconstant, as `threefold_family` checks).  Evaluation at the point
    kills every variable in the maximal ideal and reduces the x-part modulo
    q; the rank is computed over the residue field k[x]/(q).  So q must be
    irreducible.  Over a prime field this is checked by exhaustive factor
    search; over Q it is not checked, and for a reducible q the rank
    returned is meaningless (the `jacobian.rank` claim reports unknown for
    every q of degree >= 2 there).
    """
    params = B.notes.get("params")
    if params is None:
        raise ValueError("presentation does not carry hypersurface-chain parameters")
    n = params["n"]
    if any(e < 2 for e in params["a"] + params["b"]):
        raise HypothesisError("hypothesis a_i >= 2 and b_i >= 2 fails")
    xring = poly_ring(B.ring.field, ("x",))
    ps = params["p"]
    if not all(isinstance(p, Polynomial) and p.ring == xring for p in ps):
        raise ValueError("p must hold polynomials of k[x]")
    if q.ring != xring or q.is_constant() or not q:
        raise ValueError("q must be a nonconstant element of k[x]")
    if any(divide(p, [q])[0] for p in ps):
        raise HypothesisError("q does not divide every p_i")
    if isinstance(B.ring.field, PrimeField):
        if brute_force_irreducible(q, q.total_degree() // 2) is not None:
            raise HypothesisError("q must be irreducible")
    ring = B.ring
    names = ring.names  # x, z0, ..., z_{n+1}
    # evaluate at the point: all z's to 0, then reduce mod q
    at_point = RingMap(ring, xring, {name: xring.zero() for name in names if name != "x"})
    matrix = [[divide(at_point.apply(derivative(f, n)), [q])[0] for n in names]
              for f in B.relations]
    rank = _residue_rank(matrix, q)
    return rank, (n + 3) - rank


def _residue_rank(matrix: list[list[Polynomial]], q: Polynomial) -> int:
    """Rank over K = k[x]/(q), q irreducible, of a matrix of elements of k[x].

    With d = deg q, the K-span of the rows is a k-space of dimension
    d * rank, spanned by the rows times 1, x, ..., x^(d-1).  Row r times x^j
    becomes one vector over k holding the coefficients of the remainder of
    x^j * entry on division by q at d consecutive indices per column, and
    the sparse elimination over k gives the dimension.
    """
    d = q.total_degree()
    x = q.ring.gens()[0]
    vectors = []
    for row in matrix:
        for j in range(d):
            vector = {}
            for col, entry in enumerate(row):
                for (e,), c in divide(x**j * entry, [q])[0].terms.items():
                    vector[col * d + e] = c
            vectors.append(vector)
    return sum(row_echelon(q.ring.field, vectors)) // d


# ---------------------------------------------------------------------------
# three-term-relation rings
# ---------------------------------------------------------------------------


def trinomial_blocks(beta: Sequence[Sequence[int]]) -> list[list[int]]:
    """The exponent blocks beta_0..beta_r as lists, checked against (D.1)'s
    shapes (at least three blocks, each an `exponent_list` of one or more)
    and (D.2) (the block gcds d_i pairwise relatively prime)."""
    if any(not isinstance(bv, (list, tuple)) for bv in beta):
        raise HypothesisError("(D.1) violated: each exponent block must be a list", "beta")
    blocks = [exponent_list(bv, 1, "beta") for bv in beta]
    if len(blocks) < 3:
        raise HypothesisError("(D.1) violated: need at least three exponent blocks", "beta")
    d = [math.gcd(*bv) for bv in blocks]
    for (i, di), (j, dj) in itertools.combinations(enumerate(d), 2):
        if (g := math.gcd(di, dj)) != 1:
            raise HypothesisError(f"(D.2) violated: gcd(d_{i}, d_{j}) = {g} != 1", "beta")
    return blocks


def trinomial_constants(field: Field, blocks: Sequence, lambdas: Sequence) -> list:
    """The constants lambda_2..lambda_r as elements of `field`, checked
    against (D.1)'s count (one per block after the first two) and (D.3)
    (nonzero, pairwise distinct)."""
    lam = units(field, lambdas, "lambdas")
    if len(lam) != len(blocks) - 2:
        raise HypothesisError(f"(D.1) violated: need len(beta) - 2 constants, got {len(lam)}",
                              "lambdas")
    if len(set(lam)) != len(lam):
        raise HypothesisError(f"(D.3) violated: constants must be distinct, got {list(lambdas)!r}",
                              "lambdas")
    return lam


def trinomial_ring(
    field: Field, beta: Sequence[Sequence[int]], lambdas: Sequence
) -> PresentedRing:
    """Present k[t_0.., t_1.., ..., t_r..] / (T_0^b0 + lam_i T_1^b1 + T_i^bi, 2<=i<=r)
    where T_i^bi is the monomial with exponent vector beta[i] on block i.

    Validates the three data clauses — (D.1) shapes, (D.2) the block gcds
    d_i pairwise relatively prime, (D.3) the lambda_i distinct nonzero —
    and then verifies the induction-step gradings: for each m = 2..r the
    Bezout weights make every T_i^bi (i < m) homogeneous of one common
    degree d_0*...*d_{m-1}, which is relatively prime to gcd(beta[m]).
    """
    blocks = trinomial_blocks(beta)
    lam = trinomial_constants(field, blocks, lambdas)
    r = len(blocks) - 1
    d = [math.gcd(*bv) for bv in blocks]
    names: list[str] = []
    block_names: list[list[str]] = []
    for i, bv in enumerate(blocks):
        if len(bv) == 1:
            bn = [f"t{i}"]
        else:
            bn = [f"t{i}_{j+1}" for j in range(len(bv))]
        block_names.append(bn)
        names.extend(bn)
    ring = poly_ring(field, names)

    def block_monomial(i: int) -> Polynomial:
        return ring.monomial(dict(zip(block_names[i], blocks[i])))

    rels = tuple(
        block_monomial(0) + lam[i - 2] * block_monomial(1) + block_monomial(i)
        for i in range(2, r + 1)
    )
    out = PresentedRing(ring, rels, None, tag="trinomial")

    step_gradings = []
    for m in range(2, r + 1):
        weights = {name: 0 for name in names}
        target = math.prod(d[:m])
        for i in range(m):
            _, coeffs = gcd_bezout(blocks[i])
            others = target // d[i]
            for name, cij in zip(block_names[i], coeffs):
                weights[name] = cij * others
        for i in range(m):
            deg = degree_of(block_monomial(i), weights)
            if deg != target:
                raise HypothesisError(
                    f"step m={m}: block {i} monomial has degree {deg}, expected {target}"
                )
        if math.gcd(target, *blocks[m]) != 1:
            raise HypothesisError(
                f"step m={m}: gcd(beta_{m}, d_0*...*d_{m-1}) != 1"
            )
        step_gradings.append(
            {"m": m, "degree": target, "weights": {k: w for k, w in weights.items() if w}}
        )
    out.notes["d"] = d
    out.notes["beta"] = [list(bv) for bv in blocks]
    out.notes["lambdas"] = [str(x) for x in lam]
    out.notes["step_gradings"] = step_gradings
    return out


# ---------------------------------------------------------------------------
# presentation import/export
# ---------------------------------------------------------------------------


def export_presentation(A: PresentedRing, fmt: str) -> str:
    """Serialize a presentation: "json" round-trips, "cas-text" is the
    line-oriented human/CAS format."""
    if fmt == "json":
        doc = {
            "field": str(A.ring.field),
            "variables": [
                {
                    "name": n,
                    "weight": A.grading[n] if A.grading else None,
                }
                for n in A.ring.names
            ],
            "relations": [str(r) for r in A.relations],
            "tag": A.tag,
            "notes": _jsonable(A.notes),
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "cas-text":
        lines = [f"field {A.ring.field}"]
        for n in A.ring.names:
            bits = [f"var {n}"]
            if A.grading is not None:
                bits.append(f"weight {A.grading[n]}")
            lines.append(" ".join(bits))
        for r in A.relations:
            lines.append(f"rel {r}")
        if A.tag:
            lines.append(f"tag {A.tag}")
        return "\n".join(lines) + "\n"
    raise ValueError(f"unknown format {fmt!r}")


def _jsonable(value):
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, bool)) or value is None:
        return value
    return str(value)


def load_presentation_json(text: str) -> PresentedRing:
    """Read the "json" export.  The ring is ungraded when every weight is
    absent or null; otherwise PresentedRing checks that each is an int.
    Only polynomial rings are read: a variable flagged invertible is
    rejected (write its inverse as a new variable w with relation v*w - 1)."""
    doc = json.loads(text)
    fld = field_from_name(doc["field"])
    names = tuple(v["name"] for v in doc["variables"])
    for v in doc["variables"]:
        if v.get("invertible", False) is not False:
            raise ValueError(f"variable {v['name']!r} is flagged invertible; "
                             "only polynomial rings are read")
    weights = {v["name"]: v.get("weight") for v in doc["variables"]}
    grading = weights if any(w is not None for w in weights.values()) else None
    ring = PolyRing(fld, names)
    rels = tuple(ring.parse(s) for s in doc.get("relations", []))
    out = PresentedRing(ring, rels, grading, tag=doc.get("tag", ""))
    out.notes.update(doc.get("notes", {}))
    return out
