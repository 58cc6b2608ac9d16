"""Builders and hypothesis checkers for the ring families under study.

A PresentedRing is an ambient polynomial ring plus a list of nonzero
relations (and optionally a grading making every relation homogeneous).
The builders each construct one family — fraction-style extensions
A[X]/(aX-b), radical extensions A[Z]/(Z^c-F), the hypersurface threefold
chains, the three-term-relation rings — and verify every finitely
checkable hypothesis on the way, recording verdicts in `notes`.

Checks that would require deciding primality of an ideal in general are
deliberately tri-state: bounded searches report refuted-with-witness or
unknown-at-bound, never a guessed "verified".
"""

from __future__ import annotations

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
from .errors import CapExceeded, HypothesisError
from .groebner import (
    GREVLEX,
    Ideal,
    _monomials_up_to,
    brute_force_irreducible,
    elim_ideal,
    ideal_equal,
    ideal_power,
    ideal_quotient,
    intersect,
    reduce,
    row_echelon,
    saturation,
)
from .poly import (
    Grading,
    Polynomial,
    PolyRing,
    RingMap,
    VarTable,
    degree_of,
    derivative,
    fresh_name,
    mono_divides,
    poly_ring,
)

W_CHAIN_CAP = 32


def _positive_ints(values) -> bool:
    return all(is_int(x) and x >= 1 for x in values)


# ---------------------------------------------------------------------------
# presented rings
# ---------------------------------------------------------------------------


@dataclass
class PresentedRing:
    """field + variables + relations (+ optional grading), as a presentation."""

    field: Field
    vars: VarTable
    relations: tuple[Polynomial, ...]
    grading: Optional[Grading] = None
    tag: str = ""
    notes: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        self.relations = tuple(self.relations)
        ambient = self.ambient()
        for r in self.relations:
            if not r:
                raise ValueError("zero relation")
            if r.ring != ambient:
                raise ValueError("relation lives in the wrong ring")
            if self.grading is not None and degree_of(r, self.grading) is None:
                raise ValueError(f"relation not homogeneous: {r}")

    def ambient(self) -> PolyRing:
        return PolyRing(self.field, self.vars)


def free_ring(field: Field, names: Sequence[str], grading: Optional[Grading] = None,
              tag: str = "") -> PresentedRing:
    return PresentedRing(field, VarTable(tuple(names)), (), grading, tag)


# ---------------------------------------------------------------------------
# fraction-style extension A[X]/(aX - b)
# ---------------------------------------------------------------------------


def relatively_prime(A: PresentedRing, a: Polynomial, b: Polynomial):
    """Check aA cap bA = abA modulo A's relations; returns (ok, offender)."""
    ring = A.ambient()
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
    xname = fresh_name(A.vars.names, "X")
    big = A.ambient().extend((xname,))
    rels = tuple(r.lift(big) for r in A.relations)
    new_rel = a.lift(big) * big.var(xname) - b.lift(big)
    presented = Ideal(big, rels + (new_rel,))
    sat, index = saturation(presented, a.lift(big))
    stable = ideal_equal(sat, presented)
    out = PresentedRing(
        A.field,
        big.vars,
        rels + (new_rel,),
        None,
        tag=A.tag + "+fraction" if A.tag else "fraction-extension",
    )
    out.notes["saturation_index"] = index
    out.notes["kernel_equals_presentation"] = stable
    out.notes["new_variable"] = xname
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
    """Monomials of degree <= max_deg reducible by no basis leading term."""
    keyfn = GREVLEX.key_for(ring)
    leads = [g.leading(keyfn)[0] for g in gb]
    out = []
    for e in _monomials_up_to(ring, max_deg):
        if not any(mono_divides(l, e) for l in leads):
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
    """
    ring = A.ambient()
    fld = A.field
    product = ring.one()
    for p in prime_factors_of_a:
        product = product * p
    if not product or not a:
        raise HypothesisError("factor product does not equal a")
    _, ac = a.leading()
    _, pc = product.leading()
    scale = fld.div(ac, pc)
    if product.scale(scale) != a:
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

    # dedupe the prime list up to scalar multiples, split off excluded ones
    classes: list[Polynomial] = []
    for p in prime_factors_of_a:
        if not any(p.monic() == q.monic() for q in classes):
            classes.append(p)
    primes: list[Polynomial] = []
    excluded: list[str] = []
    for p in classes:
        if Ideal(ring, A.relations + (p, b)).is_trivial():
            excluded.append(f"{p}: pA+bA = A, not in the prime set")
        else:
            primes.append(p)

    # clause (iii): exact pairwise non-membership
    pairs = [(p, q) for p in primes for q in primes if p is not q]
    if not pairs:
        clauses["iii"] = Clause(
            "verified", note="vacuous: no non-associate prime pairs"
        )
    else:
        verdict = Clause("verified", witness="")
        lines = []
        for p, q in pairs:
            nf = Ideal(ring, A.relations + (p, b)).normal_form(q)
            if not nf:
                verdict = Clause("refuted", witness=f"{q} lies in ({p}) + ({b})")
                break
            lines.append(f"{q} mod ({p},{b}) = {nf}")
        if verdict.status == "verified":
            verdict.witness = "; ".join(lines)
        clauses["iii"] = verdict

    # clause (ii): bounded zero-divisor search in A/(pA+bA)
    if not primes:
        clauses["ii"] = Clause("verified", note="vacuous: prime set empty")
    else:
        found = None
        for p in primes:
            ideal_p = Ideal(ring, A.relations + (p, b))
            gb = ideal_p.groebner()
            standard = _standard_monomials(ring, gb, N)
            for m1 in standard:
                if m1.is_constant():
                    continue
                for m2 in standard:
                    if m2.is_constant():
                        continue
                    if not ideal_p.normal_form(m1 * m2):
                        found = (p, m1, m2)
                        break
                if found:
                    break
            if found:
                break
        if found:
            p, m1, m2 = found
            clauses["ii"] = Clause(
                "refuted",
                witness=f"zero divisors mod ({p})+({b}): {m1} * {m2} = 0 with both factors nonzero",
            )
        else:
            clauses["ii"] = Clause(
                "unknown", bound=N, note="no zero divisor among standard-monomial pairs"
            )

    # clause (iv): truncated power-intersection check with test element p
    if not primes:
        clauses["iv"] = Clause("verified", note="vacuous: prime set empty")
    else:
        verdict = Clause("verified", bound=N, note="truncated at level N")
        lines = []
        for p in primes:
            delta = min(
                min(sum(e) for e in p.terms), min(sum(e) for e in b.terms)
            )
            test = p
            if test.total_degree() >= N * delta and b.total_degree() < N * delta:
                test = b
            if test.total_degree() >= N * delta:
                verdict = Clause(
                    "unknown", bound=N, note="no test element below the power degree bound"
                )
                break
            power = ideal_power(Ideal(ring, (p, b)), N)
            big_ideal = Ideal(ring, A.relations + power.gens)
            if big_ideal.contains(test):
                verdict = Clause(
                    "refuted", bound=N, witness=f"{test} lies in (({p})+({b}))^{N}"
                )
                break
            lines.append(f"{test} not in (({p})+({b}))^{N}")
        if verdict.status == "verified":
            verdict.witness = "; ".join(lines)
        clauses["iv"] = verdict

    return ConditionPReport(clauses, [str(p) for p in primes], excluded)


# ---------------------------------------------------------------------------
# the two-parameter ideal chain W_i = b*J_{i-1} + (s^i),  J_i = (W_i : t)
# ---------------------------------------------------------------------------


@dataclass
class WChain:
    ring: PolyRing
    b: Polynomial
    s: Polynomial
    t: Polynomial
    pairs: list[tuple[Ideal, Ideal]]  # (W_i, J_i) for i = 0..N

    def W(self, i: int) -> Ideal:
        return self.pairs[i][0]

    def J(self, i: int) -> Ideal:
        return self.pairs[i][1]


def w_chain(ring: PolyRing, b: Polynomial, s: Polynomial, t: Polynomial, N: int) -> WChain:
    """Compute the descending chain W_0=(1)=J_0, W_i = b*J_{i-1} + (s^i),
    J_i = (W_i : t), verifying the nesting W_{i+1} <= W_i, J_{i+1} <= J_i."""
    if not b or not s or not t:
        raise ValueError("b, s, t must be nonzero")
    if N > W_CHAIN_CAP:
        raise CapExceeded("instance too large")
    one = Ideal(ring, (ring.one(),))
    pairs: list[tuple[Ideal, Ideal]] = [(one, one)]
    for i in range(1, N + 1):
        prev_w, prev_j = pairs[-1]
        w = Ideal(ring, tuple(b * g for g in prev_j.gens) + (s**i,))
        j = ideal_quotient(w, t)
        for g in w.gens:
            if not prev_w.contains(g):
                raise HypothesisError(f"nesting failure: {g} in W_{i} but not W_{i-1}")
        for g in j.gens:
            if not prev_j.contains(g):
                raise HypothesisError(f"nesting failure: {g} in J_{i} but not J_{i-1}")
        pairs.append((w, j))
    return WChain(ring, b, s, t, pairs)


@dataclass
class LevelReport:
    ok: bool
    levels: list[bool]


def lemma_level_check(
    ring: PolyRing, b: Polynomial, s: Polynomial, t: Polynomial, N: int
) -> LevelReport:
    """Verify, level by level, that contracting (s^i) + (aX - b) to the base
    ring recovers W_i, where a = s*t.

    Preconditions checked: s,t relatively prime and a,b relatively prime,
    both via exact ideal intersection.
    """
    a = s * t
    free = PresentedRing(ring.field, ring.vars, ())
    ok, offender = relatively_prime(free, s, t)
    if not ok:
        raise HypothesisError(f"s and t not relatively prime: witness {offender}")
    ok, offender = relatively_prime(free, a, b)
    if not ok:
        raise HypothesisError(f"a and b not relatively prime: witness {offender}")
    chain = w_chain(ring, b, s, t, N)
    xname = fresh_name(ring.names, "X")
    big = ring.extend((xname,))
    rel = a.lift(big) * big.var(xname) - b.lift(big)
    levels = []
    for i in range(N + 1):
        lhs = elim_ideal(Ideal(big, (s.lift(big) ** i, rel)), ring.names)
        levels.append(ideal_equal(lhs, chain.W(i)))
    return LevelReport(all(levels), levels)


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
    zname = fresh_name(A.vars.names, "Z")
    big = A.ambient().extend((zname,))
    new_grading = A.grading.scaled(c).extended({zname: omega})
    rels = tuple(r.lift(big) for r in A.relations)
    root_rel = big.var(zname) ** c - F.lift(big)
    out = PresentedRing(
        A.field, big.vars, rels + (root_rel,), new_grading,
        tag=(A.tag + "+root" if A.tag else "radical-extension"),
    )
    out.notes["deg_F"] = omega
    out.notes["c"] = c
    out.notes["new_variable"] = zname
    return out


def pham_brieskorn(field: Field, exponents: Sequence[int]) -> PresentedRing:
    """The diagonal-hypersurface presentation k[X1..X_{n-1}, Z]/(Z^{a_n} + sum X_i^{a_i}).

    Accepted exactly under the two hypotheses: (1) n >= 4 and
    gcd(a_n, a_1*...*a_{n-1}) = 1, or (2) n = 3 and the exponents are
    pairwise relatively prime.  Weights: lcm/a_i on the X_i (then scaled by
    a_n by the root extension), deg Z = lcm(a_1..a_{n-1}).
    """
    exps = list(exponents)
    n = len(exps)
    if n < 3:
        raise HypothesisError("need at least 3 exponents")
    if not _positive_ints(exps):
        raise HypothesisError("exponents must be positive integers")
    head, last = exps[:-1], exps[-1]
    if n == 3:
        for i in range(3):
            for j in range(i):
                if math.gcd(exps[i], exps[j]) != 1:
                    raise HypothesisError(
                        f"case (2) fails: gcd(a_{j+1}, a_{i+1}) = {math.gcd(exps[i], exps[j])} != 1"
                    )
        case = "case (2): n = 3, pairwise relatively prime"
    else:
        prod = math.prod(head)
        if math.gcd(last, prod) != 1:
            raise HypothesisError(
                f"case (1) fails: gcd(a_n, a_1*...*a_{{n-1}}) = {math.gcd(last, prod)} != 1"
            )
        case = "case (1): n >= 4, gcd(a_n, product) = 1"
    omega = math.lcm(*head)
    names = tuple(f"X{i+1}" for i in range(n - 1))
    grading = Grading({name: omega // e for name, e in zip(names, head)})
    A = free_ring(field, names, grading, tag="diagonal-base")
    ambient = A.ambient()
    F = ambient.zero()
    for name, e in zip(names, head):
        F = F - ambient.var(name) ** e
    out = radical_extension(A, F, last)
    out.tag = "pham-brieskorn"
    out.notes["case"] = case
    out.notes["omega"] = omega
    out.notes["exponents"] = exps
    return out


# ---------------------------------------------------------------------------
# the hypersurface chain over k[x]
# ---------------------------------------------------------------------------


def _divides(d: Polynomial, f: Polynomial) -> bool:
    return not reduce(f, [d])


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

    Hypotheses checked: gcd(a_i, b_1*...*b_i) = 1 for every i; all p_i share
    one radical (mutual divisibility p_i | p_j^M for M = max degree); u_i,
    v_i nonzero scalars.  With kappa (a prime of k[x] dividing every p_i)
    supplied, additionally verifies the quotient-shape identity
    (kappa) + (relations) = (kappa) + (u_i z_i^{a_i} + v_i z_{i-1}^{b_i})
    and that z_n stays outside the reduced relation ideal I_n.
    """
    n = len(p_list)
    if n < 1:
        raise ValueError("need at least one relation")
    if not (len(u) == len(v) == len(a) == len(b) == n):
        raise ValueError("u, v, a, b must all have the same length as p_list")
    u_c = [field.of(x) for x in u]
    v_c = [field.of(x) for x in v]
    if any(x == field.zero() for x in u_c + v_c):
        raise HypothesisError("u_i and v_i must be units")
    if not _positive_ints(list(a) + list(b)):
        raise ValueError("exponents must be positive integers")
    prod_b = 1
    for i in range(n):
        prod_b *= b[i]
        if math.gcd(a[i], prod_b) != 1:
            raise HypothesisError(f"gcd(a_{i+1}, b_1*...*b_{i+1}) != 1")
    xring = poly_ring(field, ("x",))
    for p in p_list:
        if p.ring != xring:
            raise ValueError("each p_i must live in k[x]")
        if not p or p.is_constant():
            raise HypothesisError("p_i must be nonconstant")
    M = max(p.total_degree() for p in p_list)
    for pi in p_list:
        for pj in p_list:
            if not _divides(pi, pj**M):
                raise HypothesisError(
                    f"p_i do not share a common radical: {pi} does not divide ({pj})^{M}"
                )
    znames = tuple(f"z{i}" for i in range(n + 2))
    ring = poly_ring(field, ("x",) + znames)
    zs = [ring.var(z) for z in znames]
    rels = []
    reduced = []
    for i in range(1, n + 1):
        pi = p_list[i - 1].lift(ring)
        fi = pi * zs[i + 1] + u_c[i - 1] * zs[i] ** a[i - 1] + v_c[i - 1] * zs[i - 1] ** b[i - 1]
        rels.append(fi)
        reduced.append(u_c[i - 1] * zs[i] ** a[i - 1] + v_c[i - 1] * zs[i - 1] ** b[i - 1])
    out = PresentedRing(field, ring.vars, tuple(rels), None, tag="hypersurface-chain")
    out.notes["params"] = {
        "p": [str(p) for p in p_list],
        "u": [str(x) for x in u_c],
        "v": [str(x) for x in v_c],
        "a": list(a),
        "b": list(b),
        "n": n,
    }
    if kappa is not None:
        if kappa.ring != xring or kappa.is_constant() or not kappa:
            raise ValueError("kappa must be a nonconstant element of k[x]")
        for p in p_list:
            if not _divides(kappa, p):
                raise HypothesisError("kappa does not divide every p_i")
        kap = kappa.lift(ring)
        lhs = Ideal(ring, (kap,) + tuple(rels))
        rhs = Ideal(ring, (kap,) + tuple(reduced))
        out.notes["quotient_shape_ok"] = ideal_equal(lhs, rhs)
        small = poly_ring(field, znames[: n + 1])
        in_small = [g.project(small) for g in reduced]
        i_n = Ideal(small, in_small)
        out.notes["zn_outside_In"] = not i_n.contains(small.var(f"z{n}"))
        out.notes["kappa"] = str(kappa)
    return out


def jacobian_tangent_dim(B: PresentedRing, q: Polynomial) -> tuple[int, int]:
    """Rank of the relation Jacobian at the closed point (q(x), z_0, ..., z_{n+1})
    and the resulting embedding dimension (n+3) - rank.

    Hypotheses (checked): every p_i nonconstant, every a_i, b_i >= 2, and q
    divides every p_i.  Evaluation at the point kills every variable in the
    maximal ideal and reduces the x-part modulo q; the rank is computed over
    the residue field k[x]/(q).  So q must be irreducible.  Over a prime
    field this is checked by exhaustive factor search; over Q it is not
    checked, and for a reducible q the rank returned is meaningless.
    """
    params = B.notes.get("params")
    if params is None:
        raise ValueError("presentation does not carry hypersurface-chain parameters")
    n = params["n"]
    if any(e < 2 for e in params["a"] + params["b"]):
        raise HypothesisError("hypothesis a_i >= 2 and b_i >= 2 fails")
    xring = poly_ring(B.field, ("x",))
    ps = [xring.parse(s) for s in params["p"]]
    if any(p.is_constant() for p in ps):
        raise HypothesisError("p_i must be nonconstant")
    if q.ring != xring or q.is_constant() or not q:
        raise ValueError("q must be a nonconstant element of k[x]")
    for p in ps:
        if not _divides(q, p):
            raise HypothesisError("q does not divide every p_i")
    if isinstance(B.field, PrimeField):
        if not brute_force_irreducible(q, q.total_degree() // 2).irreducible:
            raise HypothesisError("q must be irreducible")
    ring = B.ambient()
    names = ring.names  # x, z0, ..., z_{n+1}
    # evaluate at the point: all z's to 0, then reduce mod q
    at_point = RingMap(ring, xring, {name: xring.zero() for name in names if name != "x"})
    matrix = [[reduce(at_point.apply(derivative(f, n)), [q]) for n in names] for f in B.relations]
    rank = _residue_rank(matrix, q)
    return rank, (n + 3) - rank


def _residue_rank(matrix: list[list[Polynomial]], q: Polynomial) -> int:
    """Rank over K = k[x]/(q), q irreducible, of a matrix of elements of k[x].

    With d = deg q, the K-span of the rows is a k-space of dimension
    d * rank, spanned by the rows times 1, x, ..., x^(d-1).  Row r times x^j
    becomes one vector over k holding the coefficients of
    reduce(x^j * entry, q) at d consecutive indices per column, and the
    sparse elimination over k gives the dimension.
    """
    d = q.total_degree()
    x = q.ring.gens()[0]
    vectors = []
    for row in matrix:
        for j in range(d):
            vector = {}
            for col, entry in enumerate(row):
                for (e,), c in reduce(x**j * entry, [q]).terms.items():
                    vector[col * d + e] = c
            vectors.append(vector)
    return sum(row_echelon(q.ring.field, vectors)) // d


# ---------------------------------------------------------------------------
# three-term-relation rings
# ---------------------------------------------------------------------------


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
    if any(not isinstance(bv, (list, tuple)) for bv in beta):
        raise HypothesisError("(D.1) violated: each exponent block must be a list")
    blocks = [list(bv) for bv in beta]
    r = len(blocks) - 1
    if r < 2:
        raise HypothesisError("(D.1) violated: need at least three exponent blocks")
    for bv in blocks:
        if not bv or not _positive_ints(bv):
            raise HypothesisError("(D.1) violated: exponent entries must be positive integers")
    if len(lambdas) != r - 1:
        raise HypothesisError("(D.1) violated: need exactly r-1 constants")
    lam = [field.of(x) for x in lambdas]
    if any(x == field.zero() for x in lam) or len(set(lam)) != len(lam):
        raise HypothesisError("(D.3) violated: constants must be distinct and nonzero")
    d = [math.gcd(*bv) for bv in blocks]
    for i in range(len(d)):
        for j in range(i):
            if math.gcd(d[i], d[j]) != 1:
                raise HypothesisError(
                    f"(D.2) violated: gcd(d_{j}, d_{i}) = {math.gcd(d[i], d[j])} != 1"
                )
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
    out = PresentedRing(field, ring.vars, rels, None, tag="trinomial")

    step_gradings = []
    for m in range(2, r + 1):
        weights = {name: 0 for name in names}
        target = math.prod(d[:m])
        for i in range(m):
            _, coeffs = gcd_bezout(blocks[i])
            others = target // d[i]
            for name, cij in zip(block_names[i], coeffs):
                weights[name] = cij * others
        g = Grading(weights)
        for i in range(m):
            deg = degree_of(block_monomial(i), g)
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


def export_presentation(ring: PresentedRing, fmt: str) -> str:
    """Serialize a presentation: "json" round-trips, "cas-text" is the
    line-oriented human/CAS format."""
    if fmt == "json":
        doc = {
            "field": str(ring.field),
            "variables": [
                {
                    "name": n,
                    "invertible": n in ring.vars.invertible,
                    "weight": ring.grading.weight(n) if ring.grading else None,
                }
                for n in ring.vars.names
            ],
            "relations": [str(r) for r in ring.relations],
            "tag": ring.tag,
            "notes": _jsonable(ring.notes),
        }
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "cas-text":
        lines = [f"field {ring.field}"]
        for n in ring.vars.names:
            bits = [f"var {n}"]
            if ring.grading is not None:
                bits.append(f"weight {ring.grading.weight(n)}")
            if n in ring.vars.invertible:
                bits.append("invertible")
            lines.append(" ".join(bits))
        for r in ring.relations:
            lines.append(f"rel {r}")
        if ring.tag:
            lines.append(f"tag {ring.tag}")
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
    doc = json.loads(text)
    fld = field_from_name(doc["field"])
    names = tuple(v["name"] for v in doc["variables"])
    invertible = frozenset(v["name"] for v in doc["variables"] if v.get("invertible"))
    weights = {v["name"]: v.get("weight") for v in doc["variables"]}
    grading = None
    if all(w is not None for w in weights.values()) and weights:
        grading = Grading(weights)
    vt = VarTable(names, invertible)
    ambient = PolyRing(fld, vt)
    rels = tuple(ambient.parse(s) for s in doc.get("relations", []))
    out = PresentedRing(fld, vt, rels, grading, tag=doc.get("tag", ""))
    out.notes.update(doc.get("notes", {}))
    return out
