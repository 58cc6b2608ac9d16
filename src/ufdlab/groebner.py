"""Groebner engine over exact fields: Buchberger, elimination, quotients.

Everything here works in plain polynomial rings (no invertible variables);
ideals in localizations must be rephrased first, e.g. by saturating at the
would-be unit.  Reduced monic Groebner bases are computed, so a basis is a
canonical form for its ideal: two ideals are equal iff their reduced bases
under the same order coincide.

`brute_force_member` is an independent membership decision: it never calls
the Buchberger machinery, only linear algebra over a truncated monomial
basis, and is complete once the degree bound covers the true cofactors.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .caps import current_caps
from .coeff import Field, PrimeField
from .errors import CapExceeded
from .poly import (
    Exp,
    Polynomial,
    PolyRing,
    fresh_name,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_mul,
)

SATURATION_ROUNDS_CAP = 32
IRREDUCIBLE_CANDIDATE_CAP = 10_000_000


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Order:
    """A monomial order: "lex", "grevlex", or "block" (elimination).

    A block order compares block by block, grevlex inside each block, so it
    eliminates the variables of the earlier blocks.
    """

    kind: str
    blocks: tuple[tuple[str, ...], ...] = ()

    def key_for(self, ring: PolyRing):
        if self.kind == "lex":
            return lambda exp: exp
        if self.kind == "grevlex":
            return grevlex_key
        if self.kind == "block":
            seen: list[str] = [n for blk in self.blocks for n in blk]
            if sorted(seen) != sorted(ring.names):
                raise ValueError("block order must partition the ring variables")
            index_blocks = [
                tuple(ring.vars.index(n) for n in blk) for blk in self.blocks
            ]

            def key(exp: Exp):
                parts = []
                for idx in index_blocks:
                    parts.append(sum(exp[i] for i in idx))
                    parts.append(tuple(-exp[i] for i in reversed(idx)))
                return tuple(parts)

            return key
        raise ValueError(f"unknown order kind {self.kind!r}")


LEX = Order("lex")
GREVLEX = Order("grevlex")


def elimination_order(front: Sequence[str], back: Sequence[str]) -> Order:
    return Order("block", (tuple(front), tuple(back)))


def _check_plain_ring(ring: PolyRing) -> None:
    if ring.vars.invertible:
        raise ValueError("saturate the unit first")


# ---------------------------------------------------------------------------
# division / reduction
# ---------------------------------------------------------------------------


def divide(
    p: Polynomial, divisors: Sequence[Polynomial], order: Order = GREVLEX
) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division: p = sum(q_i * divisors_i) + r with no term of r
    divisible by any divisor's leading term.  Returns (r, [q_i]).

    Each divisor's order key, leading exponent and leading coefficient are
    computed once.  The leading term of the running difference `work` comes
    from a heap of order-reversed keys (Yan 1998 keeps order keys cached the
    same way in his geobuckets): every exponent of `work` is queued once, an
    entry whose term has cancelled is dropped when it surfaces, and after
    each step only the terms of the subtracted m*g not queued yet are pushed.
    """
    ring = p.ring
    _check_plain_ring(ring)
    keyfn = order.key_for(ring)
    fld = ring.field
    caps = current_caps()
    leads = []
    for g in divisors:
        if g.ring != ring:
            raise ValueError("divisor from a different ring")
        if not g:
            raise ValueError("zero divisor in reduction")
        de, dc = g.leading(keyfn)
        leads.append((keyfn(de), de, dc))
    quotients: list[dict[Exp, object]] = [{} for _ in divisors]
    remainder: dict[Exp, object] = {}
    work = p
    heap = [(_reversed_key(keyfn(e)), e) for e in work.terms]
    heapq.heapify(heap)
    queued = set(work.terms)
    while work:
        if work.term_count() > caps.terms:
            raise CapExceeded("instance too large")
        while heap[0][1] not in work.terms:
            queued.discard(heapq.heappop(heap)[1])
        we = heap[0][1]
        wc = work.terms[we]
        if sum(k for k in we if k > 0) > caps.degree:
            raise CapExceeded("instance too large")
        # Among usable divisors prefer the smallest leading term: a rule that
        # solves for a big monomial (Z -> long tail) forward-substitutes and
        # can balloon the intermediate work, while a small rule (a lone
        # variable, say) kills the term outright.  The remainder itself is
        # path-independent, this only picks a cheap route to it.
        hit = None
        for i, (dk, de, dc) in enumerate(leads):
            if mono_divides(de, we) and (hit is None or dk < hit[0]):
                hit = (dk, i, de, dc)
        if hit is None:
            remainder[we] = wc
            work = work - Polynomial(ring, {we: wc})
            continue
        _, i, de, dc = hit
        qe = mono_div(we, de)
        qc = fld.div(wc, dc)
        quotients[i][qe] = fld.add(quotients[i].get(qe, fld.zero()), qc)
        step = Polynomial(ring, {qe: qc}) * divisors[i]
        work = work - step
        for e in step.terms:
            if e not in queued:
                queued.add(e)
                heapq.heappush(heap, (_reversed_key(keyfn(e)), e))
    return Polynomial(ring, remainder), [Polynomial(ring, q) for q in quotients]


def _reversed_key(key):
    """An order key with every integer negated, so that a min-heap of these
    pops the largest term first (order keys are nested tuples of ints of one
    shape, so negation exactly reverses their comparison)."""
    return tuple(-k if type(k) is int else _reversed_key(k) for k in key)


def reduce(
    p: Polynomial, divisors: Sequence[Polynomial], order: Order = GREVLEX
) -> Polynomial:
    """Remainder of p on division by divisors (membership test against a
    Groebner basis: remainder 0 iff p is in the ideal)."""
    r, _ = divide(p, divisors, order)
    return r


def _s_poly(f: Polynomial, fe: Exp, g: Polynomial, ge: Exp) -> Polynomial:
    """S-polynomial of f and g, given their leading exponents fe and ge."""
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    fld = f.ring.field
    mf = Polynomial(f.ring, {mono_div(lcm, fe): fld.inv(f.terms[fe])})
    mg = Polynomial(g.ring, {mono_div(lcm, ge): fld.inv(g.terms[ge])})
    return mf * f - mg * g


def buchberger(
    gens: Sequence[Polynomial], order: Order = GREVLEX, interreduce: bool = True
) -> list[Polynomial]:
    """Monic Groebner basis of the ideal generated by gens.

    Pair selection is by smallest lcm (normal strategy), ties broken by the
    pair's indices; the coprime and chain criteria prune pairs.  The leading
    exponents live in a list beside the basis, and the open pairs in a heap
    of (order key of the lcm, (i, j), lcm), each entry computed once when
    the pair is pushed (Giovini et al. 1991 keep their pairs in a heap too).
    With interreduce=True (the default) the output is the unique reduced
    basis, sorted with the largest leading term first.  With
    interreduce=False the basis is only minimal (no leading term divides
    another): still a Groebner basis, so normal forms against it are the
    same, but tails stay unreduced -- which matters when the reduced tails
    would be astronomically larger than the generators.
    """
    if not gens:
        return []
    ring = gens[0].ring
    _check_plain_ring(ring)
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
    keyfn = order.key_for(ring)
    caps = current_caps()

    basis: list[Polynomial] = []
    leads: list[Exp] = []
    pairs: list[tuple[object, tuple[int, int], Exp]] = []

    def add(g: Polynomial) -> None:
        new = len(basis)
        basis.append(g)
        leads.append(g.leading(keyfn)[0])
        for k in range(new):
            lcm = tuple(max(a, b) for a, b in zip(leads[k], leads[new]))
            heapq.heappush(pairs, (keyfn(lcm), (k, new), lcm))

    for g in gens:
        if not g:
            continue
        if g.total_degree() > caps.degree or g.term_count() > caps.terms:
            raise CapExceeded("instance too large")
        g = g.monic(keyfn)
        if g not in basis:
            add(g)
    if not basis:
        return []

    done: set[tuple[int, int]] = set()
    while pairs:
        _, (i, j), lcm = heapq.heappop(pairs)
        done.add((i, j))
        if mono_mul(leads[i], leads[j]) == lcm:
            continue  # coprime leading terms: S-poly reduces to zero
        chain = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            a, b = (min(i, k), max(i, k)), (min(j, k), max(j, k))
            if mono_divides(leads[k], lcm) and a in done and b in done:
                chain = True
                break
        if chain:
            continue
        s = _s_poly(basis[i], leads[i], basis[j], leads[j])
        r, _ = divide(s, basis, order)
        if not r:
            continue
        if r.total_degree() > caps.degree or r.term_count() > caps.terms:
            raise CapExceeded("instance too large")
        add(r.monic(keyfn))

    # minimalize: keep only elements with pairwise non-divisible leading
    # terms, in ascending order of their leading terms
    keep: list[Polynomial] = []
    keep_leads: list[Exp] = []
    for idx in sorted(range(len(basis)), key=lambda i: keyfn(leads[i])):
        e = leads[idx]
        if not any(mono_divides(h, e) for h in keep_leads):
            keep.append(basis[idx])
            keep_leads.append(e)
    if interreduce:
        # inter-reduce tails (leading terms are stable, so one pass suffices)
        for idx in range(len(keep)):
            others = keep[:idx] + keep[idx + 1 :]
            if others:
                r, _ = divide(keep[idx], others, order)
                keep[idx] = r.monic(keyfn)
    # the leading terms are distinct, so this is the descending order
    keep.reverse()
    return keep


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """An ideal given by generators, with cached reduced Groebner bases."""

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        _check_plain_ring(ring)
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        self._gb: dict[Order, tuple[Polynomial, ...]] = {}
        self._gb_min: dict[Order, tuple[Polynomial, ...]] = {}

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner})"

    def groebner(self, order: Order = GREVLEX) -> tuple[Polynomial, ...]:
        cached = self._gb.get(order)
        if cached is None:
            cached = tuple(buchberger(self.gens, order))
            self._gb[order] = cached
            self._gb_min[order] = cached  # reduced is in particular minimal
        return cached

    def _min_basis(self, order: Order = GREVLEX) -> tuple[Polynomial, ...]:
        """Minimal (not tail-reduced) basis: enough for normal forms, and
        immune to the tail blowup that full reduction can trigger."""
        cached = self._gb_min.get(order)
        if cached is None:
            cached = tuple(buchberger(self.gens, order, interreduce=False))
            self._gb_min[order] = cached
        return cached

    def contains(self, p: Polynomial, order: Order = GREVLEX) -> bool:
        return not self.normal_form(p, order)

    def normal_form(self, p: Polynomial, order: Order = GREVLEX) -> Polynomial:
        gb = self._min_basis(order)
        if not gb:
            return p
        r, _ = divide(p, gb, order)
        return r

    def is_trivial(self) -> bool:
        gb = self._min_basis()
        return len(gb) == 1 and gb[0] == self.ring.one()

    def __add__(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise ValueError("ideals in different rings")
        return Ideal(self.ring, self.gens + other.gens)


def ideal(ring: PolyRing, *gens: Polynomial) -> Ideal:
    return Ideal(ring, gens)


def ideal_equal(a: Ideal, b: Ideal, order: Order = GREVLEX) -> bool:
    """Mutual containment, checked by normal forms of the generators.

    Equivalent to comparing reduced bases, but never tail-reduces: the
    reduced basis of an ideal can be exponentially larger than any of its
    minimal bases (forward substitution of chained relations), while the
    generator normal forms stay small.
    """
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    return all(b.contains(g, order) for g in a.gens) and all(
        a.contains(g, order) for g in b.gens
    )


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    return Ideal(a.ring, tuple(f * g for f in a.gens for g in b.gens))


def ideal_power(a: Ideal, n: int) -> Ideal:
    if n < 0:
        raise ValueError("negative ideal power")
    out = Ideal(a.ring, (a.ring.one(),))
    for _ in range(n):
        out = ideal_product(out, a)
    return out


def elim_ideal(a: Ideal, keep: Sequence[str]) -> Ideal:
    """I intersected with the subring on `keep`: compute a basis under a
    block order that puts the discarded variables first, then take the
    basis elements supported on the kept variables only."""
    keep_set = set(keep)
    for n in keep_set:
        a.ring.vars.index(n)
    front = [n for n in a.ring.names if n not in keep_set]
    back = [n for n in a.ring.names if n in keep_set]
    order = elimination_order(front, back)
    gb = a.groebner(order)
    small = a.ring.restrict(back)
    kept = [g.project(small) for g in gb if g.support() <= keep_set]
    return Ideal(small, kept)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """I cap J via the tag trick: eliminate t from t*I + (1-t)*J."""
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    ring = a.ring
    tname = fresh_name(ring.names, "_t")
    big = ring.extend((tname,))
    t = big.var(tname)
    gens = [t * g.lift(big) for g in a.gens]
    gens += [(big.one() - t) * g.lift(big) for g in b.gens]
    elim = elim_ideal(Ideal(big, gens), ring.names)
    assert elim.ring == ring
    return Ideal(ring, elim.gens)


def ideal_quotient(a: Ideal, f: Polynomial) -> Ideal:
    """Colon ideal (a : f) for a single polynomial f."""
    if not f:
        raise ValueError("quotient by zero")
    cap = intersect(a, Ideal(a.ring, (f,)))
    return Ideal(a.ring, tuple(g.exact_div(f) for g in cap.gens))


def saturation(a: Ideal, f: Polynomial) -> tuple[Ideal, int]:
    """(a : f^infinity) by iterating colon ideals until they stabilize.

    Returns (saturated ideal, saturation index): the index is the first k
    with (a : f^k) = (a : f^(k+1)).
    """
    if not f:
        raise ValueError("saturation by zero")
    current = a
    for k in range(SATURATION_ROUNDS_CAP):
        nxt = ideal_quotient(current, f)
        if ideal_equal(nxt, current):
            return current, k
        current = nxt
    raise CapExceeded("instance too large")


# ---------------------------------------------------------------------------
# brute-force oracles (independent of Buchberger)
# ---------------------------------------------------------------------------


def _monomials_up_to(ring: PolyRing, degree: int) -> list[Exp]:
    """All exponent tuples of total degree <= degree, ascending grevlex."""
    n = ring.nvars
    out: list[Exp] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == n:
            out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, pos + 1)

    rec([], degree, 0)
    keyfn = GREVLEX.key_for(ring)
    out.sort(key=keyfn)
    return out


def brute_force_member(p: Polynomial, gens: Sequence[Polynomial], max_deg: int) -> bool:
    """Decide membership of p in (gens) allowing cofactors up to max_deg.

    Pure linear algebra over the monomials of degree <= max_deg + max gen
    degree: complete whenever some representation p = sum(q_i g_i) exists
    with deg q_i <= max_deg.  A False answer therefore only means "no
    low-degree certificate", which is exact if max_deg is large enough.
    """
    ring = p.ring
    _check_plain_ring(ring)
    gens = [g for g in gens if g]
    if not gens:
        return not p
    if not p:
        return True
    target_deg = max(max_deg + max(g.total_degree() for g in gens), p.total_degree())
    rows = _monomials_up_to(ring, target_deg)
    row_index = {e: i for i, e in enumerate(rows)}
    columns: list[dict[int, object]] = []
    for g in gens:
        for m in _monomials_up_to(ring, max_deg):
            prod = Polynomial(ring, {m: ring.field.one()}) * g
            columns.append({row_index[e]: c for e, c in prod.terms.items()})
    rhs = {row_index[e]: c for e, c in p.terms.items()}
    return not row_echelon(ring.field, columns + [rhs])[-1]


def row_echelon(fld: Field, vectors: Iterable[dict[int, object]]) -> list[bool]:
    """Sparse row echelon form over an exact field, fed one vector at a time.

    Vectors map indices to nonzero field elements.  Each is reduced against
    the pivot rows found so far, always eliminating its largest index with
    the pivot that leads there; a vector that does not reduce to zero is
    scaled to lead with 1 and becomes a new pivot.  Returns, for every input
    in order, whether it added a pivot, i.e. was independent of the vectors
    before it: the rank is the number of True entries, and a vector fed in
    last lies in the span of the others iff its entry is False.
    """
    zero = fld.zero()
    pivots: dict[int, dict[int, object]] = {}
    added: list[bool] = []
    for vector in vectors:
        work = dict(vector)
        while work:
            lead = max(work)
            row = pivots.get(lead)
            if row is None:
                scale = fld.inv(work[lead])
                pivots[lead] = {i: fld.mul(c, scale) for i, c in work.items()}
                break
            factor = work[lead]
            for i, c in row.items():
                new = fld.sub(work.get(i, zero), fld.mul(factor, c))
                if new == zero:
                    del work[i]
                else:
                    work[i] = new
        added.append(bool(work))
    return added


@dataclass(frozen=True)
class FactorVerdict:
    """Outcome of the exhaustive factor search."""

    status: str  # "irreducible" | "reducible"
    factors: Optional[tuple[Polynomial, Polynomial]] = None

    @property
    def irreducible(self) -> bool:
        return self.status == "irreducible"

    def __repr__(self):
        if self.factors:
            g, h = self.factors
            return f"reducible({g}, {h})"
        return self.status


def brute_force_irreducible(f: Polynomial, max_deg: int) -> FactorVerdict:
    """Exhaustive factor search over a prime field: trial division by every
    monic polynomial of total degree 1..max_deg in f's variables.

    Requires deg f <= 2*max_deg + 1 so that "no factor found" really means
    irreducible (a proper factorization always has a factor of degree
    <= deg f // 2 <= max_deg).  Raises when the candidate count would
    exceed the cap.
    """
    ring = f.ring
    _check_plain_ring(ring)
    fld = ring.field
    if not isinstance(fld, PrimeField):
        raise ValueError("irreducibility search needs a finite field")
    if not f or f.is_constant():
        raise ValueError("irreducibility of a constant")
    if f.total_degree() > 2 * max_deg + 1:
        raise ValueError("degree bound too small to certify irreducibility")
    monos = _monomials_up_to(ring, max_deg)
    total = 0
    plans = []
    for lead_pos, lead in enumerate(monos):
        if sum(lead) == 0:
            continue
        count = fld.p ** lead_pos
        plans.append((lead, monos[:lead_pos]))
        total += count
        if total > IRREDUCIBLE_CANDIDATE_CAP:
            raise CapExceeded("instance too large")
    elements = list(range(fld.p))
    for lead, lower in plans:
        for coeffs in itertools.product(elements, repeat=len(lower)):
            terms = {lead: fld.one()}
            for m, c in zip(lower, coeffs):
                if c:
                    terms[m] = c
            g = Polynomial(ring, terms)
            if g.total_degree() >= f.total_degree():
                continue
            try:
                h = f.exact_div(g)
            except ValueError:
                continue
            return FactorVerdict("reducible", (g, h))
    return FactorVerdict("irreducible")
