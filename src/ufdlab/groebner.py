"""One Groebner engine over exact fields, and the ideal operations built on
it: elimination, intersection, colon ideals and saturation.

Ideals in localizations must be rephrased in a polynomial ring first, e.g.
by saturating at the would-be unit, or by adjoining w with z*w - 1 for an
inverse z^-1.  The engine is `signature_basis`, a signature-based algorithm
that skips most of the S-pairs that would reduce to zero; it returns a
minimal monic basis.  An `Ideal` caches that basis per order, which is all
that normal forms and elimination need, and `Ideal.groebner()`
interreduces it once, by `_interreduce`, into the reduced monic basis, a
canonical form: two ideals are equal iff their reduced bases under the same
order coincide.  `buchberger` computes the same reduced basis under the name
the benchmark calls.  Every claim reads its bases from an `Ideal`; the
tests check the engine against an independent Buchberger implementation
(`tests/oracles.py`) and against sympy.

Every reduction runs one loop, `_reduce`: `divide` hands it the sorted
leads of its divisors and keeps the quotients, and the s-reduction of
`signature_basis` hands it the basis of the earlier generators and the
signature rule and keeps only the remainder.  Over Q both reduce
fraction-free from their second step on, over one common denominator.

`brute_force_member` is an independent membership decision: it never calls
the Groebner engine, only linear algebra over a truncated monomial
basis, and is complete once the degree bound covers the true cofactors.  It
keeps the last cofactor span it built, so queries against the same
generators and bound eliminate the cofactor matrix once; a query is only
reduced against that span, never added to it, so each answer depends only
on the call's arguments.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .caps import Caps, current_caps
from .coeff import Field, PrimeField, _cleared, _lowest_terms
from .errors import too_large
from .poly import (
    Exp,
    Polynomial,
    PolyRing,
    _adopt,
    _merged,
    grevlex_key,
    mono_div,
    mono_divides,
    mono_mul,
    poly_ring,
)

SATURATION_ROUNDS_CAP = 32
# `divide` over Q strips the content of its running difference once the
# common denominator has grown by this many bits since the last strip
_STRIP_BITS = 64
IRREDUCIBLE_CANDIDATE_CAP = 10_000_000


# ---------------------------------------------------------------------------
# monomial orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Order:
    """A monomial order: "lex", "grevlex", or "block" (elimination).

    A block order compares block by block, grevlex inside each block, so it
    eliminates the variables of the earlier blocks.  `key_for` returns the
    same function object for the same order and ring, which lets
    `Polynomial.leading` recognise a key it has already answered for.
    `descending_key_for` returns a key that sorts exactly the other way
    round, one function object per order and ring as well.
    """

    kind: str
    blocks: tuple[tuple[str, ...], ...] = ()

    def key_for(self, ring: PolyRing):
        if self.kind == "lex":
            return _lex_key
        if self.kind == "grevlex":
            return grevlex_key
        if self.kind == "block":
            return _block_key(self.blocks, ring)
        raise ValueError(f"unknown order kind {self.kind!r}")

    def descending_key_for(self, ring: PolyRing):
        if self.kind == "lex":
            return _lex_descending_key
        if self.kind == "grevlex":
            return _grevlex_descending_key
        if self.kind == "block":
            return _block_descending_key(self.blocks, ring)
        raise ValueError(f"unknown order kind {self.kind!r}")


def _lex_key(exp: Exp) -> Exp:
    return exp


def _lex_descending_key(exp: Exp) -> Exp:
    return tuple(map(operator.neg, exp))


def _grevlex_descending_key(exp: Exp):
    # grevlex_key is (sum(exp), exp reversed and negated)
    return (-sum(exp), exp[::-1])


def _blockwise(blocks: tuple[tuple[str, ...], ...], ring: PolyRing, block_key):
    """The key on ring that joins block_key of each block, in block order."""
    seen: list[str] = [n for blk in blocks for n in blk]
    if sorted(seen) != sorted(ring.names):
        raise ValueError("block order must partition the ring variables")
    getters = [_index_getter(tuple(ring.index(n) for n in blk)) for blk in blocks]

    def key(exp: Exp):
        parts = ()
        for get in getters:
            parts += block_key(get(exp))
        return parts

    return key


def _index_getter(idx: tuple[int, ...]):
    """A function that picks the entries idx of an exponent as a tuple, even
    for a single index: a slice for consecutive indices, else an itemgetter,
    which returns a tuple for two indices or more."""
    start = idx[0] if idx else 0
    if idx == tuple(range(start, start + len(idx))):
        return operator.itemgetter(slice(start, start + len(idx)))
    return operator.itemgetter(*idx)


@functools.lru_cache(maxsize=256)
def _block_key(blocks: tuple[tuple[str, ...], ...], ring: PolyRing):
    return _blockwise(blocks, ring, grevlex_key)


@functools.lru_cache(maxsize=256)
def _block_descending_key(blocks: tuple[tuple[str, ...], ...], ring: PolyRing):
    return _blockwise(blocks, ring, _grevlex_descending_key)


LEX = Order("lex")
GREVLEX = Order("grevlex")


def elimination_order(front: Sequence[str], back: Sequence[str]) -> Order:
    return Order("block", (tuple(front), tuple(back)))


# ---------------------------------------------------------------------------
# division / reduction
# ---------------------------------------------------------------------------


def divide(
    p: Polynomial, divisors: Sequence[Polynomial], order: Order = GREVLEX
) -> tuple[Polynomial, list[Polynomial]]:
    """Multivariate division: p = sum(q_i * divisors_i) + r with no term of r
    divisible by any divisor's leading term.  Returns (r, [q_i]).

    Each divisor's order key, leading exponent and leading coefficient come
    from its `_lead` entry when that was recorded under this order's key
    function, and from `Polynomial.leading` (which records them) otherwise,
    so a divisor used again under the same order costs no `keyfn` call.  The
    divisors are sorted by (order key of the leading term, index): the first
    one in that list whose leading term divides is the one with the
    smallest leading term, the lowest index on a tie.  A leading coefficient
    other than one is inverted once per call.  Every basis that `Ideal`
    divides by is monic, and a monic divisor needs no field operation for
    the quotient coefficient.  The division itself is
    `_reduce`, the loop of `signature_basis`'s s-reduction too; `divide`
    hands it these sorted leads and one dict per divisor, into which it
    writes each quotient term.
    """
    ring = p.ring
    keyfn = order.key_for(ring)
    fld = ring.field
    one = fld.one()
    # Among usable divisors prefer the smallest leading term: a rule that
    # solves for a big monomial (Z -> long tail) forward-substitutes and can
    # balloon the intermediate work, while a small rule (a lone variable,
    # say) kills the term outright.  The remainder itself is
    # path-independent, this only picks a cheap route to it.
    leads = []
    for i, g in enumerate(divisors):
        if g.ring is not ring and g.ring != ring:
            raise ValueError("divisor from a different ring")
        lead = g._lead
        if lead is None or lead[0] is not keyfn:
            if not g:
                raise ValueError("zero divisor in reduction")
            g.leading(keyfn)
            lead = g._lead
        _, key, de, dc = lead
        leads.append((key, i, de, None if dc == one else fld.inv(dc), g))
    leads.sort(key=operator.itemgetter(0, 1))
    quotients: list[dict[Exp, object]] = [{} for _ in divisors]
    rem = _reduce(p, leads, quotients, (), None, keyfn, order.descending_key_for(ring),
                  current_caps(), "divide")
    return rem, [_adopt(ring, q) for q in quotients]


def _reduce(p: Polynomial, leads, quotients, reducers, sig_key, keyfn, heap_key,
            caps: Caps, where: str) -> Polynomial:
    """The remainder of p after reducing every term it can, largest first,
    recorded with its leading term under keyfn: the loop of `divide` and of
    the s-reduction of `signature_basis`, which differ only in the reducer
    they pick and in whether they keep quotients.

    A term is reduced by the first row (order key, index, leading exponent,
    inverse of the leading coefficient or None for one, polynomial) of
    `leads` whose leading exponent divides it.  Only when none does are the
    rows (leading exponent, signature, monic polynomial) of `reducers` read:
    the first whose leading term divides the term as m*lead(h), with the
    order key of m*sig(h) below sig_key, reduces it (regular s-reduction).
    `divide` passes no such rows, so it pays nothing for the signature
    test.  With `quotients`, a list of one dict per row index, each step
    records its quotient term there; the s-reduction passes None.  A cap
    hit names `where`.

    The leading term of the running difference `work` comes from a min-heap
    keyed by `heap_key`, which sorts exactly opposite to the order key and
    is built directly from the exponent (for grevlex, (-sum(e), e
    reversed)), so the largest term pops first (Yan 1998 keeps order keys
    cached the same way in his geobuckets).  Distinct exponents have
    distinct keys, so the heap never compares two exponents themselves.
    Every exponent of `work` is queued once, and an entry whose term has
    cancelled is dropped when it surfaces.  The exponents of a multiple
    m*g depend only on g and m, so g keeps them in its `_shifts` dict: the
    first step with a given m shifts g's exponents by m and records them
    under m in g's term order, and every later step with the same g and m,
    in this call or a later one, reads them back.  A term that no reducer
    takes moves to the remainder but stays in `work`: every later step
    subtracts only terms smaller than it, so `work` never touches it again,
    and the heap running empty ends the reduction.  The remainder's terms
    thus arrive largest first.

    The first step subtracts through `Polynomial.__sub__`, which copies p
    and subtracts in one pass, so the caller's p is never touched; that
    call is also what the benchmark's tracer counts as `poly.add`
    (`perfbench/tracer.py`).  After it `work` is always a polynomial made
    here, and each later step folds its multiple into `work.terms` in one
    pass over the divisor's recorded exponents and its coefficients: each
    product is subtracted from the term it meets, or stored negated where
    there is none, a term that cancels is deleted, and an exponent is
    queued only when it is new to `work` and was never queued before.

    Over Q the first step works in the field too, and from the second step
    on `work` stands for W/D, with W a polynomial of int coefficients and
    D > 0 an int: fraction-free reduction, as in pseudo-division (Knuth,
    TAOCP vol. 2, 4.6.1, Algorithm R).  The second step sets D to the lcm
    of the denominators of `work` and W to D*work, so a reduction of no
    step or one converts nothing.  Each reducer g keeps in its `_integral`
    slot the lcm k of its denominators and the int coefficients of k*g.
    With LG the lead of k*g, a step on the term wc*x^we of W takes
    h = gcd(wc, LG) and s = |LG|/h; when s is not 1 it scales W and D by s,
    W in place, and it subtracts (wc/h)*x^qe*k*g from W, the sign of LG
    folded into the multiplier, so W stays integral.  The quotient term is
    the exact fraction wc/(D*lc(g)), D taken before the scaling, and it is
    built only for `quotients`.  The content of W is stripped, W and D
    divided by gcd(D, content of W), only when D has grown by `_STRIP_BITS`
    bits since the conversion or the last strip.  At the end each remainder
    term is W's coefficient over D, brought to lowest terms once, so
    remainders and quotients equal those of field arithmetic.  W and k*g
    never leave here: the caller gets only field elements in canonical
    form.
    """
    ring = p.ring
    fld = ring.field
    mul = fld.mul
    over_q = fld.char == 0
    le, add, sub, gcd = operator.le, operator.add, operator.sub, math.gcd
    remainder: dict[Exp, object] = {}
    work = p
    terms = work.terms
    den = None  # over Q from the second step on: work stands for W/den
    heap = [(heap_key(e), e) for e in terms]
    heapq.heapify(heap)
    queued = set(terms)
    while heap:
        we = heapq.heappop(heap)[1]
        wc = terms.get(we)
        if wc is None:
            continue  # cancelled since it was queued
        size = len(terms) - len(remainder)
        if size > caps.terms:
            raise too_large(where, "terms", caps.terms, size)
        if sum(we) > caps.degree:
            raise too_large(where, "degree", caps.degree, sum(we))
        for _, i, de, dinv, g in leads:
            if all(map(le, de, we)):
                break
        else:
            if not reducers:  # divide: no signature rule, and no loop set up for one
                remainder[we] = wc  # once W stands in for work, read from W at the end
                continue
            for de, se, g in reducers:
                if all(map(le, de, we)) and keyfn(
                        tuple(map(add, mono_div(we, de), se))) < sig_key:
                    dinv = None  # every reducer is monic
                    break
            else:
                remainder[we] = wc
                continue
        qe = tuple(map(sub, we, de))
        shifts = g._shifts
        if shifts is None:
            shifts = g._shifts = {}
        exps = shifts.get(qe)
        if work is p or not over_q:  # a step in the field
            qc = m = wc if dinv is None else mul(wc, dinv)
            coeffs = g.terms.values()
        else:
            if den is None:
                den, ints = _cleared(terms.values())
                if den != 1:
                    work = _adopt(ring, dict(zip(terms, ints)))
                    terms = work.terms
                    wc = terms[we]
                strip_at = den << _STRIP_BITS
            if g._integral is None:
                g._integral = _cleared(g.terms.values())
            kappa, coeffs = g._integral
            dc = g.terms[de]
            lg = kappa // dc.denominator * dc.numerator  # the lead of kappa*g
            # W/den - wc/(den*dc)*x^qe*g = (s*W - m*x^qe*kappa*g)/(s*den)
            h = gcd(wc, lg)
            s, m = lg // h, wc // h
            if s < 0:
                s, m = -s, -m
            if s != 1:
                for e, c in terms.items():
                    terms[e] = c * s
                den *= s
            if quotients is not None:
                qc = _lowest_terms(m * kappa, den)
        if quotients is not None:
            quotients[i][qe] = qc  # popped exponents strictly decrease: qe is new
        if work is p:  # the first step: p - step copies p as it subtracts
            if exps is None:  # one pass builds the step and its shift record
                step = {tuple(map(add, qe, e)): mul(m, c) for e, c in g.terms.items()}
                exps = shifts[qe] = tuple(step)
            else:
                step = dict(zip(exps, [mul(m, c) for c in coeffs]))
            work = p - _adopt(ring, step)
            terms = work.terms
            # how each later step folds into `work`: into W's ints over Q
            fmul, fsub, fneg = (operator.mul, operator.sub, operator.neg) if over_q else (
                mul, fld.sub, fld.neg)
            for e in exps:
                if e not in queued:
                    queued.add(e)
                    heapq.heappush(heap, (heap_key(e), e))
            continue
        if exps is None:
            exps = shifts[qe] = tuple([tuple(map(add, qe, e)) for e in g.terms])
        for e, c in zip(exps, coeffs):
            c = fmul(m, c)
            old = terms.get(e)
            if old is None:
                terms[e] = fneg(c)
                if e not in queued:
                    queued.add(e)
                    heapq.heappush(heap, (heap_key(e), e))
            elif c := fsub(old, c):
                terms[e] = c
            else:
                del terms[e]
        if den is not None and den > strip_at:
            work, den = _stripped(work, den)
            terms = work.terms
            strip_at = den << _STRIP_BITS
    if den is not None:
        remainder = {e: _lowest_terms(terms[e], den) for e in remainder}
    rem = _adopt(ring, remainder)
    if remainder:
        e = next(iter(remainder))  # popped first, so the largest
        rem._lead = (keyfn, keyfn(e), e, remainder[e])
    return rem


def _stripped(work: Polynomial, den: int) -> tuple[Polynomial, int]:
    """W/den for an integral W as W'/den' with h = gcd(den, content of W)
    divided out of both, so that den' is the least common denominator of
    the polynomial W/den."""
    h = math.gcd(den, *work.terms.values())
    if h == 1:
        return work, den
    return _adopt(work.ring, {e: c // h for e, c in work.terms.items()}), den // h


def _s_poly(f: Polynomial, fe: Exp, g: Polynomial, ge: Exp) -> Polynomial:
    """S-polynomial of f and g, given their leading exponents fe and ge:
    mf*f - mg*g with mf = x^(lcm - fe) / lc(f) and mg likewise, so both
    products lead with the same monic term.  The two leading terms cancel
    and are left out; the tails are shifted and scaled into one dict, f's
    first and g's subtracted from it by `_merged`, and a leading
    coefficient is inverted only when it is not one (every element that
    `signature_basis` pairs, and every element of a reduced basis that the
    soundness claim pairs, is monic)."""
    lcm = tuple(map(max, fe, ge))
    fld = f.ring.field
    one, mul = fld.one(), fld.mul
    add = operator.add
    fc, gc = f.terms[fe], g.terms[ge]
    fshift, gshift = mono_div(lcm, fe), mono_div(lcm, ge)
    if fc == one:
        out = {tuple(map(add, fshift, e)): c for e, c in f.terms.items() if e != fe}
    else:
        scale = fld.inv(fc)
        out = {tuple(map(add, fshift, e)): mul(scale, c)
               for e, c in f.terms.items() if e != fe}
    gscale = None if gc == one else fld.inv(gc)
    tail = [(tuple(map(add, gshift, e)), c if gscale is None else mul(gscale, c))
            for e, c in g.terms.items() if e != ge]
    return _adopt(f.ring, _merged(out, tail, fld.sub, fld.neg))


def _check_size(g: Polynomial, caps: Caps, site: str) -> None:
    """Raise, naming `site`, when a generator or a polynomial joining a
    basis is over the degree or terms cap."""
    if g.total_degree() > caps.degree:
        raise too_large(site, "degree", caps.degree, g.total_degree())
    if g.term_count() > caps.terms:
        raise too_large(site, "terms", caps.terms, g.term_count())


def buchberger(gens: Sequence[Polynomial], order: Order = GREVLEX) -> list[Polynomial]:
    """The reduced monic Groebner basis of the ideal generated by gens,
    largest leading term first: the minimal basis of `signature_basis`,
    interreduced, as `Ideal.groebner()` computes it.

    The name is kept only because the benchmark calls it by that name
    (`perfbench/workloads.py`, `capture_reference.py` and `tracer.py`).
    Buchberger's algorithm itself is the tests' independent oracle,
    `tests/oracles.py`."""
    return _interreduce(signature_basis(gens, order), order)


def _interreduce(basis: Sequence[Polynomial], order: Order) -> list[Polynomial]:
    """The reduced basis of a minimal monic one, both sorted with the
    largest leading term first.

    Tails are reduced smallest element first: every term of keep[idx] lies
    at or below its lead, so only the smaller, already reduced keep[:idx]
    can divide one, and the lead, which none divides, keeps the remainder
    monic.  Reducing keep[idx] leaves its lead in place, so the leading
    exponents below it are those of the input.  An element none of whose
    terms such an exponent divides is already reduced and is kept as it
    is: `divide` would take no step on it."""
    keep = list(reversed(basis))
    if not keep:
        return keep
    keyfn = order.key_for(keep[0].ring)
    leads = [g.leading(keyfn)[0] for g in keep]
    le = operator.le
    for idx in range(1, len(keep)):
        below = leads[:idx]
        if any(all(map(le, h, e)) for e in keep[idx].terms for h in below):
            keep[idx], _ = divide(keep[idx], keep[:idx], order)
    keep.reverse()
    return keep


# ---------------------------------------------------------------------------
# signature-based bases
# ---------------------------------------------------------------------------


def signature_basis(gens: Sequence[Polynomial], order: Order = GREVLEX) -> list[Polynomial]:
    """Monic minimal Groebner basis of the ideal generated by gens, sorted
    with the largest leading term first, by a signature-based algorithm that
    does not reduce the S-pairs it can tell will end in zero.

    The generators join one at a time, in order of total degree and then of
    leading term, smallest first (incremental F5, Faugere 2002); the
    criteria are those of the survey by Eder & Faugere 2017 (J. Symbolic
    Comput. 80).
    While f_i joins, `prior` holds a minimal Groebner basis of the
    generators before it, and every new element g stands for a module
    element whose signature is t*e_i, position over term.  Only the term t
    is kept: every element of `prior` lies in a smaller position.  The
    candidates of position i, f_i itself and then S-pairs, are taken in
    increasing signature order from a heap.  A candidate of signature t is
    skipped when
    - the leading term of an element of `prior` divides t (the F5
      criterion: t*e_i is the signature of a principal syzygy),
    - the signature of a candidate that reduced to zero divides t (the
      syzygy criterion),
    - the signature of an element of position i that joined after the
      candidate's own generator divides t (the rewrite criterion: the
      newest rewriter wins), or
    - t was taken already, so each signature is reduced once.
    A pair whose two multiplied signatures are equal is never formed.  The
    candidate is reduced by `_reduce` (regular s-reduction: `prior` first,
    then the reducers of position i under the signature rule); a zero
    joins the syzygy list.  A remainder that is still singular
    top-reducible (its leading term is m*lead(h) and m*sig(h) = t for an
    element h of position i) is dropped from the basis: it reduces
    nothing, but it still joins position i as a rewriter that forms pairs,
    without which the rewrite criterion would skip signatures that nothing
    else covers.  Every other remainder joins the basis monic, and must
    stay within the degree and terms caps, as every nonzero generator must
    before any work starts.  Once position i is done, the
    elements of `prior` whose leading term a new one divides leave it, and
    the new elements whose leading term no other new one divides join it.
    """
    if not gens:
        return []
    ring = gens[0].ring
    caps = current_caps()
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
        if g:
            _check_size(g, caps, "signature_basis")
    keyfn = order.key_for(ring)
    heap_key = order.descending_key_for(ring)
    le, add, sub = operator.le, operator.add, operator.sub
    pushed = itertools.count()  # equal signatures pop in the order pushed
    one = (0,) * ring.nvars
    # rows of `_reduce`'s first table, ascending: (order key of the leading
    # term, None, leading term, None, element); monic, so no inverse
    prior: list[tuple[object, None, Exp, None, Polynomial]] = []

    def joining_order(g: Polynomial):
        return g.total_degree(), keyfn(g.leading(keyfn)[0])

    for f in sorted((g for g in gens if g), key=joining_order):
        prior_leads = [e for _, _, e, _, _ in prior]
        # every element of position i in the order it joined: leading term,
        # signature, polynomial; the reducers leave out the singular ones
        current: list[tuple[Exp, Exp, Polynomial]] = []
        sigs: list[Exp] = []
        reducers: list[tuple[Exp, Exp, Polynomial]] = []
        syzygies: list[Exp] = []
        # (order key of the signature, tie, signature, carrier, partner):
        # the S-pair of current[carrier], whose multiple carries the
        # signature, and the polynomial partner; carrier -1 is f_i itself
        pairs = [(keyfn(one), next(pushed), one, -1, f)]
        last = None
        while pairs:
            _, _, sig, carrier, g = heapq.heappop(pairs)
            if sig == last or _divisible(sig, syzygies) or _divisible(sig, sigs[carrier + 1:]):
                continue
            last = sig
            if carrier < 0:
                p = g
            else:
                ce, _, c = current[carrier]
                p = _s_poly(c, ce, g, g.leading(keyfn)[0])
            if p and (prior or reducers):
                p = _reduce(p, prior, None, reducers, keyfn(sig), keyfn, heap_key, caps,
                            "s_reduce")
            if not p:
                syzygies.append(sig)
                continue
            pe, _ = p.leading(keyfn)
            singular = any(all(map(le, he, pe)) and tuple(map(add, map(sub, pe, he), hs)) == sig
                           for he, hs, _ in reducers)
            if not singular:
                _check_size(p, caps, "signature_basis")
            p = p.monic(keyfn)
            new = len(current)
            for _, _, be, _, b in prior:
                if not any(map(min, pe, be)):
                    continue  # coprime leads: be divides the signature (F5)
                pair_sig = tuple(map(add, map(sub, map(max, pe, be), pe), sig))
                if not _divisible(pair_sig, prior_leads):  # the F5 criterion
                    heapq.heappush(pairs, (keyfn(pair_sig), next(pushed), pair_sig, new, b))
            for k, (he, hs, h) in enumerate(current):
                lcm = tuple(map(max, pe, he))
                mine = tuple(map(add, map(sub, lcm, pe), sig))
                theirs = tuple(map(add, map(sub, lcm, he), hs))
                mine_key, theirs_key = keyfn(mine), keyfn(theirs)
                if mine_key > theirs_key and not _divisible(mine, prior_leads):
                    heapq.heappush(pairs, (mine_key, next(pushed), mine, new, h))
                elif theirs_key > mine_key and not _divisible(theirs, prior_leads):
                    heapq.heappush(pairs, (theirs_key, next(pushed), theirs, k, p))
            current.append((pe, sig, p))
            sigs.append(sig)
            if not singular:
                reducers.append((pe, sig, p))
        new_leads = [e for e, _, _ in reducers]
        prior = [b for b in prior if not _divisible(b[2], new_leads)]
        prior += [(g._lead[1], None, e, None, g) for i, (e, _, g) in enumerate(reducers)
                  if not _divisible(e, new_leads[:i] + new_leads[i + 1:])]
        prior.sort(key=operator.itemgetter(0))
    return [g for *_, g in reversed(prior)]


def _divisible(e: Exp, by: Iterable[Exp]) -> bool:
    """Whether some exponent of `by` divides e."""
    le = operator.le
    for d in by:
        if all(map(le, d, e)):
            return True
    return False


# ---------------------------------------------------------------------------
# ideals
# ---------------------------------------------------------------------------


class Ideal:
    """An ideal given by generators, with one cached Groebner basis per
    order: the minimal one from `signature_basis` until `groebner()`
    interreduces it and stores the reduced basis in its place."""

    def __init__(self, ring: PolyRing, gens: Iterable[Polynomial]):
        self.ring = ring
        self.gens = tuple(g for g in gens if g)
        for g in self.gens:
            if g.ring != ring:
                raise ValueError("generator from a different ring")
        # order -> (whether interreduced, basis)
        self._bases: dict[Order, tuple[bool, tuple[Polynomial, ...]]] = {}

    def __repr__(self):
        inner = ", ".join(str(g) for g in self.gens) or "0"
        return f"Ideal({inner})"

    def _basis(self, order: Order, reduced: bool = False) -> tuple[Polynomial, ...]:
        """The cached basis under order: minimal from its first use, as normal
        forms and elimination need, and interreduced once if `reduced`."""
        done, basis = self._bases.get(order, (False, None))
        if basis is None:
            basis = tuple(signature_basis(self.gens, order))
        if reduced and not done:
            done, basis = True, tuple(_interreduce(basis, order))
        self._bases[order] = done, basis
        return basis

    def groebner(self, order: Order = GREVLEX) -> tuple[Polynomial, ...]:
        """The reduced Groebner basis, largest leading term first."""
        return self._basis(order, reduced=True)

    def contains(self, p: Polynomial, order: Order = GREVLEX) -> bool:
        return not self.normal_form(p, order)

    def normal_form(self, p: Polynomial, order: Order = GREVLEX) -> Polynomial:
        gb = self._basis(order)
        if not gb:
            return p
        r, _ = divide(p, gb, order)
        return r

    def is_trivial(self) -> bool:
        gb = self._basis(GREVLEX)
        return len(gb) == 1 and gb[0] == self.ring.one()

    def __add__(self, other: "Ideal") -> "Ideal":
        if other.ring != self.ring:
            raise ValueError("ideals in different rings")
        return Ideal(self.ring, self.gens + other.gens)


def ideal(ring: PolyRing, *gens: Polynomial) -> Ideal:
    return Ideal(ring, gens)


def ideal_equal(a: Ideal, b: Ideal, order: Order = GREVLEX) -> bool:
    """Mutual containment, checked by normal forms of the generators.

    Equivalent to comparing reduced bases, but never tail-reduces: it divides
    by each ideal's cached basis, minimal unless `groebner()` has reduced it.
    A reduced basis can be exponentially larger than any minimal basis
    (forward substitution of chained relations), while the generator normal
    forms stay small.
    """
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    return all(b.contains(g, order) for g in a.gens) and all(
        a.contains(g, order) for g in b.gens
    )


def ideal_product(a: Ideal, b: Ideal) -> Ideal:
    """Generated by the products f*g, each kept at its first occurrence only."""
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    products: list[Polynomial] = []
    for f in a.gens:
        for g in b.gens:
            h = f * g
            if h not in products:
                products.append(h)
    return Ideal(a.ring, products)


def ideal_power(a: Ideal, n: int) -> Ideal:
    if n < 0:
        raise ValueError("negative ideal power")
    out = Ideal(a.ring, (a.ring.one(),))
    for _ in range(n):
        out = ideal_product(out, a)
    return out


def elim_ideal(a: Ideal, keep: Sequence[str]) -> Ideal:
    """I intersected with the subring on `keep`: the elements supported on
    the kept variables of the cached basis under a block order that puts
    the discarded variables first.  Any Groebner basis under an
    elimination order eliminates, so the minimal one does."""
    keep_set = set(keep)
    for n in keep_set:
        a.ring.index(n)
    front = [n for n in a.ring.names if n not in keep_set]
    back = [n for n in a.ring.names if n in keep_set]
    order = elimination_order(front, back)
    gb = a._basis(order)
    small = poly_ring(a.ring.field, back)
    kept = [g.lift(small) for g in gb if g.support() <= keep_set]
    return Ideal(small, kept)


def intersect(a: Ideal, b: Ideal) -> Ideal:
    """I cap J via the tag trick: eliminate t from t*I + (1-t)*J."""
    if a.ring != b.ring:
        raise ValueError("ideals in different rings")
    ring = a.ring
    big, t = ring.adjoin("t")
    gens = [t * g.lift(big) for g in a.gens]
    gens += [(big.one() - t) * g.lift(big) for g in b.gens]
    return elim_ideal(Ideal(big, gens), ring.names)


def ideal_quotient(a: Ideal, f: Polynomial) -> Ideal:
    """Colon ideal (a : f) for a single polynomial f: each generator of
    a cap (f) divided by f.  A generator that leaves a remainder is a bug in
    `intersect`, and raises AssertionError."""
    if not f:
        raise ValueError("quotient by zero")
    cap = intersect(a, Ideal(a.ring, (f,)))
    quotients = []
    for g in cap.gens:
        rem, (q,) = divide(g, [f])
        if rem:
            raise AssertionError(f"{g} lies in a cap ({f}) but is not a multiple of {f}")
        quotients.append(q)
    return Ideal(a.ring, tuple(quotients))


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
    # (a : f^k) changed in each of the rounds k = 0..cap-1: the index is
    # at least cap, which takes one round more
    raise too_large("saturation", "rounds", SATURATION_ROUNDS_CAP, SATURATION_ROUNDS_CAP + 1)


# ---------------------------------------------------------------------------
# brute-force oracles (independent of the Groebner engine)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _monomials_up_to(ring: PolyRing, degree: int) -> tuple[Exp, ...]:
    """All exponent tuples of total degree <= degree, ascending grevlex.

    The list depends on the ring and the degree alone, and the oracles ask
    for the same few again and again (a soundness run builds one span per
    trial over at most a dozen (ring, degree) pairs), so it is memoised per
    pair and returned as a tuple, which no caller can change."""
    n = ring.nvars
    out: list[Exp] = []

    def rec(prefix: list[int], remaining: int, pos: int):
        if pos == n:
            out.append(tuple(prefix))
            return
        for k in range(remaining + 1):
            rec(prefix + [k], remaining - k, pos + 1)

    rec([], degree, 0)
    out.sort(key=GREVLEX.key_for(ring))
    return tuple(out)


@functools.lru_cache(maxsize=1)
def _cofactor_span(ring: PolyRing, gens_terms: tuple, max_deg: int, target_deg: int):
    """Row index of the monomials of degree <= target_deg, and echelon pivot
    rows spanning the columns m*g for every g, given by its term tuple in
    gens_terms, and every monomial m of degree <= max_deg.  The last span
    built is kept for the next call with the same arguments.

    The columns go in shortest generator first (a stable sort on term
    count), the sparse-rows-first rule of sparse elimination: a monomial or
    binomial generator lays down sparse pivot rows, and the longer columns
    then reduce against them with little fill-in.  The span itself does not
    depend on the order.  The rows ascend in grevlex, degree first, and
    max_deg <= target_deg, so the multipliers are the first
    C(nvars + max_deg, nvars) rows."""
    rows = _monomials_up_to(ring, target_deg)
    row_index = {e: i for i, e in enumerate(rows)}
    multipliers = rows[:math.comb(ring.nvars + max_deg, ring.nvars)]
    fld = ring.field
    pivots: dict[int, dict[int, object]] = {}
    for terms in sorted(gens_terms, key=len):
        for m in multipliers:
            _insert_pivot(fld, pivots, {row_index[mono_mul(m, e)]: c for e, c in terms})
    return row_index, pivots


def brute_force_member(p: Polynomial, gens: Sequence[Polynomial], max_deg: int) -> bool:
    """Decide membership of p in (gens) allowing cofactors up to max_deg.

    Pure linear algebra over the monomials of degree <= max_deg + max gen
    degree: complete whenever some representation p = sum(q_i g_i) exists
    with deg q_i <= max_deg.  A False answer therefore only means "no
    low-degree certificate", which is exact if max_deg is large enough.
    The span of the cofactor columns is built shortest generator first, so
    that sparse pivot rows come first and the longer columns fill in little
    against them; it is kept for the next call with the same ring,
    generators and degrees, and p is only reduced against it.  A span of
    more rows than the terms cap raises CapExceeded before it is built.
    """
    ring = p.ring
    gens = [g for g in gens if g]
    if not gens:
        return not p
    if not p:
        return True
    if any(g.ring != ring for g in gens):
        raise ValueError("polynomials from different rings")
    target_deg = max(max_deg + max(g.total_degree() for g in gens), p.total_degree())
    rows, limit = math.comb(ring.nvars + target_deg, ring.nvars), current_caps().terms
    if rows > limit:
        raise too_large("brute_force_member", "terms", limit, rows)
    gens_terms = tuple(tuple(g.terms.items()) for g in gens)
    row_index, pivots = _cofactor_span(ring, gens_terms, max_deg, target_deg)
    rhs = {row_index[e]: c for e, c in p.terms.items()}
    return not _reduce_vector(ring.field, pivots, rhs)


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
    pivots: dict[int, dict[int, object]] = {}
    return [_insert_pivot(fld, pivots, vector) for vector in vectors]


def _insert_pivot(fld: Field, pivots: dict[int, dict[int, object]],
                  vector: dict[int, object]) -> bool:
    """Reduce vector against pivots and, if a remainder is left, add it
    scaled to lead with 1.  Returns whether a pivot was added."""
    work = _reduce_vector(fld, pivots, vector)
    if not work:
        return False
    lead = max(work)
    scale = fld.inv(work[lead])
    pivots[lead] = {i: fld.mul(c, scale) for i, c in work.items()}
    return True


def _reduce_vector(fld: Field, pivots: dict[int, dict[int, object]],
                   vector: dict[int, object]) -> dict[int, object]:
    """The remainder of vector after eliminating its largest index with the
    pivot row that leads there (leading coefficient 1), until no pivot
    leads at its largest index.  The pivot rows are left unchanged; the
    remainder is empty iff vector lies in their span."""
    zero = fld.zero()
    work = dict(vector)
    while work:
        lead = max(work)
        row = pivots.get(lead)
        if row is None:
            break
        factor = work[lead]
        # inline, not `poly._merged`: pivot rows are short, and a list per step costs more
        for i, c in row.items():
            new = fld.sub(work.get(i, zero), fld.mul(factor, c))
            if new == zero:
                del work[i]
            else:
                work[i] = new
    return work


def brute_force_irreducible(f: Polynomial, max_deg: int) -> Optional[tuple[Polynomial, Polynomial]]:
    """Exhaustive factor search over a prime field: trial division by every
    monic polynomial of total degree 1..max_deg in f's variables.  Returns
    a factorization (g, h) with f = g*h, or None when f is irreducible.

    Requires deg f <= 2*max_deg + 1 so that "no factor found" really means
    irreducible (a proper factorization always has a factor of degree
    <= deg f // 2 <= max_deg).  Candidates are grouped by their leading
    monomial (grevlex), and only the groups whose leading monomial has
    degree < deg f and divides lead(f) are tried: lead(g*h) = lead(g) *
    lead(h) under any monomial order, so every other candidate has too
    high a degree or leaves lead(f) in the remainder of `divide`.  The groups
    keep their order, so the factor returned is the one the full search
    finds first.  The cap still counts every candidate, tried or not:
    raises when that count would exceed it.
    """
    ring = f.ring
    fld = ring.field
    if not isinstance(fld, PrimeField):
        raise ValueError("irreducibility search needs a finite field")
    if not f or f.is_constant():
        raise ValueError("irreducibility of a constant")
    deg = f.total_degree()
    if deg > 2 * max_deg + 1:
        raise ValueError("degree bound too small to certify irreducibility")
    fe, _ = f.leading()
    monos = _monomials_up_to(ring, max_deg)
    total = 0
    plans = []
    for lead_pos, lead in enumerate(monos):
        # monos is ascending grevlex, so a candidate's degree is its lead's
        lead_deg = sum(lead)
        if lead_deg == 0:
            continue
        total += fld.p ** lead_pos
        if total > IRREDUCIBLE_CANDIDATE_CAP:
            raise too_large("brute_force_irreducible", "candidates",
                             IRREDUCIBLE_CANDIDATE_CAP, total)
        if lead_deg < deg and mono_divides(lead, fe):
            plans.append((lead, monos[:lead_pos]))
    elements = list(range(fld.p))
    for lead, lower in plans:
        for coeffs in itertools.product(elements, repeat=len(lower)):
            terms = {lead: fld.one()}
            for m, c in zip(lower, coeffs):
                if c:
                    terms[m] = c
            g = Polynomial(ring, terms)
            rest, (h,) = divide(f, [g])
            if not rest:
                return g, h
    return None
