"""Buchberger's algorithm with Gebauer-Moeller pair pruning: the tests'
independent oracle for the library's one Groebner engine.

`ufdlab.groebner` computes every basis by `signature_basis` and interreduces
it by `_interreduce`.  This module computes the same reduced bases another
way: S-pairs taken by the normal strategy and pruned by the Gebauer-Moeller
criteria, and an interreduction that divides each element of the minimal
basis by all the others.  Of the library it uses only `groebner.divide`,
`groebner._s_poly`, the cap check `groebner._check_size`, the order and
polynomial types and the monomial helpers of `ufdlab.poly`; it reads them
through their module attributes, so a test that patches one sees its calls.
tests/test_groebner.py checks that it reads none of `signature_basis`,
`_interreduce`, `Ideal` and `groebner.buchberger`, and that it gives the same
bases with those names set to None.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Sequence

from ufdlab import groebner
from ufdlab.caps import current_caps
from ufdlab.groebner import GREVLEX, Order
from ufdlab.poly import Exp, Polynomial, mono_divides, mono_mul


def _lcm(a: Exp, b: Exp) -> Exp:
    return tuple(map(max, a, b))


def buchberger(
    gens: Sequence[Polynomial], order: Order = GREVLEX, interreduce: bool = True
) -> list[Polynomial]:
    """Monic Groebner basis of the ideal generated by gens.

    Pair selection is by smallest lcm (normal strategy), ties broken by the
    pair's indices.  Pairs are pruned by the Gebauer-Moeller update (Gebauer
    & Moeller 1988) each time an element h joins the basis.  An open pair
    (i, j) goes when lead(h) divides its lcm and that lcm differs from both
    lcm(i, h) and lcm(j, h) (criterion B_k).  Of the new pairs (g, h), one
    goes when another new pair's lcm properly divides its lcm (M), only the
    last of several with equal lcms stays (F), and the coprime ones go after
    they have served in M and F.  The elements whose leading term no later
    leading term divides form the `live` list: new pairs are made with them
    only, and S-polynomials are divided by them only.  A dropped element's
    leading term is a multiple of a live one, so wherever it divides, a live
    leading term that is no larger divides too, and `divide` picks that one
    (they are equal only for generators with a common leading term).  The
    criteria look at leading terms only, so an S-polynomial can still come
    out zero; it is dropped without a call to `divide`, which would take no
    step on it.  The
    leading exponents live in a list beside the basis, and the open pairs in
    a heap of (order key of the lcm, (i, j), lcm), each entry computed once
    when the pair is pushed (Giovini et al. 1991 keep their pairs in a heap
    too).  Every element joins the basis monic, so neither `_s_poly` nor
    `divide` inverts a leading coefficient of it.  No leading term is found
    twice: a remainder comes back from `divide` with its leading term and
    order key recorded, `monic` hands that record on, `Polynomial.leading`
    in the pair update reads it, and later divisions by the element read it
    too.  The coprime test of each new pair is made once.  A generator or a
    new remainder over the degree or terms cap raises `CapExceeded` naming
    `buchberger`.
    With interreduce=True (the default) the output is the unique reduced
    basis, sorted with the largest leading term first, made by
    `interreduce_every_element`.  With interreduce=False the basis is only
    minimal (no leading term divides another): still a Groebner basis, so
    normal forms against it are the same, but tails stay unreduced.
    """
    if not gens:
        return []
    ring = gens[0].ring
    for g in gens:
        if g.ring != ring:
            raise ValueError("generators from different rings")
    keyfn = order.key_for(ring)
    caps = current_caps()

    basis: list[Polynomial] = []
    leads: list[Exp] = []
    live: list[int] = []
    pairs: list[tuple[object, tuple[int, int], Exp]] = []

    def add(g: Polynomial) -> None:
        new = len(basis)
        basis.append(g)
        he = g.leading(keyfn)[0]
        leads.append(he)
        # B_k: drop an open pair (i, j) whose lcm lead(h) divides, unless
        # lcm(i, h) or lcm(j, h) equals it
        kept = [
            (key, (i, j), lcm)
            for key, (i, j), lcm in pairs
            if not mono_divides(he, lcm)
            or _lcm(leads[i], he) == lcm
            or _lcm(leads[j], he) == lcm
        ]
        if len(kept) != len(pairs):
            pairs[:] = kept
            heapq.heapify(pairs)
        # M and F on the new pairs; a coprime one serves in both but makes
        # no pair
        fresh = [(k, _lcm(leads[k], he)) for k in live]
        chosen: list[tuple[int, Exp]] = []
        for pos, (k, lcm) in enumerate(fresh):
            if mono_mul(leads[k], he) == lcm:
                chosen.append((k, lcm))
            elif not any(
                mono_divides(other, lcm)
                for _, other in itertools.chain(fresh[pos + 1 :], chosen)
            ):
                chosen.append((k, lcm))
                heapq.heappush(pairs, (keyfn(lcm), (k, new), lcm))
        live[:] = [k for k in live if not mono_divides(he, leads[k])]
        live.append(new)

    for g in gens:
        if not g:
            continue
        groebner._check_size(g, caps, "buchberger")
        g = g.monic(keyfn)
        if g not in basis:
            add(g)
    if not basis:
        return []

    while pairs:
        _, (i, j), _ = heapq.heappop(pairs)
        s = groebner._s_poly(basis[i], leads[i], basis[j], leads[j])
        if not s:
            continue
        r, _ = groebner.divide(s, [basis[k] for k in live], order)
        if not r:
            continue
        groebner._check_size(r, caps, "buchberger")
        add(r.monic(keyfn))

    # minimalize: keep only elements with pairwise non-divisible leading
    # terms, in ascending order of their leading terms
    keep: list[Polynomial] = []
    keep_leads: list[Exp] = []
    for idx in sorted(live, key=lambda i: keyfn(leads[i])):
        e = leads[idx]
        if not any(mono_divides(h, e) for h in keep_leads):
            keep.append(basis[idx])
            keep_leads.append(e)
    # the leading terms are distinct, so this is the descending order
    keep.reverse()
    return interreduce_every_element(keep, order) if interreduce else keep


def interreduce_every_element(minimal: Sequence[Polynomial], order: Order) -> list[Polynomial]:
    """The reduced basis of a minimal monic basis, largest leading term
    first: each element divided by all the others through `divide` and made
    monic.  No other leading term divides an element's own, so that stays
    and the remainder's tail is the normal form of the element's tail; the
    result does not depend on the route `divide` takes."""
    if not minimal:
        return []
    keyfn = order.key_for(minimal[0].ring)
    reduced = [groebner.divide(g, [*minimal[:k], *minimal[k + 1 :]], order)[0].monic(keyfn)
               for k, g in enumerate(minimal)]
    return sorted(reduced, key=lambda g: keyfn(g.leading(keyfn)[0]), reverse=True)
