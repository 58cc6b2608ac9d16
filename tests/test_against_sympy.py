"""`buchberger` and `Ideal.groebner()` against sympy, an oracle written
elsewhere: on seeded small ideals both must give the same reduced Groebner
basis.  `Ideal` runs `signature_basis`, so this checks that engine too,
under the elimination orders that `elim_ideal` uses.  Membership is checked
the same way: `Ideal.contains` and the linear-algebra oracle
`brute_force_member` must answer as sympy's basis does, and
`Ideal.normal_form` must give the remainder that sympy's `reduce` gives.

sympy is a test-only dependency (the `test` extra); without it the module
is skipped by name.  A reduced basis is unique once each element is made
monic under the order, so each side is compared as a set of term tables.
sympy's `Poly.monic()` divides by the lex leading coefficient whatever the
order, so a sympy element is divided by `Poly.LC(order=...)` instead.  A
block order is a sympy `ProductOrder` of grevlex on each block.
"""

import itertools
import random
from fractions import Fraction

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.groebner import (
    GREVLEX,
    LEX,
    Ideal,
    brute_force_member,
    buchberger,
    elimination_order,
)
from ufdlab.poly import Polynomial, mono_divides, poly_ring

sympy = pytest.importorskip("sympy")

FIELDS = [QQ, GF(5), GF(32003)]
ORDERS = [GREVLEX, LEX]
IDEALS = 16  # per field and order
NAMES = ("x", "y", "z")


def _random_gens(ring, rng: random.Random) -> list[Polynomial]:
    """Two generators, or in three variables two or three, of up to four
    terms of total degree 1 to 3 with small coefficients.  No term is
    constant, so the ideal is never the whole ring."""
    gens = []
    for _ in range(rng.randint(2, ring.nvars)):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            exp = [0] * ring.nvars
            for _ in range(rng.randint(1, 3)):
                exp[rng.randrange(ring.nvars)] += 1
            terms[tuple(exp)] = ring.field.of(rng.choice([-3, -2, -1, 1, 2, 3, Fraction(1, 2)]))
        gens.append(Polynomial(ring, terms))
    return gens


def _ours(gens, order) -> set:
    return {frozenset(g.terms.items()) for g in buchberger(gens, order)}


def _sympy_order(order, ring):
    """The sympy order of `order` on `ring`: its name, or for a block order
    a `ProductOrder` of grevlex on each block's exponents."""
    if order.kind != "block":
        return order.kind
    from sympy.polys.orderings import ProductOrder, grevlex

    blocks = [tuple(ring.index(n) for n in block) for block in order.blocks]
    return ProductOrder(*((grevlex, lambda m, idx=idx: tuple(m[i] for i in idx))
                          for idx in blocks))


def _to_sympy(polys):
    """polys, all of one ring, as sympy Polys, with their symbols and domain."""
    ring = polys[0].ring
    symbols = sympy.symbols(ring.names)
    domain = sympy.QQ if ring.field is QQ else sympy.GF(ring.field.p)
    return [sympy.Poly.from_dict({e: sympy.Rational(str(c)) for e, c in p.terms.items()},
                                 *symbols, domain=domain) for p in polys], symbols, domain


def _sympys(gens, order) -> set:
    """sympy's reduced basis, each element divided by its leading
    coefficient under `order` and read back into ufdlab's field."""
    ring = gens[0].ring
    field = ring.field
    polys, symbols, domain = _to_sympy(gens)
    theirs = _sympy_order(order, ring)
    out = set()
    for p in sympy.groebner(polys, *symbols, order=theirs, domain=domain).polys:
        lead = field.of(str(p.LC(order=theirs)))
        out.add(frozenset((e, field.div(field.of(str(c)), lead)) for e, c in p.terms()))
    return out


@pytest.mark.parametrize("order", ORDERS, ids=lambda order: order.kind)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_reduced_bases_match_sympy(field, order):
    rng = random.Random(f"{field} {order.kind}")
    for n in range(IDEALS):
        ring = poly_ring(field, NAMES[: rng.randint(2, 3)])
        gens = _random_gens(ring, rng)
        assert _ours(gens, order) == _sympys(gens, order), (n, [str(g) for g in gens])


@pytest.mark.parametrize("front", [1, 2], ids=["eliminate-x", "eliminate-xy"])
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_ideal_groebner_under_an_elimination_order_matches_sympy(field, front):
    rng = random.Random(f"{field} block {front}")
    for n in range(IDEALS):
        ring = poly_ring(field, NAMES[: rng.randint(front + 1, 3)])
        order = elimination_order(ring.names[:front], ring.names[front:])
        gens = _random_gens(ring, rng)
        ours = {frozenset(g.terms.items()) for g in Ideal(ring, gens).groebner(order)}
        assert ours == _sympys(gens, order), (n, [str(g) for g in gens])


MEMBER_BOUND = 2  # cofactor degree of the built members, and the oracle's bound


def _cofactor(ring, rng: random.Random) -> Polynomial:
    """A random polynomial of degree <= MEMBER_BOUND with a term of exactly
    that degree, so a member built from it needs multipliers that high."""
    terms = {}
    for degree in [MEMBER_BOUND] + [rng.randint(0, MEMBER_BOUND) for _ in range(2)]:
        exp = [0] * ring.nvars
        for _ in range(degree):
            exp[rng.randrange(ring.nvars)] += 1
        terms[tuple(exp)] = ring.field.of(rng.choice([-2, -1, 1, 2, 3]))
    return Polynomial(ring, terms)


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_membership_matches_sympy(field):
    # A member is sum(q_i g_i) with deg q_i <= MEMBER_BOUND, so the oracle has
    # a certificate at that bound; a non-member adds a nonzero multiple of a
    # monomial that no leading term of sympy's basis divides, which stays in
    # the normal form.  Each answer must be sympy's `contains`, and the
    # normal form itself the remainder of sympy's `reduce`: both divide by a
    # grevlex basis of the same ideal, so the remainder is unique.  It is
    # compared in sympy's domain, where GF(p) writes coefficients in
    # symmetric form.
    rng = random.Random(f"{field} membership")
    for n in range(IDEALS):
        ring = poly_ring(field, NAMES[: rng.randint(2, 3)])
        gens = _random_gens(ring, rng)
        polys, symbols, domain = _to_sympy(gens)
        basis = sympy.groebner(polys, *symbols, order="grevlex", domain=domain)
        leads = [p.LM(order="grevlex").exponents for p in basis.polys]
        standard = [e for e in itertools.product(range(4), repeat=ring.nvars)
                    if sum(e) <= 3 and not any(mono_divides(l, e) for l in leads)]
        member = sum((_cofactor(ring, rng) * g for g in gens), ring.zero())
        assert member, n
        outside = Polynomial(ring, {rng.choice(standard): rng.choice([1, 2, -1])})
        i = Ideal(ring, gens)
        for p, want in ((member, True), (member + outside, False)):
            (theirs,), _, _ = _to_sympy([p])
            assert basis.contains(theirs) is want, (n, str(p))
            assert i.contains(p) is want, (n, str(p))
            (ours,), _, _ = _to_sympy([i.normal_form(p)])
            assert ours == basis.reduce(theirs)[1], (n, str(p))
            assert brute_force_member(p, gens, MEMBER_BOUND) is want, (n, str(p))
