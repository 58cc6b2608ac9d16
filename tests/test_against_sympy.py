"""`buchberger` and `Ideal.groebner()` against sympy, an oracle written
elsewhere: on seeded small ideals both must give the same reduced Groebner
basis.  `Ideal` runs `signature_basis`, so this checks that engine too,
under the elimination orders that `elim_ideal` uses.

sympy is a test-only dependency (the `test` extra); without it the module
is skipped by name.  A reduced basis is unique once each element is made
monic under the order, so each side is compared as a set of term tables.
sympy's `Poly.monic()` divides by the lex leading coefficient whatever the
order, so a sympy element is divided by `Poly.LC(order=...)` instead.  A
block order is a sympy `ProductOrder` of grevlex on each block.
"""

import random
from fractions import Fraction

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.groebner import GREVLEX, LEX, Ideal, buchberger, elimination_order
from ufdlab.poly import Polynomial, poly_ring

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


def _sympys(gens, order) -> set:
    """sympy's reduced basis, each element divided by its leading
    coefficient under `order` and read back into ufdlab's field."""
    ring = gens[0].ring
    field = ring.field
    symbols = sympy.symbols(ring.names)
    domain = sympy.QQ if field is QQ else sympy.GF(field.p)
    polys = [sympy.Poly.from_dict({e: sympy.Rational(str(c)) for e, c in g.terms.items()},
                                  *symbols, domain=domain) for g in gens]
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
