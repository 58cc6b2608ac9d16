"""`buchberger` against sympy, an oracle written elsewhere: on seeded small
ideals both must give the same reduced Groebner basis.

sympy is a test-only dependency (the `test` extra); without it the module
is skipped by name.  A reduced basis is unique once each element is made
monic under the order, so each side is compared as a set of term tables.
sympy's `Poly.monic()` divides by the lex leading coefficient whatever the
order, so a sympy element is divided by `Poly.LC(order=...)` instead.
"""

import random
from fractions import Fraction

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.groebner import GREVLEX, LEX, buchberger
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


def _sympys(gens, order) -> set:
    """sympy's reduced basis, each element divided by its leading
    coefficient under `order` and read back into ufdlab's field."""
    ring = gens[0].ring
    field = ring.field
    symbols = sympy.symbols(ring.names)
    domain = sympy.QQ if field is QQ else sympy.GF(field.p)
    polys = [sympy.Poly.from_dict({e: sympy.Rational(str(c)) for e, c in g.terms.items()},
                                  *symbols, domain=domain) for g in gens]
    out = set()
    for p in sympy.groebner(polys, *symbols, order=order.kind, domain=domain).polys:
        lead = field.of(str(p.LC(order=order.kind)))
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
