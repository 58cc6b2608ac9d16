"""Properties of `groebner.divide` on random inputs, found by hypothesis.

A seeded loop finds a failing division but cannot shrink it; hypothesis
does.  Over Q, GF(2) and GF(32003), under grevlex and lex, a division must
give p = sum(q_i * g_i) + r exactly, leave no term of r that a divisor's
leading term divides, and change neither p nor a divisor.  Over Q the
leading coefficients are drawn too, so they are often fractions or negative.
Half of the dividends are built from the divisors, so that a division takes
many steps.  The examples are derandomized and their number is fixed, so
every run draws the same ones.

hypothesis is a test-only dependency (the `test` extra); without it the
module is skipped by name.
"""

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.groebner import GREVLEX, LEX, divide
from ufdlab.poly import Polynomial, mono_divides, poly_ring

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIELDS = [QQ, GF(2), GF(32003)]
ORDERS = [GREVLEX, LEX]
SETTINGS = settings(derandomize=True, database=None, max_examples=25, deadline=None)

# nonzero coefficients, drawn without a filter
_COEFFS = {
    QQ: st.one_of(st.integers(1, 5), st.integers(-5, -1),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)),
    GF(2): st.just(1),
    GF(32003): st.integers(1, 32002),
}


@st.composite
def _divisions(draw, field, order):
    """(p, divisors): one to three divisors in x, y, z of up to three terms
    and exponents up to 2, each scaled to a drawn leading coefficient; p of
    one to five terms with exponents up to 3, plus, half of the time, a
    combination of the divisors with cofactors of one to three terms."""
    ring = poly_ring(field, ("x", "y", "z"))
    keyfn = order.key_for(ring)
    nonzero = _COEFFS[field].map(field.of)

    def poly(max_terms, max_exp, min_terms=0):
        exps = st.tuples(*[st.integers(0, max_exp)] * 3)
        return Polynomial(ring, draw(st.dictionaries(exps, nonzero, min_size=min_terms,
                                                     max_size=max_terms)))

    divisors = []
    for _ in range(draw(st.integers(1, 3))):
        g = poly(3, 2, min_terms=1)
        divisors.append(g * field.div(draw(nonzero), g.leading(keyfn)[1]))
    p = poly(5, 3, min_terms=1)
    if draw(st.booleans()):
        for g in divisors:
            p = p + poly(3, 2, min_terms=1) * g
    # fresh copies: no lead recorded under this order, no shift records
    return p, [Polynomial(ring, dict(g.terms)) for g in divisors]


@pytest.mark.parametrize("order", ORDERS, ids=lambda o: o.kind)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_divide_identity_irreducible_remainder_and_untouched_inputs(field, order):
    @SETTINGS
    @given(_divisions(field, order))
    def check(case):
        p, divisors = case
        before = [dict(f.terms) for f in (p, *divisors)]
        rem, quotients = divide(p, divisors, order)
        assert [dict(f.terms) for f in (p, *divisors)] == before
        total = rem
        for q, g in zip(quotients, divisors):
            total = total + q * g
        assert total == p
        keyfn = order.key_for(p.ring)
        leads = [g.leading(keyfn)[0] for g in divisors]
        assert not [e for e in rem.terms if any(mono_divides(de, e) for de in leads)]

    check()
