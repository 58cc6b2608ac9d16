"""Properties of `omega.normal_form` on random elements, found by hypothesis.

A seeded loop finds a failing element but cannot shrink it; hypothesis
does.  Over Q, GF(2) and GF(3) the normal form must not depend on the
pivot rule, must be its own normal form once read back as an element, and
must be linear.  The examples are derandomized and their number is fixed,
so every run draws the same ones.

These properties cannot see a rule that is wrong but still confluent:
with x^(2^k) in place of x^(2^(k+1)) in every z_(k+2) child the pivots
agree and the normal form stays idempotent and linear.  The reference
tests of tests/test_omega.py, which check the normal form against
evaluation and against a monomial rewrite, catch that.

hypothesis is a test-only dependency (the `test` extra); without it the
module is skipped by name.
"""

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.omega import OmegaPoly, expansion_poly, expansion_text, normal_form, omega_ring
from ufdlab.poly import Polynomial

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIELDS = [QQ, GF(2), GF(3)]
TOP = 3  # the largest z-index of an input
SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

_COEFFS = {
    QQ: st.one_of(st.integers(-5, 5),
                  st.fractions(min_value=-3, max_value=3, max_denominator=4)),
    GF(2): st.integers(0, 1),
    GF(3): st.integers(-1, 1),
}


def _elements(field):
    """Elements of up to four terms x^r z0^e0 ... z3^e3 with r <= 4, each
    e_i <= 3 (so a z-size of at most 12) and coefficients in the field."""
    exponent = st.tuples(st.integers(0, 4), *[st.integers(0, 3)] * (TOP + 1))
    terms = st.dictionaries(exponent, _COEFFS[field].map(field.of), max_size=4)
    return terms.map(lambda t: OmegaPoly(Polynomial(omega_ring(field, TOP), t)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_pivots_agree(field):
    @SETTINGS
    @given(_elements(field))
    def check(p):
        assert expansion_text(normal_form(p, "largest")) == expansion_text(
            normal_form(p, "smallest"))

    check()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_normal_form_is_its_own_normal_form(field):
    @SETTINGS
    @given(_elements(field))
    def check(p):
        nf = normal_form(p)
        assert normal_form(expansion_poly(nf, field)) == nf

    check()


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_normal_form_is_linear(field):
    scalars = _COEFFS[field].map(field.of).filter(lambda c: c != field.zero())

    @SETTINGS
    @given(_elements(field), _elements(field), scalars)
    def check(p, q, c):
        combined = OmegaPoly(p.poly * c) + q
        want = (OmegaPoly(expansion_poly(normal_form(p), field).poly * c)
                + expansion_poly(normal_form(q), field))
        assert expansion_poly(normal_form(combined), field) == want

    check()
