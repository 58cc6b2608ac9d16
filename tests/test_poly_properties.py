"""The text reader's round trip on random polynomials, found by hypothesis.

`ring.parse(str(p))` must give p back in rings of one to four variables
whose names have several letters, digits or underscores, over Q (fractions,
negative coefficients, and coefficients of 1 and -1 in front of a
monomial) and over GF(2), GF(5) and GF(32003).  The examples are
derandomized and their number is fixed, so every run draws the same ones.

hypothesis is a test-only dependency (the `test` extra); without it the
module is skipped by name.
"""

import string

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.poly import Polynomial, poly_ring

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

FIELDS = [QQ, GF(2), GF(5), GF(32003)]
SETTINGS = settings(derandomize=True, database=None, max_examples=40, deadline=None)

_COEFFS = {
    QQ: st.one_of(st.sampled_from([1, -1]), st.integers(-20, 20),
                  st.fractions(min_value=-5, max_value=5, max_denominator=7)),
    GF(2): st.integers(0, 1),
    GF(5): st.integers(0, 4),
    GF(32003): st.integers(0, 32002),
}

# a letter, then up to three letters, digits or underscores
_NAMES = st.builds(
    str.__add__,
    st.sampled_from(string.ascii_letters),
    st.text(string.ascii_letters + string.digits + "_", max_size=3),
)


@st.composite
def _polynomials(draw, field):
    names = draw(st.lists(_NAMES, min_size=1, max_size=4, unique=True))
    ring = poly_ring(field, names)
    exps = st.tuples(*[st.integers(0, 3)] * len(names))
    coeffs = _COEFFS[field].map(field.of)
    return Polynomial(ring, draw(st.dictionaries(exps, coeffs, max_size=5)))


@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_parse_reads_back_what_str_writes(field):
    @SETTINGS
    @given(_polynomials(field))
    def check(p):
        assert p.ring.parse(str(p)) == p

    check()
