"""Polynomial layer: arithmetic, gradings, maps, text round-trips."""

import random
import re
from fractions import Fraction

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.errors import CapExceeded
from ufdlab.groebner import divide, ideal
from ufdlab.poly import (
    _TOKEN_RE,
    Polynomial,
    PolyRing,
    RingMap,
    degree_of,
    derivative,
    grevlex_key,
    laurent_iso,
    poly_ring,
)


def R(names="xyz", field=QQ):
    return poly_ring(field, tuple(names))


# -- arithmetic -------------------------------------------------------------


def test_binomial_square():
    r = R("xy")
    x, y = r.gens()
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2


def test_zero_normalization():
    r = R("xy")
    x, y = r.gens()
    p = x - x + r.zero()
    assert not p
    assert p.terms == {}
    assert str(p) == "0"


def test_sub_and_scalar_coercion():
    r = R("xy")
    x, y = r.gens()
    assert (3 * x - x) == 2 * x
    assert (1 - x) + (x - 1) == r.zero()
    assert x * 0 == r.zero()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(7)], ids=str)
def test_const_and_var_are_monomials(field):
    r = R("xy", field=field)
    for c in (0, 1, 3, -3, 4, 7, 14):
        assert r.const(c) == r.monomial({}, c)
    assert r.const(0) == r.zero()
    for name in r.names:
        assert r.var(name) == r.monomial({name: 1})
    with pytest.raises(ValueError, match="unknown variable"):
        r.var("q")


def test_const_reduces_into_the_field():
    r = R("x", field=GF(7))
    assert r.const(7) == r.zero()
    assert not r.const(7).terms
    assert r.const(-3) == r.const(4)
    assert r.const(-3).terms == {(0,): 4}


@pytest.mark.parametrize("text", ["0", " 0 ", "-0", "0*x"])
def test_zero_texts_parse_to_zero(text):
    r = R("xy")
    p = r.parse(text)
    assert p == r.zero()
    assert p.terms == {}


def test_negative_exponents_are_rejected():
    r = R("xy")
    x, y = r.gens()
    with pytest.raises(ValueError, match="negative power"):
        x**-1
    with pytest.raises(ValueError, match="negative exponent on variable 'y'"):
        r.monomial({"x": 1, "y": -1})


def test_exact_div():
    # exact division is division with remainder 0
    r = R("xy")
    x, y = r.gens()
    prod = (x + y) * (x - y)
    assert divide(prod, [x + y]) == (r.zero(), [x - y])
    rest, _ = divide(x**2 + y, [x + y])
    assert rest == y**2 + y


def test_exact_div_of_a_multiple_of_the_modulus_is_zero():
    # the constructor reduces 7 over GF(7) to 0 and drops it, so no quotient
    # step of divide can meet a coefficient that divides to 0
    r = R("xy", GF(7))
    x, _ = r.gens()
    p = Polynomial(r, {(1, 0): 7})
    assert not p
    assert divide(p, [x]) == (r.zero(), [r.zero()])


def test_constructor_normalises_coefficients():
    r = R("x", GF(7))
    assert Polynomial(r, {(1,): -3}) == Polynomial(r, {(1,): 4})
    assert Polynomial(r, {(1,): -3}).terms == {(1,): 4}
    assert Polynomial(r, {(1,): 7}) == r.zero()
    assert Polynomial(r, {(1,): Fraction(1, 2)}).terms == {(1,): 4}
    q = R("x")
    assert Polynomial(q, {(1,): Fraction(4, 2)}).terms == {(1,): 2}
    assert type(Polynomial(q, {(1,): Fraction(4, 2)}).terms[(1,)]) is int
    with pytest.raises(ValueError, match="not an element of Q"):
        Polynomial(q, {(1,): 0.5})


def test_monic_returns_a_monic_polynomial_itself():
    r = R("xy")
    x, y = r.gens()
    p = x**2 - 3 * y
    assert p.monic() is p
    assert (2 * x**2 + y).monic() == x**2 + Fraction(1, 2) * y
    assert r.zero().monic() == r.zero()
    s = R("xy", GF(7))
    u, v = s.gens()
    assert (3 * u + v).monic() == u + 5 * v
    assert (u - v).monic().terms == (u - v).terms


def test_lift_into_a_ring_that_lacks_only_unused_variables():
    big = R("xyz")
    x, y, z = big.gens()
    p = x * z**2 + 3
    q = p.lift(R("xz"))
    assert q.ring == R("xz")
    assert q == R("xz").parse("x*z^2 + 3")
    assert q.lift(big) == p
    # one target variable, and none
    assert (5 * y**2 - 1).lift(R("y")) == R("y").parse("5*y^2 - 1")
    assert big.const(7).lift(R("")) == R("").const(7)
    assert big.zero().lift(R("")) == R("").zero()


def test_lift_follows_the_target_variable_order():
    x, y, z = R("xyz").gens()
    assert (x * z**2 + 3 * y).lift(R("zyx")) == R("zyx").parse("z^2*x + 3*y")
    assert (x * z**2 + 3).lift(R("zx")) == R("zx").parse("z^2*x + 3")


def test_lift_names_a_used_variable_the_target_lacks():
    x, y, z = R("xyz").gens()
    with pytest.raises(ValueError, match="^variable 'y' is used but not in the target ring$"):
        (x * y + z).lift(R("xz"))
    with pytest.raises(ValueError, match="'z'"):
        (x * y + z).lift(R("yxq"))


def test_lift_rejects_another_field():
    # the coefficients of GF(7) are no elements of Q
    p = R("x", field=GF(7)).parse("5*x + 3")
    with pytest.raises(ValueError, match="different coefficient fields"):
        p.lift(R("x"))
    with pytest.raises(ValueError, match="different coefficient fields"):
        R("x").parse("x").lift(R("xy", field=GF(7)))


def test_lift_gives_an_extra_variable_exponent_zero():
    p = R("x", field=GF(7)).parse("5*x + 3")
    q = p.lift(R("qxw", field=GF(7)))
    assert q.terms == {(0, 1, 0): 5, (0, 0, 0): 3}
    assert q == R("qxw", field=GF(7)).parse("5*x + 3")


# -- arithmetic against a naive reference -------------------------------------
#
# The reference accumulates every term into a dict with the field's own
# add/sub/mul and drops the zeros at the end, so it shares no shortcut with
# Polynomial's one-pass arithmetic.


def _drop_zeros(fld, out):
    return {e: c for e, c in out.items() if c != fld.zero()}


def _naive_sum(fld, a, b, op):
    out = dict(a)
    for e, c in b.items():
        out[e] = op(out.get(e, fld.zero()), c)
    return _drop_zeros(fld, out)


def _naive_mul(fld, a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(i + j for i, j in zip(e1, e2))
            out[e] = fld.add(out.get(e, fld.zero()), fld.mul(c1, c2))
    return _drop_zeros(fld, out)


def _naive_scale(fld, a, c):
    return _drop_zeros(fld, {e: fld.mul(v, c) for e, v in a.items()})


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
def test_arithmetic_matches_naive_reference(field):
    rng = random.Random(29)
    r = poly_ring(field, ("x", "y", "z"))
    zero = field.zero()

    def rand_terms(nterms):
        return {
            tuple(rng.randrange(0, 3) for _ in range(3)): field.sample(rng)
            for _ in range(nterms)
        }

    def check(got, want):
        assert got.terms == want
        assert zero not in got.terms.values()

    cancelled = 0
    for _ in range(150):
        a = Polynomial(r, rand_terms(rng.randrange(0, 6)))
        b = Polynomial(r, rand_terms(rng.randrange(0, 6)))
        # c shares some terms of a with equal coefficients and some with
        # negated ones, so a - c and a + c cancel them
        c = Polynomial(r, {
            e: v if rng.random() < 0.5 else field.neg(v)
            for e, v in a.terms.items() if rng.random() < 0.7
        } | rand_terms(rng.randrange(0, 3)))
        m = Polynomial(r, rand_terms(1))
        for f, g in ((a, b), (a, c), (c, a), (a, a), (b, m), (m, b)):
            check(f + g, _naive_sum(field, f.terms, g.terms, field.add))
            check(f - g, _naive_sum(field, f.terms, g.terms, field.sub))
            check(f * g, _naive_mul(field, f.terms, g.terms))
            shared = f.terms.keys() & g.terms.keys()
            cancelled += len(shared - (f + g).terms.keys()) + len(shared - (f - g).terms.keys())
        check(a + (-a), {})
        check(-a, _naive_sum(field, {}, a.terms, field.sub))
        check(m * a, _naive_mul(field, m.terms, a.terms))
        check(a * m, _naive_mul(field, a.terms, m.terms))
        check(m * m, _naive_mul(field, m.terms, m.terms))
        k = field.sample(rng)
        check(a * k, _naive_scale(field, a.terms, k))
        check(a * 0, {})
        check(3 * a, _naive_scale(field, a.terms, field.of(3)))
        if a:
            lead = max(a.terms, key=grevlex_key)
            check(a.monic(), _naive_scale(field, a.terms, field.inv(a.terms[lead])))
    assert cancelled > 100  # plenty of terms cancelled in the sums and differences


def test_grevlex_key_is_degree_then_reversed_negated_exponent():
    rng = random.Random(22)
    for n in range(7):
        for _ in range(30):
            e = tuple(rng.randint(0, 5) for _ in range(n))
            assert grevlex_key(e) == (sum(e), tuple(-x for x in reversed(e)))


# -- text syntax ------------------------------------------------------------


def test_render_grevlex_descending():
    r = R("xyz")
    x, y, z = r.gens()
    p = x**2 * z + y**3 + x * y**2
    assert str(p) == "x*y^2 + y^3 + x^2*z"


def test_render_signs_and_fractions():
    r = R("uvX")
    p = r.parse("2*u^2*X - 1/3*v + 4")
    assert str(p) == "2*u^2*X - 1/3*v + 4"
    assert str(-r.var("u")) == "-u"


def test_render_over_prime_field_reduces_unreduced_coefficient():
    ring = poly_ring(GF(7), ("x",))
    assert str(Polynomial(ring, {(1,): -3})) == "4*x"


def test_parse_rejects_garbage():
    r = R("xy")
    with pytest.raises(ValueError, match="unknown variable"):
        r.parse("x + q")
    with pytest.raises(ValueError, match="bad character"):
        r.parse("x + $")
    with pytest.raises(ValueError, match="negative exponent"):
        r.parse("x^-1")
    with pytest.raises(ValueError, match="as text, got int"):
        r.parse(3)
    with pytest.raises(ValueError, match="zero denominator"):
        r.parse("x^2 + 1/0")


def _random_sum(rng, field):
    """A text of 1-4 signed products and the (sign, factors) list it spells:
    a factor is ("num", n, d) with d None for an integer, or ("var", name, k)
    with k None for a bare name; the first product may carry a sign run."""
    dens = [d for d in range(1, 10) if field.char == 0 or d % field.char]
    products = []
    text = ""
    for j in range(rng.randint(1, 4)):
        if j == 0:
            run = "".join(rng.choice("+-") for _ in range(rng.choice([0, 0, 1, 2, 3])))
            sign = -1 if run.count("-") % 2 else 1
            text += run + rng.choice(["", " "])
        else:
            sign = rng.choice([1, -1])
            text += rng.choice([" ", "", "  "]) + ("+" if sign > 0 else "-") + rng.choice([" ", ""])
        factors = []
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.35:
                n = rng.choice([0, 1, 2, 3, 5, 7, 10, 32003, rng.randint(0, 10**6)])
                factors.append(("num", n, rng.choice(dens) if rng.random() < 0.4 else None))
            else:
                name = rng.choice("xyz")  # repeats within a product are common
                factors.append(("var", name, rng.choice([None, 0, 1, 2, 3]) if rng.random() < 0.6 else None))
        if j and rng.random() < 0.3:  # the product of an earlier term again: sums and cancellations
            factors = rng.choice(products)[1]
        products.append((sign, factors))
        pieces = []
        for kind, a, b in factors:
            if kind == "num":
                pieces.append(str(a) if b is None else f"{a}/{b}")
            else:
                pieces.append(a if b is None else f"{a}^{b}")
        text += rng.choice(["*", " * ", "* "]).join(pieces)
    return rng.choice(["", " "]) + text + rng.choice(["", " "]), products


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(32003)], ids=str)
def test_parse_matches_ring_arithmetic_on_its_factor_list(field):
    rng = random.Random(2700 + (field.char or 1))
    r = R("xyz", field=field)
    for _ in range(300):
        text, products = _random_sum(rng, field)
        want = r.zero()
        for sign, factors in products:
            term = r.const(sign)
            for kind, a, b in factors:
                if kind == "num":
                    term = term * r.const(Fraction(a, b or 1))
                else:
                    term = term * r.var(a) ** (1 if b is None else b)
            want = want + term
        got = r.parse(text)
        assert got == want, text
        # the same terms, in the order the arithmetic inserts them, and types
        assert [(e, c, type(c)) for e, c in got.terms.items()] == [
            (e, c, type(c)) for e, c in want.terms.items()
        ], text


@pytest.mark.parametrize("text, field, message", [
    ("x + $", QQ, "bad character in polynomial text at ' $'"),
    ("\uff12*x^3", QQ, "bad character in polynomial text at '\uff12*x^3'"),
    ("x^\uff13", QQ, "bad character in polynomial text at '\uff13'"),
    ("2*x + \u0661", QQ, "bad character in polynomial text at ' \u0661'"),
    ("x +", QQ, "unexpected end of polynomial text"),
    ("x^", QQ, "unexpected end of polynomial text"),
    ("3/x", QQ, "expected integer denominator"),
    ("1/0", QQ, "zero denominator"),
    ("1/5", GF(5), "Fraction(1, 5) is not an element of GF(5)"),
    ("x^y", QQ, "expected integer exponent"),
    ("q^y", QQ, "expected integer exponent"),
    ("q", QQ, "unknown variable 'q'"),
    ("x^-1", QQ, "negative exponent on variable 'x'"),
    ("(x)", QQ, "unexpected token '('"),
    ("x y", QQ, "trailing token 'y'"),
    ("x - -y", QQ, "unexpected token '-'"),
    (3, QQ, "a polynomial must be given as text, got int"),
], ids=repr)
def test_parse_error_messages(text, field, message):
    with pytest.raises(ValueError) as err:
        R("xy", field=field).parse(text)
    assert str(err.value) == message


_REFERENCE_TOKEN_RE = re.compile(r"\s*(?:([0-9]+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


def _reference_tokenize(text):
    """The token-by-token scanner the one-pass scan replaced."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad character in polynomial text at {text[pos:]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return tokens


def _parse_outcome(ring, text):
    try:
        return ring.parse(text)
    except ValueError as err:
        return str(err)


def test_scan_matches_the_token_by_token_reference():
    alphabet = ["0", "1", "7", "\uff12", "\u0661", "x", "y", "q", "X", "\u00e9", "_",
                " ", "  ", "\t", "\u00a0", *"+-*/^()", "$", "."]
    rng = random.Random(4200)
    r = R("xy")
    outcomes = {"tokens": 0, "bad": 0}
    for _ in range(3000):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 10)))
        try:
            tokens = _reference_tokenize(text.strip())
        except ValueError as err:
            assert _parse_outcome(r, text) == str(err), text
            outcomes["bad"] += 1
            continue
        scan = _TOKEN_RE.findall(text.strip())
        assert [num or name or op for num, name, op, _ in scan] == tokens, text
        assert _parse_outcome(r, text) == _parse_outcome(r, " ".join(tokens)), text
        outcomes["tokens"] += 1
    assert min(outcomes.values()) > 500, outcomes


def test_parse_sign_run_and_negative_zero_exponent():
    r = R("xy")
    assert r.parse("x^-0") == r.one()
    assert r.parse("--x") == r.var("x")
    assert r.parse("+-+y") == -r.var("y")


def test_parse_runs_no_polynomial_arithmetic(monkeypatch):
    r = R("xy", field=GF(5))
    x, y = r.gens()
    want = 3 * x**2 * y - 2 * y + 4

    def refuse(*args, **kwargs):
        raise AssertionError("the reader called polynomial arithmetic")

    for name in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__"):
        monkeypatch.setattr(Polynomial, name, refuse)
    monkeypatch.setattr(PolyRing, "const", refuse)
    monkeypatch.setattr(PolyRing, "monomial", refuse)
    assert r.parse("3*x*x*y - 2*y + 9 + x^0*1/2*x*y*x - 2/4*y*x^2").terms == want.terms


@pytest.mark.parametrize("text, field, build, want", [
    ("0*x + y", QQ, lambda x, y: 0 * x + y, "y"),
    ("x + 2 - x - 2", QQ, lambda x, y: x + 2 - x - 2, "0"),
    ("7*x + y", GF(7), lambda x, y: 7 * x + y, "y"),
], ids=["zero-product", "cancelling-sum", "multiple-of-p"])
def test_parse_of_products_that_vanish_or_cancel_stores_no_zero(text, field, build, want):
    r = R("xy", field=field)
    got = r.parse(text)
    assert got == build(*r.gens())
    assert field.zero() not in got.terms.values()
    assert str(got) == want


def test_prime_field_render_round_trip():
    r = R("ab", field=GF(5))
    p = r.parse("4*a + 3")
    assert p == -r.var("a") - 2
    assert str(p) == "4*a + 3"


def test_round_trip_random():
    rng = random.Random(11)
    for field in (QQ, GF(7)):
        r = poly_ring(field, ("x", "y", "t"))
        for _ in range(120):
            terms = {}
            for _ in range(rng.randrange(0, 6)):
                e = (rng.randrange(0, 4), rng.randrange(0, 4), rng.randrange(0, 4))
                terms[e] = field.sample(rng)
            p = Polynomial(r, terms)
            assert r.parse(str(p)) == p, str(p)


# -- gradings ----------------------------------------------------------------


OMEGA_STYLE = {"x": -1, "z0": 1, "z1": 2, "z2": 4}


def omega_ring():
    return poly_ring(QQ, ("x", "z0", "z1", "z2"))


def test_degree_of_homogeneous():
    r = omega_ring()
    p = r.parse("z0^2 + x^2*z2 + z1")
    assert degree_of(p, OMEGA_STYLE) == 2


def test_degree_of_inhomogeneous_is_none():
    r = omega_ring()
    assert degree_of(r.parse("z0 + z1"), OMEGA_STYLE) is None


def test_degree_of_zero_raises():
    r = omega_ring()
    with pytest.raises(ValueError, match="degree of zero"):
        degree_of(r.zero(), OMEGA_STYLE)


def test_degree_of_missing_weight_raises():
    r = R("xy")
    with pytest.raises(ValueError, match="missing weight"):
        degree_of(r.var("x"), {"x": 1})


# -- ring maps ----------------------------------------------------------------


def test_apply_map_substitution():
    src = R("xy")
    tgt = R("uv")
    u, v = tgt.gens()
    phi = RingMap(src, tgt, {"x": u + v, "y": u - v})
    p = src.parse("x*y")
    assert phi.apply(p) == u**2 - v**2


def test_apply_map_identity_default():
    src = R("xy")
    tgt = R("xyz")
    phi = RingMap(src, tgt, {})
    assert phi.apply(src.parse("x^2 + y")) == tgt.parse("x^2 + y")


def _naive_apply(phi, p):
    """phi(p) by the naive reference: each term's image multiplied out one
    variable at a time, and the images summed.  Also returns how many
    exponents some image holds but the sum does not: the cancellations."""
    fld = phi.target.field
    out, seen = {}, set()
    for e, c in p.terms.items():
        piece = {(0,) * phi.target.nvars: c}
        for name, k in zip(p.ring.names, e):
            for _ in range(k):
                piece = _naive_mul(fld, piece, phi.image_of(name).terms)
        seen |= piece.keys()
        out = _naive_sum(fld, out, piece, fld.add)
    return out, len(seen - out.keys())


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
def test_apply_matches_naive_substitution(field):
    rng = random.Random(53)
    src, tgt = R("xyz", field=field), R("uv", field=field)
    u, v = tgt.gens()

    def rand_poly(ring, nterms):
        return Polynomial(ring, {
            tuple(rng.randrange(0, 3) for _ in ring.names): field.sample(rng)
            for _ in range(nterms)
        })

    cancelled = 0
    for _ in range(60):
        phi = RingMap(src, tgt, {"x": u + v, "y": u - v, "z": rand_poly(tgt, rng.randrange(1, 4))})
        # c*x^i*z^k - c*y^i*z^k goes to c*((u + v)^i - (u - v)^i)*z^k, in
        # which the terms of even degree in v cancel
        pairs = {(rng.randrange(1, 4), rng.randrange(0, 3)): field.sample(rng)
                 for _ in range(rng.randrange(0, 4))}
        p = Polynomial(src, {(i, 0, k): c for (i, k), c in pairs.items()}) - Polynomial(
            src, {(0, i, k): c for (i, k), c in pairs.items()}) + rand_poly(src, rng.randrange(0, 3))
        got = phi.apply(p)
        want, gone = _naive_apply(phi, p)
        assert got.terms == want, p
        assert field.zero() not in got.terms.values()
        cancelled += gone
    assert cancelled > 50  # plenty of terms cancelled between the images


# -- the Laurent isomorphism ---------------------------------------------------

LAURENT_TABLE = [(2, 3), (3, 5), (4, 9), (1, 7), (5, 6)]


def check_laurent_iso(a, b, lam, field=QQ):
    """fwd and inv are mutually inverse ring maps between the two quotients:
    each sends the other side's relation into its ideal, and both composites
    fix the generators modulo the relations."""
    fwd, inv, rel_xy, rel_zw = laurent_iso(a, b, lam, field)
    i_xy, i_zw = ideal(fwd.target, rel_xy), ideal(inv.target, rel_zw)
    assert i_xy.contains(fwd.apply(rel_zw))
    assert i_zw.contains(inv.apply(rel_xy))
    for v in fwd.source.gens():
        assert i_zw.contains(inv.apply(fwd.apply(v)) - v), (a, b, lam, field, v)
    for v in inv.source.gens():
        assert i_xy.contains(fwd.apply(inv.apply(v)) - v), (a, b, lam, field, v)


def test_laurent_iso_2_3():
    fwd, inv, rel_xy, rel_zw = laurent_iso(2, 3, 1)
    assert str(rel_xy) == "x^2*y^3 - 1" and str(rel_zw) == "z*w - 1"
    assert fwd.apply(fwd.source.var("z")) == fwd.target.parse("x*y")
    assert fwd.apply(fwd.source.var("w")) == fwd.target.parse("x*y^2")
    assert inv.apply(inv.source.var("x")) == inv.target.parse("z^3")
    assert inv.apply(inv.source.var("y")) == inv.target.parse("w^2")
    check_laurent_iso(2, 3, 1)


def test_laurent_iso_scaled_lambda():
    fwd, inv, rel_xy, rel_zw = laurent_iso(2, 3, 2)
    assert fwd.apply(fwd.source.var("w")) == fwd.target.parse("1/2*x*y^2")
    assert inv.apply(inv.source.var("x")) == inv.target.parse("1/2*z^3")
    assert inv.apply(inv.source.var("y")) == inv.target.parse("2*w^2")
    image = inv.apply(inv.source.parse("x^2*y^3"))
    assert image == inv.target.parse("2*z^6*w^6")
    assert ideal(inv.target, rel_zw).normal_form(image) == inv.target.const(2)
    check_laurent_iso(2, 3, 2)


def test_laurent_iso_1_1():
    fwd, inv, _, _ = laurent_iso(1, 1, 1)
    assert fwd.apply(fwd.source.var("z")) == fwd.target.parse("x")
    assert fwd.apply(fwd.source.var("w")) == fwd.target.parse("y")
    assert inv.apply(inv.source.parse("x")) == inv.target.parse("z")
    assert inv.apply(inv.source.parse("y")) == inv.target.parse("w")
    check_laurent_iso(1, 1, 1)


def test_laurent_iso_random_round_trip(monkeypatch):
    rng = random.Random(5)
    for field in (QQ, GF(7)):
        for a, b in LAURENT_TABLE:
            lam = rng.choice([1, 2, 3, -2])
            if (a, b) == (4, 9):
                # inv(x^4*y^9 - lam) has degree 2ab = 72, above the default cap
                with pytest.raises(CapExceeded):
                    check_laurent_iso(a, b, lam, field)
                with monkeypatch.context() as m:
                    m.setenv("UFDLAB_CAPS", "degree=128")
                    check_laurent_iso(a, b, lam, field)
            else:
                check_laurent_iso(a, b, lam, field)


def test_laurent_iso_rejects_non_coprime():
    with pytest.raises(ValueError, match="exponents not coprime"):
        laurent_iso(2, 4, 1)


# -- derivative ----------------------------------------------------------------


def test_derivative_basic():
    r = R("xy")
    assert derivative(r.parse("x^3*y + x"), "x") == r.parse("3*x^2*y + 1")
    assert derivative(r.parse("x^3*y + x"), "y") == r.parse("x^3")


def test_derivative_char_p_kills_pth_powers():
    r = R("x", field=GF(3))
    assert derivative(r.parse("x^3"), "x") == r.zero()
    assert derivative(r.parse("x^4"), "x") == r.parse("x^3")
