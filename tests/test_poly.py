"""Polynomial layer: arithmetic, gradings, maps, text round-trips."""

import random

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.poly import (
    Grading,
    Polynomial,
    RingMap,
    degree_of,
    derivative,
    laurent_iso,
    poly_ring,
)


def R(names="xyz", field=QQ, invertible=()):
    return poly_ring(field, tuple(names), invertible=invertible)


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


def test_pow_negative_unit_monomial():
    r = R("xy", invertible=("x", "y"))
    x, y = r.gens()
    u = 2 * x * y**2
    assert u**-1 * u == r.one()
    with pytest.raises(ValueError, match="non-unit"):
        (x + y) ** -1


def test_exact_div():
    r = R("xy")
    x, y = r.gens()
    prod = (x + y) * (x - y)
    assert prod.exact_div(x + y) == x - y
    with pytest.raises(ValueError, match="not exactly divisible"):
        (x**2 + y).exact_div(x + y)


def test_negative_exponent_requires_invertible():
    r = R("xy", invertible=("x",))
    assert r.monomial({"x": -2}).terms == {(-2, 0): 1}
    with pytest.raises(ValueError, match="non-invertible"):
        r.monomial({"y": -1})


def test_project_and_lift():
    big = R("xyz")
    small = big.restrict(("x", "z"))
    x, y, z = big.gens()
    p = x * z**2 + 3
    q = p.project(small)
    assert q.ring == small
    assert q.lift(big) == p
    with pytest.raises(ValueError, match="not in subring"):
        (x * y).project(small)


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


def test_render_laurent_term():
    r = R(["x", "z0"], invertible=("x",))
    p = r.parse("x^-1*z0^2 + 1")
    assert str(p) == "x^-1*z0^2 + 1"
    assert p.terms[(-1, 2)] == 1


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


def test_prime_field_render_round_trip():
    r = R("ab", field=GF(5))
    p = r.parse("4*a + 3")
    assert p == -r.var("a") - 2
    assert str(p) == "4*a + 3"


def test_round_trip_random():
    rng = random.Random(11)
    for field in (QQ, GF(7)):
        r = poly_ring(field, ("x", "y", "t"), invertible=("t",))
        for _ in range(120):
            terms = {}
            for _ in range(rng.randrange(0, 6)):
                e = (rng.randrange(0, 4), rng.randrange(0, 4), rng.randrange(-3, 4))
                terms[e] = field.sample(rng)
            p = Polynomial(r, terms)
            assert r.parse(str(p)) == p, str(p)


# -- gradings ----------------------------------------------------------------


OMEGA_STYLE = Grading({"x": -1, "z0": 1, "z1": 2, "z2": 4})


def omega_ring():
    return poly_ring(QQ, ("x", "z0", "z1", "z2"), invertible=("x",))


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
        degree_of(r.var("x"), Grading({"x": 1}))


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


def test_map_invertible_needs_unit_image():
    src = R("t", invertible=("t",))
    tgt = R("xy")
    x, y = tgt.gens()
    with pytest.raises(ValueError, match="non-invertible image"):
        RingMap(src, tgt, {"t": x + y})


def test_map_negative_power_through_unit():
    src = R("t", invertible=("t",))
    tgt = R("xy", invertible=("x", "y"))
    phi = RingMap(src, tgt, {"t": tgt.parse("x*y^2")})
    img = phi.apply(src.monomial({"t": -3}))
    assert img == tgt.monomial({"x": -3, "y": -6})


# -- the Laurent isomorphism ---------------------------------------------------


def test_laurent_iso_2_3():
    fwd, inv = laurent_iso(2, 3, 1)
    z = fwd.source.var("z")
    xy = fwd.apply(z)
    assert xy == fwd.target.parse("x*y")
    assert inv.apply(inv.source.parse("x")) == inv.target.parse("z^3")
    assert inv.apply(inv.source.parse("y")) == inv.target.parse("z^-2")
    assert inv.apply(fwd.apply(z**5 + z**-1)) == z**5 + z**-1


def test_laurent_iso_scaled_lambda():
    fwd, inv = laurent_iso(2, 3, 2)
    assert inv.apply(inv.source.parse("x")) == inv.target.parse("1/2*z^3")
    assert inv.apply(inv.source.parse("y")) == inv.target.parse("2*z^-2")
    rel = inv.source.parse("x^2*y^3")
    assert inv.apply(rel) == inv.target.const(2)
    z = fwd.source.var("z")
    assert inv.apply(fwd.apply(z)) == z


def test_laurent_iso_1_1():
    fwd, inv = laurent_iso(1, 1, 1)
    z = fwd.source.var("z")
    assert fwd.apply(z) == fwd.target.parse("x")
    assert inv.apply(inv.source.parse("x")) == z
    assert inv.apply(inv.source.parse("y")) == inv.target.parse("z^-1")


def test_laurent_iso_random_round_trip():
    rng = random.Random(5)
    pairs = [(2, 3), (3, 5), (4, 9), (1, 7), (5, 6)]
    for a, b in pairs:
        lam = rng.choice([1, 2, 3, -2])
        fwd, inv = laurent_iso(a, b, lam)
        z = fwd.source.var("z")
        for k in range(-4, 5):
            p = z**k + 3 * z ** (k + 2)
            assert inv.apply(fwd.apply(p)) == p
        assert inv.apply(inv.source.parse("x") ** a * inv.source.parse("y") ** b) == inv.target.const(lam)


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
