"""Tests for the hypersurface-chain order certificates.

Independent oracle for the expansions: solve the defining relations
numerically.  Give x, y and the two deepest z-variables random values in a
prime field, recover every shallower z_j from z_j = x*z_(j+2) +
y^(s(j+2)-1) * z_(j+1)^s(j+2), and compare the expansion's value against
the recovered value of z_0 itself.
"""

import random
import warnings

import pytest

from ufdlab import counterexample
from ufdlab.coeff import GF, QQ
from ufdlab.counterexample import (
    OrderCert,
    check_expansion_identity,
    coordinate_checks,
    expand_z0,
    expand_z0_bprime,
    m_order_certificate,
    min_xy_degree,
    s_sequence,
    x_order_certificate_bprime,
)
from ufdlab.errors import CapExceeded
from ufdlab.groebner import divide
from ufdlab.poly import Polynomial, poly_ring

# ---------------------------------------------------------------------------
# the exponent sequence
# ---------------------------------------------------------------------------


def test_s_sequence_values():
    assert tuple(s_sequence(5).values()) == (2, 3, 6, 24, 180)
    assert s_sequence(6)[6] == 5184
    assert tuple(s_sequence(1).values()) == (2,)
    assert tuple(s_sequence(2).values()) == (2, 3)


def test_s_sequence_recursion():
    s = s_sequence(8)
    for n in range(3, 9):
        prod = 1
        for i in range(1, n - 1):
            prod *= s[i]
        assert s[n] == n * prod


def test_s_sequence_rejects_zero():
    with pytest.raises(ValueError):
        s_sequence(0)


def test_s_sequence_length_cap():
    assert len(s_sequence(20)) == 20
    with pytest.raises(CapExceeded, match="^instance too large: s_sequence reached length 21, "
                                          "over the length cap of 20$"):
        s_sequence(21)


# ---------------------------------------------------------------------------
# exact expansions
# ---------------------------------------------------------------------------


def test_expand_depth_zero():
    p = expand_z0(0)
    assert p == p.ring.var("z0")


def test_expand_depth_one():
    p = expand_z0(1)
    assert p == p.ring.parse("x*z2 + y^2*z1^3")


def test_expand_depth_two_pinned():
    p = expand_z0(2)
    expected = p.ring.parse(
        "x^2*z4 + x*y^23*z3^24 + x^3*y^2*z3^3"
        " + 3*x^2*y^7*z3^2*z2^6 + 3*x*y^12*z3*z2^12 + y^17*z2^18"
    )
    assert p == expected
    assert p.term_count() == 6


def test_expand_depth_three_runs():
    p = expand_z0(3)
    assert p.support() <= {"x", "y", "z3", "z4", "z5", "z6"}
    assert min_xy_degree(p) == 3
    assert p.term_count() < 200


def test_expand_depth_cap():
    with pytest.raises(CapExceeded, match="^instance too large: expand_z0 reached depth 4, "
                                          "over the depth cap of 3$"):
        expand_z0(4)
    with pytest.raises(ValueError):
        expand_z0(-1)


def _backsolve_point(field, rng, depth):
    """Random model point: free values at the deep end, relations solved downward."""
    s = s_sequence(max(2 * depth, 2))
    xv = field.of(rng.randrange(field.char))
    yv = field.of(rng.randrange(field.char))
    zvals = {2 * depth: field.of(rng.randrange(field.char))}
    if depth > 0:
        zvals[2 * depth - 1] = field.of(rng.randrange(field.char))
    for j in range(2 * depth - 2, -1, -1):
        sv = s[j + 2]
        zvals[j] = field.add(
            field.mul(xv, zvals[j + 2]),
            field.mul(field.pow(yv, sv - 1), field.pow(zvals[j + 1], sv)),
        )
    return xv, yv, zvals


def _eval_poly(p, assignment):
    field = p.ring.field
    total = field.zero()
    for exp, coeff in p.terms.items():
        val = coeff
        for name, k in zip(p.ring.names, exp):
            if k:
                val = field.mul(val, field.pow(assignment[name], k))
        total = field.add(total, val)
    return total


@pytest.mark.parametrize("depth", [1, 2])
def test_expand_agrees_with_backsolved_points(depth):
    field = GF(10007)
    rng = random.Random(61)
    with pytest.warns(UserWarning, match="characteristic zero"):
        p = expand_z0(depth, field)
    for _ in range(8):
        xv, yv, zvals = _backsolve_point(field, rng, depth)
        assignment = {"x": xv, "y": yv}
        assignment.update({f"z{i}": v for i, v in zvals.items()})
        assert _eval_poly(p, assignment) == zvals[0]


def test_expansion_identity_certificates():
    assert check_expansion_identity(0)
    assert check_expansion_identity(1)
    assert check_expansion_identity(2)
    with pytest.raises(CapExceeded, match="^instance too large: check_expansion_identity "
                                          "reached depth 3, over the depth cap of 2$"):
        check_expansion_identity(3)


def test_expansion_identity_rejects_a_wrong_expansion(monkeypatch):
    expand = counterexample._expand

    def off_by_x(depth, field):
        p = expand(depth, field)
        return p + p.ring.var("x")

    monkeypatch.setattr(counterexample, "_expand", off_by_x)
    assert not check_expansion_identity(2)


def _substitute(p, name, image):
    """p with the variable `name` replaced by `image`, term by term."""
    ring = p.ring
    i = ring.names.index(name)
    powers = {0: ring.one()}
    out = ring.zero()
    for exp, c in p.terms.items():
        k = exp[i]
        if k not in powers:
            powers[k] = image**k
        out = out + Polynomial(ring, {exp[:i] + (0,) + exp[i + 1 :]: c}) * powers[k]
    return out


@pytest.mark.parametrize("field", [QQ, GF(10007)], ids=str)
@pytest.mark.parametrize("t", ["y", "T"])
@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_round_substitution_matches_one_variable_at_a_time(depth, t, field):
    # the rounds of `_expand` in (x, y, z...), and the public y = x*T
    # expansion, against single substitutions written out in (x, t, z...)
    s = s_sequence(max(2 * depth, 2))
    ring = poly_ring(field, ("x", t) + tuple(f"z{i}" for i in range(2 * depth + 1)))
    p = ring.var("z0")
    for r in range(1, depth + 1):
        for j in range(2 * r - 2, r - 2, -1):
            sv = s[j + 2]
            coeff = f"x^{sv - 1}*T^{sv - 1}" if t == "T" else f"y^{sv - 1}"
            p = _substitute(p, f"z{j}", ring.parse(f"x*z{j + 2} + {coeff}*z{j + 1}^{sv}"))
    if t == "y":
        assert counterexample._expand(depth, field) == p
        return
    keep = ("x", "T") + tuple(f"z{i}" for i in range(depth, 2 * depth + 1))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # the positive-characteristic one
        assert expand_z0_bprime(depth, field) == p.lift(poly_ring(field, keep))


def test_min_xy_degree_shadow():
    # exact shadow of z0 lying in (x, y)^n
    assert min_xy_degree(expand_z0(1)) == 1
    assert min_xy_degree(expand_z0(2)) == 2
    with pytest.raises(ValueError):
        min_xy_degree(expand_z0(1).ring.zero())


# ---------------------------------------------------------------------------
# the x-adic expansion after y = x*T
# ---------------------------------------------------------------------------


def test_bprime_depth_one_pinned():
    p = expand_z0_bprime(1)
    assert p == p.ring.parse("x*z2 + x^2*T^2*z1^3")
    rest, (q,) = divide(p, [p.ring.var("x")])
    assert not rest
    assert q == p.ring.parse("z2 + x*T^2*z1^3")


def test_bprime_depth_two_divisible(monkeypatch):
    p = expand_z0_bprime(2)
    x = p.ring.var("x")
    # p has total degree 71, past the default cap that `divide` checks
    assert p.total_degree() == 71
    monkeypatch.setenv("UFDLAB_CAPS", "degree=71")
    rest, (q,) = divide(p, [x**2])
    assert not rest and q * x**2 == p
    assert divide(p, [x**3])[0]


@pytest.mark.parametrize("depth", [1, 2, 3])
def test_bprime_x_power_is_the_min_xy_degree(depth):
    # y = x*T sends x^a*y^b to x^(a+b)*T^b, so the largest power of x that
    # divides the chart expansion is the least combined (x, y)-degree
    p = expand_z0_bprime(depth)
    x = p.ring.index("x")
    assert min(e[x] for e in p.terms) == min_xy_degree(expand_z0(depth))


def test_bprime_depth_cap():
    with pytest.raises(CapExceeded, match="^instance too large: expand_z0_bprime reached "
                                          "depth 4, over the depth cap of 3$"):
        expand_z0_bprime(4)


# ---------------------------------------------------------------------------
# abstract order certificates
# ---------------------------------------------------------------------------


def test_m_order_certificate_accepted_up_to_ten():
    for n in range(11):
        cert = m_order_certificate(n)
        assert cert.accepted
        assert cert.order == n
        assert all(inc == 1 for _, _, inc in cert.log)
        assert all(order == n for _, order in cert.final_state)
        assert [i for i, _ in cert.final_state] == list(range(n, 2 * n + 1))


def test_order_certificate_log_shape():
    cert = m_order_certificate(10)
    assert len(cert.log) == 55  # round r rewrites r states
    assert cert.final_state == tuple((i, 10) for i in range(10, 21))


def test_order_certificate_trivial_and_caps():
    cert = m_order_certificate(0)
    assert cert.accepted and cert.log == ()
    with pytest.raises(CapExceeded, match="^instance too large: order_certificate reached "
                                          "order 33, over the order cap of 32$"):
        m_order_certificate(33)
    with pytest.raises(ValueError):
        m_order_certificate(-1)
    assert m_order_certificate(32).accepted


def test_x_order_certificate():
    cert = x_order_certificate_bprime(10)
    assert cert.accepted
    assert "x-adic" in cert.ideal
    assert m_order_certificate(10).ideal != cert.ideal


def test_order_cert_rejects_bad_increment():
    with pytest.raises(ValueError, match="increments"):
        OrderCert("z0", "test", 1, ((1, 0, 0),), ((1, 1),), True)


# ---------------------------------------------------------------------------
# coordinate checks
# ---------------------------------------------------------------------------


def test_coordinate_checks_vacuous():
    assert coordinate_checks(0) == {
        "composite_linearizes": True,
        "mod_x_matches": True,
        "mod_y_matches": True,
    }


@pytest.mark.parametrize("n", [1, 2, 3])
def test_coordinate_checks_verify(n):
    result = coordinate_checks(n)
    assert result == {
        "composite_linearizes": True,
        "mod_x_matches": True,
        "mod_y_matches": True,
    }


def test_coordinate_checks_caps():
    with pytest.raises(CapExceeded, match="^instance too large: coordinate_checks reached "
                                          "relations 4, over the relations cap of 3$"):
        coordinate_checks(4)
    with pytest.raises(ValueError):
        coordinate_checks(-1)


def test_positive_characteristic_warns():
    with pytest.warns(UserWarning, match="characteristic zero"):
        coordinate_checks(1, GF(5))
