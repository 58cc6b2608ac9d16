"""Tests for the graded rewriting system.

The independent oracle used throughout: the defining relations solve for
z_(i+1) in terms of z_(i-1), z_i once x is given a nonzero value, so any
choice of (x, z0, z1) in a finite field extends to a point where every
relation vanishes.  Evaluating at such points is a ring homomorphism, so a
correct normal form must agree with its input at every one of them.
"""

import math
import random
from fractions import Fraction

import pytest

from ufdlab.caps import DEFAULT_DEGREE_CAP, Caps, current_caps
from ufdlab.coeff import GF, QQ
from ufdlab.errors import CapExceeded
from ufdlab.omega import (
    BasisExpansion,
    OmegaPoly,
    defining_relation,
    expansion_poly,
    expansion_text,
    in_x_omega,
    normal_form,
    omega_ring,
    parse_omega,
)
from ufdlab.poly import Polynomial, degree_of, poly_ring

# ---------------------------------------------------------------------------
# the evaluation oracle
# ---------------------------------------------------------------------------


def _model_point(field, rng, depth):
    """A point (x, z0, z1, ..., z_depth) where every defining relation vanishes."""
    xi = field.of(rng.randint(1, field.char - 1))
    zs = [field.of(rng.randrange(field.char)), field.of(rng.randrange(field.char))]
    for i in range(1, depth):
        num = field.add(field.mul(zs[i - 1], zs[i - 1]), zs[i])
        zs.append(field.div(field.neg(num), field.pow(xi, 1 << i)))
    return xi, zs


def _monomials(p):
    """(r, e, coeff) per term of p, for x^r times the z-part e, a sorted
    ((index, exp >= 1), ...), read off the exponent tuples."""
    for exp, coeff in p.poly.terms.items():
        yield exp[0], tuple((i, k) for i, k in enumerate(exp[1:]) if k), coeff


def _eval(p, xi, zs):
    field = p.field
    total = field.zero()
    for r, e, coeff in _monomials(p):
        val = field.mul(coeff, field.pow(xi, r))
        for i, exp in e:
            val = field.mul(val, field.pow(zs[i], exp))
        total = field.add(total, val)
    return total


def _random_poly(field, rng, nterms, max_size, max_index):
    terms = {}
    for _ in range(nterms):
        exp = [0] * (max_index + 2)
        budget = rng.randint(0, max_size)
        while budget > 0:
            i = rng.randint(0, max_index)
            take = rng.randint(1, budget)
            exp[i + 1] += take
            budget -= take
        exp[0] = rng.randint(0, 4)
        c = rng.randint(1, field.char - 1) if field.char else rng.randint(-5, 5) or 1
        terms[tuple(exp)] = field.of(c)
    return OmegaPoly(Polynomial(omega_ring(field, max_index), terms))


def _depth(*ps):
    return 1 + max((i for p in ps for _, e, _ in _monomials(p) for i, _ in e), default=1)


def test_normal_form_agrees_with_evaluation():
    field = GF(10007)
    rng = random.Random(41)
    for _ in range(30):
        p = _random_poly(field, rng, nterms=3, max_size=5, max_index=3)
        q = expansion_poly(normal_form(p), field)
        depth = _depth(p, q)
        for _ in range(5):
            xi, zs = _model_point(field, rng, depth)
            assert _eval(p, xi, zs) == _eval(q, xi, zs)


def test_normal_form_agrees_with_evaluation_char_2():
    field = GF(2)
    rng = random.Random(43)
    for _ in range(20):
        p = _random_poly(field, rng, nterms=2, max_size=4, max_index=2)
        q = expansion_poly(normal_form(p), field)
        depth = _depth(p, q)
        for _ in range(4):
            xi, zs = _model_point(field, rng, depth)
            assert _eval(p, xi, zs) == _eval(q, xi, zs)


@pytest.mark.parametrize("field, seed", [(GF(10007), 47), (GF(2), 59)])
def test_arithmetic_agrees_with_evaluation(field, seed):
    rng = random.Random(seed)
    for _ in range(25):
        # separate index ranges, so the operands' largest z-indices differ
        p = _random_poly(field, rng, nterms=3, max_size=3, max_index=rng.randint(0, 5))
        q = _random_poly(field, rng, nterms=3, max_size=3, max_index=rng.randint(0, 5))
        c = rng.randrange(field.char)
        xi, zs = _model_point(field, rng, 6)
        pv, qv = _eval(p, xi, zs), _eval(q, xi, zs)
        assert _eval(p + q, xi, zs) == field.add(pv, qv)
        assert _eval(p - q, xi, zs) == field.sub(pv, qv)
        assert _eval(-p, xi, zs) == field.neg(pv)
        assert _eval(p * q, xi, zs) == field.mul(pv, qv)
        assert _eval(OmegaPoly(p.poly * c), xi, zs) == field.mul(pv, field.of(c))
        for n in range(4):
            assert _eval(p**n, xi, zs) == field.pow(pv, n)


def test_arithmetic_across_bridge_widths():
    z0, z5 = OmegaPoly.z(0), OmegaPoly.z(5)
    assert z0 * z5 == parse_omega("z0*z5")
    assert (z5 + z0) - z5 == z0
    assert ((z5 + z0) - z5).poly.ring == omega_ring(QQ, 5)
    assert OmegaPoly.zero() ** 0 == parse_omega("1")
    with pytest.raises(ValueError, match="negative power"):
        z0 ** -1


def test_mixed_fields_raise_in_either_order():
    over_gf5 = OmegaPoly(OmegaPoly.z(0, GF(5)).poly * 3)
    over_q = OmegaPoly(OmegaPoly.z(0).poly * 4)
    with pytest.raises(ValueError, match="different"):
        over_gf5 + over_q
    with pytest.raises(ValueError, match="different"):
        over_q + over_gf5
    with pytest.raises(ValueError, match="different"):
        OmegaPoly.z(3) * OmegaPoly.z(0, GF(5))
    assert over_gf5 != OmegaPoly(OmegaPoly.z(0).poly * 3)


# ---------------------------------------------------------------------------
# the basis
# ---------------------------------------------------------------------------


def _degree(p):
    """The degree of a homogeneous p: deg x = -1, deg z_i = 2^i."""
    names = p.poly.ring.names
    return degree_of(p.poly, {n: -1 if n == "x" else 1 << int(n[1:]) for n in names})


def _basis_element(m, n):
    return expansion_poly({n - m: BasisExpansion(n - m, ((m, n, QQ.one()),))})


def test_basis_monomial_coordinates():
    p = _basis_element(3, 5)
    assert p == parse_omega("x^3*z0*z2")
    assert _degree(p) == 2


def test_expansion_poly_basis_elements_are_squarefree_of_degree_n_minus_m():
    seen = []
    for n in range(64):
        for m in (0, 1, 5):
            p = _basis_element(m, n)
            assert _degree(p) == n - m
            ((r, e, coeff),) = _monomials(p)
            assert r == m and coeff == 1
            assert all(k == 1 for _, k in e)
            assert sum(1 << i for i, _ in e) == n
            assert p not in seen
            seen.append(p)


def test_basis_expansion_invariants():
    BasisExpansion(2, ((0, 2, 1), (2, 4, -1)))
    with pytest.raises(ValueError, match="degree"):
        BasisExpansion(2, ((0, 3, 1),))
    with pytest.raises(ValueError, match="strictly increasing"):
        BasisExpansion(2, ((2, 4, 1), (0, 2, 1)))
    with pytest.raises(ValueError, match="negative"):
        BasisExpansion(-2, ((-1, -3, 1),))


# ---------------------------------------------------------------------------
# normal forms
# ---------------------------------------------------------------------------


def test_normal_form_z0_squared():
    nf = normal_form(OmegaPoly.z(0) ** 2)
    assert set(nf) == {2}
    assert nf[2].entries == ((0, 2, QQ.of(-1)), (2, 4, QQ.of(-1)))
    assert expansion_poly(nf) == parse_omega("-z1 - x^2*z2")


def test_normal_form_pure_x_power():
    nf = normal_form(OmegaPoly.x(power=3))
    assert set(nf) == {-3}
    assert nf[-3].entries == ((3, 0, QQ.of(1)),)


def test_normal_form_lemma_instance():
    nf = normal_form(OmegaPoly.z(1) + OmegaPoly.z(0) ** 2)
    assert set(nf) == {2}
    assert nf[2].entries == ((2, 4, QQ.of(-1)),)


def test_normal_form_of_zero_and_of_relations():
    assert normal_form(OmegaPoly.zero()) == {}
    for m in range(5):
        assert normal_form(defining_relation(m)) == {}
        assert normal_form(defining_relation(m, GF(5))) == {}


def test_normal_form_is_idempotent():
    rng = random.Random(7)
    for _ in range(20):
        p = _random_poly(GF(101), rng, nterms=3, max_size=5, max_index=3)
        q = expansion_poly(normal_form(p), GF(101))
        assert expansion_poly(normal_form(q), GF(101)) == q


def test_degree_preservation_random_monomials():
    rng = random.Random(13)
    for _ in range(100):
        p = _random_poly(GF(9973), rng, nterms=1, max_size=6, max_index=4)
        if not p:
            continue
        degree = _degree(p)
        nf = normal_form(p)
        assert set(nf) <= {degree}


def test_confluence_both_pivots():
    rng = random.Random(29)
    for _ in range(100):
        p = _random_poly(GF(9973), rng, nterms=1, max_size=6, max_index=4)
        left = normal_form(p, pivot="largest")
        right = normal_form(p, pivot="smallest")
        assert left == right
        assert expansion_text(left) == expansion_text(right)


def test_pivots_take_different_steps(monkeypatch):
    # the confluence check compares two routes only if the pivots differ.
    # z0^2 z1^2 rewrites to -(z1^3 + x^2 z1^2 z2) at z0 and to
    # -(z0^2 z2 + x^4 z0^2 z3) at z1.  Adding one route's children back
    # gives 0, which that route reaches in its first rewrite.  A z-index
    # cap lowered to 2 forbids a rewrite at z1, so under it the route that
    # starts at z1 raises, and the route at z0 must finish in that one
    # rewrite: any other children would leave a term to rewrite at z1.
    p = parse_omega("z0^2*z1^2")
    at_z0 = p + parse_omega("z1^3 + x^2*z1^2*z2")
    at_z1 = p + parse_omega("z0^2*z2 + x^4*z0^2*z3")
    monkeypatch.setattr("ufdlab.omega.Z_INDEX_CAP", 2)
    assert normal_form(at_z0, "smallest") == {}
    with pytest.raises(CapExceeded, match="^instance too large: normal_form reached z-index 3, "
                                          "over the z-index cap of 2$"):
        normal_form(at_z0, "largest")
    monkeypatch.setattr("ufdlab.omega.Z_INDEX_CAP", 3)
    assert normal_form(at_z1, "largest") == {}
    monkeypatch.undo()
    # a squarefree term takes no step: it is its own normal form
    assert normal_form(parse_omega("x*z0*z1*z3")) == {10: BasisExpansion(10, ((1, 11, 1),))}
    assert normal_form(p, "largest") == normal_form(p, "smallest")


# The monomial-at-a-time rewrite that normal_form replaced: every round
# expands each non-squarefree monomial once, in sorted order.  An independent
# route to the same unique normal form.


def _reference_expand_once(mono, coeff, field, pivot):
    r, mono_e = mono
    eligible = [i for i, exp in mono_e if exp >= 2]
    m = max(eligible) if pivot == "largest" else min(eligible)
    e = dict(mono_e)
    a, b = divmod(e.pop(m), 2)
    if b:
        e[m] = b
    sign = field.pow(field.of(-1), a)
    out = []
    for j in range(a + 1):
        c = field.mul(coeff, field.mul(sign, field.of(math.comb(a, j))))
        if c == field.zero():
            continue
        new_e = dict(e)
        if a - j:
            new_e[m + 1] = new_e.get(m + 1, 0) + (a - j)
        if j:
            new_e[m + 2] = new_e.get(m + 2, 0) + j
        out.append(((r + j * (1 << (m + 1)), tuple(sorted(new_e.items()))), c))
    return out


def _reference_normal_form(p, pivot):
    field, zero = p.field, p.field.zero()
    work = {(r, e): coeff for r, e, coeff in _monomials(p)}
    while True:
        pending = sorted(m for m in work if not all(k == 1 for _, k in m[1]))
        if not pending:
            break
        for mono in pending:
            coeff = work.pop(mono, zero)
            if coeff == zero:
                continue
            for new_mono, c in _reference_expand_once(mono, coeff, field, pivot):
                total = field.add(work.get(new_mono, zero), c)
                if total == zero:
                    work.pop(new_mono, None)
                else:
                    work[new_mono] = total
    by_degree = {}
    for (r, e), coeff in work.items():
        n = sum(1 << i for i, _ in e)
        by_degree.setdefault(n - r, []).append((r, n, coeff))
    return {
        d: BasisExpansion(d, tuple(sorted(entries, key=lambda t: t[0])))
        for d, entries in sorted(by_degree.items())
    }


@pytest.mark.parametrize("field, seed", [(QQ, 61), (GF(2), 67), (GF(3), 71)])
def test_normal_form_matches_monomial_rewrite_reference(field, seed):
    rng = random.Random(seed)
    x, z0, z1 = OmegaPoly.x(field), OmegaPoly.z(0, field), OmegaPoly.z(1, field)
    one = OmegaPoly.x(field, power=0)
    cases = [
        # one z-part under several x-powers
        (one + x + x**2 + x**3) * z0**3 * z1**4,
        # relations times anything vanish: every term cancels on the way
        defining_relation(0, field) * z0**3 * z1,
        defining_relation(1, field) * (z0**2 + x * z1**3),
    ]
    while len(cases) < 40:
        a = _random_poly(field, rng, nterms=2, max_size=4, max_index=3)
        b = _random_poly(field, rng, nterms=2, max_size=5, max_index=3)
        cases.append(a * b)
    # a z-exponent's field is as wide as the top z-size in bits; these
    # sizes cross every change of bit length up to 17
    for s in (1, 2, 3, 4, 7, 8, 15, 16, 17):
        cases += [parse_omega(t, field) for t in (f"z0^{s}", f"z2^{s}", f"x^3*z1^{s}*z3")]
    # final terms with z-indices past the first eight fields, which the
    # basis index decodes in a later chunk of eight
    cases += [parse_omega(t, field)
              for t in ("x*z7*z8*z9*z15*z16", "z6^5*z9", "z12^3*z3^2 + x^2*z8^4")]
    if field == QQ:
        # the random cases hold only ints, which normal_form adds and
        # multiplies as ints; these hold a Fraction, so they keep the
        # field's methods.  A 1/3 beside int coefficients; halves that sum
        # to the int 1 at z1^2, which 1/2 z0^4 and -1/2 z0^2 z1 both reach
        # and which is then rewritten again; a relation times a fraction,
        # whose every term cancels
        fractional = [
            z0**5 * z1 + OmegaPoly((x * z1**3 * z0**2).poly * Fraction(1, 3)),
            OmegaPoly((z0**4 - z0**2 * z1).poly * Fraction(1, 2)),
            OmegaPoly((defining_relation(0, field) * (z0**3 + x * z1**2)).poly
                      * Fraction(-2, 3)),
        ]
        for _ in range(10):
            ab = (_random_poly(field, rng, nterms=2, max_size=4, max_index=3)
                  * _random_poly(field, rng, nterms=2, max_size=5, max_index=3))
            # 1/d with d past every coefficient leaves no coefficient integral
            d = 1 + max(map(abs, ab.poly.terms.values()))
            fractional.append(OmegaPoly(ab.poly * Fraction(1, d)))
        assert all(any(type(c) is Fraction for c in p.poly.terms.values()) for p in fractional)
        cases += fractional
    nonzero = 0
    for p in cases:
        for pivot in ("largest", "smallest"):
            want = expansion_text(_reference_normal_form(p, pivot))
            got = normal_form(p, pivot)
            assert expansion_text(got) == want, (str(p), pivot)
            # an integral element of Q is an int, never a Fraction
            assert all(type(c) is int or c.denominator > 1
                       for e in got.values() for _, _, c in e.entries), (str(p), pivot)
            nonzero += want != "0"
    assert nonzero > 40


@pytest.mark.parametrize("field", [QQ, GF(3)], ids=str)
@pytest.mark.parametrize("text", ["z0^132 + z1^3", "z4^132*z5^3"])
def test_move_table_keeps_each_pivot_and_half_exponent_apart(monkeypatch, field, text):
    # z_k^132 is rewritten with a = 66 at k and its children z_(k+1)^3 with
    # a = 1 at k + 1, two moves that a table keyed by k * 65 + a would mix
    # up; so would one keyed by the lowest set bit of the masked pattern,
    # which z_(k+1)^66 and z_(k+1)^3 share
    monkeypatch.setenv("UFDLAB_CAPS", "degree=200,terms=200000")
    p = parse_omega(text, field)
    got = normal_form(p, "smallest")
    want = _reference_normal_form(p, "smallest")
    assert expansion_text(got) == expansion_text(want)
    if field.char:
        assert normal_form(p, "largest") == got


@pytest.mark.parametrize("t", range(1, 6))
def test_packing_reaches_the_top_z_field(t):
    # the potential of z0^(2^t) is 2^t, so its reach is z_(2t), and the
    # rewrite z0^(2^t) -> ... -> x^m z_(2t) gets there: the top z-field is
    # used, with the x-exponent right above it.  x^3 z1^(2^t) reaches
    # z_(2t+1), one under its bound, and starts with an x-exponent.
    for text, top in ((f"z0^{1 << t}", 2 * t), (f"x^3*z1^{1 << t}", 2 * t + 1)):
        p = parse_omega(text)
        for pivot in ("largest", "smallest"):
            got = normal_form(p, pivot)
            assert expansion_text(got) == expansion_text(_reference_normal_form(p, pivot))
            assert max(n for e in got.values() for _, n, _ in e.entries).bit_length() == top + 1


def test_shared_move_table_keeps_fields_apart():
    # one move for z0^4 and z1^4 built over Q, then met over GF(2), where
    # C(2, 1) vanishes, and over Q again
    text = "z0^4*z1^4 + x*z1^6 - z0^5*z2^2"
    for field in (QQ, GF(2), QQ):
        p = parse_omega(text, field)
        for pivot in ("largest", "smallest"):
            want = expansion_text(_reference_normal_form(p, pivot))
            assert expansion_text(normal_form(p, pivot)) == want, (field, pivot)


def test_normal_form_rejects_unknown_pivot():
    with pytest.raises(ValueError, match="pivot"):
        normal_form(OmegaPoly.z(0), pivot="median")


def test_linearity():
    rng = random.Random(31)
    for _ in range(20):
        p = _random_poly(GF(101), rng, nterms=2, max_size=4, max_index=3)
        q = _random_poly(GF(101), rng, nterms=2, max_size=4, max_index=3)
        lhs = expansion_poly(normal_form(p + q), GF(101))
        rhs = expansion_poly(normal_form(p), GF(101)) + expansion_poly(
            normal_form(q), GF(101)
        )
        assert lhs == rhs


# ---------------------------------------------------------------------------
# x-divisibility
# ---------------------------------------------------------------------------


def test_in_x_omega_lemma_instances():
    for i in range(5):
        assert not in_x_omega(OmegaPoly.z(i))
    for i in (1, 2, 3):
        assert in_x_omega(OmegaPoly.z(i) + OmegaPoly.z(0) ** (1 << i))


def test_in_x_omega_explicit_factor():
    rng = random.Random(37)
    for _ in range(10):
        p = _random_poly(GF(101), rng, nterms=2, max_size=4, max_index=3)
        assert in_x_omega(OmegaPoly.x(GF(101)) * p)


# ---------------------------------------------------------------------------
# caps
# ---------------------------------------------------------------------------


def test_z_index_cap():
    assert OmegaPoly.z(64).poly.ring == omega_ring(QQ, 64)
    in_ring = "^instance too large: omega_ring reached z-index 65, over the z-index cap of 64$"
    with pytest.raises(CapExceeded, match=in_ring):
        OmegaPoly.z(65)
    with pytest.raises(CapExceeded, match=in_ring):
        parse_omega("z65")
    # rewriting z_63^2 would introduce z_65
    with pytest.raises(CapExceeded, match="^instance too large: normal_form reached z-index 65, "
                                          "over the z-index cap of 64$"):
        normal_form(parse_omega("z63^2"))


def test_z_index_cap_under_an_x_power():
    # the pivot z_63 is below the cap; its rewrite would reach z_65
    with pytest.raises(CapExceeded, match="^instance too large: normal_form reached z-index 65, "
                                          "over the z-index cap of 64$"):
        normal_form(parse_omega("x^5*z63^2"))


def test_degree_cap_bounds_the_input_z_size(monkeypatch):
    # the buckets and the first move grow with the top z-size, so it is
    # checked before either exists; x-exponents do not count
    p = parse_omega("z0^200", GF(2))
    with pytest.raises(CapExceeded, match="^instance too large: normal_form reached degree 200, "
                                          "over the degree cap of 64$"):
        normal_form(p)
    at_cap = parse_omega("x^100*z0^64")
    assert expansion_text(normal_form(at_cap)) == expansion_text(
        _reference_normal_form(at_cap, "largest"))
    monkeypatch.setenv("UFDLAB_CAPS", "degree=200")
    got = normal_form(p)
    assert expansion_text(got) == expansion_text(_reference_normal_form(p, "largest"))


def test_terms_cap(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    assert current_caps().terms == 3
    with pytest.raises(CapExceeded, match="^instance too large: normal_form reached terms 4, "
                                          "over the terms cap of 3$"):
        normal_form(parse_omega("z0^4*z1^4"))


def test_lowered_z_index_cap_holds_after_the_moves_were_built(monkeypatch):
    # every move of z0^2*z1^2 is built under the default cap first
    p = parse_omega("z0^2*z1^2")
    want = normal_form(p, "largest")
    assert normal_form(p, "smallest") == want
    monkeypatch.setattr("ufdlab.omega.Z_INDEX_CAP", 2)
    with pytest.raises(CapExceeded, match="^instance too large: normal_form reached z-index 3, "
                                          "over the z-index cap of 2$"):
        normal_form(p, "largest")
    monkeypatch.undo()
    assert normal_form(p, "largest") == want


# (field, input, pivot, peak): the largest live-term count a normal form
# passes through, as measured on the rewrite that counted every step
_PEAKS = [
    (QQ, "z0^6*z1^6*z2^6", "largest", 175),
    (QQ, "z0^6*z1^6*z2^6", "smallest", 103),
    (QQ, "z2^9*z3^5 + x*z0^7*z1^6", "largest", 88),
    (QQ, "z2^9*z3^5 + x*z0^7*z1^6", "smallest", 71),
    (GF(3), "z0^16", "largest", 39),
    (GF(3), "z0^16", "smallest", 34),
    (GF(2), "x*z0^10*z3^3 - z1^12", "largest", 24),
    (GF(2), "x*z0^10*z3^3 - z1^12", "smallest", 21),
    # no slack: each rewrite below makes all a + 1 children and none merge,
    # so the bound before the peak's bucket is the peak itself, and a count
    # that falls one short per rewrite misses the cap
    *[(field, text, pivot, peak)
      for field, text, peak in ((QQ, "z0^2*z3^2", 4), (QQ, "z1^2*z4^2*z7^2", 8),
                                (QQ, "z0^4*z5^4", 16),
                                (GF(3), " + ".join(f"x^{100 * r}*z0^2*z3^2" for r in range(5)), 20))
      for pivot in ("largest", "smallest")],
]


@pytest.mark.parametrize("field, text, pivot, peak", _PEAKS)
def test_terms_cap_at_the_peak(monkeypatch, field, text, pivot, peak):
    # the cap is counted exactly only near the limit, so a limit one under
    # the peak must still be hit, naming the peak, and the peak must pass
    p = parse_omega(text, field)
    want = normal_form(p, pivot)
    monkeypatch.setenv("UFDLAB_CAPS", f"terms={peak - 1}")
    with pytest.raises(CapExceeded, match=f"^instance too large: normal_form reached terms "
                                          f"{peak}, over the terms cap of {peak - 1}$"):
        normal_form(p, pivot)
    monkeypatch.setenv("UFDLAB_CAPS", f"terms={peak}")
    assert normal_form(p, pivot) == want


def test_caps_follow_the_variable_from_call_to_call(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    first = current_caps()
    assert first == Caps(degree=DEFAULT_DEGREE_CAP, terms=3)
    monkeypatch.setenv("UFDLAB_CAPS", "degree=9, terms=5")
    assert current_caps() == Caps(degree=9, terms=5)
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    assert current_caps() is first  # the value was parsed once
    monkeypatch.delenv("UFDLAB_CAPS")
    assert current_caps() == Caps()


@pytest.mark.parametrize("raw, message", [
    ("terms=many", "bad UFDLAB_CAPS entry 'terms=many'"),
    ("depth=3", "unknown UFDLAB_CAPS key 'depth'"),
    ("degree=0", "bad UFDLAB_CAPS entry 'degree=0': a cap must be at least 1"),
])
def test_malformed_caps_raise_on_every_call(monkeypatch, raw, message):
    monkeypatch.setenv("UFDLAB_CAPS", raw)
    for _ in range(2):
        with pytest.raises(ValueError, match=f"^{message}$"):
            current_caps()


def test_terms_cap_on_squarefree_input(monkeypatch):
    # nothing to rewrite, but the input alone is over the cap
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    p = parse_omega(" + ".join(f"x^{m}*z0*z1*z2" for m in range(4)))
    with pytest.raises(CapExceeded, match="^instance too large: normal_form reached terms 4, "
                                          "over the terms cap of 3$"):
        normal_form(p)


# ---------------------------------------------------------------------------
# text syntax and foreign input
# ---------------------------------------------------------------------------


def test_parse_render_round_trip():
    p = parse_omega("-z1 - x^2*z2")
    assert p == -(OmegaPoly.z(1) + OmegaPoly.x(power=2) * OmegaPoly.z(2))
    assert parse_omega(str(p)) == p


def test_parse_galois_field():
    p = parse_omega("z0^2 + 4*x", GF(5))
    nf = normal_form(p)
    assert expansion_text(nf) == "deg -1: [(1, 0, 4)]; deg 2: [(0, 2, 4), (2, 4, 4)]"


def test_from_poly_rejects_foreign_variables():
    with pytest.raises(ValueError, match="unknown variable 'y'"):
        parse_omega("x + y")
    with pytest.raises(ValueError, match="negative exponent"):
        parse_omega("x^-1*z0")
    with pytest.raises(ValueError, match="negative exponent"):
        OmegaPoly.x(power=-1)
    with pytest.raises(ValueError, match="not k\\[x, z0..zK\\]"):
        OmegaPoly(poly_ring(QQ, ("x", "y")).parse("x + y"))
    with pytest.raises(ValueError, match="not k\\[x, z0..zK\\]"):
        OmegaPoly(poly_ring(QQ, ("x",)).parse("x"))
