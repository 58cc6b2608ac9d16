"""Tests for the graded rewriting system.

The independent oracle used throughout: the defining relations solve for
z_(i+1) in terms of z_(i-1), z_i once x is given a nonzero value, so any
choice of (x, z0, z1) in a finite field extends to a point where every
relation vanishes.  Evaluating at such points is a ring homomorphism, so a
correct normal form must agree with its input at every one of them.
"""

import math
import random

import pytest

from ufdlab.caps import current_caps
from ufdlab.coeff import GF, QQ
from ufdlab.errors import CapExceeded
from ufdlab.omega import (
    BasisExpansion,
    OmegaMonomial,
    OmegaPoly,
    _rewrite_step,
    basis_monomial,
    defining_relation,
    expansion_poly,
    expansion_text,
    from_poly,
    in_x_omega,
    normal_form,
    omega_monomial,
    parse_omega,
    render_omega,
    sigma,
    to_poly,
)

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


def _eval(p, xi, zs):
    field = p.field
    total = field.zero()
    for mono, coeff in p.terms.items():
        val = field.mul(coeff, field.pow(xi, mono.r))
        for i, exp in mono.e:
            val = field.mul(val, field.pow(zs[i], exp))
        total = field.add(total, val)
    return total


def _random_poly(field, rng, nterms, max_size, max_index):
    terms = {}
    for _ in range(nterms):
        e = {}
        budget = rng.randint(0, max_size)
        while budget > 0:
            i = rng.randint(0, max_index)
            take = rng.randint(1, budget)
            e[i] = e.get(i, 0) + take
            budget -= take
        mono = omega_monomial(rng.randint(0, 4), e)
        c = rng.randint(1, field.char - 1) if field.char else rng.randint(-5, 5) or 1
        terms[mono] = field.of(c)
    return OmegaPoly(field, terms)


def test_normal_form_agrees_with_evaluation():
    field = GF(10007)
    rng = random.Random(41)
    for _ in range(30):
        p = _random_poly(field, rng, nterms=3, max_size=5, max_index=3)
        q = expansion_poly(normal_form(p), field)
        depth = 1 + max(
            (i for poly in (p, q) for m in poly.terms for i, _ in m.e), default=1
        )
        for _ in range(5):
            xi, zs = _model_point(field, rng, depth)
            assert _eval(p, xi, zs) == _eval(q, xi, zs)


def test_normal_form_agrees_with_evaluation_char_2():
    field = GF(2)
    rng = random.Random(43)
    for _ in range(20):
        p = _random_poly(field, rng, nterms=2, max_size=4, max_index=2)
        q = expansion_poly(normal_form(p), field)
        depth = 1 + max(
            (i for poly in (p, q) for m in poly.terms for i, _ in m.e), default=1
        )
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
        assert _eval(p.scale(c), xi, zs) == field.mul(pv, field.of(c))
        for n in range(4):
            assert _eval(p**n, xi, zs) == field.pow(pv, n)


def test_arithmetic_across_bridge_widths():
    z0, z5 = OmegaPoly.z(0), OmegaPoly.z(5)
    assert z0 * z5 == OmegaPoly.monomial(omega_monomial(0, {0: 1, 5: 1}))
    assert (z5 + z0) - z5 == z0
    assert OmegaPoly.zero() ** 0 == OmegaPoly.monomial(omega_monomial())
    with pytest.raises(ValueError, match="negative power"):
        z0 ** -1


# ---------------------------------------------------------------------------
# sigma and the basis
# ---------------------------------------------------------------------------


def test_sigma_small_values():
    assert sigma(0) == omega_monomial()
    assert sigma(5) == omega_monomial(0, {0: 1, 2: 1})
    for k in range(6):
        assert sigma(1 << k) == omega_monomial(0, {k: 1})
    assert sigma(6).degree() == 6


def test_sigma_injective_and_graded():
    seen = set()
    for d in range(64):
        mono = sigma(d)
        assert mono.degree() == d
        assert mono.is_squarefree()
        assert mono not in seen
        seen.add(mono)


def test_sigma_rejects_negative():
    with pytest.raises(ValueError):
        sigma(-1)


def test_basis_monomial_coordinates():
    mono = basis_monomial(3, 5)
    assert mono.r == 3
    assert mono.degree() == 2


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
        (degree,) = p.degrees()
        nf = normal_form(p)
        assert set(nf) <= {degree}


def test_confluence_both_pivots():
    rng = random.Random(29)
    for _ in range(100):
        p = _random_poly(GF(9973), rng, nterms=1, max_size=6, max_index=4)
        left = normal_form(p, pivot="largest")
        right = normal_form(p, pivot="smallest")
        assert left == right
        assert expansion_text(left, GF(9973)) == expansion_text(right, GF(9973))


def test_pivots_take_different_steps():
    # the confluence check compares two routes only if the pivots differ
    e = omega_monomial(0, {0: 2, 1: 2}).e
    assert _rewrite_step(e, "largest") == (1, 1, [((0, 2), (2, 1)), ((0, 2), (3, 1))])
    assert _rewrite_step(e, "smallest") == (0, 1, [((1, 3),), ((1, 2), (2, 1))])
    assert _rewrite_step(sigma(11).e, "largest") is None
    p = OmegaPoly.monomial(OmegaMonomial(0, e))
    assert normal_form(p, "largest") == normal_form(p, "smallest")


# The monomial-at-a-time rewrite that normal_form replaced: every round
# expands each non-squarefree monomial once, in sorted order.  An independent
# route to the same unique normal form.


def _reference_expand_once(mono, coeff, field, pivot):
    eligible = [i for i, exp in mono.e if exp >= 2]
    m = max(eligible) if pivot == "largest" else min(eligible)
    e = dict(mono.e)
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
        out.append((omega_monomial(mono.r + j * (1 << (m + 1)), new_e), c))
    return out


def _reference_normal_form(p, pivot):
    field, zero = p.field, p.field.zero()
    work = dict(p.terms)
    while True:
        pending = sorted(
            (m for m in work if not m.is_squarefree()), key=lambda m: (m.r, m.e)
        )
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
    for mono, coeff in work.items():
        n = sum(1 << i for i, _ in mono.e)
        by_degree.setdefault(n - mono.r, []).append((mono.r, n, coeff))
    return {
        d: BasisExpansion(d, tuple(sorted(entries, key=lambda t: t[0])))
        for d, entries in sorted(by_degree.items())
    }


@pytest.mark.parametrize("field, seed", [(QQ, 61), (GF(2), 67), (GF(3), 71)])
def test_normal_form_matches_monomial_rewrite_reference(field, seed):
    rng = random.Random(seed)
    x, z0, z1 = OmegaPoly.x(field), OmegaPoly.z(0, field), OmegaPoly.z(1, field)
    one = OmegaPoly.monomial(omega_monomial(), field)
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
    nonzero = 0
    for p in cases:
        for pivot in ("largest", "smallest"):
            want = expansion_text(_reference_normal_form(p, pivot), field)
            assert expansion_text(normal_form(p, pivot), field) == want, (str(p), pivot)
            nonzero += want != "0"
    assert nonzero > 40


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
    with pytest.raises(CapExceeded, match="z-index cap"):
        omega_monomial(0, {65: 1})
    # rewriting z_63^2 would introduce z_65
    with pytest.raises(CapExceeded, match="z-index cap"):
        normal_form(OmegaPoly.monomial(omega_monomial(0, {63: 2})))


def test_z_index_cap_under_an_x_power():
    # the pivot z_63 is below the cap; its rewrite would reach z_65
    with pytest.raises(CapExceeded, match="z-index cap"):
        normal_form(OmegaPoly.monomial(omega_monomial(5, {63: 2})))


def test_terms_cap(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    assert current_caps().terms == 3
    with pytest.raises(CapExceeded, match="instance too large"):
        normal_form(OmegaPoly.monomial(omega_monomial(0, {0: 4, 1: 4})))


def test_terms_cap_on_squarefree_input(monkeypatch):
    # nothing to rewrite, but the input alone is over the cap
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    p = OmegaPoly(QQ, {basis_monomial(m, 7): QQ.of(1) for m in range(4)})
    with pytest.raises(CapExceeded, match="instance too large"):
        normal_form(p)


def test_monomial_validation():
    with pytest.raises(ValueError, match="negative exponent on x"):
        OmegaMonomial(-1, ())
    with pytest.raises(ValueError, match="strictly increasing"):
        OmegaMonomial(0, ((1, 1), (1, 1)))
    with pytest.raises(ValueError, match="positive"):
        OmegaMonomial(0, ((1, 0),))


# ---------------------------------------------------------------------------
# text bridge
# ---------------------------------------------------------------------------


def test_parse_render_round_trip():
    p = parse_omega("-z1 - x^2*z2")
    assert p == OmegaPoly(QQ, { omega_monomial(0, {1: 1}): QQ.of(-1),
                                omega_monomial(2, {2: 1}): QQ.of(-1) })
    assert parse_omega(render_omega(p)) == p


def test_parse_galois_field():
    p = parse_omega("z0^2 + 4*x", GF(5))
    nf = normal_form(p)
    assert expansion_text(nf, GF(5)) == "deg -1: [(1, 0, 4)]; deg 2: [(0, 2, 4), (2, 4, 4)]"


def test_to_poly_round_trip():
    rng = random.Random(53)
    for _ in range(20):
        p = _random_poly(GF(101), rng, nterms=3, max_size=4, max_index=4)
        assert from_poly(to_poly(p)) == p


def test_from_poly_rejects_foreign_variables():
    from ufdlab.poly import poly_ring

    ring = poly_ring(QQ, ("x", "y"))
    with pytest.raises(ValueError, match="not x or z"):
        from_poly(ring.parse("x + y"))
