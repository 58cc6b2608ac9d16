"""Groebner engine: pinned textbook bases, randomized soundness, oracles."""

import random

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab.errors import CapExceeded
from ufdlab.groebner import (
    GREVLEX,
    LEX,
    SATURATION_ROUNDS_CAP,
    brute_force_irreducible,
    brute_force_member,
    buchberger,
    divide,
    elim_ideal,
    elimination_order,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_quotient,
    intersect,
    reduce,
    saturation,
)
from ufdlab.poly import Polynomial, poly_ring


def QXY():
    return poly_ring(QQ, ("x", "y"))


# -- reduction ----------------------------------------------------------------


def test_reduce_reconstruction_identity():
    rng = random.Random(3)
    r = QXY()
    for _ in range(60):
        def rand_poly():
            terms = {}
            for _ in range(rng.randrange(1, 5)):
                terms[(rng.randrange(0, 3), rng.randrange(0, 3))] = QQ.sample(rng)
            return Polynomial(r, terms)

        p, g1, g2 = rand_poly(), rand_poly(), rand_poly()
        if not g1 or not g2:
            continue
        rem, (q1, q2) = divide(p, [g1, g2])
        assert q1 * g1 + q2 * g2 + rem == p


def test_reduce_remainder_has_no_divisible_terms():
    r = QXY()
    x, y = r.gens()
    g = [x**2 - y, x * y - 1]
    rem = reduce(x**3 + y**3, g)
    for exp in rem.terms:
        for d in g:
            de, _ = d.leading(GREVLEX.key_for(r))
            assert not all(a <= b for a, b in zip(de, exp))


def _naive_divide(p, divisors, order):
    """Division as a max() over the terms of `work` and Polynomial
    subtraction at every step, with the same divisor rule as `divide`."""
    ring, keyfn, fld = p.ring, order.key_for(p.ring), p.ring.field
    leads = [g.leading(keyfn) for g in divisors]
    quotients = [{} for _ in divisors]
    remainder = {}
    work = p
    while work:
        we, wc = work.leading(keyfn)
        hit = None
        for i, (de, dc) in enumerate(leads):
            if all(a <= b for a, b in zip(de, we)) and (
                hit is None or keyfn(de) < keyfn(hit[1])
            ):
                hit = (i, de, dc)
        if hit is None:
            remainder[we] = wc
            work = work - Polynomial(ring, {we: wc})
            continue
        i, de, dc = hit
        qe = tuple(a - b for a, b in zip(we, de))
        qc = fld.div(wc, dc)
        quotients[i][qe] = fld.add(quotients[i].get(qe, fld.zero()), qc)
        work = work - Polynomial(ring, {qe: qc}) * divisors[i]
    return Polynomial(ring, remainder), [Polynomial(ring, q) for q in quotients]


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize(
    "order", [GREVLEX, LEX, elimination_order(("x",), ("y", "z"))], ids=lambda o: o.kind
)
def test_divide_matches_naive_reference(field, order):
    rng = random.Random(23)
    r = poly_ring(field, ("x", "y", "z"))

    def rand_poly(nterms, max_exp):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randrange(0, max_exp + 1) for _ in range(3))
            terms[e] = field.sample(rng)
        return Polynomial(r, terms)

    checked = 0
    for _ in range(40):
        divisors = [rand_poly(rng.randrange(1, 4), 2) for _ in range(rng.randrange(1, 4))]
        divisors = [g for g in divisors if g]
        p = rand_poly(rng.randrange(1, 7), 3)
        if not divisors:
            continue
        rem, quotients = divide(p, divisors, order)
        assert (rem, quotients) == _naive_divide(p, divisors, order)
        checked += int(bool(rem) and any(quotients))
    assert checked >= 10  # enough cases with both a remainder and a quotient


# -- buchberger ----------------------------------------------------------------


def test_lex_basis_pinned():
    r = QXY()
    x, y = r.gens()
    gb = buchberger([x**2 + y**2, x * y], LEX)
    assert gb == [x**2 + y**2, x * y, y**3]


def test_circle_line_elimination():
    r = QXY()
    x, y = r.gens()
    i = ideal(r, x**2 + y**2 - 1, x - y)
    small = elim_ideal(i, ("y",))
    assert [str(g) for g in small.gens] == ["y^2 - 1/2"]


def test_gb_canonical_under_permutation():
    r = poly_ring(QQ, ("x", "y", "z"))
    x, y, z = r.gens()
    gens = [x * y - z, y * z - x, x * z - y]
    rng = random.Random(9)
    reference = buchberger(gens, GREVLEX)
    for _ in range(6):
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert buchberger(shuffled, GREVLEX) == reference


def test_gb_of_unit_ideal():
    r = QXY()
    x, y = r.gens()
    i = ideal(r, x, x + 1)
    assert i.is_trivial()
    assert list(i.groebner()) == [r.one()]


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_gb_random_spolys_reduce_to_zero(field):
    rng = random.Random(17)
    r = poly_ring(field, ("x", "y"))
    for _ in range(25):
        gens = []
        for _ in range(rng.randrange(2, 4)):
            terms = {}
            for _ in range(rng.randrange(1, 4)):
                terms[(rng.randrange(0, 3), rng.randrange(0, 3))] = field.sample(rng)
            gens.append(Polynomial(r, terms))
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = buchberger(gens, GREVLEX)
        if gb == [r.one()]:
            continue
        keyfn = GREVLEX.key_for(r)
        # Buchberger criterion, checked directly against the output basis
        for a in range(len(gb)):
            for b in range(a):
                fe, fc = gb[a].leading(keyfn)
                ge, gc = gb[b].leading(keyfn)
                lcm = tuple(max(u, v) for u, v in zip(fe, ge))
                mf = Polynomial(r, {tuple(l - f for l, f in zip(lcm, fe)): field.inv(fc)})
                mg = Polynomial(r, {tuple(l - g for l, g in zip(lcm, ge)): field.inv(gc)})
                s = mf * gb[a] - mg * gb[b]
                assert not reduce(s, gb, GREVLEX)
        # original generators lie in the span of the basis
        for g in gens:
            assert not reduce(g, gb, GREVLEX)
        # and conversely, by brute-force linear algebra on the generators
        for g in gb:
            assert brute_force_member(g, gens, 8)


def test_membership_certificate_matches_oracle():
    rng = random.Random(29)
    r = poly_ring(GF(7), ("x", "y"))
    x, y = r.gens()
    gens = [x**2 + y, x * y - 1]
    i = ideal(r, *gens)
    gb = list(i.groebner())
    for _ in range(30):
        terms = {}
        for _ in range(rng.randrange(0, 4)):
            terms[(rng.randrange(0, 4), rng.randrange(0, 4))] = GF(7).sample(rng)
        p = Polynomial(r, terms)
        rem, qs = divide(p, gb)
        member = not rem
        assert i.contains(p) == member
        if member and p:
            bound = max(q.total_degree() for q in qs if q)
            assert brute_force_member(p, gb, bound)
        else:
            # a brute-force yes is an explicit combination, so it must agree
            assert not brute_force_member(p, gens, 3) or member


def test_brute_force_member_prime_above_2_to_the_32():
    # products of residues exceed 64 bits here, so fixed-width arithmetic
    # would wrap; the oracle must still agree with Ideal.contains
    field = GF(4294967311)
    rng = random.Random(31)
    r = poly_ring(field, ("x", "y"))
    x, y = r.gens()
    gens = [x**2 - 3 * y, y**2 + 5 * x * y + 7]
    i = ideal(r, *gens)
    cofactor_exps = [(a, b) for a in range(3) for b in range(3 - a)]
    for _ in range(30):
        p = r.zero()
        for g in gens:
            cofactor = Polynomial(r, {e: field.sample(rng) for e in cofactor_exps})
            p = p + cofactor * g
        assert i.contains(p)
        assert brute_force_member(p, gens, 2)
    assert not i.contains(x)
    assert not brute_force_member(x, gens, 2)


def test_groebner_refuses_laurent_ring():
    r = poly_ring(QQ, ("x", "y"), invertible=("x",))
    with pytest.raises(ValueError, match="saturate the unit first"):
        ideal(r, r.var("y"))


def test_degree_cap_trips(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "degree=2")
    r = QXY()
    x, y = r.gens()
    with pytest.raises(CapExceeded, match="instance too large"):
        buchberger([x**3 + 1, y], GREVLEX)


def test_divide_term_cap_trips_when_work_grows(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    r = poly_ring(QQ, ("x", "y", "z", "w", "v"))
    x, y, z, w, v = r.gens()
    # x^2 itself fits; one step turns it into four terms
    with pytest.raises(CapExceeded, match="instance too large"):
        divide(x**2, [x**2 - y - z - w - v])


def test_divide_degree_cap_trips_on_a_later_leading_term(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "degree=2")
    r = QXY()
    x, y = r.gens()
    # x has degree 1; under lex the first step leaves y^3 leading
    with pytest.raises(CapExceeded, match="instance too large"):
        divide(x, [x - y**3], LEX)


def test_buchberger_term_cap_trips_on_a_new_remainder(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    r = poly_ring(QQ, ("x", "y", "z"))
    x, y, z = r.gens()
    f, g = x * y + x - z, y**3
    # the only pair's S-polynomial divides within the cap, to four terms
    rem, _ = divide(y**2 * f - x * g, [f, g])
    assert rem.term_count() == 4
    with pytest.raises(CapExceeded, match="instance too large"):
        buchberger([f, g], GREVLEX)


# -- ideal operations -----------------------------------------------------------


def test_ideal_equal_on_different_generators():
    r = QXY()
    x, y = r.gens()
    assert ideal_equal(ideal(r, x, y), ideal(r, y, x + y))
    assert not ideal_equal(ideal(r, x), ideal(r, x**2))


def test_intersect_principal():
    r = QXY()
    x, y = r.gens()
    cap = intersect(ideal(r, x), ideal(r, y))
    assert ideal_equal(cap, ideal(r, x * y))


def test_intersect_symmetric_and_contained():
    r = QXY()
    x, y = r.gens()
    a = ideal(r, x**2, y)
    b = ideal(r, x, y**2)
    cap1 = intersect(a, b)
    cap2 = intersect(b, a)
    assert ideal_equal(cap1, cap2)
    for g in cap1.gens:
        assert a.contains(g) and b.contains(g)


def test_quotient_pinned():
    r = QXY()
    x, y = r.gens()
    assert ideal_equal(ideal_quotient(ideal(r, x * y), x), ideal(r, y))
    assert ideal_equal(ideal_quotient(ideal(r, x**2, x * y), x), ideal(r, x, y))


def test_saturation_pinned_index():
    r = QXY()
    x, y = r.gens()
    sat, index = saturation(ideal(r, x**2 * y, x * y**2), y)
    assert ideal_equal(sat, ideal(r, x))
    assert index == 2


def test_saturation_of_prime_is_identity():
    r = poly_ring(QQ, ("a", "b", "X"))
    a, b, X = r.gens()
    i = ideal(r, a * X - b)
    sat, index = saturation(i, a)
    assert ideal_equal(sat, i)
    assert index == 0


def test_saturation_round_cap_trips():
    r = QXY()
    x, y = r.gens()
    _, index = saturation(ideal(r, x ** (SATURATION_ROUNDS_CAP - 1) * y), x)
    assert index == SATURATION_ROUNDS_CAP - 1
    with pytest.raises(CapExceeded):
        saturation(ideal(r, x**SATURATION_ROUNDS_CAP * y), x)


def test_ideal_power_square():
    r = QXY()
    x, y = r.gens()
    sq = ideal_power(ideal(r, x, y), 2)
    assert ideal_equal(sq, ideal(r, x**2, x * y, y**2))
    assert ideal_equal(ideal_power(ideal(r, x), 0), ideal(r, r.one()))


def test_ideal_product():
    r = QXY()
    x, y = r.gens()
    prod = ideal_product(ideal(r, x, y), ideal(r, x))
    assert ideal_equal(prod, ideal(r, x**2, x * y))


def test_elimination_order_blocks_validated():
    r = poly_ring(QQ, ("x", "y", "z"))
    with pytest.raises(ValueError, match="partition"):
        elimination_order(("x",), ("y",)).key_for(r)


# -- brute-force oracles ----------------------------------------------------------


def test_brute_force_member_qq():
    r = QXY()
    x, y = r.gens()
    assert brute_force_member(x**2 * y + x, [x], 2)
    assert not brute_force_member(y, [x], 3)
    assert brute_force_member(r.zero(), [x], 0)


def test_brute_force_member_gf():
    r = poly_ring(GF(5), ("x", "y"))
    x, y = r.gens()
    p = (x + 2 * y) * (x**2 - y) + (3 * x) * (y**2 + 1)
    assert brute_force_member(p, [x**2 - y, y**2 + 1], 1)
    assert not brute_force_member(r.one(), [x**2 - y], 2)


def test_irreducible_gf2_quadratics():
    r = poly_ring(GF(2), ("x",))
    assert brute_force_irreducible(r.parse("x^2 + x + 1"), 1).irreducible
    v = brute_force_irreducible(r.parse("x^2 + 1"), 1)
    assert v.status == "reducible"
    g, h = v.factors
    assert g * h == r.parse("x^2 + 1")


def test_irreducible_gf2_quintics():
    r = poly_ring(GF(2), ("z",))
    # z^5 + z + 1 = (z^2 + z + 1)(z^3 + z^2 + 1); max_deg 2 is complete for degree 5
    v = brute_force_irreducible(r.parse("z^5 + z + 1"), 2)
    assert v.status == "reducible"
    g, h = v.factors
    assert g * h == r.parse("z^5 + z + 1")
    assert {str(g), str(h)} == {"z^2 + z + 1", "z^3 + z^2 + 1"}
    assert brute_force_irreducible(r.parse("z^5 + z^2 + 1"), 2).irreducible


def test_irreducible_multivariate():
    r = poly_ring(GF(2), ("x", "y"))
    assert not brute_force_irreducible(r.parse("x^2 + y^2"), 1).irreducible  # (x+y)^2
    assert brute_force_irreducible(r.parse("x^2 + x*y + y^2"), 1).irreducible


def test_irreducible_degree_bound_enforced():
    r = poly_ring(GF(2), ("z",))
    with pytest.raises(ValueError, match="degree bound too small"):
        brute_force_irreducible(r.parse("z^5 + z + 1"), 1)


def test_irreducible_needs_finite_field():
    r = QXY()
    with pytest.raises(ValueError, match="finite field"):
        brute_force_irreducible(r.parse("x^2 + 1"), 1)


def test_irreducible_candidate_cap():
    r = poly_ring(GF(101), ("x", "y", "z"))
    with pytest.raises(CapExceeded, match="instance too large"):
        brute_force_irreducible(r.parse("x^5 + y^5 + z^5 + 1"), 4)
