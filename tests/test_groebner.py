"""Groebner engine: pinned textbook bases, randomized soundness, oracles.

`buchberger` here is the tests' Buchberger oracle (`tests/oracles.py`), not
`groebner.buchberger`, which runs the library's engine."""

import ast
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from oracles import buchberger, interreduce_every_element

from ufdlab import groebner
from ufdlab.coeff import GF, QQ
from ufdlab.errors import CapExceeded
from ufdlab.groebner import (
    GREVLEX,
    LEX,
    SATURATION_ROUNDS_CAP,
    Order,
    _interreduce,
    brute_force_irreducible,
    brute_force_member,
    divide,
    elim_ideal,
    elimination_order,
    ideal,
    ideal_equal,
    ideal_power,
    ideal_product,
    ideal_quotient,
    intersect,
    row_echelon,
    saturation,
    signature_basis,
)
from ufdlab.poly import Polynomial, grevlex_key, poly_ring


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
    rem, _ = divide(x**3 + y**3, g)
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


ORDERS_XYZ = [GREVLEX, LEX, elimination_order(("x",), ("y", "z"))]


def _divide_leaving_inputs(p, divisors, order):
    """divide(p, divisors, order), asserting that p and every divisor keep
    their terms."""
    before = [dict(f.terms) for f in (p, *divisors)]
    out = divide(p, divisors, order)
    assert [dict(f.terms) for f in (p, *divisors)] == before
    return out


def _shaped(divisors, shape, order, rng):
    """The divisor list as drawn, made monic, scaled to fractional leading
    coefficients, or with a twin of one divisor (the same leading monomial,
    another polynomial) placed before or after it."""
    if shape == "drawn":
        return divisors
    ring = divisors[0].ring
    keyfn = order.key_for(ring)
    if shape == "monic":
        return [g.monic(keyfn) for g in divisors]
    if shape == "fraction-lead":
        out = []
        for g in divisors:
            lead = Fraction(rng.choice([1, -1, 2, -3, 5]), rng.choice([2, 3, 4, 7]))
            out.append(g * (lead / g.leading(keyfn)[1]))
        return out
    assert shape == "tied"
    k = rng.randrange(len(divisors))
    de, _ = divisors[k].leading(keyfn)
    terms = {e: ring.field.sample(rng) for e in itertools.product(range(3), repeat=3)
             if keyfn(e) < keyfn(de) and rng.random() < 0.2}
    terms[de] = ring.field.sample(rng) or ring.field.one()
    twin = Polynomial(ring, terms)
    out = list(divisors)
    out.insert(k + rng.randrange(2), twin)
    return out


def _check_against_naive(field, order, shape):
    rng = random.Random(23)
    shape_rng = random.Random(29)
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
        divisors = _shaped(divisors, shape, order, shape_rng)
        rem, quotients = _divide_leaving_inputs(p, divisors, order)
        assert (rem, quotients) == _naive_divide(p, divisors, order)
        checked += int(bool(rem) and any(quotients))
    assert checked >= 10  # enough cases with both a remainder and a quotient


@pytest.mark.parametrize("field", [QQ, GF(7)])
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_divide_matches_naive_reference(field, order):
    _check_against_naive(field, order, "drawn")


@pytest.mark.parametrize(
    "field, shape",
    [(QQ, "monic"), (GF(7), "monic"), (QQ, "fraction-lead"), (QQ, "tied"), (GF(7), "tied")],
    ids=str,
)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_divide_matches_naive_reference_on_shaped_divisors(field, shape, order):
    _check_against_naive(field, order, shape)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_s_poly_matches_its_definition_for_non_monic_polynomials(field):
    rng = random.Random(37)
    r = poly_ring(field, ("x", "y", "z"))
    keyfn = GREVLEX.key_for(r)
    non_monic = 0
    for _ in range(40):
        f, g = (
            Polynomial(r, {tuple(rng.randrange(3) for _ in range(3)): field.sample(rng)
                           for _ in range(rng.randrange(1, 5))})
            for _ in range(2)
        )
        if not f or not g:
            continue
        (fe, fc), (ge, gc) = f.leading(keyfn), g.leading(keyfn)
        lcm = tuple(map(max, fe, ge))
        mf = Polynomial(r, {tuple(a - b for a, b in zip(lcm, fe)): field.inv(fc)})
        mg = Polynomial(r, {tuple(a - b for a, b in zip(lcm, ge)): field.inv(gc)})
        assert groebner._s_poly(f, fe, g, ge) == mf * f - mg * g
        non_monic += fc != 1 and gc != 1
    assert non_monic >= 20


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_divide_identity_and_irreducible_remainder(field, order):
    rng = random.Random(41)
    r = poly_ring(field, ("x", "y", "z"))
    keyfn = order.key_for(r)

    def rand_poly(nterms, max_exp):
        terms = {}
        for _ in range(nterms):
            e = tuple(rng.randrange(0, max_exp + 1) for _ in range(3))
            terms[e] = field.sample(rng)
        return Polynomial(r, terms)

    with_remainder = 0
    for _ in range(60):
        divisors = [g for g in (rand_poly(rng.randrange(1, 4), 2)
                                for _ in range(rng.randrange(1, 4))) if g]
        p = rand_poly(rng.randrange(1, 9), 4)
        if not divisors:
            continue
        rem, quotients = divide(p, divisors, order)
        total = rem
        for q, g in zip(quotients, divisors):
            total = total + q * g
        assert total == p
        leads = [max(g.terms, key=keyfn) for g in divisors]
        for e in rem.terms:
            assert not any(all(a <= b for a, b in zip(de, e)) for de in leads)
        with_remainder += bool(rem) and any(quotients)
    assert with_remainder >= 10


@pytest.mark.parametrize(
    "order",
    [
        LEX,
        GREVLEX,
        elimination_order(("x",), ("y", "z", "w")),
        elimination_order(("z", "x"), ("w", "y")),
    ],
    ids=["lex", "grevlex", "block-x", "block-zx"],
)
def test_descending_key_reverses_the_order_key(order):
    # the heap key of `divide`: built from the exponent directly, it must
    # sort exactly opposite to the order key and tell exponents apart
    rng = random.Random(37)
    names = ("x", "y", "z", "w")
    r = poly_ring(QQ, names)
    exps = {tuple(rng.randrange(0, 3) for _ in names) for _ in range(60)}
    # ties: same total degree, same degree within each block, permutations
    exps |= {(1, 1, 0, 0), (0, 0, 1, 1), (1, 0, 1, 0), (0, 1, 0, 1), (2, 0, 0, 0), (0, 0, 0, 2)}
    exps = sorted(exps)
    key, desc = order.key_for(r), order.descending_key_for(r)
    assert sorted(exps, key=desc) == sorted(exps, key=key, reverse=True)
    for a in exps:
        for b in exps:
            assert (desc(a) < desc(b)) == (key(a) > key(b))
            assert (desc(a) == desc(b)) == (a == b)
    # one function object per order and ring, however they are rebuilt
    again = Order(order.kind, tuple(tuple(blk) for blk in order.blocks))
    assert again.descending_key_for(poly_ring(QQ, names)) is desc


@pytest.mark.parametrize("blocks", [
    (("x",), ("y", "z", "w")),
    (("z", "x"), ("w", "y")),
    (("y",), ("w",), ("x", "z")),
    ((), ("x", "y", "z", "w")),
], ids=str)
def test_block_key_joins_the_grevlex_key_of_each_block(blocks):
    # one-variable and empty blocks pick a tuple too, as grevlex_key needs
    rng = random.Random(39)
    names = ("x", "y", "z", "w")
    r = poly_ring(QQ, names)
    key = Order("block", blocks).key_for(r)
    for _ in range(50):
        exp = tuple(rng.randrange(4) for _ in names)
        expected = ()
        for blk in blocks:
            expected += grevlex_key(tuple(exp[names.index(n)] for n in blk))
        assert key(exp) == expected


def test_leading_answers_each_order_it_is_asked_under():
    r = poly_ring(QQ, ("x", "y", "z"))
    p = r.parse("x^2 + y^3 + 2*x*z^3 + 3*z^4")
    y_first = elimination_order(("y",), ("x", "z"))
    z_first = elimination_order(("z",), ("x", "y"))
    expected = [
        (LEX, (2, 0, 0), 1),
        (GREVLEX, (1, 0, 3), 2),
        (y_first, (0, 3, 0), 1),
        (z_first, (0, 0, 4), 3),
        (y_first, (0, 3, 0), 1),
        (LEX, (2, 0, 0), 1),
    ]
    for order, exp, coeff in expected:
        assert p.leading(order.key_for(r)) == (exp, coeff), order
    # one key function per order and ring, so the memo can recognise it
    assert y_first.key_for(r) is elimination_order(("y",), ("x", "z")).key_for(r)
    assert y_first.key_for(r) is not z_first.key_for(r)
    # the same block order on a ring with another variable order
    r2 = poly_ring(QQ, ("z", "y", "x"))
    q = r2.parse("x^2 + y^3 + 2*x*z^3 + 3*z^4")
    assert z_first.key_for(r2) is not z_first.key_for(r)
    assert q.leading(z_first.key_for(r2)) == ((4, 0, 0), 3)


# -- carried leading terms -----------------------------------------------------


def _recomputed_lead(p, keyfn):
    """The `_lead` entry that a copy of p carrying nothing computes."""
    e, c = Polynomial(p.ring, dict(p.terms)).leading(keyfn)
    return keyfn, keyfn(e), e, c


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_carried_leads_equal_recomputed_ones(field, order, monkeypatch):
    # divide records the first term it moves to a remainder as the lead and
    # monic hands its lead on; the elements of the oracle's bases and of the
    # engine's carry what they record
    rng = random.Random(71)
    r = poly_ring(field, ("x", "y", "z"))
    keyfn = order.key_for(r)
    recorded = []
    plain_divide, plain_monic = groebner.divide, Polynomial.monic

    def recording_divide(p, divisors, order=GREVLEX):
        rem, quotients = plain_divide(p, divisors, order)
        recorded.append((rem, order.key_for(rem.ring)))
        return rem, quotients

    def recording_monic(self, keyfn=grevlex_key):
        out = plain_monic(self, keyfn)
        recorded.append((out, keyfn))
        return out

    monkeypatch.setattr(groebner, "divide", recording_divide)
    monkeypatch.setattr(Polynomial, "monic", recording_monic)
    checked = {"elements": 0, "multi_term": 0}

    def check_recorded():
        # checked as they come: a wrong lead can keep buchberger from ending
        for p, key in recorded:
            assert p._lead == (_recomputed_lead(p, key) if p else None), p
            checked["multi_term"] += len(p.terms) > 1
        recorded.clear()

    for _ in range(10):
        gens = _seeded_ideal_gens(field, rng, r)
        if not gens:
            continue
        p = Polynomial(r, {tuple(rng.randrange(3) for _ in range(3)): field.sample(rng)
                           for _ in range(rng.randrange(1, 7))})
        groebner.divide(p, gens, order)
        for g in gens:
            g.monic(keyfn)
        check_recorded()
        for engine, options in ((buchberger, {"interreduce": False}), (buchberger, {}),
                                (groebner.buchberger, {})):
            for g in engine(gens, order, **options):
                recorded.append((g, keyfn))
                checked["elements"] += 1
            check_recorded()
    assert checked["elements"] >= 20 and checked["multi_term"] >= 40


def test_divide_ignores_a_lead_recorded_under_another_order():
    # the same divisors under each order in turn: a lead recorded under the
    # last order must not stand for the lead under this one
    rng = random.Random(73)
    r = poly_ring(QQ, ("x", "y", "z"))

    def rand_poly(nterms, max_exp):
        return Polynomial(r, {tuple(rng.randrange(max_exp + 1) for _ in range(3)):
                              QQ.sample(rng) for _ in range(nterms)})

    for _ in range(20):
        divisors = [g for g in (rand_poly(rng.randrange(2, 4), 2) for _ in range(2)) if g]
        p = rand_poly(rng.randrange(2, 7), 3)
        if not divisors or not p:
            continue
        for order in ORDERS_XYZ + ORDERS_XYZ:
            fresh = [Polynomial(r, dict(g.terms)) for g in divisors]
            assert divide(p, divisors, order) == _naive_divide(p, fresh, order), order


# -- recorded shifts -------------------------------------------------------------


def _fresh(polys):
    """Copies that carry no recorded lead and no recorded shifts."""
    return [Polynomial(g.ring, dict(g.terms)) for g in polys]


def _checked_shifts(g):
    """The number of entries in g's `_shifts`, each checked against the
    shifted exponents recomputed in g's term order."""
    shifts = g._shifts or {}
    for qe, exps in shifts.items():
        assert exps == tuple(tuple(a + b for a, b in zip(qe, e)) for e in g.terms), (g, qe)
    return len(shifts)


def _seeded_queries(field, rng, r, gens):
    """Seeded polynomials, and members built from gens with small cofactors,
    whose reductions take many steps by the same divisor."""
    def rand_poly(nterms, max_exp):
        return Polynomial(r, {tuple(rng.randrange(max_exp + 1) for _ in range(3)):
                              field.sample(rng) for _ in range(nterms)})

    queries = [rand_poly(rng.randrange(1, 7), 3) for _ in range(3)]
    for _ in range(3):
        member = r.zero()
        for g in gens:
            member = member + rand_poly(rng.randrange(1, 4), 2) * g
        queries.append(member + rand_poly(rng.randrange(0, 2), 2))
    return [q for q in queries if q]


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_divide_by_divisors_that_carry_shifts_matches_fresh_copies(field, order):
    # the same divisors again and again, directly and through an Ideal's
    # cached basis: what divide reads back from the record must give what
    # copies that record nothing give, and what the naive reference gives
    rng = random.Random(79)
    r = poly_ring(field, ("x", "y", "z"))
    steps = entries = 0
    for _ in range(6):
        gens = _seeded_ideal_gens(field, rng, r)
        if not gens:
            continue
        i = ideal(r, *gens)
        queries = _seeded_queries(field, rng, r, gens)
        for _ in range(2):  # the second round reads what the first recorded
            for p in queries:
                rem, quotients = divide(p, gens, order)
                assert (rem, quotients) == divide(p, _fresh(gens), order)
                assert (rem, quotients) == _naive_divide(p, _fresh(gens), order)
                steps += sum(len(q.terms) for q in quotients)
                nf = i.normal_form(p, order)
                basis = _fresh(i._basis(order))
                assert nf == divide(p, basis, order)[0] == _naive_divide(p, basis, order)[0]
                assert i.contains(p, order) == (not nf)
        entries += sum(_checked_shifts(g) for g in gens)
        for g in i._basis(order):
            _checked_shifts(g)
    assert entries and steps >= 2 * entries  # the record was read as often as made


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_buchberger_on_divisors_that_carry_shifts(field, order):
    # the monic elements of an earlier run's basis enter as they are, so a
    # second run divides its S-polynomials by polynomials that already carry
    # records, from that run and from divisions since
    rng = random.Random(83)
    r = poly_ring(field, ("x", "y", "z"))
    carried = 0
    for _ in range(6):
        gens = _seeded_ideal_gens(field, rng, r)
        if not gens:
            continue
        want = buchberger(_fresh(gens), order)
        minimal = buchberger(gens, order, interreduce=False)
        for p in _seeded_queries(field, rng, r, gens):
            divide(p, minimal, order)
        carried += sum(_checked_shifts(g) for g in minimal)
        again = buchberger(minimal + gens, order)
        assert again == want == buchberger(_fresh(minimal + gens), order)
        for g in minimal:
            _checked_shifts(g)
    assert carried


# -- the integral path over Q ---------------------------------------------------


def _assert_canonical(poly):
    """Every coefficient is a nonzero element of Q in its canonical form: an
    int, or a Fraction in lowest terms with a denominator above 1."""
    for c in poly.terms.values():
        assert c != 0, poly
        if type(c) is not int:
            assert type(c) is Fraction and c.denominator > 1, poly
            assert math.gcd(c.numerator, c.denominator) == 1, poly


def _checked_integral(g):
    """1 when g carries its `_integral` pair, checked against the lcm of its
    denominators recomputed, and 0 when it carries none."""
    if g._integral is None:
        return 0
    kappa, coeffs = g._integral
    assert kappa == math.lcm(*[Fraction(c).denominator for c in g.terms.values()]), g
    assert coeffs == [kappa * c for c in g.terms.values()], g
    assert all(type(c) is int for c in coeffs), g
    return 1


def _q_divisors(rng, r, order, shape):
    """Two or three divisors over Q in x, y, z.  "negative-lead": small
    fractions, each divisor scaled so that its leading coefficient under
    order is negative and not -1.  "wide": numerators and denominators of
    30 to 40 bits, so a step can scale by as many bits."""
    keyfn = order.key_for(r)

    def coeff():
        if shape == "wide":
            return Fraction(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(30, 40)),
                            rng.getrandbits(rng.randint(30, 40)) | 1 << 29)
        return QQ.sample(rng) or 1

    divisors = []
    for _ in range(rng.randrange(2, 4)):
        g = Polynomial(r, {tuple(rng.randrange(3) for _ in range(3)): coeff()
                           for _ in range(rng.randrange(1, 4))})
        if shape == "negative-lead":
            lead = -Fraction(rng.choice((2, 3, 5, 7)), rng.choice((1, 2, 9)))
            g = g * (lead / g.leading(keyfn)[1])
        divisors.append(g)
    return divisors


def _q_queries(rng, r, divisors):
    """Polynomials in x, y, z of up to six terms, members built from the
    divisors with cofactors, and such members plus a term, all over Q."""
    def rand_poly(nterms, max_exp):
        return Polynomial(r, {tuple(rng.randrange(max_exp + 1) for _ in range(3)):
                              QQ.sample(rng) for _ in range(nterms)})

    queries = [rand_poly(rng.randrange(1, 7), 3) for _ in range(3)]
    member = r.zero()
    for g in divisors:
        member = member + rand_poly(rng.randrange(1, 4), 2) * g
    queries += [member, member + rand_poly(1, 3)]
    return [q for q in queries if q]


@pytest.mark.parametrize("strip_bits", [None, 0], ids=["bound", "every-step"])
@pytest.mark.parametrize("shape", ["negative-lead", "wide"])
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_divide_over_q_equals_the_naive_reference_exactly(order, shape, strip_bits,
                                                          monkeypatch):
    # divisions of no step, of one (in the field) and of several (over one
    # common denominator from the second step on) must give the remainder
    # and quotients of field arithmetic, in canonical form, when divisors
    # lead negative or carry wide denominators, and whether the content is
    # stripped at the bound or after every scaling step
    if strip_bits is not None:
        monkeypatch.setattr(groebner, "_STRIP_BITS", strip_bits)
    strips = []
    stripped = groebner._stripped

    def counting(work, den):
        out = stripped(work, den)
        strips.append(out[1] < den)  # whether it divided a factor out
        return out

    monkeypatch.setattr(groebner, "_stripped", counting)
    rng = random.Random(97)
    r = poly_ring(QQ, ("x", "y", "z"))
    steps, carried = [], 0
    for _ in range(12):
        divisors = _q_divisors(rng, r, order, shape)
        for p in _q_queries(rng, r, divisors):
            want = _naive_divide(p, _fresh(divisors), order)
            for _ in range(2):  # the second pass reads the recorded pairs
                rem, quotients = _divide_leaving_inputs(p, divisors, order)
                assert (rem, quotients) == want
                for poly in (rem, *quotients):
                    _assert_canonical(poly)
            steps.append(sum(len(q.terms) for q in quotients))
        for g in divisors:
            _checked_shifts(g)
            carried += _checked_integral(g)
    assert {0, 1, 2} <= set(steps) and max(steps) >= 8 and carried
    if shape == "wide" or strip_bits == 0:
        assert any(strips)


def _q_generators(rng, r, order):
    """Three generators over Q in x, y, z of two to four terms with small
    fraction coefficients, each scaled so that its leading coefficient
    under order is a negative fraction other than -1."""
    keyfn = order.key_for(r)
    gens = []
    for _ in range(3):
        g = Polynomial(r, {tuple(rng.randrange(3) for _ in range(3)):
                           Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(rng.randrange(2, 5))})
        if g:
            lead = -Fraction(rng.choice((2, 3, 5, 7)), rng.choice((2, 9)))
            gens.append(g * (lead / g.leading(keyfn)[1]))
    return gens


@pytest.mark.parametrize("strip_bits", [None, 0], ids=["bound", "every-step"])
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_signature_basis_over_q_reduces_fraction_free_to_canonical_bases(order, strip_bits,
                                                                          monkeypatch):
    # `_s_reduce` runs on divide's loop, so over Q its s-reductions work on
    # one common denominator from their second step on; with generators
    # that lead negative and fractional, and with the content strip at its
    # bound or after every scaling step, the minimal basis must come back
    # in canonical form and interreduce to buchberger's reduced basis
    if strip_bits is not None:
        monkeypatch.setattr(groebner, "_STRIP_BITS", strip_bits)
    strips = []
    stripped = groebner._stripped

    def counting(work, den):
        out = stripped(work, den)
        strips.append(out[1] < den)  # whether it divided a factor out
        return out

    monkeypatch.setattr(groebner, "_stripped", counting)
    rng = random.Random(131)
    r = poly_ring(QQ, ("x", "y", "z"))
    in_s_reduce, nontrivial = [], 0
    for _ in range(8):
        gens = _q_generators(rng, r, order)
        mark = len(strips)
        basis = signature_basis(gens, order)
        in_s_reduce += strips[mark:]  # signature_basis divides nothing
        for g in basis:
            _assert_canonical(g)
        want = buchberger(_fresh(gens), order)
        assert _interreduce(basis, order) == want, [str(g) for g in gens]
        nontrivial += want != [r.one()]
    assert nontrivial >= 4
    if strip_bits == 0:
        assert any(in_s_reduce)


def _two_multiple_s_poly(f, fe, g, ge):
    """mf*f - mg*g, each multiple built on its own and then subtracted."""
    lcm = tuple(map(max, fe, ge))
    fld = f.ring.field

    def multiple(h, he):
        shift = tuple(a - b for a, b in zip(lcm, he))
        return Polynomial(h.ring, {shift: fld.inv(h.terms[he])}) * h

    return multiple(f, fe) - multiple(g, ge)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_s_poly_matches_the_two_multiple_formula(field, order):
    rng = random.Random(79)
    r = poly_ring(field, ("x", "y", "z"))
    keyfn = order.key_for(r)
    cancelled = 0
    for _ in range(60):
        f, g = (
            Polynomial(r, {tuple(rng.randrange(3) for _ in range(3)): field.sample(rng)
                           for _ in range(rng.randrange(1, 6))})
            for _ in range(2)
        )
        if not f or not g:
            continue
        if rng.random() < 0.3:
            g = f * Polynomial(r, {(0, 1, 0): field.one()}) + g  # shared tails
        for a, b in ((f, g), (f, f), (f.monic(keyfn), g.monic(keyfn))):
            if not b:
                continue
            ae, be = a.leading(keyfn)[0], b.leading(keyfn)[0]
            s = groebner._s_poly(a, ae, b, be)
            assert s == _two_multiple_s_poly(a, ae, b, be)
            cancelled += len(s.terms) < len(a.terms) + len(b.terms) - 2
    assert cancelled >= 20


# -- buchberger, the tests' oracle ----------------------------------------------


def test_lex_basis_pinned():
    r = QXY()
    x, y = r.gens()
    for engine in (buchberger, groebner.buchberger):
        gb = engine([x**2 + y**2, x * y], LEX)
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


def _reference_buchberger(gens, order):
    """Criterion-free Buchberger: every pair of the growing basis is reduced
    (by the naive division above), then the basis is minimalized and
    inter-reduced.  Slow, but nothing in it prunes."""
    r = gens[0].ring
    keyfn = order.key_for(r)

    def lead(g):
        return max(g.terms, key=keyfn)

    def lcm_of(pair):
        return tuple(max(a, b) for a, b in zip(*(lead(basis[k]) for k in pair)))

    basis = [g.monic(keyfn) for g in gens if g]
    todo = {(i, j) for j in range(len(basis)) for i in range(j)}
    while todo:
        # smallest lcm first, as any fair selection would do
        i, j = min(todo, key=lambda pair: (keyfn(lcm_of(pair)), pair))
        todo.remove((i, j))
        f, g = basis[i], basis[j]
        fe, ge, lcm = lead(f), lead(g), lcm_of((i, j))
        mf = Polynomial(r, {tuple(a - b for a, b in zip(lcm, fe)): r.field.inv(f.terms[fe])})
        mg = Polynomial(r, {tuple(a - b for a, b in zip(lcm, ge)): r.field.inv(g.terms[ge])})
        rem, _ = _naive_divide(mf * f - mg * g, basis, order)
        if rem:
            basis.append(rem.monic(keyfn))
            todo |= {(k, len(basis) - 1) for k in range(len(basis) - 1)}
    minimal = []
    for g in sorted(basis, key=lambda g: keyfn(lead(g))):
        if not any(all(a <= b for a, b in zip(lead(h), lead(g))) for h in minimal):
            minimal.append(g)
    reduced = [
        _naive_divide(g, minimal[:k] + minimal[k + 1 :], order)[0].monic(keyfn)
        for k, g in enumerate(minimal)
    ]
    return sorted(reduced, key=lambda g: keyfn(lead(g)), reverse=True)


@pytest.mark.parametrize("field", [QQ, GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_buchberger_matches_criterion_free_reference(field, order):
    rng = random.Random(43)
    r = poly_ring(field, ("x", "y", "z"))
    nontrivial = 0
    for _ in range(12):
        # multilinear generators: the unpruned reference stays fast on them
        gens = []
        for _ in range(rng.randrange(2, 5)):
            terms = {}
            for _ in range(rng.randrange(2, 6)):
                e = tuple(rng.randrange(0, 2) for _ in range(3))
                terms[e] = field.sample(rng)
            gens.append(Polynomial(r, terms))
        gens = [g for g in gens if g]
        if not gens:
            continue
        gb = buchberger(gens, order)
        assert gb == _reference_buchberger(gens, order)
        nontrivial += gb != [r.one()]
    assert nontrivial >= 8


def test_buchberger_matches_reference_on_cyclic_4():
    names = ("a", "b", "c", "d")
    r = poly_ring(GF(32003), names)
    gens = [
        r.parse(" + ".join("*".join(names[(i + j) % 4] for j in range(k)) for i in range(4)))
        for k in range(1, 4)
    ] + [r.parse("a*b*c*d - 1")]
    assert buchberger(gens, GREVLEX) == _reference_buchberger(gens, GREVLEX)


def test_gb_of_unit_ideal():
    r = QXY()
    x, y = r.gens()
    i = ideal(r, x, x + 1)
    assert i.is_trivial()
    assert list(i.groebner()) == [r.one()]


def _seeded_ideal_gens(field, rng, r):
    gens = []
    for _ in range(rng.randrange(2, 4)):
        terms = {}
        for _ in range(rng.randrange(2, 5)):
            # exponents up to 2 in x, multilinear in y and z: lex over Q stays small
            e = (rng.randrange(0, 3), rng.randrange(0, 2), rng.randrange(0, 2))
            terms[e] = field.sample(rng)
        gens.append(Polynomial(r, terms))
    return [g for g in gens if g]


def _mod_p(polys, ring):
    """Each polynomial over Q mapped into `ring` over GF(p) coefficient by
    coefficient, n/d to n*d^-1 mod p; a ValueError when p divides a
    denominator."""
    return [Polynomial(ring, dict(g.terms)) for g in polys]


def _katsura(field, n):
    """katsura-n: u_m = sum over l of u_|l|*u_|m-l| for m < n, with u_i = 0
    for i > n, and u_0 + 2*(u_1 + ... + u_n) = 1."""
    r = poly_ring(field, tuple(f"u{i}" for i in range(n + 1)))
    u = r.gens()

    def at(i):
        return u[abs(i)] if abs(i) <= n else r.zero()

    gens = [sum((at(l) * at(m - l) for l in range(-n, n + 1)), r.zero()) - u[m]
            for m in range(n)]
    return r, gens + [u[0] + 2 * sum(u[1:], r.zero()) - 1]


def _cyclic(field, n):
    """cyclic-n: the elementary cyclic sums of degrees 1..n-1, and x_0*...*x_(n-1) - 1."""
    r = poly_ring(field, tuple(f"c{i}" for i in range(n)))
    c = r.gens()
    gens = []
    for k in range(1, n):
        gens.append(sum((math.prod((c[(i + j) % n] for j in range(k)), start=r.one())
                         for i in range(n)), r.zero()))
    return r, gens + [math.prod(c, start=r.one()) - 1]


@pytest.mark.parametrize("p", [32003, 65521])
def test_reduced_basis_over_q_maps_to_the_basis_over_gf_p(p):
    # a reduced basis over Q, its coefficients taken mod p, is the reduced
    # basis over GF(p) for all but finitely many p, so a mismatch at one of
    # these large primes points at a bug in one of the two arithmetics
    rng = random.Random(101)
    cases = [_katsura(QQ, 3) + (GREVLEX,), _cyclic(QQ, 4) + (GREVLEX,)]
    r = poly_ring(QQ, ("x", "y", "z"))
    for k in range(21):
        gens = _seeded_ideal_gens(QQ, rng, r)
        if gens:
            cases.append((r, gens, ORDERS_XYZ[k % 3]))
    nontrivial = 0
    for ring, gens, order in cases:
        ring_p = poly_ring(GF(p), ring.names)
        for engine in (buchberger, groebner.buchberger):
            over_q = engine(gens, order)
            assert _mod_p(over_q, ring_p) == engine(_mod_p(gens, ring_p), order), gens
        nontrivial += over_q != [ring.one()]
    assert len(cases) >= 20 and nontrivial >= 12


def _divides(h, e):
    return all(a <= b for a, b in zip(h, e))


@pytest.mark.parametrize("interreduce", [True, False])
@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_buchberger_matches_a_reference_that_divides_everything(field, order, interreduce):
    # the reference divides every S-pair, zero or not, and interreduces
    # every element, reduced already or not
    rng = random.Random(89)
    r = poly_ring(field, ("x", "y", "z"))
    keyfn = order.key_for(r)
    nontrivial = 0
    for _ in range(10):
        gens = _seeded_ideal_gens(field, rng, r)
        if not gens:
            continue
        want = _reference_buchberger(gens, order)
        gb = buchberger(gens, order, interreduce)
        if interreduce:
            assert gb == want
        else:
            # minimal: monic, largest lead first, the reference's leads
            assert [g.leading(keyfn) for g in gb] == [(w.leading(keyfn)[0], field.one())
                                                     for w in want]
            assert interreduce_every_element(gb, order) == want
            assert groebner._interreduce(gb, order) == want
        nontrivial += want != [r.one()]
    assert nontrivial >= 5


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_buchberger_divides_only_where_a_step_can_happen(field, order, monkeypatch):
    # no zero S-polynomial of the oracle reaches divide, and `_interreduce`
    # divides exactly the elements holding a term that a smaller element's
    # leading exponent divides, each by the smaller elements
    calls, s_polys = [], []
    divide_, s_poly = groebner.divide, groebner._s_poly

    def recorded_divide(p, divisors, order=GREVLEX):
        calls.append((p, list(divisors)))
        return divide_(p, divisors, order)

    def recorded_s_poly(*args):
        s_polys.append(s_poly(*args))
        return s_polys[-1]

    monkeypatch.setattr(groebner, "divide", recorded_divide)
    monkeypatch.setattr(groebner, "_s_poly", recorded_s_poly)
    rng = random.Random(97)
    r = poly_ring(field, ("x", "y", "z"))
    x, y, z = r.gens()
    keyfn = order.key_for(r)
    divided = kept = far_only = 0
    # in the first ideal only the lead z, two elements below x^2 + z, divides
    # one of its terms
    for gens in [[x**2 + z, y, z]] + [_seeded_ideal_gens(field, rng, r) for _ in range(30)]:
        if not gens:
            continue
        calls.clear()
        minimal = buchberger(gens, order, interreduce=False)
        assert all(p for p, _ in calls)
        s_divisions = len(calls)
        calls.clear()
        reduced = groebner._interreduce(minimal, order)
        ascending = minimal[::-1]
        leads = [g.leading(keyfn)[0] for g in ascending]
        want = [k for k, g in enumerate(ascending)
                if any(_divides(h, e) for e in g.terms for h in leads[:k])]
        assert [p for p, _ in calls] == [ascending[k] for k in want]
        for (_, divisors), k in zip(calls, want):
            assert [d.leading(keyfn)[0] for d in divisors] == leads[:k]
        divided += len(want)
        kept += len(ascending) - 1 - len(want)
        far_only += sum(not any(_divides(leads[k - 1], e) for e in ascending[k].terms)
                        for k in want)
        # the full run divides the same S-polynomials, then every element of
        # the minimal basis by all the others
        calls.clear()
        assert buchberger(gens, order) == reduced
        assert [p for p, _ in calls[s_divisions:]] == minimal
        assert len(calls) == s_divisions + len(minimal) and all(p for p, _ in calls)
    assert not all(s_polys) and divided and kept and far_only


# the names of the library's engine, which the oracle must not read
ENGINE = {"signature_basis", "_interreduce", "Ideal", "ideal", "buchberger"}


def _engine_reads(source):
    """The names of ENGINE that source imports from `ufdlab.groebner` or
    reads as attributes of that module, imported from `ufdlab`."""
    tree = ast.parse(source)
    modules, found = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "ufdlab.groebner":
            found.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "ufdlab":
            modules.update(a.asname or a.name for a in node.names if a.name == "groebner")
    found.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id in modules)
    return found & ENGINE


def test_engine_scan_sees_imports_and_attribute_reads():
    source = ("from ufdlab import groebner as gb\nfrom ufdlab.groebner import Ideal, divide\n"
              "def f(x):\n    return gb.signature_basis(x), gb._s_poly(x), buchberger(x)\n")
    assert _engine_reads(source) == {"Ideal", "signature_basis"}


def test_oracle_reads_nothing_of_the_engine():
    assert _engine_reads(Path(__file__).with_name("oracles.py").read_text()) == set()


@pytest.mark.parametrize("field", [QQ, GF(2), GF(32003)], ids=str)
def test_oracle_gives_the_same_bases_with_the_engine_removed(field, monkeypatch):
    # the oracle computes the engine's reduced bases with every name of the
    # engine set to None, so it cannot be running the engine itself
    rng = random.Random(103)
    r = poly_ring(field, ("x", "y", "z"))
    cases = [(gens, order) for order in ORDERS_XYZ for gens in
             (_seeded_ideal_gens(field, rng, r) for _ in range(4)) if gens]
    want = [groebner.buchberger(gens, order) for gens, order in cases]
    for name in ENGINE:
        monkeypatch.setattr(groebner, name, None)
    assert [buchberger(gens, order) for gens, order in cases] == want
    assert any(basis != [r.one()] for basis in want)


def test_ideal_runs_signature_basis_once_per_order(monkeypatch):
    r = QXY()
    x, y = r.gens()
    calls = []
    interreduced = []
    original, original_interreduce = groebner.signature_basis, groebner._interreduce

    def counted(gens, order=GREVLEX):
        calls.append(order)
        return original(gens, order)

    def counted_interreduce(basis, order):
        interreduced.append(order)
        return original_interreduce(basis, order)

    monkeypatch.setattr(groebner, "signature_basis", counted)
    monkeypatch.setattr(groebner, "_interreduce", counted_interreduce)
    monkeypatch.setattr(groebner, "buchberger", None)  # Ideal never calls it
    i = ideal(r, x**2 + y, x * y - 1)
    assert i.contains(x**3 + x * y)
    assert interreduced == []
    gb = i.groebner()
    assert i.groebner() is gb
    assert i.contains(y * (x * y - 1))
    # one minimal run, interreduced in place; no second run of the engine
    assert calls == [GREVLEX]
    assert interreduced == [GREVLEX]
    i.groebner(LEX)
    assert calls == [GREVLEX, LEX]
    assert interreduced == [GREVLEX, LEX]


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("order", ORDERS_XYZ, ids=lambda o: o.kind)
def test_ideal_groebner_after_contains_is_the_reduced_basis(field, order):
    rng = random.Random(61)
    r = poly_ring(field, ("x", "y", "z"))
    nontrivial = tails = 0
    for _ in range(10):
        gens = _seeded_ideal_gens(field, rng, r)
        if not gens:
            continue
        i = ideal(r, *gens)
        probe = Polynomial(r, {(1, 1, 0): field.one(), (0, 0, 2): field.one()})
        i.contains(probe, order)
        gb = buchberger(gens, order)
        assert list(i.groebner(order)) == gb
        # normal forms after the interreduction divide by the reduced basis
        assert i.normal_form(probe, order) == divide(probe, gb, order)[0]
        nontrivial += gb != [r.one()]
        # ideals whose minimal basis has unreduced tails
        tails += buchberger(gens, order, interreduce=False) != gb
    assert nontrivial >= 5 and tails >= 2


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
def test_elim_ideal_matches_elimination_of_the_reduced_basis(field):
    rng = random.Random(67)
    r = poly_ring(field, ("x", "y", "z"))
    small = poly_ring(field, ("y", "z"))
    order = elimination_order(("x",), ("y", "z"))
    nonzero = 0
    for _ in range(10):
        gens = _seeded_ideal_gens(field, rng, r)
        if not gens:
            continue
        reduced = [g.lift(small) for g in buchberger(gens, order)
                   if g.support() <= {"y", "z"}]
        want = ideal(small, *reduced)
        i = ideal(r, *gens)
        got = elim_ideal(i, ("y", "z"))
        assert got.ring == small
        assert ideal_equal(got, want)
        i.groebner(order)
        assert ideal_equal(elim_ideal(i, ("y", "z")), want)
        nonzero += bool(reduced)
    assert nonzero >= 5


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
        assert groebner.buchberger(gens, GREVLEX) == gb
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
                assert not divide(s, gb, GREVLEX)[0]
        # original generators lie in the span of the basis
        for g in gens:
            assert not divide(g, gb, GREVLEX)[0]
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


def test_degree_cap_trips(monkeypatch):
    # a generator over the cap is refused on intake, before any reduction
    monkeypatch.setenv("UFDLAB_CAPS", "degree=2")
    r = QXY()
    x, y = r.gens()
    with pytest.raises(CapExceeded, match="^instance too large: signature_basis reached "
                                          "degree 3, over the degree cap of 2$"):
        ideal(r, x**3 + 1, y).groebner()


def test_buchberger_degree_cap_trips_on_a_generator(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "degree=2")
    r = QXY()
    x, y = r.gens()
    with pytest.raises(CapExceeded, match="^instance too large: buchberger reached degree 3, "
                                          "over the degree cap of 2$"):
        buchberger([x**3 + 1, y], GREVLEX)


def test_divide_term_cap_trips_when_work_grows(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    r = poly_ring(QQ, ("x", "y", "z", "w", "v"))
    x, y, z, w, v = r.gens()
    # x^2 itself fits; one step turns it into four terms
    with pytest.raises(CapExceeded, match="^instance too large: divide reached terms 4, "
                                          "over the terms cap of 3$"):
        divide(x**2, [x**2 - y - z - w - v])


def test_divide_degree_cap_trips_on_a_later_leading_term(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "degree=2")
    r = QXY()
    x, y = r.gens()
    # x has degree 1; under lex the first step leaves y^3 leading
    with pytest.raises(CapExceeded, match="^instance too large: divide reached degree 3, "
                                          "over the degree cap of 2$"):
        divide(x, [x - y**3], LEX)


def test_buchberger_term_cap_trips_on_a_new_remainder(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    r = poly_ring(QQ, ("x", "y", "z"))
    x, y, z = r.gens()
    f, g = x * y + x - z, y**3
    # the only pair's S-polynomial divides within the cap, to four terms
    rem, _ = divide(y**2 * f - x * g, [f, g])
    assert rem.term_count() == 4
    with pytest.raises(CapExceeded, match="^instance too large: buchberger reached terms 4, "
                                          "over the terms cap of 3$"):
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
    with pytest.raises(CapExceeded, match=f"^instance too large: saturation reached rounds "
                                          f"{SATURATION_ROUNDS_CAP + 1}, over the rounds cap "
                                          f"of {SATURATION_ROUNDS_CAP}$"):
        saturation(ideal(r, x**SATURATION_ROUNDS_CAP * y), x)


def test_tag_variable_steps_past_names_the_ring_holds():
    # the tag t is adjoined as t2 in a ring holding t and t1: each result
    # must be the one a renamed copy of that ring gives
    held = poly_ring(QQ, ("t", "t1", "y"))
    free = poly_ring(QQ, ("u", "v", "y"))

    def moved(i):
        return ideal(free, *(Polynomial(free, g.terms) for g in i.gens))

    t, t1, y = held.gens()
    a, b, f = ideal(held, t**2 * y, t * t1**2), ideal(held, t * t1, y**2), t * y
    g = Polynomial(free, f.terms)
    cap = intersect(a, b)
    assert not ideal_equal(cap, a) and not ideal_equal(cap, b)
    assert ideal_equal(moved(cap), intersect(moved(a), moved(b)))
    assert ideal_equal(moved(ideal_quotient(a, f)), ideal_quotient(moved(a), g))
    sat, index = saturation(a, f)
    free_sat, free_index = saturation(moved(a), g)
    assert ideal_equal(moved(sat), free_sat)
    assert index == free_index == 2


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


def test_ideal_power_keeps_each_product_once():
    r = poly_ring(QQ, ("u", "v", "w"))
    u, v, _ = r.gens()
    power = ideal_power(ideal(r, u, v), 5)
    assert power.gens == tuple(u ** (5 - k) * v**k for k in range(6))
    assert ideal_product(ideal(r, u, v), ideal(r, v, u)).gens == (u * v, u**2, v**2)


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


def _random_terms(field, rng, max_deg, count):
    terms = {}
    for _ in range(count):
        a = rng.randint(0, max_deg)
        terms[(a, rng.randint(0, max_deg - a))] = field.sample(rng)
    return terms


def test_brute_force_member_rejects_generators_from_another_ring():
    x, y = QXY().gens()
    for other in (poly_ring(QQ, ("x",)), poly_ring(GF(5), ("x", "y"))):
        with pytest.raises(ValueError, match="different rings"):
            brute_force_member(x**2, [other.gens()[0]], 2)


def test_brute_force_member_reuses_its_span_exactly():
    # Interleave fields, two ideals with two generators each, two cofactor
    # bounds and queries above the row degree, so that the kept span is hit
    # and missed in every way; each answer must match a cleared cache.
    rng = random.Random(43)
    configs = []
    for field in (GF(5), GF(7), QQ):
        r = poly_ring(field, ("x", "y"))
        x, y = r.gens()
        for gens in ([x**2 + y, x * y - 1], [x**2 - y, y**2 + x]):
            gb = buchberger(gens)
            for bound in (1, 2):
                configs.append((r, gens, gb, bound))
    calls = []
    config = rng.choice(configs)
    for _ in range(240):
        if rng.random() < 0.4:
            config = rng.choice(configs)
        r, gens, gb, bound = config
        kind = rng.choice(("member", "member", "random", "again", "high"))
        if kind == "again" and calls and calls[-1][1] is config:
            p = calls[-1][0]
        elif kind == "member":
            p = r.zero()
            for g in gens:
                p = p + Polynomial(r, _random_terms(r.field, rng, bound, 3)) * g
        elif kind == "high":
            # above bound + 2, the generators' degree: a larger row basis
            p = Polynomial(r, _random_terms(r.field, rng, 3, 3)) + r.monomial({"y": bound + 3})
        else:
            p = Polynomial(r, _random_terms(r.field, rng, 3, 4))
        calls.append((p, config, kind, brute_force_member(p, gens, bound)))
    for p, (r, gens, gb, bound), kind, answer in calls:
        groebner._cofactor_span.cache_clear()
        assert answer == brute_force_member(p, gens, bound), (str(p), kind)
        member = not divide(p, gb)[0]
        assert not answer or member  # a yes is an explicit combination
        if kind == "member":
            assert answer and member
        if kind == "high":
            assert not answer


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(32003)], ids=str)
def test_brute_force_member_does_not_depend_on_generator_order(field):
    # The span is built shortest generator first.  The given, reversed and
    # length-sorted lists span the same columns, so their answers agree, and
    # agree with Ideal.contains wherever the bound certifies.
    rng = random.Random(59)
    r = poly_ring(field, ("x", "y"))
    bound = 2
    seen = {"member": 0, "non-member": 0}
    for _ in range(8):
        counts = [1, 2, 4]
        rng.shuffle(counts)
        gens = [g for g in (Polynomial(r, _random_terms(field, rng, 3, k)) for k in counts) if g]
        orders = (gens, gens[::-1], sorted(gens, key=lambda g: len(g.terms)))
        i = ideal(r, *gens)
        queries = []
        for _ in range(3):
            p = r.zero()
            for g in gens:
                p = p + Polynomial(r, _random_terms(field, rng, bound, 3)) * g
            queries.append((p, True))
            queries.append((Polynomial(r, _random_terms(field, rng, 3, 4)), False))
        for p, built in queries:
            answers = {brute_force_member(p, order, bound) for order in orders}
            assert len(answers) == 1, (str(p), [str(g) for g in gens])
            answer = answers.pop()
            member = i.contains(p)
            assert not answer or member  # a yes is an explicit combination
            if built:
                assert answer
                seen["member"] += 1
            elif not member:
                seen["non-member"] += 1
    assert seen["member"] and seen["non-member"]


def test_brute_force_member_row_updates_are_bounded(monkeypatch):
    # One Field.sub per row update, no timing.  In the given order the two
    # dense squares lay down their rows first and every later column fills
    # in against them (2,096 updates); shortest generator first takes 326.
    field = GF(5)
    updates = []
    sub = type(field).sub

    def counting_sub(self, a, b):
        updates.append(1)
        return sub(self, a, b)

    monkeypatch.setattr(type(field), "sub", counting_sub)
    r = poly_ring(field, ("x", "y", "z"))
    x, y, z = r.gens()
    gens = [(x + y + z + 1) ** 2, (x + 2 * y - z) ** 2, x * y - z, y**2]
    p = gens[0] * (x + z) + gens[-1] * y**2
    groebner._cofactor_span.cache_clear()
    updates.clear()
    assert brute_force_member(p, gens, 2)
    assert len(updates) <= 450


def _dense_added_flags(vectors, width, p):
    # Gaussian elimination on dense rows of Fractions (p = None) or of
    # residues mod p: does each vector raise the rank of those before it?
    def norm(v):
        return v % p if p else Fraction(v)

    def inv(v):
        return pow(v, -1, p) if p else 1 / v

    basis = []  # (pivot column, row with 1 there), in insertion order
    flags = []
    for vector in vectors:
        row = [norm(vector.get(i, 0)) for i in range(width)]
        for col, pivot_row in basis:
            if row[col]:
                factor = row[col]
                row = [norm(a - factor * b) for a, b in zip(row, pivot_row)]
        col = next((i for i, a in enumerate(row) if a), None)
        if col is not None:
            scale = inv(row[col])
            basis.append((col, [norm(a * scale) for a in row]))
        flags.append(col is not None)
    return flags


@pytest.mark.parametrize("field", [GF(2), GF(7), QQ], ids=str)
def test_row_echelon_matches_dense_elimination(field):
    rng = random.Random(47)
    width = 7
    p = getattr(field, "p", None)
    for _ in range(40):
        vectors = []
        for _ in range(rng.randint(1, 12)):
            if vectors and rng.random() < 0.2:
                vectors.append(dict(rng.choice(vectors)))  # a duplicate
                continue
            vector = {}
            for i in rng.sample(range(width), rng.randint(0, 3)):  # 0: a zero vector
                if p:
                    vector[i] = rng.randrange(1, p)
                else:
                    vector[i] = field.of(Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3)))
            vectors.append(vector)
        assert row_echelon(field, vectors) == _dense_added_flags(vectors, width, p)


def test_irreducible_gf2_quadratics():
    r = poly_ring(GF(2), ("x",))
    assert brute_force_irreducible(r.parse("x^2 + x + 1"), 1) is None
    v = brute_force_irreducible(r.parse("x^2 + 1"), 1)
    assert v is not None
    g, h = v
    assert g * h == r.parse("x^2 + 1")


def test_irreducible_gf2_quintics():
    r = poly_ring(GF(2), ("z",))
    # z^5 + z + 1 = (z^2 + z + 1)(z^3 + z^2 + 1); max_deg 2 is complete for degree 5
    v = brute_force_irreducible(r.parse("z^5 + z + 1"), 2)
    assert v is not None
    g, h = v
    assert g * h == r.parse("z^5 + z + 1")
    assert {str(g), str(h)} == {"z^2 + z + 1", "z^3 + z^2 + 1"}
    assert brute_force_irreducible(r.parse("z^5 + z^2 + 1"), 2) is None


def test_irreducible_multivariate():
    r = poly_ring(GF(2), ("x", "y"))
    assert brute_force_irreducible(r.parse("x^2 + y^2"), 1) is not None  # (x+y)^2
    assert brute_force_irreducible(r.parse("x^2 + x*y + y^2"), 1) is None


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
    with pytest.raises(CapExceeded, match="^instance too large: brute_force_irreducible reached "
                                          "candidates [0-9]+, over the candidates cap of "
                                          f"{groebner.IRREDUCIBLE_CANDIDATE_CAP}$"):
        brute_force_irreducible(r.parse("x^5 + y^5 + z^5 + 1"), 4)


@pytest.mark.parametrize("names", ["x", "xy", "xyz"])
def test_monomials_up_to_is_one_immutable_enumeration_per_ring_and_degree(names):
    ring = poly_ring(GF(5), tuple(names))
    keyfn = GREVLEX.key_for(ring)
    for degree in range(10):
        want = sorted((e for e in itertools.product(range(degree + 1), repeat=ring.nvars)
                       if sum(e) <= degree), key=keyfn)
        got = groebner._monomials_up_to(ring, degree)
        assert type(got) is tuple and list(got) == want
        assert groebner._monomials_up_to(poly_ring(GF(5), tuple(names)), degree) is got


def _unpruned_factor_search(f, max_deg):
    """The factor search without pruning: every monic candidate of degree
    1..max_deg in ascending grevlex of its leading monomial, each checked
    for degree and then tried by exact division."""
    ring = f.ring
    monos = groebner._monomials_up_to(ring, max_deg)
    for lead_pos, lead in enumerate(monos):
        if sum(lead) == 0:
            continue
        for coeffs in itertools.product(range(ring.field.p), repeat=lead_pos):
            terms = {lead: 1}
            terms.update((m, c) for m, c in zip(monos, coeffs) if c)
            g = Polynomial(ring, terms)
            if g.total_degree() >= f.total_degree():
                continue
            rest, (h,) = divide(f, [g])
            if not rest:
                return g, h
    return None


def _random_poly(rng, ring, degree):
    """A polynomial with a term of exactly `degree` and up to three more of
    degree <= degree, nonzero coefficients in 1..p-1."""
    p, n = ring.field.p, ring.nvars

    def exp(d):
        cuts = sorted(rng.randint(0, d) for _ in range(n - 1))
        return tuple(b - a for a, b in zip([0] + cuts, cuts + [d]))

    terms = {exp(degree): rng.randrange(1, p)}
    for _ in range(rng.randint(0, 3)):
        terms[exp(rng.randint(0, degree))] = rng.randrange(1, p)
    return Polynomial(ring, terms)


# (p, variables, max_deg): small enough for the unpruned search
_FACTOR_SEARCH_CASES = [
    (2, "x", 3), (2, "xy", 2), (2, "xyz", 2),
    (3, "x", 3), (3, "xy", 2), (3, "xyz", 1),
    (5, "x", 3), (5, "xy", 2), (5, "xyz", 1),
]


@pytest.mark.parametrize("p, names, max_deg", _FACTOR_SEARCH_CASES)
def test_pruned_factor_search_matches_the_unpruned_one(p, names, max_deg):
    ring = poly_ring(GF(p), tuple(names))
    rng = random.Random(p * 100 + len(names) * 10 + max_deg)
    polys = [_random_poly(rng, ring, rng.randint(1, 2 * max_deg + 1)) for _ in range(4)]
    polys += [_random_poly(rng, ring, rng.randint(1, max_deg))
              * _random_poly(rng, ring, rng.randint(1, max_deg)) for _ in range(4)]
    for f in polys:
        if f.is_constant():
            continue
        assert brute_force_irreducible(f, max_deg) == _unpruned_factor_search(f, max_deg), str(f)


def test_factor_search_skips_candidates_of_f_s_own_degree():
    r = poly_ring(GF(5), ("x", "y"))
    # x*y + 1 itself is a monic candidate of degree 2 <= max_deg, not a proper factor
    assert brute_force_irreducible(r.parse("x*y + 1"), 2) is None


def test_factor_search_cap_counts_the_candidates_it_skips():
    r = poly_ring(GF(7), ("x", "y"))
    # only the 7 candidates y + c could divide lead(f) = y^2, but the cap
    # counts all 7 + 7^2 + ... + 7^9 candidates of degree <= 3
    with pytest.raises(CapExceeded, match="instance too large"):
        brute_force_irreducible(r.parse("y^2 + x"), 3)
