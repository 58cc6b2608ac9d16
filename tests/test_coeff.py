import math
import random
import re
from fractions import Fraction

import pytest

from ufdlab.coeff import (
    GF,
    PRIME_BOUND,
    QQ,
    PrimeField,
    _cleared,
    _lowest_terms,
    field_from_name,
    gcd_bezout,
    prime_avoid,
)
from ufdlab.errors import HypothesisError
from ufdlab.poly import Polynomial, poly_ring


def test_gcd_bezout_pair():
    assert gcd_bezout([4, 6]) == (2, [-1, 1])


def test_gcd_bezout_identity():
    assert gcd_bezout([1]) == (1, [1])


def test_gcd_bezout_three_values():
    g, c = gcd_bezout([10, 15, 6])
    assert g == 1
    assert 10 * c[0] + 15 * c[1] + 6 * c[2] == 1


def test_gcd_bezout_zero_list_rejected():
    with pytest.raises(ValueError, match="gcd of zero list"):
        gcd_bezout([0, 0])


def test_gcd_bezout_randomized_bezout_identity():
    rng = random.Random(7)
    for _ in range(200):
        vals = [rng.randint(-40, 40) for _ in range(rng.randint(1, 5))]
        if all(v == 0 for v in vals):
            continue
        g, c = gcd_bezout(vals)
        assert g == math.gcd(*vals)
        assert sum(ci * vi for ci, vi in zip(c, vals)) == g


def test_gcd_bezout_permutation_fixes_gcd():
    rng = random.Random(11)
    for _ in range(100):
        vals = [rng.randint(-20, 20) for _ in range(4)]
        if all(v == 0 for v in vals):
            continue
        perm = vals[::-1]
        assert gcd_bezout(vals)[0] == gcd_bezout(perm)[0]


def test_prime_avoid_already_coprime():
    assert prime_avoid([4, 6], 3, 10) == [0, 0]


def test_prime_avoid_scan():
    m = prime_avoid([5], 3, 6)
    assert m == [2]
    assert math.gcd(6, 3 + m[0] * 5) == 1


def test_prime_avoid_unit_c():
    assert prime_avoid([7, -3, 2], 5, 1) == [0, 0, 0]
    assert prime_avoid([7, -3, 2], 5, -1) == [0, 0, 0]


def test_prime_avoid_hypothesis_violation():
    with pytest.raises(HypothesisError, match="hypothesis of prime avoidance fails"):
        prime_avoid([4, 6], 2, 10)


def test_prime_avoid_exhaustive_small_window():
    # Every admissible (a1, a2, b, c) in a small box yields a certified m.
    for a1 in range(-4, 5):
        for a2 in range(-4, 5):
            for b in range(-4, 5):
                for c in range(-4, 5):
                    if c == 0 or math.gcd(a1, a2, b, c) != 1:
                        continue
                    m = prime_avoid([a1, a2], b, c)
                    assert math.gcd(c, b + m[0] * a1 + m[1] * a2) == 1


def _scan_prime_avoid(a, b, c):
    # prime_avoid without its t = 0 shortcut: Bezout first, then the scan
    if math.gcd(*a, b, c) != 1:
        raise HypothesisError("hypothesis of prime avoidance fails")
    if all(v == 0 for v in a):
        return [0] * len(a)
    d, e = gcd_bezout(list(a))
    if c == 0:
        for target in (1, -1):
            if (target - b) % d == 0:
                return [(target - b) // d * ei for ei in e]
        raise HypothesisError("prime avoidance with c = 0 needs b + t*gcd(a) = +-1")
    for t in range(abs(c) + 1):
        if math.gcd(c, b + t * d) == 1:
            return [t * ei for ei in e]
    raise AssertionError("scan exhausted")


def _outcome(f, *args):
    try:
        return f(*args)
    except HypothesisError:
        return "HypothesisError"


def test_prime_avoid_matches_the_plain_scan_on_a_box():
    box = range(-8, 9)
    for a1 in box:
        for a2 in box:
            for b in box:
                for c in box:
                    want = _outcome(_scan_prime_avoid, [a1, a2], b, c)
                    assert _outcome(prime_avoid, [a1, a2], b, c) == want, (a1, a2, b, c)


def test_prime_avoid_c_zero_ignores_the_coprime_shortcut():
    # gcd(0, -1) = 1, yet c = 0 asks for b + t*d = +-1 and finds t = 2
    assert prime_avoid([1, 0], -1, 0) == [2, 0]


def test_prime_avoid_returns_a_fresh_list_each_call():
    # the Bezout vector of the last a is cached; the list handed out is not it
    for a, b, c in (([6, 10], 3, 15), ([6, 10], 3, 0), ([4, 6, 9], 2, 8)):
        want = _scan_prime_avoid(a, b, c)
        first = prime_avoid(a, b, c)
        assert first == want
        first[0] += 100
        first.append(7)
        assert prime_avoid(a, b, c) == want


def test_prime_avoid_c_zero_matches_the_plain_scan_between_other_calls():
    # c = 0 and c != 0 calls interleaved, a kept or changed between them, so
    # the cached Bezout vector is hit and missed from both branches
    rng = random.Random(53)
    a = [1]
    c_zero = 0
    for _ in range(3000):
        if rng.random() < 0.5:
            a = [rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]
        b = rng.randint(-9, 9)
        c = 0 if rng.random() < 0.5 else rng.randint(-12, 12)
        want = _outcome(_scan_prime_avoid, a, b, c)
        assert _outcome(prime_avoid, a, b, c) == want, (a, b, c)
        c_zero += c == 0 and want != "HypothesisError"
    assert c_zero > 100


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError, match="not prime"):
        GF(6)


def test_large_prime_modulus_is_accepted_at_once():
    fld = field_from_name("GF(1000000000000000003)")
    assert fld.p == 10**18 + 3


@pytest.mark.parametrize("n", [
    561,                  # Carmichael number 3*11*17
    3215031751,           # 151*751*28351, a strong pseudoprime to bases 2, 3, 5, 7
    3825123056546413051,  # a strong pseudoprime to every prime base up to 31
    318665857834031151167461,  # to every prime base up to 37: only base 41 rejects it
])
def test_composite_pseudoprime_modulus_is_rejected(n):
    with pytest.raises(ValueError, match="not prime"):
        PrimeField(n)


def test_modulus_above_the_primality_bound_is_rejected():
    # 2^89 - 1 is prime, but above the bound up to which bases 2..41 decide primality
    with pytest.raises(ValueError, match=str(PRIME_BOUND)):
        PrimeField(2**89 - 1)


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("F5") == GF(5)
    assert field_from_name("GF(7)") == GF(7)
    # digits are ASCII: fullwidth and Arabic-Indic ones name no field
    for name in ("R", "GF(abc)", "GF()", "GF(7.5)", "GF(\uff13)", "F\u0667", "GF(1\uff11)"):
        with pytest.raises(ValueError, match=rf"^unrecognized field name '{re.escape(name)}'$"):
            field_from_name(name)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(7)])
def test_field_axioms_randomized(field):
    rng = random.Random(5)
    for _ in range(60):
        a, b, c = (field.sample(rng) for _ in range(3))
        assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
        assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
        assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
        assert field.add(a, field.neg(a)) == field.zero()
        if a != field.zero():
            assert field.mul(a, field.inv(a)) == field.one()


def test_prime_field_of_fraction():
    from fractions import Fraction

    F = GF(5)
    # 1/2 = 3 mod 5
    assert F.of(Fraction(1, 2)) == 3
    assert F.of("1/2") == 3
    assert F.of("-7") == 3
    with pytest.raises(ValueError, match=r"Fraction\(1, 5\) is not an element of GF\(5\)"):
        F.of(Fraction(1, 5))
    with pytest.raises(ValueError, match=r"'3/10' is not an element of GF\(5\)"):
        F.of("3/10")


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=str)
@pytest.mark.parametrize("value", [None, True, False, 2.5, [1], "x", "1/0"])
def test_field_of_rejects_what_is_not_a_number(field, value):
    with pytest.raises(ValueError, match=re.escape(f"is not an element of {field}")):
        field.of(value)


def test_rational_ops_on_ints_stay_exact():
    for r in (QQ.inv(2), QQ.div(1, 2), QQ.pow(2, -1)):
        assert type(r) is Fraction and r == Fraction(1, 2)
    ring = poly_ring(QQ, ("x", "y"))
    monic = Polynomial(ring, {(1, 0): 2}).monic()
    assert monic.terms == {(1, 0): 1}
    assert type(monic.terms[(1, 0)]) is int


def _assert_canonical(r, expected):
    """r is the element `expected` of Q in its one canonical form."""
    assert r == expected
    assert str(r) == str(expected) and hash(r) == hash(expected)
    if expected.denominator == 1:
        assert type(r) is int
    else:
        assert type(r) is Fraction
        assert math.gcd(r.numerator, r.denominator) == 1 and r.denominator > 1


def test_rational_element_type_matches_fraction_reference():
    rng = random.Random(8)

    def operand():
        kind = rng.randrange(3)
        if kind == 0:
            return rng.randint(-30, 30)
        if kind == 1:
            return Fraction(rng.randint(-30, 30))
        return Fraction(rng.randint(-30, 30), rng.randint(2, 12))

    for _ in range(400):
        a, b = operand(), operand()
        fa, fb = Fraction(a), Fraction(b)
        _assert_canonical(QQ.of(a), fa)
        _assert_canonical(QQ.add(a, b), fa + fb)
        _assert_canonical(QQ.sub(a, b), fa - fb)
        _assert_canonical(QQ.neg(QQ.of(a)), -fa)
        _assert_canonical(QQ.mul(a, b), fa * fb)
        n = rng.randint(-4, 4)
        if fb != 0:
            _assert_canonical(QQ.div(a, b), fa / fb)
            _assert_canonical(QQ.inv(b), 1 / fb)
            _assert_canonical(QQ.pow(b, n), fb**n)
        elif n >= 0:
            _assert_canonical(QQ.pow(b, n), fb**n)
    for value in (3, -7, Fraction(6, 3), Fraction(5, 4), "2/4", "10/5"):
        _assert_canonical(QQ.of(value), Fraction(value))
    _assert_canonical(QQ.zero(), Fraction(0))
    _assert_canonical(QQ.one(), Fraction(1))


def test_rational_ops_on_multiword_and_unit_operands_match_fraction_reference():
    # operands beyond 2^64 whose denominators share small factors, so the
    # cross-gcds of sums and products cancel, and 0, +-1 and fractions given
    # with a negative denominator through `of`
    rng = random.Random(9)

    def smooth():
        return 2 ** rng.randrange(5) * 3 ** rng.randrange(3) * 5 ** rng.randrange(2)

    def operand():
        kind = rng.randrange(4)
        if kind == 0:
            return QQ.of(rng.choice((0, 1, -1)))
        if kind == 1:
            return QQ.of(rng.choice((-1, 1)) * rng.getrandbits(rng.randint(65, 200)))
        n = rng.choice((-1, 1)) * rng.getrandbits(rng.randint(1, 200)) * smooth()
        d = rng.getrandbits(rng.randint(1, 200)) * smooth() + 1
        if kind == 2:
            return QQ.of(Fraction(n, -d))
        return QQ.of(Fraction(n, d))

    for _ in range(1500):
        a, b = operand(), operand()
        fa, fb = Fraction(a), Fraction(b)
        _assert_canonical(a, fa)
        _assert_canonical(QQ.add(a, b), fa + fb)
        _assert_canonical(QQ.sub(a, b), fa - fb)
        _assert_canonical(QQ.mul(a, b), fa * fb)
        _assert_canonical(QQ.neg(a), -fa)
        if fb != 0:
            _assert_canonical(QQ.inv(b), 1 / fb)
            _assert_canonical(QQ.div(a, b), fa / fb)
    for a in (0, 1, -1, Fraction(-1, 2), 2**64 + 1, Fraction(-(2**64), 2**65 + 1)):
        fa = Fraction(a)
        _assert_canonical(QQ.sub(a, a), Fraction(0))
        _assert_canonical(QQ.add(a, QQ.neg(a)), Fraction(0))
        if a != 0:
            _assert_canonical(QQ.div(a, a), Fraction(1))
            _assert_canonical(QQ.mul(a, QQ.inv(a)), Fraction(1))
            _assert_canonical(QQ.inv(QQ.inv(a)), fa)
    for n, d in ((3, -4), (-3, -4), (6, -3), (0, -5), (2**70, -(2**70)), (-1, -1)):
        _assert_canonical(QQ.of(Fraction(n, d)), Fraction(n, d))
    with pytest.raises(ZeroDivisionError, match="inverse of zero"):
        QQ.inv(QQ.of(Fraction(0, -3)))


def test_lowest_terms_normalises_any_int_pair():
    # a negative denominator, a zero numerator and a common factor, each
    # alone and together, and pairs beyond 2^64
    for n, d in ((3, -4), (-3, -4), (0, 7), (0, -7), (6, 4), (-6, -4), (12, -3),
                 (2**70, 2**69), (3 * 2**65, -(9 * 2**65 + 6)), (5, 1), (5, -1)):
        _assert_canonical(_lowest_terms(n, d), Fraction(n, d))
    rng = random.Random(10)
    for _ in range(300):
        common = rng.choice((1, 2, 6, 2**40))
        n = rng.randint(-50, 50) * common
        d = rng.choice((-1, 1)) * rng.randint(1, 50) * common
        _assert_canonical(_lowest_terms(n, d), Fraction(n, d))


def test_cleared_takes_elements_to_ints_over_their_common_denominator():
    assert _cleared([2, -3, 0]) == (1, [2, -3, 0])
    assert _cleared([1, QQ.of(Fraction(1, 2)), QQ.of(Fraction(-2, 3)), 5]) == (6, [6, 3, -4, 30])
    rng = random.Random(11)
    for _ in range(200):
        values = [QQ.sample(rng) for _ in range(rng.randrange(1, 6))]
        d, ints = _cleared(values)
        assert d == math.lcm(*[Fraction(c).denominator for c in values])
        assert ints == [d * c for c in values] and all(type(n) is int for n in ints)


@pytest.mark.parametrize("p", [2, 32003, 4294967311])
def test_prime_field_inverse(p):
    F = GF(p)
    rng = random.Random(p)
    for _ in range(50):
        a = rng.randrange(1, p)
        assert a * F.inv(a) % p == 1
    for zero in (0, p):
        with pytest.raises(ZeroDivisionError, match="inverse of zero"):
            F.inv(zero)
