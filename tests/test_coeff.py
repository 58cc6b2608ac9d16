import math
import random
import re
from fractions import Fraction

import pytest

from ufdlab.coeff import GF, QQ, field_from_name, gcd_bezout, prime_avoid
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


def test_prime_field_requires_prime_modulus():
    with pytest.raises(ValueError, match="not prime"):
        GF(6)


def test_field_from_name():
    assert field_from_name("Q") is QQ
    assert field_from_name("F5") == GF(5)
    assert field_from_name("GF(7)") == GF(7)
    with pytest.raises(ValueError):
        field_from_name("R")


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
    assert r == expected
    if expected.denominator == 1:
        assert type(r) is int
    else:
        assert type(r) is Fraction


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
