"""Exact coefficient arithmetic and the constructive integer lemmas.

Integers are plain Python ints (arbitrary precision, exact).  Field elements
are represented by the natural host type of each field:

  RationalField  ->  int when integral, else fractions.Fraction
                     (in lowest terms, denominator > 1)
  PrimeField(p)  ->  int residue in [0, p)

Both field classes expose the same small arithmetic protocol so the polynomial
layer stays field-agnostic.

Q arithmetic works on (numerator, denominator) int pairs, not through
Fraction's operators, whose type dispatch and re-normalisation were most of
the cost of Groebner work over Q.  Cross-cancelling formulas leave every
result in lowest terms already, so it is built once, by `_reduced`: the one
place that builds a Fraction without normalising it (the tests hold every
other module to that).  A pair that may share a factor, or whose
denominator may be negative, goes through `_lowest_terms` first, and
`_cleared` takes elements to ints over their common denominator.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Sequence, Union

from .errors import HypothesisError

Coeff = Union[Fraction, int]


def is_int(value) -> bool:
    """An int that is not a bool (JSON true/false arrive as bool, a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


# Miller-Rabin on the primes 2..41 as bases decides primality for every n
# below PRIME_BOUND (Sorenson & Webster 2015, "Strong pseudoprimes to twelve
# prime bases"); above it a pass would only make n a probable prime.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3_317_044_064_679_887_385_961_981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; ValueError for n >= PRIME_BOUND."""
    if n >= PRIME_BOUND:
        raise ValueError(f"modulus {n} is too large: primality is decided "
                         f"only below {PRIME_BOUND}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rational(value, field) -> Fraction:
    """value as a Fraction when it is an int (not a bool), a Fraction or text
    such as "2/4"; a ValueError naming the value and the field otherwise."""
    try:
        if is_int(value) or isinstance(value, (Fraction, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):  # text that is not a number
        pass
    raise ValueError(f"{value!r} is not an element of {field}")


def _reduced(n: int, d: int) -> Coeff:
    """The element n/d of Q for coprime n and d > 0: the int n when d is 1,
    else a Fraction whose two slots are set directly, as Python 3.12's
    Fraction._from_coprime_ints does (here on every supported Python)."""
    if d == 1:
        return n
    r = object.__new__(Fraction)
    r._numerator = n
    r._denominator = d
    return r


def _lowest_terms(n: int, d: int) -> Coeff:
    """The element n/d of Q for any ints n and d != 0: the pair divided by
    gcd(n, d), with the sign moved to the numerator, and built by
    `_reduced`."""
    g = gcd(n, d)
    if d < 0:
        g = -g
    return _reduced(n // g, d // g)


def _cleared(values: Collection[Coeff]) -> tuple[int, list[int]]:
    """(d, [d*c for c in values]) for elements c of Q: d > 0 is the lcm of
    their denominators, so every d*c is an int."""
    d = lcm(*[1 if type(c) is int else c._denominator for c in values])
    if d == 1:
        return 1, list(values)
    return d, [c * d if type(c) is int else c._numerator * (d // c._denominator)
               for c in values]


def _sum(na: int, da: int, nb: int, db: int) -> Coeff:
    """na/da + nb/db for two fractions in lowest terms, by Henrici's formula
    (Knuth, TAOCP vol. 2, 4.5.1): with g = gcd(da, db), only a divisor of g
    can cancel from the cross sum, so gcd(t, g) finishes the reduction."""
    g = gcd(da, db)
    if g == 1:
        return _reduced(na * db + da * nb, da * db)
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return _reduced(t, s * db)
    return _reduced(t // g2, s * (db // g2))


def _product(na: int, da: int, nb: int, db: int) -> Coeff:
    """(na/da) * (nb/db) for two fractions in lowest terms: cancelling
    gcd(na, db) and gcd(nb, da) first leaves a product in lowest terms."""
    g1 = gcd(na, db)
    if g1 > 1:
        na //= g1
        db //= g1
    g2 = gcd(nb, da)
    if g2 > 1:
        nb //= g2
        da //= g2
    return _reduced(na * nb, da * db)


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers; an element is an int when it is
    integral and a Fraction (denominator > 1) otherwise.  int and Fraction
    compare, hash and mix alike, so callers see one number type.

    The arithmetic reads (numerator, denominator) pairs and returns elements
    in this canonical form without normalising them again: two ints combine
    as ints; an int m and a fraction n/d add to (m*d + n)/d, already in
    lowest terms as gcd(m*d + n, d) = gcd(n, d) = 1; two fractions go
    through the cross-cancelling `_sum` and `_product`, and `inv` swaps the
    pair.  Each result is built once, by `_reduced`."""

    char = 0

    def of(self, value) -> Coeff:
        if type(value) is int:
            return value
        r = _rational(value, self)
        return _reduced(r.numerator, r.denominator)

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: Coeff, b: Coeff) -> Coeff:
        if type(a) is int:
            if type(b) is int:
                return a + b
            return _reduced(a * b._denominator + b._numerator, b._denominator)
        if type(b) is int:
            return _reduced(a._numerator + b * a._denominator, a._denominator)
        return _sum(a._numerator, a._denominator, b._numerator, b._denominator)

    def sub(self, a: Coeff, b: Coeff) -> Coeff:
        if type(a) is int:
            if type(b) is int:
                return a - b
            return _reduced(a * b._denominator - b._numerator, b._denominator)
        if type(b) is int:
            return _reduced(a._numerator - b * a._denominator, a._denominator)
        return _sum(a._numerator, a._denominator, -b._numerator, b._denominator)

    def neg(self, a: Coeff) -> Coeff:
        if type(a) is int:
            return -a
        return _reduced(-a._numerator, a._denominator)

    def mul(self, a: Coeff, b: Coeff) -> Coeff:
        if type(a) is int:
            if type(b) is int:
                return a * b
            return _product(a, 1, b._numerator, b._denominator)
        if type(b) is int:
            return _product(a._numerator, a._denominator, b, 1)
        return _product(a._numerator, a._denominator, b._numerator, b._denominator)

    def inv(self, a: Coeff) -> Coeff:
        n, d = a.numerator, a.denominator
        if n > 0:
            return _reduced(d, n)
        if n < 0:
            return _reduced(-d, -n)
        raise ZeroDivisionError("inverse of zero")

    def div(self, a: Coeff, b: Coeff) -> Coeff:
        c = self.inv(b)
        return _product(a.numerator, a.denominator, c.numerator, c.denominator)

    def pow(self, a: Coeff, n: int) -> Coeff:
        if n < 0:
            a, n = self.inv(a), -n
        return _reduced(a.numerator**n, a.denominator**n)

    def render(self, a: Coeff) -> str:
        return str(a)

    def sample(self, rng) -> Coeff:
        return self.of(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

    def __str__(self) -> str:
        return "Q"


@dataclass(frozen=True)
class PrimeField:
    """The field Z/pZ for a verified prime p; elements are ints in [0, p)."""

    p: int

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError(f"modulus {self.p} is not prime")

    @property
    def char(self) -> int:
        return self.p

    def of(self, value) -> int:
        if type(value) is int:
            return value % self.p
        r = _rational(value, self)
        if r.denominator % self.p == 0:
            raise ValueError(f"{value!r} is not an element of {self}")
        return self.div(r.numerator % self.p, r.denominator % self.p)

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def neg(self, a: int) -> int:
        return (-a) % self.p

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.p

    def inv(self, a: int) -> int:
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, -1, self.p)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def pow(self, a: int, n: int) -> int:
        if n < 0:
            return pow(self.inv(a), -n, self.p)
        return pow(a, n, self.p)

    def render(self, a: int) -> str:
        return str(a % self.p)

    def sample(self, rng) -> int:
        return rng.randrange(self.p)

    def __str__(self) -> str:
        return f"GF({self.p})"


QQ = RationalField()

Field = Union[RationalField, PrimeField]

@functools.cache
def GF(p: int) -> PrimeField:
    """The prime field with p elements (p validated prime)."""
    return PrimeField(p)


def field_from_name(name: str) -> Field:
    """Parse "Q" / "QQ" or "F<p>" / "GF(<p>)", p in ASCII decimal digits,
    into a field object."""
    if not isinstance(name, str):
        raise ValueError(f"a field name must be text, got {name!r}")
    text = name.strip()
    if text in ("Q", "QQ"):
        return QQ
    if text.startswith("GF(") and text.endswith(")"):
        digits = text[3:-1]
    elif text.startswith("F"):
        digits = text[1:]
    else:
        digits = ""
    if digits.isascii() and digits.isdecimal():
        return GF(int(digits))
    raise ValueError(f"unrecognized field name {name!r}")


def _ext_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def gcd_bezout(values: Sequence[int]) -> tuple[int, list[int]]:
    """gcd of a nonempty integer list together with Bezout coefficients.

    Returns (g, coeffs) with g = gcd(values) >= 0 and sum(c*v) = g.
    """
    if not values:
        raise ValueError("gcd of empty list")
    if not any(values):
        raise ValueError("gcd of zero list")
    g = abs(values[0])
    coeffs = [1 if values[0] >= 0 else -1]
    if values[0] == 0:
        coeffs = [0]
    for v in values[1:]:
        g2, x, y = _ext_gcd(g, v)
        coeffs = [c * x for c in coeffs]
        coeffs.append(y)
        g = g2
    return g, coeffs


@functools.lru_cache(maxsize=1)
def _bezout(a: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """gcd_bezout(a) as an immutable pair, and (0, zeros) when a is empty or
    all zero; the last one is kept, since a caller scanning b and c keeps a
    fixed."""
    if not any(a):
        return 0, (0,) * len(a)
    g, coeffs = gcd_bezout(list(a))
    return g, tuple(coeffs)


def prime_avoid(a: Sequence[int], b: int, c: int) -> list[int]:
    """Find integers m with gcd(c, b + sum(m[i]*a[i])) = 1.

    Requires gcd(a_1, ..., a_n, b, c) = 1.  The search writes d = gcd(a),
    expresses d = sum(e[i]*a[i]) and scans t = 0, 1, ... testing
    gcd(c, b + t*d) = 1; some t <= |c| always works because the bad t form,
    for each prime divisor of c not dividing d, a single residue class, and
    the product of those primes is at most |c|.

    The checks run in this order.  First, for c != 0, gcd(c, b) = 1 returns
    m = 0 at once: t = 0 works, and it makes the hypothesis hold.  Then the
    Bezout pair (d, e) of a is read (d = 0 when a is empty or all zero), and
    the hypothesis is tested as gcd(d, b, c) = 1, which is gcd(a, b, c) = 1
    since d = gcd(a).  Only then come d = 0 (m = 0), c = 0 (b + t*d = +-1
    exactly) and the scan.  The pair of the last a is cached, so repeated
    calls with the same a compute it once; each call still returns a fresh
    list.
    """
    if c and gcd(c, b) == 1:
        # c = 0 is left out: it asks for b + t*d = +-1 below.
        return [0] * len(a)
    d, e = _bezout(tuple(a))
    if gcd(d, b, c) != 1:
        raise HypothesisError("hypothesis of prime avoidance fails")
    if not d:
        # gcd(b, c) = 1 already; nothing to add.
        return [0] * len(a)
    if c == 0:
        # gcd(0, y) = |y|: need b + t*d = +-1 exactly.
        for target in (1, -1):
            if (target - b) % d == 0:
                t = (target - b) // d
                return [t * ei for ei in e]
        raise HypothesisError(
            "prime avoidance with c = 0 needs b + t*gcd(a) = +-1; no integer t works"
        )
    for t in range(1, abs(c) + 1):
        if gcd(c, b + t * d) == 1:
            return [t * ei for ei in e]
    raise AssertionError("prime avoidance scan exhausted its certified bound")

