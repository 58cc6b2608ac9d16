"""Exact coefficient arithmetic and the constructive integer lemmas.

Integers are plain Python ints (arbitrary precision, exact).  Field elements
are represented by the natural host type of each field:

  RationalField  ->  int when integral, else fractions.Fraction
                     (in lowest terms, denominator > 1)
  PrimeField(p)  ->  int residue in [0, p)

Both field classes expose the same small arithmetic protocol so the polynomial
layer stays field-agnostic.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import HypothesisError

Coeff = Union[Fraction, int]


def is_int(value) -> bool:
    """An int that is not a bool (JSON true/false arrive as bool, a subclass of int)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_prime(n: int) -> bool:
    """Primality by trial division (moduli here are desk-scale)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def _q(a: Coeff) -> Coeff:
    """An element of Q in its canonical type: int when integral, else Fraction."""
    if type(a) is int or a.denominator != 1:
        return a
    return a.numerator


def _rational(value, field) -> Fraction:
    """value as a Fraction when it is an int (not a bool), a Fraction or text
    such as "2/4"; a ValueError naming the value and the field otherwise."""
    try:
        if is_int(value) or isinstance(value, (Fraction, str)):
            return Fraction(value)
    except (ValueError, ZeroDivisionError):  # text that is not a number
        pass
    raise ValueError(f"{value!r} is not an element of {field}")


@dataclass(frozen=True)
class RationalField:
    """The field of rational numbers; an element is an int when it is
    integral and a Fraction (denominator > 1) otherwise.  int and Fraction
    compare, hash and mix alike, so callers see one number type."""

    char = 0

    def of(self, value) -> Coeff:
        if type(value) is int:
            return value
        return _q(_rational(value, self))

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1

    def add(self, a: Coeff, b: Coeff) -> Coeff:
        return _q(a + b)

    def sub(self, a: Coeff, b: Coeff) -> Coeff:
        return _q(a - b)

    def neg(self, a: Coeff) -> Coeff:
        return -a

    def mul(self, a: Coeff, b: Coeff) -> Coeff:
        return _q(a * b)

    def inv(self, a: Coeff) -> Coeff:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return _q(Fraction(1) / a)

    def div(self, a: Coeff, b: Coeff) -> Coeff:
        return _q(a * self.inv(b))

    def pow(self, a: Coeff, n: int) -> Coeff:
        if n < 0:
            return _q(self.inv(a) ** (-n))
        return _q(a**n)

    def render(self, a: Coeff) -> str:
        return str(a)

    def sample(self, rng) -> Coeff:
        return _q(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))

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
    """Parse "Q" / "QQ" or "F<p>" / "GF(<p>)" into a field object."""
    text = name.strip()
    if text in ("Q", "QQ"):
        return QQ
    if text.startswith("GF(") and text.endswith(")"):
        return GF(int(text[3:-1]))
    if text.startswith("F") and text[1:].isdigit():
        return GF(int(text[1:]))
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
    if all(v == 0 for v in values):
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


def prime_avoid(a: Sequence[int], b: int, c: int) -> list[int]:
    """Find integers m with gcd(c, b + sum(m[i]*a[i])) = 1.

    Requires gcd(a_1, ..., a_n, b, c) = 1.  The search writes d = gcd(a),
    expresses d = sum(e[i]*a[i]) and scans t = 0, 1, ... testing
    gcd(c, b + t*d) = 1; some t <= |c| always works because the bad t form,
    for each prime divisor of c not dividing d, a single residue class, and
    the product of those primes is at most |c|.
    """
    values = list(a) + [b, c]
    if math.gcd(*values) != 1:
        raise HypothesisError("hypothesis of prime avoidance fails")
    n = len(a)
    if n == 0:
        return []
    if all(v == 0 for v in a):
        # gcd(b, c) = 1 already; nothing to add.
        return [0] * n
    d, e = gcd_bezout(list(a))
    if c == 0:
        # gcd(0, y) = |y|: need b + t*d = +-1 exactly.
        for target in (1, -1):
            if (target - b) % d == 0:
                t = (target - b) // d
                return [t * ei for ei in e]
        raise HypothesisError(
            "prime avoidance with c = 0 needs b + t*gcd(a) = +-1; no integer t works"
        )
    for t in range(abs(c) + 1):
        if math.gcd(c, b + t * d) == 1:
            return [t * ei for ei in e]
    raise AssertionError("prime avoidance scan exhausted its certified bound")

