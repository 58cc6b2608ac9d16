"""Sparse multivariate polynomials over an exact field.

A polynomial is a map from exponent tuples to nonzero field elements; the
exponent tuple is aligned with the ring's fixed variable order, and every
exponent is >= 0.  Zero coefficients are never stored, so equal polynomials
have identical term maps.

Text syntax (render/parse round-trips exactly): a flat sum of signed
products, `sign* product (("+" | "-") product)*`, where a product is
`factor ("*" factor)*` and a factor is `digits ["/" digits]` or
`name ["^" ["-"] digits]`, with digits ASCII 0-9; spaces may separate
tokens, and a negative exponent is rejected (x^-0 is 1).  Terms render in
graded-reverse-lexicographic order, e.g.

    2*u^2*X - 1/3*v + 4
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .coeff import Field, QQ, gcd_bezout

Exp = tuple[int, ...]

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring: exact coefficient field and ordered variable names,
    each an identifier the text syntax can read back."""

    field: Field
    names: tuple[str, ...]

    def __post_init__(self):
        for name in self.names:
            if not (isinstance(name, str) and _IDENT_RE.fullmatch(name)):
                raise ValueError(f"variable name {name!r} is not an identifier")
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None

    @property
    def nvars(self) -> int:
        return len(self.names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        return self.monomial({}, c)

    def var(self, name: str) -> "Polynomial":
        return self.monomial({name: 1})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "Polynomial":
        exp = [0] * self.nvars
        for name, k in exps.items():
            i = self.index(name)
            if k < 0:
                raise ValueError(f"negative exponent on variable {name!r}")
            exp[i] = k
        return Polynomial(self, {tuple(exp): coeff})

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(self, text)

    def adjoin(self, stem: str) -> tuple["PolyRing", "Polynomial"]:
        """This ring with one variable appended, and that variable: named
        `stem`, or `stem` with the smallest counter 1, 2, ... not taken."""
        name, k = stem, 0
        while name in self.names:
            k += 1
            name = f"{stem}{k}"
        big = PolyRing(self.field, self.names + (name,))
        return big, big.var(name)


def poly_ring(field: Field, names: Sequence[str]) -> PolyRing:
    return PolyRing(field, tuple(names))


def mono_mul(a: Exp, b: Exp) -> Exp:
    return tuple(map(operator.add, a, b))


def mono_div(a: Exp, b: Exp) -> Exp:
    return tuple(map(operator.sub, a, b))


def mono_divides(a: Exp, b: Exp) -> bool:
    """True if monomial a divides monomial b (componentwise <=)."""
    return all(map(operator.le, a, b))


def grevlex_key(exp: Exp):
    """Sort key: ascending under graded reverse lexicographic order."""
    return (sum(exp), tuple(map(operator.neg, exp[::-1])))


class Polynomial:
    """Immutable sparse polynomial; do not mutate `terms` after construction.

    The public constructor copies `terms`, brings every coefficient into
    the form `Field.of` returns (so over GF(7) -3 is stored as 4, and a
    value that is not a field element raises `ValueError`) and drops the
    ones that become zero.  The arithmetic builds each result in one pass
    with no zero in it, and adopts that dict through `_adopt` without
    copying or filtering it again: every sum of terms goes through
    `_merged`, which deletes a term that cancels, and over a field a
    product of nonzero coefficients, a negation and `monic` cannot make a
    zero.

    `_lead` holds (keyfn, keyfn(exp), exp, coeff) for the leading term under
    the key function keyfn, or None.  `leading` fills it, and code that
    already knows the leading term of a polynomial it builds may set it:
    `monic` hands its lead on with coefficient one, and `groebner.divide`
    records the first term it moves to a remainder.  So repeated divisions
    by the same polynomial find its leading term and its order key once per
    key function.

    `_shifts`, beside `_lead`, is None or a dict that `groebner.divide`
    keeps on a divisor: it maps a multiplier exponent m to the exponents
    m + e of the divisor's terms e, in the order of `terms`.  Exponents do
    not depend on the term order, and `terms` never changes, so an entry
    holds for every later division by the same polynomial.

    `_integral`, beside `_shifts`, is None or the pair (k, coeffs) that
    `groebner.divide` keeps on a divisor over Q: k > 0 is the lcm of the
    denominators of its coefficients, and coeffs are the ints k*c of its
    terms c, in the order of `terms`.  It depends on `terms` alone, so it
    too holds for every later division.
    """

    __slots__ = ("ring", "terms", "_lead", "_shifts", "_integral")

    def __init__(self, ring: PolyRing, terms: dict[Exp, object]):
        self.ring = ring
        of = ring.field.of
        self.terms = {e: c for e, v in terms.items() if (c := of(v))}
        self._lead = None
        self._shifts = None
        self._integral = None

    # -- equality -----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring == other.ring and self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.ring is not self.ring and other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = _merged(dict(self.terms), other.terms.items(), self.ring.field.add)
        return _adopt(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        neg = self.ring.field.neg
        return _adopt(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        other = self._coerce(other)
        fld = self.ring.field
        out = _merged(dict(self.terms), other.terms.items(), fld.sub, fld.neg)
        return _adopt(self.ring, out)

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        fld = self.ring.field
        mul = fld.mul
        a, b = self.terms, other.terms
        if len(a) == 1 or len(b) == 1:
            # a term times a polynomial: the exponents stay distinct and the
            # products of nonzero field elements nonzero
            if len(a) != 1:
                a, b = b, a
            ((e1, c1),) = a.items()
            return _adopt(self.ring, {mono_mul(e1, e2): mul(c1, c2) for e2, c2 in b.items()})
        out: dict[Exp, object] = {}
        for e1, c1 in a.items():
            _merged(out, [(mono_mul(e1, e2), mul(c1, c2)) for e2, c2 in b.items()], fld.add)
        return _adopt(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- structure ----------------------------------------------------------

    def term_count(self) -> int:
        return len(self.terms)

    def total_degree(self) -> int:
        if not self.terms:
            return 0
        return max(sum(e) for e in self.terms)

    def support(self) -> set[str]:
        used = set()
        for e in self.terms:
            for i, k in enumerate(e):
                if k != 0:
                    used.add(self.ring.names[i])
        return used

    def is_constant(self) -> bool:
        return all(all(k == 0 for k in e) for e in self.terms)

    def leading(self, keyfn=grevlex_key) -> tuple[Exp, object]:
        """(exponent, coefficient) of the largest term under the key function
        keyfn.  The answer comes from `_lead` when that was recorded under
        the same function object (`Order.key_for` returns one per order and
        ring); otherwise it is found by one scan of the terms and recorded,
        with its order key, in place of the last one."""
        lead = self._lead
        if lead is not None and lead[0] is keyfn:
            return lead[2], lead[3]
        if not self.terms:
            raise ValueError("leading term of zero")
        e = max(self.terms, key=keyfn)
        c = self.terms[e]
        self._lead = (keyfn, keyfn(e), e, c)
        return e, c

    def monic(self, keyfn=grevlex_key) -> "Polynomial":
        """self divided by its leading coefficient; self itself when that is
        already one (or self is zero).  A new result keeps the leading term
        under keyfn, with coefficient one."""
        if not self.terms:
            return self
        _, c = self.leading(keyfn)
        fld = self.ring.field
        one = fld.one()
        if c == one:
            return self
        ci = fld.inv(c)
        out = _adopt(self.ring, {e: fld.mul(v, ci) for e, v in self.terms.items()})
        _, key, e, _ = self._lead
        out._lead = (keyfn, key, e, one)
        return out

    def lift(self, ring: PolyRing) -> "Polynomial":
        """This polynomial in `ring`, each variable matched by name: `ring`
        may add variables, and may leave out any that the support does not
        use.  A used variable that `ring` lacks raises ValueError, and so
        does another field."""
        if ring.field != self.ring.field:
            raise ValueError("lift across different coefficient fields")
        names = self.ring.names
        for i, name in enumerate(names):
            if name not in ring.names and any(e[i] for e in self.terms):
                raise ValueError(f"variable {name!r} is used but not in the target ring")
        # each target variable reads its exponent, or the 0 appended after the
        # source exponents; two more of those make itemgetter return a tuple
        pad = len(names)
        at = dict(zip(names, range(pad)))
        pick = operator.itemgetter(*[at.get(name, pad) for name in ring.names], pad, pad)
        n = ring.nvars
        return _adopt(ring, {pick(e + (0,))[:n]: c for e, c in self.terms.items()})

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"<{render_poly(self)} over {self.ring.field}[{','.join(self.ring.names)}]>"


_new_polynomial = object.__new__


def _adopt(ring: PolyRing, terms: dict[Exp, object]) -> Polynomial:
    """A Polynomial that keeps `terms` itself: a fresh dict with no zero
    coefficient, which nothing else holds."""
    p = _new_polynomial(Polynomial)
    p.ring = ring
    p.terms = terms
    p._lead = None
    p._shifts = None
    p._integral = None
    return p


def _merged(out: dict[Exp, object], terms: Iterable[tuple[Exp, object]], combine,
            fresh=None) -> dict[Exp, object]:
    """Fold each (e, c) of `terms` into `out` and return `out`: where `out`
    holds e, store combine(out[e], c), or delete the entry when that is
    zero; elsewhere store c, or fresh(c) when `fresh` is given.  Every sum
    of polynomial terms goes through here, and for nonzero c it stores no
    zero."""
    for e, c in terms:
        old = out.get(e)
        if old is None:
            out[e] = c if fresh is None else fresh(c)
        elif c := combine(old, c):
            out[e] = c
        else:
            del out[e]
    return out


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------


def degree_of(p: Polynomial, weights: Mapping[str, int]) -> Optional[int]:
    """Weighted degree of a homogeneous p under a grading given by one integer
    weight per variable; None when p is not homogeneous."""
    if not p:
        raise ValueError("degree of zero")
    names = p.ring.names
    missing = [n for n in names if n not in weights]
    if missing:
        raise ValueError(f"grading missing weight for variable {missing[0]!r}")
    w = [weights[n] for n in names]
    degrees = {sum(k * wi for k, wi in zip(e, w)) for e in p.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


# ---------------------------------------------------------------------------
# ring maps
# ---------------------------------------------------------------------------


class RingMap:
    """A substitution homomorphism given by images of the source variables.

    Variables without an explicit image are sent to the same-named variable
    of the target ring.
    """

    def __init__(self, source: PolyRing, target: PolyRing, images: Mapping[str, Polynomial]):
        self.source = source
        self.target = target
        self.images = dict(images)
        for name, img in self.images.items():
            source.index(name)
            if img.ring != target:
                raise ValueError(f"image of {name!r} lives in the wrong ring")

    def image_of(self, name: str) -> Polynomial:
        img = self.images.get(name)
        if img is None:
            img = self.target.var(name)  # raises for unknown names
        return img

    def apply(self, p: Polynomial) -> Polynomial:
        if p.ring != self.source:
            raise ValueError("polynomial not in the map's source ring")
        power_cache: dict[tuple[str, int], Polynomial] = {}
        out: dict[Exp, object] = {}
        add = self.target.field.add
        for e, c in p.terms.items():
            piece = self.target.const(c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = p.ring.names[i]
                cached = power_cache.get((name, k))
                if cached is None:
                    cached = self.image_of(name) ** k
                    power_cache[(name, k)] = cached
                piece = piece * cached
            _merged(out, piece.terms.items(), add)
        return _adopt(self.target, out)


# ---------------------------------------------------------------------------
# the Laurent isomorphism and formal derivatives
# ---------------------------------------------------------------------------


def laurent_iso(
    a: int, b: int, lam, field: Field = QQ
) -> tuple[RingMap, RingMap, Polynomial, Polynomial]:
    """Mutually inverse maps realizing k[x,y]/(x^a*y^b - lam) = k[z,w]/(z*w - 1),
    the Laurent ring k[z, z^-1] with w standing for z^-1.

    With a*m + b*n = 1 (Bezout pair normalized to minimal |m|), fwd sends
    z -> x^n*y^-m and w -> x^-n*y^m, and inv sends x -> lam^m*z^b and
    y -> lam^n*w^a.  Since x^a*y^b/lam is 1 modulo the relation, a negative
    power in an image of fwd is multiplied by (x^a*y^b/lam)^t for the least
    t >= 0 that clears it.  Returns (fwd, inv, x^a*y^b - lam, z*w - 1).
    """
    if a <= 0 or b <= 0:
        raise ValueError("exponents must be positive")
    g, coeffs = gcd_bezout([a, b])
    if g != 1:
        raise ValueError("exponents not coprime")
    m = coeffs[0] % b
    if abs(m - b) < abs(m):
        m -= b
    n = (1 - a * m) // b
    assert a * m + b * n == 1
    lam_c = field.of(lam)
    if lam_c == field.zero():
        raise ValueError("lambda must be nonzero")
    r_xy = poly_ring(field, ("x", "y"))
    r_zw = poly_ring(field, ("z", "w"))

    def cleared(ex: int, ey: int) -> Polynomial:
        t = max(0, -(ex // a), -(ey // b))
        return r_xy.monomial({"x": ex + t * a, "y": ey + t * b}, coeff=field.pow(lam_c, -t))

    fwd = RingMap(r_zw, r_xy, {"z": cleared(n, -m), "w": cleared(-n, m)})
    inv = RingMap(
        r_xy,
        r_zw,
        {
            "x": r_zw.monomial({"z": b}, coeff=field.pow(lam_c, m)),
            "y": r_zw.monomial({"w": a}, coeff=field.pow(lam_c, n)),
        },
    )
    return fwd, inv, r_xy.monomial({"x": a, "y": b}) - lam_c, r_zw.parse("z*w - 1")


def derivative(p: Polynomial, name: str) -> Polynomial:
    """Formal partial derivative with respect to one variable."""
    i = p.ring.index(name)
    fld = p.ring.field
    out: dict[Exp, object] = {}
    for e, c in p.terms.items():
        k = e[i]
        if k == 0:
            continue
        factor = fld.of(k)
        if factor == fld.zero():
            continue
        ne = list(e)
        ne[i] = k - 1
        # lowering one exponent keeps distinct terms distinct
        out[tuple(ne)] = fld.mul(c, factor)
    return Polynomial(p.ring, out)


# ---------------------------------------------------------------------------
# text syntax
# ---------------------------------------------------------------------------


def render_poly(p: Polynomial) -> str:
    if not p.terms:
        return "0"
    fld = p.ring.field
    names = p.ring.names
    pieces = []
    for exp in sorted(p.terms, key=grevlex_key, reverse=True):
        c = p.terms[exp]
        negative = fld.char == 0 and c < 0
        mag = -c if negative else c
        factors = []
        for i, k in enumerate(exp):
            if k == 0:
                continue
            factors.append(names[i] if k == 1 else f"{names[i]}^{k}")
        mono_txt = "*".join(factors)
        if not mono_txt:
            body = fld.render(mag)
        elif mag == fld.one():
            body = mono_txt
        else:
            body = f"{fld.render(mag)}*{mono_txt}"
        pieces.append(("-" if negative else "+", body))
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


_TOKEN_RE = re.compile(rf"\s*(?:([0-9]+)|({_IDENT_RE.pattern})|([-+*/^()])|(\S))")


def parse_poly(ring: PolyRing, text: str) -> Polynomial:
    """Read text in one pass: one coefficient and one exponent vector per
    signed product, and products with equal vectors summed in the field."""
    if not isinstance(text, str):
        raise ValueError(f"a polynomial must be given as text, got {type(text).__name__}")
    fld = ring.field
    of, mul, add, one = fld.of, fld.mul, fld.add, fld.one()
    text = text.strip()
    scan = [num or name or op for num, name, op, _ in _TOKEN_RE.findall(text)]
    if not all(scan):  # "" where only the last group matched: a bad character
        at = next(m.start() for m in _TOKEN_RE.finditer(text) if m[4])
        raise ValueError(f"bad character in polynomial text at {text[at:]!r}")
    tokens = iter(scan)

    def take() -> str:
        tok = next(tokens, None)
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        return tok

    products: list[tuple[Exp, object]] = []
    negative, tok = False, take()
    while tok in ("+", "-"):  # signs repeat only before the first product
        negative ^= tok == "-"
        tok = take()
    while True:
        coeff, exp = fld.neg(one) if negative else one, [0] * ring.nvars
        while True:  # one factor per pass, starting at tok
            if tok.isdigit():
                value, tok = int(tok), next(tokens, None)
                if tok == "/":
                    den = take()
                    if not den.isdigit():
                        raise ValueError("expected integer denominator")
                    if int(den) == 0:
                        raise ValueError("zero denominator")
                    value, tok = Fraction(value, int(den)), next(tokens, None)
                coeff = mul(coeff, of(value))
            elif tok[0].isalpha():  # a name: no other token starts with a letter
                name, tok, k = tok, next(tokens, None), "1"
                if tok == "^":
                    k = take()
                    if k == "-":
                        k += take()
                    if not k.removeprefix("-").isdigit():
                        raise ValueError("expected integer exponent")
                    tok = next(tokens, None)
                i = ring.index(name)
                if int(k) < 0:
                    raise ValueError(f"negative exponent on variable {name!r}")
                exp[i] += int(k)
            else:
                raise ValueError(f"unexpected token {tok!r}")
            if tok != "*":
                break
            tok = take()
        if coeff:  # 0*x, or 7*x over GF(7), adds no term
            products.append((tuple(exp), coeff))
        if tok is None:
            return _adopt(ring, _merged({}, products, add))
        if tok not in ("+", "-"):
            raise ValueError(f"trailing token {tok!r}")
        negative, tok = tok == "-", take()
