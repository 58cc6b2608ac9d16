"""Sparse multivariate (optionally Laurent) polynomials over an exact field.

A polynomial is a map from exponent tuples to nonzero field elements; the
exponent tuple is aligned with the ring's fixed variable order.  Exponents
are >= 0 unless the variable is flagged invertible.  Zero coefficients are
never stored, so equal polynomials have identical term maps.

Text syntax (render/parse round-trips exactly): terms in graded-reverse-
lexicographic order, explicit `*` between factors, `^` for powers, e.g.

    2*u^2*X - 1/3*v + 4        x^-1*z0^2 + 1
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .coeff import Field, QQ, gcd_bezout

Exp = tuple[int, ...]


@dataclass(frozen=True)
class VarTable:
    """Ordered variable names with per-variable invertibility flags."""

    names: tuple[str, ...]
    invertible: frozenset[str] = frozenset()

    def __post_init__(self):
        if len(set(self.names)) != len(self.names):
            raise ValueError("duplicate variable names")
        if not self.invertible <= set(self.names):
            raise ValueError("invertible flag on unknown variable")

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise ValueError(f"unknown variable {name!r}") from None


@dataclass(frozen=True)
class PolyRing:
    """A polynomial ring: exact coefficient field plus a VarTable."""

    field: Field
    vars: VarTable

    @property
    def names(self) -> tuple[str, ...]:
        return self.vars.names

    @property
    def nvars(self) -> int:
        return len(self.vars.names)

    def zero_exp(self) -> Exp:
        return (0,) * self.nvars

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.const(1)

    def const(self, c) -> "Polynomial":
        cf = self.field.of(c)
        if cf == self.field.zero():
            return self.zero()
        return Polynomial(self, {self.zero_exp(): cf})

    def var(self, name: str) -> "Polynomial":
        i = self.vars.index(name)
        exp = [0] * self.nvars
        exp[i] = 1
        return Polynomial(self, {tuple(exp): self.field.one()})

    def gens(self) -> tuple["Polynomial", ...]:
        return tuple(self.var(n) for n in self.names)

    def monomial(self, exps: Mapping[str, int], coeff=1) -> "Polynomial":
        exp = [0] * self.nvars
        for name, k in exps.items():
            i = self.vars.index(name)
            if k < 0 and name not in self.vars.invertible:
                raise ValueError(f"negative exponent on non-invertible variable {name!r}")
            exp[i] = k
        cf = self.field.of(coeff)
        if cf == self.field.zero():
            return self.zero()
        return Polynomial(self, {tuple(exp): cf})

    def parse(self, text: str) -> "Polynomial":
        return parse_poly(self, text)

    def restrict(self, names: Sequence[str]) -> "PolyRing":
        """Subring on a subset of the variables (original order kept)."""
        keep = [n for n in self.names if n in set(names)]
        inv = frozenset(n for n in keep if n in self.vars.invertible)
        return PolyRing(self.field, VarTable(tuple(keep), inv))

    def extend(self, new_names: Sequence[str]) -> "PolyRing":
        """Superring with extra variables appended after the existing ones."""
        return PolyRing(self.field, VarTable(self.names + tuple(new_names), self.vars.invertible))


def poly_ring(field: Field, names: Sequence[str], invertible: Iterable[str] = ()) -> PolyRing:
    return PolyRing(field, VarTable(tuple(names), frozenset(invertible)))


def fresh_name(names: tuple[str, ...], stem: str) -> str:
    """`stem`, or `stem` with the smallest counter 1, 2, ... not in names."""
    name = stem
    k = 0
    while name in names:
        k += 1
        name = f"{stem}{k}"
    return name


def mono_mul(a: Exp, b: Exp) -> Exp:
    return tuple(x + y for x, y in zip(a, b))


def mono_div(a: Exp, b: Exp) -> Exp:
    return tuple(x - y for x, y in zip(a, b))


def mono_divides(a: Exp, b: Exp) -> bool:
    """True if monomial a divides monomial b (componentwise <=)."""
    return all(x <= y for x, y in zip(a, b))


def grevlex_key(exp: Exp):
    """Sort key: ascending under graded reverse lexicographic order."""
    return (sum(exp), tuple(-e for e in reversed(exp)))


class Polynomial:
    """Immutable sparse polynomial; do not mutate `terms` after construction."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: PolyRing, terms: dict[Exp, object]):
        self.ring = ring
        zero = ring.field.zero()
        self.terms = {e: c for e, c in terms.items() if c != zero}

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
            if other.ring != self.ring:
                raise ValueError("polynomials from different rings")
            return other
        return self.ring.const(other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        fld = self.ring.field
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = fld.add(out.get(e, fld.zero()), c)
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        fld = self.ring.field
        return Polynomial(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        fld = self.ring.field
        out: dict[Exp, object] = {}
        zero = fld.zero()
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = mono_mul(e1, e2)
                out[e] = fld.add(out.get(e, zero), fld.mul(c1, c2))
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            return self.unit_inverse() ** (-n)
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n > 1
            n >>= 1
            if base_needed and n:
                base = base * base
        return result

    def scale(self, c) -> "Polynomial":
        fld = self.ring.field
        cf = fld.of(c)
        return Polynomial(self.ring, {e: fld.mul(v, cf) for e, v in self.terms.items()})

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

    def is_unit_monomial(self) -> bool:
        """Single term whose support is all invertible (constants count)."""
        if len(self.terms) != 1:
            return False
        (exp,) = self.terms
        inv = self.ring.vars.invertible
        return all(k == 0 or self.ring.names[i] in inv for i, k in enumerate(exp))

    def unit_inverse(self) -> "Polynomial":
        if not self.is_unit_monomial():
            raise ValueError("inverse of a non-unit")
        (exp,) = self.terms
        c = self.terms[exp]
        return Polynomial(
            self.ring, {tuple(-k for k in exp): self.ring.field.inv(c)}
        )

    def leading(self, keyfn=grevlex_key) -> tuple[Exp, object]:
        if not self.terms:
            raise ValueError("leading term of zero")
        e = max(self.terms, key=keyfn)
        return e, self.terms[e]

    def monic(self, keyfn=grevlex_key) -> "Polynomial":
        if not self.terms:
            return self
        _, c = self.leading(keyfn)
        fld = self.ring.field
        ci = fld.inv(c)
        return Polynomial(self.ring, {e: fld.mul(v, ci) for e, v in self.terms.items()})

    def exact_div(self, divisor: "Polynomial") -> "Polynomial":
        """Exact quotient self / divisor; raises ValueError when not divisible."""
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        fld = self.ring.field
        de, dc = divisor.leading()
        quotient: dict[Exp, object] = {}
        rest = self
        while rest:
            re_, rc = rest.leading()
            if not mono_divides(de, re_):
                raise ValueError("not exactly divisible")
            qe = mono_div(re_, de)
            qc = fld.div(rc, dc)
            quotient[qe] = fld.add(quotient.get(qe, fld.zero()), qc)
            rest = rest - Polynomial(self.ring, {qe: qc}) * divisor
        return Polynomial(self.ring, quotient)

    def project(self, subring: PolyRing) -> "Polynomial":
        """Reinterpret in a subring (support must live in it)."""
        idx = []
        sub = set(subring.names)
        for i, name in enumerate(self.ring.names):
            if name in sub:
                idx.append(i)
        out = {}
        for e, c in self.terms.items():
            for i, k in enumerate(e):
                if k != 0 and self.ring.names[i] not in sub:
                    raise ValueError(f"variable {self.ring.names[i]!r} not in subring")
            out[tuple(e[i] for i in idx)] = c
        return Polynomial(subring, out)

    def lift(self, superring: PolyRing) -> "Polynomial":
        """Reinterpret in a ring containing all of this ring's variables."""
        if superring.field != self.ring.field:
            raise ValueError("lift across different coefficient fields")
        pos = [superring.vars.index(n) for n in self.ring.names]
        out = {}
        for e, c in self.terms.items():
            big = [0] * superring.nvars
            for i, k in enumerate(e):
                big[pos[i]] = k
            out[tuple(big)] = c
        return Polynomial(superring, out)

    # -- rendering ----------------------------------------------------------

    def __str__(self) -> str:
        return render_poly(self)

    def __repr__(self) -> str:
        return f"<{render_poly(self)} over {self.ring.field}[{','.join(self.ring.names)}]>"


# ---------------------------------------------------------------------------
# gradings
# ---------------------------------------------------------------------------


class Grading:
    """Integer weights, one per variable (explicit, including zero weights)."""

    def __init__(self, weights: Mapping[str, int]):
        self.weights = dict(weights)

    def weight(self, name: str) -> int:
        return self.weights[name]

    def __eq__(self, other):
        return isinstance(other, Grading) and self.weights == other.weights

    def __repr__(self):
        inner = ", ".join(f"{n}:{w}" for n, w in self.weights.items())
        return f"Grading({inner})"

    def scaled(self, c: int) -> "Grading":
        return Grading({n: c * w for n, w in self.weights.items()})

    def extended(self, extra: Mapping[str, int]) -> "Grading":
        out = dict(self.weights)
        out.update(extra)
        return Grading(out)

    def exp_degree(self, exp: Exp, ring: PolyRing) -> int:
        missing = [n for n in ring.names if n not in self.weights]
        if missing:
            raise ValueError(f"grading missing weight for variable {missing[0]!r}")
        return sum(k * self.weights[ring.names[i]] for i, k in enumerate(exp))


def degree_of(p: Polynomial, g: Grading) -> Optional[int]:
    """Weighted degree of a homogeneous p; None when p is not homogeneous."""
    if not p:
        raise ValueError("degree of zero")
    degrees = {g.exp_degree(e, p.ring) for e in p.terms}
    if len(degrees) == 1:
        return degrees.pop()
    return None


# ---------------------------------------------------------------------------
# ring maps
# ---------------------------------------------------------------------------


class RingMap:
    """A substitution homomorphism given by images of the source variables.

    Variables without an explicit image are sent to the same-named variable
    of the target ring.  An invertible source variable must map to a unit
    monomial, so that negative exponents have a well-defined image.
    """

    def __init__(self, source: PolyRing, target: PolyRing, images: Mapping[str, Polynomial]):
        self.source = source
        self.target = target
        self.images = dict(images)
        for name, img in self.images.items():
            source.vars.index(name)
            if img.ring != target:
                raise ValueError(f"image of {name!r} lives in the wrong ring")
            if name in source.vars.invertible and not img.is_unit_monomial():
                raise ValueError("non-invertible image")

    def image_of(self, name: str) -> Polynomial:
        img = self.images.get(name)
        if img is None:
            img = self.target.var(name)  # raises for unknown names
        return img

    def apply(self, p: Polynomial) -> Polynomial:
        if p.ring != self.source:
            raise ValueError("polynomial not in the map's source ring")
        power_cache: dict[tuple[str, int], Polynomial] = {}
        out = self.target.zero()
        for e, c in p.terms.items():
            piece = self.target.const(c)
            for i, k in enumerate(e):
                if k == 0:
                    continue
                name = p.ring.names[i]
                cached = power_cache.get((name, k))
                if cached is None:
                    img = self.image_of(name)
                    if k < 0 and not img.is_unit_monomial():
                        raise ValueError("non-invertible image")
                    cached = img**k
                    power_cache[(name, k)] = cached
                piece = piece * cached
            out = out + piece
        return out


# ---------------------------------------------------------------------------
# the Laurent isomorphism and formal derivatives
# ---------------------------------------------------------------------------


def laurent_iso(a: int, b: int, lam, field: Field = QQ) -> tuple[RingMap, RingMap]:
    """Mutually inverse maps realizing k[x,y] / (x^a*y^b - lam) = k[z, z^-1].

    With a*m + b*n = 1 (Bezout pair normalized to minimal |m|), fwd sends
    z -> x^n * y^-m and inv sends x -> lam^m * z^b, y -> lam^n * z^-a.
    inv(fwd(z)) = z, and inv(x^a * y^b) = lam.
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
    r_xy = poly_ring(field, ("x", "y"), invertible=("x", "y"))
    r_z = poly_ring(field, ("z",), invertible=("z",))
    fwd = RingMap(r_z, r_xy, {"z": r_xy.monomial({"x": n, "y": -m})})
    inv = RingMap(
        r_xy,
        r_z,
        {
            "x": r_z.monomial({"z": b}, coeff=field.pow(lam_c, m)),
            "y": r_z.monomial({"z": -a}, coeff=field.pow(lam_c, n)),
        },
    )
    return fwd, inv


def derivative(p: Polynomial, name: str) -> Polynomial:
    """Formal partial derivative with respect to one variable."""
    i = p.ring.vars.index(name)
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
        ne_t = tuple(ne)
        out[ne_t] = fld.add(out.get(ne_t, fld.zero()), fld.mul(c, factor))
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


_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z][A-Za-z0-9_]*)|([-+*/^()]))")


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            raise ValueError(f"bad character in polynomial text at {text[pos:]!r}")
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, ring: PolyRing, tokens: list[str]):
        self.ring = ring
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self) -> str:
        tok = self.peek()
        if tok is None:
            raise ValueError("unexpected end of polynomial text")
        self.pos += 1
        return tok

    def parse(self) -> Polynomial:
        result = self.parse_signed_term()
        while self.peek() in ("+", "-"):
            sign = self.take()
            term = self.parse_term()
            result = result + term if sign == "+" else result - term
        if self.peek() is not None:
            raise ValueError(f"trailing token {self.peek()!r}")
        return result

    def parse_signed_term(self) -> Polynomial:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        term = self.parse_term()
        return term if sign > 0 else -term

    def parse_term(self) -> Polynomial:
        result = self.parse_factor()
        while self.peek() == "*":
            self.take()
            result = result * self.parse_factor()
        return result

    def parse_factor(self) -> Polynomial:
        tok = self.take()
        if tok.isdigit():
            value = Fraction(int(tok))
            if self.peek() == "/":
                self.take()
                den = self.take()
                if not den.isdigit():
                    raise ValueError("expected integer denominator")
                if int(den) == 0:
                    raise ValueError("zero denominator")
                value = value / int(den)
            return self.ring.const(value)
        if re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", tok):
            exponent = 1
            if self.peek() == "^":
                self.take()
                neg = False
                nxt = self.take()
                if nxt == "-":
                    neg = True
                    nxt = self.take()
                if not nxt.isdigit():
                    raise ValueError("expected integer exponent")
                exponent = -int(nxt) if neg else int(nxt)
            return self.ring.monomial({tok: exponent})
        raise ValueError(f"unexpected token {tok!r}")


def parse_poly(ring: PolyRing, text: str) -> Polynomial:
    if not isinstance(text, str):
        raise ValueError(f"a polynomial must be given as text, got {type(text).__name__}")
    text = text.strip()
    if text == "0":
        return ring.zero()
    return _Parser(ring, _tokenize(text)).parse()
