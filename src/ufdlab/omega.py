"""A non-noetherian graded algebra as an executable rewriting system.

The algebra is k[x, z0, z1, ...] modulo the relations

    z_m^2 = -(x^(2^(m+1)) * z_(m+2) + z_(m+1))    for every m >= 0,

graded by deg x = -1, deg z_i = 2^i.  Monomials x^m * F_n, where F_n is the
squarefree z-monomial read off the binary digits of n, form a k-basis with
one basis element per pair (m, n); inside one degree d the pairs satisfy
n - m = d, so the x-exponent m identifies the coordinate.

`normal_form` rewrites any element onto that basis: pick a z_m with
exponent e_m = 2a + b >= 2 and expand (z_m^2)^a binomially.  Each step
lowers the total z-exponent (the z-size), so one sweep over buckets of
terms by z-size, largest first, finishes: only larger sizes feed a bucket,
so it is complete when reached.  The result is independent of pivot choices
(exercised by the confluence tests).  Everything here is exact and immutable.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping, Optional

from .caps import current_caps
from .coeff import Field, QQ
from .errors import CapExceeded
from .poly import Polynomial, PolyRing, poly_ring

Z_INDEX_CAP = 64


@dataclass(frozen=True)
class OmegaMonomial:
    """x^r times a finite product of z_i's: e is a sorted ((index, exp>=1), ...)."""

    r: int
    e: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.r < 0:
            raise ValueError("negative exponent on x")
        last = -1
        for i, exp in self.e:
            if i <= last:
                raise ValueError("z-indices must be strictly increasing")
            if i > Z_INDEX_CAP:
                raise CapExceeded("z-index cap exceeded")
            if exp < 1:
                raise ValueError("z-exponents must be positive")
            last = i

    def degree(self) -> int:
        return -self.r + sum(exp * (1 << i) for i, exp in self.e)

    def is_squarefree(self) -> bool:
        return all(exp == 1 for _, exp in self.e)


def omega_monomial(r: int = 0, e: Mapping[int, int] | None = None) -> OmegaMonomial:
    items = tuple(sorted((i, exp) for i, exp in (e or {}).items() if exp))
    return OmegaMonomial(r, items)


class OmegaPoly:
    """Finite k-linear combination of OmegaMonomials (zero coeffs dropped).

    The arithmetic is ufdlab.poly's: operands are rendered into the bridge
    ring k[x, z0..zK] (see `to_poly`), combined there, and read back."""

    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Mapping[OmegaMonomial, object]):
        zero = field.zero()
        self.field = field
        self.terms = {m: c for m, c in terms.items() if c != zero}

    @classmethod
    def zero(cls, field: Field = QQ) -> "OmegaPoly":
        return cls(field, {})

    @classmethod
    def monomial(cls, mono: OmegaMonomial, field: Field = QQ) -> "OmegaPoly":
        return cls(field, {mono: field.one()})

    @classmethod
    def x(cls, field: Field = QQ, power: int = 1) -> "OmegaPoly":
        return cls.monomial(omega_monomial(power), field)

    @classmethod
    def z(cls, index: int, field: Field = QQ) -> "OmegaPoly":
        return cls.monomial(omega_monomial(0, {index: 1}), field)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, OmegaPoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    def _via_poly(self, op, *others: "OmegaPoly") -> "OmegaPoly":
        """Apply a Polynomial operation in one bridge ring wide enough for all
        operands, and read the result back."""
        ring = _bridge_ring(self.field, _top_index(self, *others))
        return from_poly(op(to_poly(self, ring), *(to_poly(o, ring) for o in others)))

    def __add__(self, other: "OmegaPoly") -> "OmegaPoly":
        return self._via_poly(operator.add, other)

    def __neg__(self) -> "OmegaPoly":
        return self._via_poly(operator.neg)

    def __sub__(self, other: "OmegaPoly") -> "OmegaPoly":
        return self._via_poly(operator.sub, other)

    def __mul__(self, other: "OmegaPoly") -> "OmegaPoly":
        return self._via_poly(operator.mul, other)

    def __pow__(self, n: int) -> "OmegaPoly":
        if n < 0:
            raise ValueError("negative power")
        return self._via_poly(lambda q: q**n)

    def scale(self, c) -> "OmegaPoly":
        return self._via_poly(lambda q: q.scale(c))

    def degrees(self) -> set[int]:
        return {m.degree() for m in self.terms}

    def __str__(self) -> str:
        return render_omega(self)

    def __repr__(self) -> str:
        return f"OmegaPoly({render_omega(self)!r})"


def sigma(d: int) -> OmegaMonomial:
    """The squarefree monomial of degree d: one z_i per set binary digit of d."""
    if d < 0:
        raise ValueError("sigma of a negative integer")
    e = {}
    i = 0
    while d:
        if d & 1:
            e[i] = 1
        d >>= 1
        i += 1
    return omega_monomial(0, e)


def basis_monomial(m: int, n: int) -> OmegaMonomial:
    """x^m * F_n, the basis element with coordinates (m, n)."""
    return OmegaMonomial(m, sigma(n).e)


def defining_relation(m: int, field: Field = QQ) -> OmegaPoly:
    """z_m^2 + x^(2^(m+1)) z_(m+2) + z_(m+1); zero in the algebra."""
    return OmegaPoly(
        field,
        {
            omega_monomial(0, {m: 2}): field.one(),
            omega_monomial(1 << (m + 1), {m + 2: 1}): field.one(),
            omega_monomial(0, {m + 1: 1}): field.one(),
        },
    )


@dataclass(frozen=True)
class BasisExpansion:
    """One homogeneous component on the basis: entries (m, n, coeff), n-m=d."""

    degree: int
    entries: tuple[tuple[int, int, object], ...]

    def __post_init__(self):
        last_m = -1
        for m, n, coeff in self.entries:
            if m < 0 or n < 0:
                raise ValueError("negative basis coordinate")
            if n - m != self.degree:
                raise ValueError(f"entry ({m}, {n}) does not have degree {self.degree}")
            if m <= last_m:
                raise ValueError("x-exponents must be strictly increasing")
            last_m = m


def _rewrite_step(e: tuple[tuple[int, int], ...], pivot: str):
    """One rewrite of the z-part e at its pivot, or None when e is squarefree.

    The pivot is the largest (or smallest) index k with exponent 2a + b >= 2;
    z_k^(2a+b) = z_k^b (-1)^a sum_j C(a, j) z_(k+1)^(a-j) (x^(2^(k+1)) z_(k+2))^j.
    Returns (k, a, children) with children[j] the z-part of the j-th term.
    """
    for p in range(len(e) - 1, -1, -1) if pivot == "largest" else range(len(e)):
        k, exp = e[p]
        if exp >= 2:
            break
    else:
        return None
    if k + 2 > Z_INDEX_CAP:
        raise CapExceeded("z-index cap exceeded")
    a, b = divmod(exp, 2)
    head = e[:p] + ((k, b),) if b else e[:p]
    t = p + 1
    n1 = e[t][1] if t < len(e) and e[t][0] == k + 1 else 0
    t += n1 > 0
    n2 = e[t][1] if t < len(e) and e[t][0] == k + 2 else 0
    tail = e[t + (n2 > 0) :]
    children = []
    for j in range(a + 1):
        u, v = n1 + a - j, n2 + j
        mid = (((k + 1, u),) if u else ()) + (((k + 2, v),) if v else ())
        children.append(head + mid + tail)
    return k, a, children


def normal_form(p: OmegaPoly, pivot: str = "largest") -> dict[int, BasisExpansion]:
    """Rewrite p onto the x^m F_n basis, one homogeneous component per degree.

    Terms wait in buckets by z-size (total z-exponent).  A rewrite turns a
    term of z-size S into terms of z-size S - a with a >= 1, so walking the
    sizes from the largest down finds each bucket complete: only larger
    sizes feed it, and they are done.  A squarefree term is final; any other
    is rewritten at its pivot, the largest (or, for the confluence check,
    smallest) repeated z-index.
    """
    if pivot not in ("largest", "smallest"):
        raise ValueError("pivot must be 'largest' or 'smallest'")
    limit = current_caps().terms
    field = p.field
    zero = field.zero()
    add, mul = field.add, field.mul
    buckets: list[dict] = []
    for mono, coeff in p.terms.items():
        size = sum(exp for _, exp in mono.e)
        buckets.extend({} for _ in range(size + 1 - len(buckets)))
        buckets[size][mono.e, mono.r] = coeff
    # only a rewrite changes the live-term count, so checking it here and
    # after each rewrite also covers the output
    live = len(p.terms)
    if live > limit:
        raise CapExceeded("instance too large")
    factors: dict[int, list[tuple[int, object]]] = {}
    by_degree: dict[int, list[tuple[int, int, object]]] = {}
    while buckets:
        for (e, r), coeff in buckets.pop().items():
            step = _rewrite_step(e, pivot)
            if step is None:
                n = sum(1 << i for i, _ in e)
                by_degree.setdefault(n - r, []).append((r, n, coeff))
                continue
            k, a, children = step
            if a not in factors:
                sign = field.pow(field.of(-1), a)
                factors[a] = [
                    (j, f)
                    for j in range(a + 1)
                    if (f := mul(sign, field.of(math.comb(a, j)))) != zero
                ]
            target = buckets[len(buckets) - a]
            live -= len(target) + 1
            for j, f in factors[a]:
                key = (children[j], r + (j << (k + 1)))
                old = target.get(key)
                if old is None:
                    target[key] = mul(coeff, f)
                elif (c := add(old, mul(coeff, f))) != zero:
                    target[key] = c
                else:
                    del target[key]
            live += len(target)
            if live > limit:
                raise CapExceeded("instance too large")
    return {
        d: BasisExpansion(d, tuple(sorted(entries, key=lambda t: t[0])))
        for d, entries in sorted(by_degree.items())
    }


def in_x_omega(p: OmegaPoly) -> bool:
    """Membership in the principal ideal (x): every basis coordinate has m >= 1."""
    nf = normal_form(p)
    return all(m >= 1 for exp in nf.values() for m, _, _ in exp.entries)


def expansion_poly(nf: Mapping[int, BasisExpansion], field: Field = QQ) -> OmegaPoly:
    """Reassemble a normal-form map into the OmegaPoly it denotes."""
    terms = {}
    for exp in nf.values():
        for m, n, coeff in exp.entries:
            terms[basis_monomial(m, n)] = coeff
    return OmegaPoly(field, terms)


def expansion_text(nf: Mapping[int, BasisExpansion], field: Field = QQ) -> str:
    """Canonical one-line rendering of a normal-form map, for exact comparison."""
    parts = []
    for d in sorted(nf):
        inner = ", ".join(
            f"({m}, {n}, {field.render(c)})" for m, n, c in nf[d].entries
        )
        parts.append(f"deg {d}: [{inner}]")
    return "; ".join(parts) if parts else "0"


# ---------------------------------------------------------------------------
# bridge to the polynomial text syntax (names x, z0, z1, ...)
# ---------------------------------------------------------------------------

_Z_NAME = re.compile(r"\bz(\d+)\b")


@functools.lru_cache(maxsize=128)
def _bridge_ring(field: Field, max_index: int) -> PolyRing:
    return poly_ring(field, ("x",) + tuple(f"z{i}" for i in range(max_index + 1)))


def _top_index(*ps: OmegaPoly) -> int:
    """The largest z-index in any term of ps (0 when none has a z)."""
    return max((m.e[-1][0] for p in ps for m in p.terms if m.e), default=0)


def to_poly(p: OmegaPoly, ring: Optional[PolyRing] = None) -> Polynomial:
    """Render into an ordinary polynomial ring with variables x, z0..zK."""
    if ring is None:
        ring = _bridge_ring(p.field, _top_index(p))
    pos = {name: i for i, name in enumerate(ring.names)}
    terms = {}
    try:
        for mono, coeff in p.terms.items():
            exp = [0] * ring.nvars
            if mono.r:
                exp[pos["x"]] = mono.r
            for i, k in mono.e:
                exp[pos[f"z{i}"]] = k
            terms[tuple(exp)] = coeff
    except KeyError as err:
        raise ValueError(f"unknown variable {err.args[0]!r}") from None
    return Polynomial(ring, terms)


@functools.lru_cache(maxsize=128)
def _z_indices(names: tuple[str, ...]) -> dict[str, int]:
    return {n: int(m.group(1)) for n in names if (m := _Z_NAME.fullmatch(n))}


def from_poly(q: Polynomial) -> OmegaPoly:
    """Read an OmegaPoly off a polynomial in variables x, z0, z1, ..."""
    ring = q.ring
    zindex = _z_indices(ring.names)
    terms = {}
    for exp, coeff in q.terms.items():
        r = 0
        e = {}
        for name, k in zip(ring.names, exp):
            if not k:
                continue
            if name == "x":
                r = k
            elif name in zindex:
                e[zindex[name]] = k
            else:
                raise ValueError(f"variable {name!r} is not x or z<i>")
        terms[omega_monomial(r, e)] = coeff
    return OmegaPoly(ring.field, terms)


def parse_omega(text: str, field: Field = QQ) -> OmegaPoly:
    top = max((int(m) for m in _Z_NAME.findall(text)), default=0)
    return from_poly(_bridge_ring(field, top).parse(text))


def render_omega(p: OmegaPoly) -> str:
    return str(to_poly(p))
