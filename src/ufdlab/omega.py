"""A non-noetherian graded algebra as an executable rewriting system.

The algebra is k[x, z0, z1, ...] modulo the relations

    z_m^2 = -(x^(2^(m+1)) * z_(m+2) + z_(m+1))    for every m >= 0,

graded by deg x = -1, deg z_i = 2^i.  Monomials x^m * F_n, where F_n is the
squarefree z-monomial read off the binary digits of n, form a k-basis with
one basis element per pair (m, n); inside one degree d the pairs satisfy
n - m = d, so the x-exponent m identifies the coordinate.

An element is an `OmegaPoly`: one representative `Polynomial` in a ring
k[x, z0..zK] (`omega_ring`) wide enough for its z-indices, so its
arithmetic is ufdlab.poly's.

`normal_form` rewrites any element onto that basis: pick a z_m with
exponent e_m = 2a + b >= 2 and expand (z_m^2)^a binomially.  Each step
lowers the total z-exponent (the z-size), so one sweep over buckets of
terms by z-size, largest first, finishes: only larger sizes feed a bucket,
so it is complete when reached.  The result is independent of pivot choices
(exercised by the confluence tests).  Inside the sweep a term is one int:
each z-exponent has a field as wide as the input's top z-size in bits, one
field per z-index the input can reach (a bound no rewrite crosses, from a
potential no rewrite raises), and the x-exponent sits above those fields.
A rewrite then depends on the term only through its masked pattern, the
z-fields less their lowest bits, which fixes the pivot k and the
half-exponent a.  So each call keeps one table of moves keyed by that
pattern, and a rewrite is one lookup in it; a move, the children's offsets
from the term grouped by binomial factor, is built once per field, packing
and (k, a) and shared by every call.  A final term's basis index is read
off its z-fields eight at a time, through a 256-entry table per field
width.  Everything here is exact and immutable.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass
from typing import Mapping

from .caps import current_caps
from .coeff import Field, QQ
from .errors import too_large
from .poly import Polynomial, PolyRing, poly_ring

Z_INDEX_CAP = 64

_Z_NAME = re.compile(r"\bz([0-9]+)\b")


@functools.lru_cache(maxsize=128)
def omega_ring(field: Field, top: int) -> PolyRing:
    """k[x, z0..z_top], where the elements with z-indices up to top live."""
    if top > Z_INDEX_CAP:
        raise too_large("omega_ring", "z-index", Z_INDEX_CAP, top)
    return poly_ring(field, ("x",) + tuple(f"z{i}" for i in range(top + 1)))


class OmegaPoly:
    """An element given by a representative Polynomial in k[x, z0..zK].

    An exponent tuple is (r, e_0, ..., e_K) for x^r z_0^e_0 ... z_K^e_K.
    Operands of different widths are lifted to the widest one."""

    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial):
        ring = poly.ring
        if ring.nvars < 2 or ring != omega_ring(ring.field, ring.nvars - 2):
            raise ValueError(f"ring {ring.names} is not k[x, z0..zK]")
        self.poly = poly

    @property
    def field(self) -> Field:
        return self.poly.ring.field

    @classmethod
    def zero(cls, field: Field = QQ) -> "OmegaPoly":
        return cls(omega_ring(field, 0).zero())

    @classmethod
    def x(cls, field: Field = QQ, power: int = 1) -> "OmegaPoly":
        return cls(omega_ring(field, 0).monomial({"x": power}))

    @classmethod
    def z(cls, index: int, field: Field = QQ) -> "OmegaPoly":
        return cls(omega_ring(field, index).var(f"z{index}"))

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OmegaPoly) or self.field != other.field:
            return False
        a, b = _lifted(self, other)
        return a == b

    def _via_poly(self, op, *others: "OmegaPoly") -> "OmegaPoly":
        """Apply a Polynomial operation to the operands in the widest one's ring."""
        return OmegaPoly(op(*_lifted(self, *others)))

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

    def __str__(self) -> str:
        return str(self.poly)

    def __repr__(self) -> str:
        return f"OmegaPoly({str(self)!r})"


def _lifted(*ps: OmegaPoly) -> list[Polynomial]:
    """The representatives of ps, lifted to the widest of their rings; a
    field mismatch raises ValueError, as it does for Polynomial."""
    ring = max((p.poly.ring for p in ps), key=lambda r: r.nvars)
    return [p.poly if p.poly.ring == ring else p.poly.lift(ring) for p in ps]


def defining_relation(m: int, field: Field = QQ) -> OmegaPoly:
    """z_m^2 + x^(2^(m+1)) z_(m+2) + z_(m+1); zero in the algebra."""
    ring = omega_ring(field, m + 2)
    return OmegaPoly(
        ring.monomial({f"z{m}": 2})
        + ring.monomial({"x": 1 << (m + 1), f"z{m + 2}": 1})
        + ring.var(f"z{m + 1}")
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


def normal_form(p: OmegaPoly, pivot: str = "largest") -> dict[int, BasisExpansion]:
    """Rewrite p onto the x^m F_n basis, one homogeneous component per degree.

    Terms wait in buckets by z-size (total z-exponent).  A rewrite turns a
    term of z-size S into terms of z-size S - a with a >= 1, so walking the
    sizes from the largest down finds each bucket complete: only larger
    sizes feed it, and they are done.  A squarefree term is final; any other
    is rewritten at its pivot, the largest (or, for the confluence check,
    smallest) repeated z-index.

    A term x^r z^e is one int key: e_i in the field of w bits at bit i*w,
    where w is the bit length of the input's top z-size (no rewrite raises
    a z-size, so no field overflows), and r above the z-fields.  There is
    one z-field per index up to the input's reach.  The potential
    P = sum e_i 2^ceil(i/2) of a term never rises under a rewrite, since
    z_k^(2a) -> z_(k+1)^(a-j) z_(k+2)^j trades 2a 2^ceil(k/2) for at most
    (a-j) 2^(ceil(k/2)+1) + j 2^(ceil(k/2)+1); and a term holding z_L has
    P >= 2^ceil(L/2).  So with P the input's largest potential no index
    past 2 (bit_length(P) - 1) appears (z0^(2^t) reaches z_(2t)), and the
    fields stop there, or at Z_INDEX_CAP if that is lower.  The mask hi
    covers bits 1..w-1 of every field, so a term is squarefree iff
    key & hi is 0, and the pivot is the field of its highest (or lowest)
    set bit.  The rewrite
    z_k^(2a+b) = z_k^b (-1)^a sum_j C(a, j) z_(k+1)^(a-j) (x^(2^(k+1)) z_(k+2))^j
    depends on the key only through (k, a), and with the packing and the
    pivot rule fixed for the call both are read off the masked pattern
    h = key & hi, whose field k holds 2a.  So a rewrite takes its move from
    a table keyed by h that lives for the call, with one dict lookup.  Only
    a pattern met for the first time finds k and a, checks Z_INDEX_CAP and
    fetches its move from `_move`, which builds each move once per field
    and packing for all calls: child j is key + delta_j, and the deltas
    are grouped by their factor (-1)^a C(a, j), so a rewrite multiplies
    the coefficient once per distinct factor.  A final term's basis index n is read off its z-fields
    eight at a time through `_digit_table`.

    Over Q, when every input coefficient is an int, the sweep adds and
    multiplies with `operator.add` and `operator.mul`.  This is exact:
    every move factor (-1)^a C(a, j) is an int, so every coefficient stays
    an int, and for two ints `RationalField.add` and `mul` return a + b and
    a * b.  An input holding a Fraction, and every prime field, keep the
    field's methods.

    The terms cap bounds the live terms (waiting and final) after each
    rewrite.  A rewrite of a term of z-size S adds at most its move's net
    child count, at most S // 2, so `upper`, raised by that count, bounds
    the live terms from above; while a whole bucket's rewrites cannot lift
    it past the limit, the bucket runs without counting.  The first bucket
    that could is preceded by one exact count, after which every rewrite
    counts exactly: a cap hit names the same live count wherever it falls.
    """
    if pivot not in ("largest", "smallest"):
        raise ValueError("pivot must be 'largest' or 'smallest'")
    largest = pivot == "largest"
    caps = current_caps()
    limit = caps.terms
    field = p.field
    zero = field.zero()
    terms = p.poly.terms
    if field == QQ and all(type(c) is int for c in terms.values()):
        add, mul = operator.add, operator.mul
    else:
        add, mul = field.add, field.mul
    sizes = [sum(exp) - exp[0] for exp in terms]
    top = max(sizes, default=-1)
    # the buckets and the first move grow with top, so it is checked first
    if top > caps.degree:
        raise too_large("normal_form", "degree", caps.degree, top)
    w = max(1, top.bit_length())
    potential = max(
        (sum(e << (i + 1) // 2 for i, e in enumerate(exp[1:])) for exp in terms), default=0
    )
    fields = min(Z_INDEX_CAP, max(0, 2 * (potential.bit_length() - 1))) + 1
    zb = fields * w
    shifts = range(0, zb, w)
    zmask = (1 << zb) - 1
    fmask = (1 << w) - 1
    hi = zmask - zmask // fmask  # zmask less the lowest bit of each field
    digits = _digit_table(w)
    chunk, cmask = 8 * w, (1 << 8 * w) - 1
    buckets: list[dict[int, object]] = [{} for _ in range(top + 1)]
    for (exp, coeff), size in zip(terms.items(), sizes):
        buckets[size][sum(e << s for e, s in zip(exp[1:], shifts)) + (exp[0] << zb)] = coeff
    # only a rewrite changes the live-term count, so checking it here and
    # after each rewrite also covers the output
    upper = len(terms)
    if upper > limit:
        raise too_large("normal_form", "terms", limit, upper)
    live = None  # the exact live-term count, once `upper` may pass the limit
    moves: dict[int, tuple] = {}  # masked pattern h = key & hi: the `_move` for it
    by_degree: dict[int, list[tuple[int, int, object]]] = {}
    while buckets:
        bucket = buckets.pop()
        size = len(buckets)
        if live is None and upper + len(bucket) * (size // 2) > limit:
            live = len(bucket) + sum(map(len, buckets)) + sum(map(len, by_degree.values()))
        for key, coeff in bucket.items():
            h = key & hi
            if not h:
                z, n, s = key & zmask, 0, 0
                while z:
                    n |= digits[z & cmask] << s
                    z >>= chunk
                    s += 8
                r = key >> zb
                by_degree.setdefault(n - r, []).append((r, n, coeff))
                continue
            move = moves.get(h)
            if move is None:
                k = ((h if largest else h & -h).bit_length() - 1) // w
                if k + 2 > Z_INDEX_CAP:
                    raise too_large("normal_form", "z-index", Z_INDEX_CAP, k + 2)
                move = moves[h] = _move(field, k, (h >> k * w & fmask) >> 1, w, zb)
            a, net, groups = move
            target = buckets[size - a]
            if live is None:
                upper += net
            else:
                live -= len(target) + 1
            # inline, not `poly._merged`: this is the rewrite's hot loop
            for f, deltas in groups:
                c = mul(coeff, f)
                for delta in deltas:
                    child = key + delta
                    old = target.get(child)
                    if old is None:
                        target[child] = c
                    elif (total := add(old, c)) != zero:
                        target[child] = total
                    else:
                        del target[child]
            if live is not None:
                live += len(target)
                if live > limit:
                    raise too_large("normal_form", "terms", limit, live)
    return {
        d: BasisExpansion(d, tuple(sorted(entries, key=lambda t: t[0])))
        for d, entries in sorted(by_degree.items())
    }


@functools.lru_cache(maxsize=1024)
def _move(
    field: Field, k: int, a: int, w: int, zb: int
) -> tuple[int, int, tuple[tuple[object, tuple[int, ...]], ...]]:
    """The rewrite of z_k^(2a) in `normal_form`'s packing: (a, net, groups),
    where each group (f, deltas) holds a factor f = (-1)^a C(a, j) that is
    nonzero in the field and the key offsets of the children j with that
    factor, and net is the number of children less one.  Child j trades
    z_k^(2a) for z_(k+1)^(a-j) z_(k+2)^j x^(j 2^(k+1))."""
    kw = k * w
    base = (a << kw + w) - (2 * a << kw)
    step = (1 << kw + 2 * w) - (1 << kw + w) + (1 << zb + k + 1)
    sign = field.pow(field.of(-1), a)
    groups: dict[object, list[int]] = {}
    for j in range(a + 1):
        f = field.mul(sign, field.of(math.comb(a, j)))
        if f != field.zero():
            groups.setdefault(f, []).append(base + j * step)
    net = sum(map(len, groups.values())) - 1
    return a, net, tuple((f, tuple(deltas)) for f, deltas in groups.items())


@functools.lru_cache(maxsize=64)
def _digit_table(w: int) -> dict[int, int]:
    """{sum of b_i << i*w: sum of b_i << i} over the 256 bytes b_7..b_0: eight
    squarefree w-bit z-fields to the eight binary digits of a basis index."""
    return {
        sum(1 << i * w for i in range(8) if byte >> i & 1): byte for byte in range(256)
    }


def in_x_omega(p: OmegaPoly) -> bool:
    """Membership in the principal ideal (x): every basis coordinate has m >= 1."""
    nf = normal_form(p)
    return all(m >= 1 for exp in nf.values() for m, _, _ in exp.entries)


def expansion_poly(nf: Mapping[int, BasisExpansion], field: Field = QQ) -> OmegaPoly:
    """Reassemble a normal-form map into the OmegaPoly it denotes: the entry
    (m, n, c) is c x^m F_n, with the z-exponents the binary digits of n."""
    entries = [entry for exp in nf.values() for entry in exp.entries]
    width = max([1] + [n.bit_length() for _, n, _ in entries])
    terms = {(m,) + tuple(n >> i & 1 for i in range(width)): c for m, n, c in entries}
    return OmegaPoly(Polynomial(omega_ring(field, width - 1), terms))


def expansion_text(nf: Mapping[int, BasisExpansion]) -> str:
    """Canonical one-line rendering of a normal-form map, for exact comparison
    (its coefficients are reduced field elements, which `str` renders)."""
    parts = []
    for d in sorted(nf):
        inner = ", ".join(f"({m}, {n}, {c})" for m, n, c in nf[d].entries)
        parts.append(f"deg {d}: [{inner}]")
    return "; ".join(parts) if parts else "0"


def parse_omega(text: str, field: Field = QQ) -> OmegaPoly:
    """Parse text in the variables x, z0, z1, ... (see ufdlab.poly's syntax)."""
    top = max((int(m) for m in _Z_NAME.findall(text)), default=0)
    return OmegaPoly(omega_ring(field, top).parse(text))
