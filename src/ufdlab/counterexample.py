"""Order certificates for the hypersurface-chain ring over k[x, y].

The ring is k[x, y][z_0, z_1, ...] modulo the relations

    x*z_(i+1) + y^(s(i+1)-1) * z_i^s(i+1) - z_(i-1)     (i >= 1),

where s is the integer sequence s(1)=2, s(2)=3, s(n)=n*prod(s(i), i<=n-2).
Solving relation i for z_(i-1) (`_solved_rhs`, the one place a relation
is written) and substituting repeatedly pushes z_0 ever deeper into powers
of the maximal ideal (x, y) — and, after the change of variables y = x*T,
which sends x^a*y^b to x^(a+b)*T^b, into powers of (x).  The exact
expansions blow up with s, so the certificates come in two tiers: at small
depth the identity z_0 - expansion = sum g_i * f_i, whose cofactors g_i
are exact quotients computed only by `check_expansion_identity`; up to
depth 32 an abstract order-tracking derivation (each substitution
multiplies every branch by an element of the ideal, so orders increase by
one per round).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .coeff import Field, PrimeField, QQ
from .errors import too_large
from .groebner import LEX, Ideal, divide, ideal, ideal_equal
from .poly import Polynomial, PolyRing, RingMap, poly_ring

EXPAND_DEPTH_CAP = 3
IDENTITY_DEPTH_CAP = 2
ORDER_CAP = 32
COORDINATE_CAP = 3
SSEQ_CAP = 20  # s(21) has 5132 digits, past json's int-to-text limit


# ---------------------------------------------------------------------------
# the exponent sequence
# ---------------------------------------------------------------------------


def s_sequence(n: int) -> dict[int, int]:
    """{i: s(i)} for i = 1..n, where s(1)=2, s(2)=3 and
    s(n) = n * product of s(1)..s(n-2) for n >= 3."""
    if n < 1:
        raise ValueError("need n >= 1")
    if n > SSEQ_CAP:
        raise too_large("s_sequence", "length", SSEQ_CAP, n)
    vals = [2, 3]
    prefix = 1  # product of s(1)..s(len(vals)-2)
    for m in range(3, n + 1):
        prefix *= vals[m - 3]
        vals.append(m * prefix)
    return dict(enumerate(vals[:n], start=1))


def _warn_positive_characteristic(field: Field, stacklevel: int = 3):
    # stacklevel 3 points the warning at the caller of the public function
    if isinstance(field, PrimeField):
        warnings.warn(
            "this construction assumes characteristic zero; "
            f"computing over {field} anyway",
            stacklevel=stacklevel,
        )


# ---------------------------------------------------------------------------
# exact expansions of z_0
# ---------------------------------------------------------------------------


def _solved_rhs(ring: PolyRing, j: int, s: dict[int, int]) -> Polynomial:
    """z_j = x*z_(j+2) + y^(s-1) * z_(j+1)^s with s = s(j+2): relation j+1
    solved for z_j, the one place a chain relation is written."""
    sv = s[j + 2]
    return ring.monomial({"x": 1, f"z{j+2}": 1}) + ring.monomial({"y": sv - 1, f"z{j+1}": sv})


def _expand(depth: int, field: Field) -> Polynomial:
    """Iterated solve-and-substitute: round r is one simultaneous
    substitution of every z_j present (j = r-1 .. 2r-2) by its solved
    right-hand side."""
    s = s_sequence(max(2 * depth, 2))
    ring = poly_ring(field, ("x", "y") + tuple(f"z{i}" for i in range(2 * depth + 1)))
    p = ring.var("z0")
    for r in range(1, depth + 1):
        images = {f"z{j}": _solved_rhs(ring, j, s) for j in range(r - 1, 2 * r - 1)}
        p = RingMap(ring, ring, images).apply(p)
    return p


def _expanded_z0(depth: int, field: Field, site: str) -> Polynomial:
    """`_expand` projected onto x, y and the z_i that can remain,
    z_depth .. z_(2*depth); `site` names the caller in the cap message."""
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > EXPAND_DEPTH_CAP:
        raise too_large(site, "depth", EXPAND_DEPTH_CAP, depth)
    _warn_positive_characteristic(field, stacklevel=4)
    p = _expand(depth, field)
    keep = ("x", "y") + tuple(f"z{i}" for i in range(depth, 2 * depth + 1))
    return p.lift(poly_ring(field, keep))


def expand_z0(depth: int, field: Field = QQ) -> Polynomial:
    """The exact representative of z_0 after `depth` substitution rounds,
    a polynomial in x, y and z_depth .. z_(2*depth)."""
    return _expanded_z0(depth, field, "expand_z0")


def expand_z0_bprime(depth: int, field: Field = QQ) -> Polynomial:
    """`expand_z0` under the change of variables y = x*T, a polynomial in
    x, T and z_depth .. z_(2*depth): the term x^a*y^b becomes x^(a+b)*T^b.
    That map is injective on exponents, so no terms merge.  Every round
    contributes one full factor of x, so the result is divisible by x^depth."""
    p = _expanded_z0(depth, field, "expand_z0_bprime")
    ring = poly_ring(field, ("x", "T") + p.ring.names[2:])
    return Polynomial(ring, {(e[0] + e[1],) + e[1:]: c for e, c in p.terms.items()})


def check_expansion_identity(depth: int, field: Field = QQ) -> bool:
    """Certify that expand_z0(depth) equals z_0 modulo the relations
    f_i = x*z_(i+1) + y^(s(i+1)-1)*z_i^s(i+1) - z_(i-1).

    The rounds are redone one z_j at a time; each step's cofactor is the
    exact quotient (before - after) / (z_j - rhs_j), computed here only, and
    z0 - expansion = sum g_i * f_i is checked by plain polynomial arithmetic.
    False when a step is not a multiple of its relation or the sum differs.
    """
    if depth < 0:
        raise ValueError("depth must be nonnegative")
    if depth > IDENTITY_DEPTH_CAP:
        raise too_large("check_expansion_identity", "depth", IDENTITY_DEPTH_CAP, depth)
    p = _expand(depth, field)
    ring = p.ring
    s = s_sequence(max(2 * depth, 2))
    q = ring.var("z0")
    cofactors: dict[int, Polynomial] = {}
    for r in range(1, depth + 1):
        for j in range(2 * r - 2, r - 2, -1):  # decreasing j keeps what round r introduces
            rhs = _solved_rhs(ring, j, s)
            after = RingMap(ring, ring, {f"z{j}": rhs}).apply(q)
            rest, (g,) = divide(q - after, [ring.var(f"z{j}") - rhs])
            if rest:
                return False
            # z_j - rhs = -f_(j+1), so before - after = -f_(j+1) * g
            cofactors[j + 1] = cofactors.get(j + 1, ring.zero()) - g
            q = after
    total = ring.zero()
    for i, g in cofactors.items():
        f_i = _solved_rhs(ring, i - 1, s) - ring.var(f"z{i-1}")
        total = total + g * f_i
    return ring.var("z0") - p == total


def min_xy_degree(p: Polynomial) -> int:
    """Minimum combined (x, y)-degree over the monomials of p; the exact
    shadow of membership in a power of (x, y)."""
    if not p:
        raise ValueError("degree of zero")
    ring = p.ring
    cols = [i for i, n in enumerate(ring.names) if n in ("x", "y")]
    return min(sum(exp[i] for i in cols) for exp in p.terms)


# ---------------------------------------------------------------------------
# abstract order certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderCert:
    """A derivation that z_0 has order >= `order` for the named ideal.

    Each log entry (round, index, increment) records one substitution
    z_index -> (ideal element) * (z_(index+1) or z_(index+2) branch); the
    increment is the guaranteed order gain, always exactly 1.  The state
    after the last round lists (z-index, guaranteed order) pairs.
    """

    target: str
    ideal: str
    order: int
    log: tuple[tuple[int, int, int], ...]
    final_state: tuple[tuple[int, int], ...]
    accepted: bool

    def __post_init__(self):
        if any(inc < 1 for _, _, inc in self.log):
            raise ValueError("order increments must be >= 1")


def _order_certificate(n: int, ideal_tag: str) -> OrderCert:
    if n < 0:
        raise ValueError("order must be nonnegative")
    if n > ORDER_CAP:
        raise too_large("order_certificate", "order", ORDER_CAP, n)
    state = {(0, 0)}
    log: list[tuple[int, int, int]] = []
    for rnd in range(1, n + 1):
        nxt = set()
        for i, k in sorted(state):
            log.append((rnd, i, 1))
            nxt.add((i + 1, k + 1))
            nxt.add((i + 2, k + 1))
        state = nxt
    final = tuple(sorted(state))
    accepted = all(k >= n for _, k in final)
    return OrderCert("z0", ideal_tag, n, tuple(log), final, accepted)


def m_order_certificate(n: int) -> OrderCert:
    """Certify z_0 in (x, y)^n: every substitution z_(i-1) ->
    x*z_(i+1) + y^(s-1)*z_i^s multiplies each branch by an element of (x, y)."""
    return _order_certificate(n, "(x, y)-adic")


def x_order_certificate_bprime(n: int) -> OrderCert:
    """Certify z_0 in x^n * B[y/x]: after y = x*T each substitution reads
    z_(i-1) = x * (z_(i+1) + x^(s-2) * T^(s-1) * z_i^s), one x per round."""
    return _order_certificate(n, "x-adic after y = x*T")


# ---------------------------------------------------------------------------
# coordinate checks on the truncated relation ideals
# ---------------------------------------------------------------------------


def coordinate_checks(n: int, field: Field = QQ) -> dict[str, bool]:
    """Three exact ideal identities for J_n = (f_1, ..., f_n) in
    k[x, y, z0..z_(n+1)], where f_i = x*z_(i+1) + y^(s-1)*z_i^s - z_(i-1)
    with s = s(i+1):

    composite_linearizes: the composite of the shear maps
        z_(i-1) -> z_(i-1) + x*z_(i+1) + y^(s-1)*z_i^s (applied for i = 1..n)
        carries J_n onto the coordinate ideal (z0, ..., z_(n-1));
    mod_x_matches: (x) + J_n = (x, f_i at x = 0 for i = 1..n),
        that is (x, y^(s-1)*z_i^s - z_(i-1));
    mod_y_matches: (y) + J_n = (y, f_i at y = 0 for i = 1..n),
        that is (y, x*z_(i+1) - z_(i-1)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > COORDINATE_CAP:
        raise too_large("coordinate_checks", "relations", COORDINATE_CAP, n)
    if n == 0:
        return {"composite_linearizes": True, "mod_x_matches": True, "mod_y_matches": True}
    _warn_positive_characteristic(field)
    s = s_sequence(n + 1)
    # With the z variables first, every relation below is lex-solved for its
    # own z_(i-1): the leading terms are distinct single variables, so each
    # generating set is already a Groebner basis and the equality checks stay
    # cheap (under grevlex the same ideals force enormous S-polynomials).
    ring = poly_ring(field, tuple(f"z{i}" for i in range(n + 2)) + ("x", "y"))
    zs = ring.gens()[: n + 2]
    rhs = [_solved_rhs(ring, j, s) for j in range(n)]  # f_(j+1) solved for z_j
    fs = [r - zs[j] for j, r in enumerate(rhs)]

    images = fs
    for j, r in enumerate(rhs):
        shear = RingMap(ring, ring, {f"z{j}": zs[j] + r})
        images = [shear.apply(g) for g in images]
    composite_ok = ideal_equal(ideal(ring, *images), ideal(ring, *zs[:n]), LEX)

    J = ideal(ring, *fs)

    def matches_at_zero(name: str) -> bool:
        v = ring.var(name)
        at_zero = RingMap(ring, ring, {name: ring.zero()})
        reduced = ideal(ring, v, *(at_zero.apply(f) for f in fs))
        return ideal_equal(J + Ideal(ring, (v,)), reduced, LEX)

    return {
        "composite_linearizes": composite_ok,
        "mod_x_matches": matches_at_zero("x"),
        "mod_y_matches": matches_at_zero("y"),
    }
