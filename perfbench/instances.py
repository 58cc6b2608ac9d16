"""Benchmark inputs, generated as polynomial text from formulas and seeds.

Every generator here returns plain data (field names, variable names and
polynomial text); the workloads parse it with the library's own parser, so
parsing is part of set-up time like it is for a user passing text.
"""

from __future__ import annotations

import random

PRIME = 32003
GF_NAME = f"GF({PRIME})"
QQ_NAME = "Q"

# Random ideals come from a fixed pool: instance k is drawn from its own
# string seed, so it is the same on every machine and run, and its reduced
# basis has a reference digest in reference.json.  The --seed argument picks
# which pool instances a run uses.
POOL_SIZE = 1000


def cyclic(n: int) -> tuple[tuple[str, ...], list[str]]:
    """Cyclic-n (Bjorck-Froberg): for k = 1..n-1 the sum over i of
    x_i x_(i+1) ... x_(i+k-1) (indices mod n), and x_0 ... x_(n-1) - 1."""
    names = tuple(f"x{i}" for i in range(n))
    gens = []
    for k in range(1, n):
        terms = ["*".join(names[(i + j) % n] for j in range(k)) for i in range(n)]
        gens.append(" + ".join(terms))
    gens.append("*".join(names) + " - 1")
    return names, gens


def katsura(n: int) -> tuple[tuple[str, ...], list[str]]:
    """Katsura-n in u_0..u_n: u_0 + 2(u_1 + ... + u_n) - 1, and for
    m = 0..n-1 the sum over l = -n..n of u_|l| u_|m-l|, minus u_m."""
    names = tuple(f"u{i}" for i in range(n + 1))
    gens = [" + ".join([names[0]] + [f"2*{u}" for u in names[1:]]) + " - 1"]
    for m in range(n):
        terms = [
            f"{names[abs(l)]}*{names[abs(m - l)]}"
            for l in range(-n, n + 1)
            if abs(m - l) <= n
        ]
        gens.append(" + ".join(terms) + f" - {names[m]}")
    return names, gens


def _monomial_text(names, exps) -> str:
    return "*".join(n if k == 1 else f"{n}^{k}" for n, k in zip(names, exps) if k)


def _term_text(coeff: int, mono: str) -> str:
    if not mono:
        return str(coeff)
    return f"{coeff}*{mono}"


def _join_terms(terms: list[tuple[int, str]]) -> str:
    """Render signed (coeff, monomial) pairs as parser-friendly text."""
    text = ""
    for coeff, mono in terms:
        body = _term_text(abs(coeff), mono)
        if not text:
            text = body if coeff > 0 else f"-{body}"
        else:
            text += f" + {body}" if coeff > 0 else f" - {body}"
    return text


def _random_exps(rng: random.Random, nvars: int, max_deg: int, min_deg: int = 0):
    exps = [0] * nvars
    for _ in range(rng.randint(min_deg, max_deg)):
        exps[rng.randrange(nvars)] += 1
    return tuple(exps)


def _random_coeff(rng: random.Random, field: str) -> int:
    if field == GF_NAME:
        return rng.randint(1, PRIME - 1)
    return rng.choice((-1, 1)) * rng.randint(1, 9)


def random_poly_text(rng: random.Random, names, field: str, max_deg: int,
                     min_terms: int, max_terms: int) -> str:
    """A sparse polynomial with distinct monomials of total degree <= max_deg;
    its first monomial has degree >= 1, so it is never a constant."""
    seen = set()
    terms = []
    want = rng.randint(min_terms, max_terms)
    while len(terms) < want:
        exps = _random_exps(rng, len(names), max_deg, 1 if not terms else 0)
        if exps in seen:
            continue
        seen.add(exps)
        terms.append((_random_coeff(rng, field), _monomial_text(names, exps)))
    return _join_terms(terms)


def pool_ideal(k: int) -> tuple[str, tuple[str, ...], list[str]]:
    """Pool instance k: 3-4 variables, 2-4 generators of 1-3 terms and total
    degree <= 4; even k over GF(32003), odd k over Q."""
    if not 0 <= k < POOL_SIZE:
        raise ValueError(f"pool index {k} out of range")
    rng = random.Random(f"ufdlab-pool-{k}")
    field = GF_NAME if k % 2 == 0 else QQ_NAME
    names = ("x", "y", "z", "w")[: rng.randint(3, 4)]
    gens = [random_poly_text(rng, names, field, 4, 1, 3) for _ in range(rng.randint(2, 4))]
    return field, names, gens


def pick_pool(rng: random.Random, usable: list[int], build_ms: list, count: int) -> list[int]:
    """count usable pool indices, half over each field, stratified by build
    time: each field's instances, sorted by their build time on the capture
    machine, are cut into equal strata and one index is drawn from each.  So
    every seed gets the pool's spread of easy and hard ideals, and the
    per-operation quantiles do not swing with the seed."""
    picked = []
    for parity, want in ((0, count // 2), (1, count - count // 2)):
        ranked = sorted((k for k in usable if k % 2 == parity), key=lambda k: build_ms[k])
        for i in range(want):
            stratum = ranked[i * len(ranked) // want:(i + 1) * len(ranked) // want]
            picked.append(rng.choice(stratum))
    return picked


def omega_element_text(rng: random.Random, size: int, terms: int, max_index: int = 4) -> str:
    """A sum of `terms` distinct x^r * prod z_i^e_i, each of z-size (sum of
    the e_i) exactly `size`, with 0 <= r <= 3 and i <= max_index."""
    seen = set()
    out = []
    while len(out) < terms:
        exps = [0] * (max_index + 1)
        for _ in range(size):
            exps[rng.randint(0, max_index)] += 1
        key = (rng.randint(0, 3), tuple(exps))
        if key in seen:
            continue
        seen.add(key)
        r, exps = key
        factors = [f"x^{r}"] if r else []
        factors += [f"z{i}^{e}" if e > 1 else f"z{i}" for i, e in enumerate(exps) if e]
        out.append((_random_coeff(rng, QQ_NAME), "*".join(factors)))
    return _join_terms(out)
