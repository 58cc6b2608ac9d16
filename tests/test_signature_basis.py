"""`signature_basis`, the engine behind `Ideal`, against `buchberger`, its
oracle: both must give the same reduced Groebner basis.

The reduced basis of the new engine is its minimal basis interreduced by
`_interreduce`, as `Ideal.groebner()` computes it.  The cross-check runs on
seeded ideals over Q, GF(2), GF(5) and GF(32003), and on every usable ideal
of the benchmark's random pool (`perfbench/instances.py`, loaded read-only as
`tests/test_reference.py` loads it), under grevlex, lex and two block
orders.  A pool ideal whose basis `buchberger` cannot compute within the
default caps is left out, and the test bounds how many are; wherever
`buchberger` finishes, the new engine must finish too.
"""

import importlib.util
import json
import random
from pathlib import Path

import pytest

from ufdlab.coeff import GF, QQ, field_from_name
from ufdlab.errors import CapExceeded
from ufdlab.groebner import (
    GREVLEX,
    LEX,
    _interreduce,
    buchberger,
    elimination_order,
    signature_basis,
)
from ufdlab.poly import Polynomial, poly_ring

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
FIELDS = [QQ, GF(2), GF(5), GF(32003)]
NAMES = ("x", "y", "z")
SEEDED_IDEALS = 30  # per field and order
POOL_CAPPED_AT_MOST = 2  # pool ideals per order over a cap in buchberger


def _orders(names):
    """grevlex, lex, and the block orders that eliminate the first variable
    and the first two, as `ORDERS_XYZ` of `tests/test_groebner.py` does."""
    return [GREVLEX, LEX, elimination_order(names[:1], names[1:]),
            elimination_order(names[:2], names[2:])]


ORDER_IDS = ["grevlex", "lex", "block-1", "block-2"]


def _reduced(gens, order):
    return _interreduce(signature_basis(gens, order), order)


def _seeded_gens(field, rng):
    """Two to four generators of two to four terms in x, y, z, with
    exponents up to 2, 1 and 2, and no constant term."""
    ring = poly_ring(field, NAMES)
    gens = []
    for _ in range(rng.randint(2, 4)):
        terms = {}
        for _ in range(rng.randint(2, 4)):
            e = (rng.randrange(3), rng.randrange(2), rng.randrange(3))
            if any(e):
                terms[e] = field.sample(rng)
        gens.append(Polynomial(ring, terms))
    return [g for g in gens if g]


@pytest.mark.parametrize("index", range(4), ids=ORDER_IDS)
@pytest.mark.parametrize("field", FIELDS, ids=str)
def test_signature_basis_matches_buchberger_on_seeded_ideals(field, index):
    order = _orders(NAMES)[index]
    rng = random.Random(f"signature {field} {index}")
    nontrivial = 0
    for n in range(SEEDED_IDEALS):
        gens = _seeded_gens(field, rng)
        if not gens:
            continue
        want = buchberger(gens, order)
        assert _reduced(gens, order) == want, (n, [str(g) for g in gens])
        nontrivial += want != [gens[0].ring.one()]
    assert nontrivial >= SEEDED_IDEALS // 2


@pytest.fixture(scope="module")
def pool():
    """The usable pool ideals as (index, field name, names, texts)."""
    spec = importlib.util.spec_from_file_location("_bench_instances", BENCH / "instances.py")
    module = importlib.util.module_from_spec(spec)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("sys.dont_write_bytecode", True)  # write nothing under perfbench/
        spec.loader.exec_module(module)
    reference = json.loads((BENCH / "reference.json").read_text())
    return [(k, *module.pool_ideal(k)) for k, d in enumerate(reference["pool"]) if d is not None]


@pytest.mark.parametrize("index", range(4), ids=ORDER_IDS)
def test_signature_basis_matches_buchberger_on_the_pool(pool, index):
    capped = []
    for k, field_name, names, texts in pool:
        ring = poly_ring(field_from_name(field_name), names)
        order = _orders(names)[index]
        try:
            want = buchberger([ring.parse(t) for t in texts], order)
        except CapExceeded:
            capped.append(k)
            continue
        assert _reduced([ring.parse(t) for t in texts], order) == want, k
    assert len(capped) <= POOL_CAPPED_AT_MOST, capped


def test_signature_basis_is_minimal_monic_and_sorted():
    ring = poly_ring(QQ, NAMES)
    x, y, z = ring.gens()
    gens = [3 * x**2 * y - z, 2 * x * y**2 + x, y * z - 5]
    basis = signature_basis(gens, GREVLEX)
    keyfn = GREVLEX.key_for(ring)
    leads = [g.leading(keyfn) for g in basis]
    assert all(c == 1 for _, c in leads)
    assert [keyfn(e) for e, _ in leads] == sorted((keyfn(e) for e, _ in leads), reverse=True)
    for i, (e, _) in enumerate(leads):
        assert not any(all(a <= b for a, b in zip(h, e)) for j, (h, _) in enumerate(leads) if j != i)
    assert _interreduce(basis, GREVLEX) == buchberger(gens, GREVLEX)


def test_signature_basis_of_no_generator_and_of_zero():
    ring = poly_ring(GF(5), NAMES)
    assert signature_basis([]) == []
    assert signature_basis([ring.zero(), ring.zero()]) == []
    x, _, _ = ring.gens()
    assert signature_basis([ring.zero(), x, 2 * x]) == [x]


def test_signature_basis_rejects_mixed_rings():
    a, b = poly_ring(QQ, ("x", "y")), poly_ring(QQ, ("x", "z"))
    with pytest.raises(ValueError, match="different rings"):
        signature_basis([a.gens()[0], b.gens()[1]])


# -- caps -----------------------------------------------------------------------


def test_degree_cap_trips_on_a_joining_element(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "degree=2")
    x, y = poly_ring(QQ, ("x", "y")).gens()
    # nothing reduces a lone generator: it joins as it is
    with pytest.raises(CapExceeded, match="^instance too large: signature_basis reached "
                                          "degree 3, over the degree cap of 2$"):
        signature_basis([x**3 + y], GREVLEX)


def test_terms_cap_trips_on_a_joining_element(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    x, y, z, w = poly_ring(QQ, ("x", "y", "z", "w")).gens()
    with pytest.raises(CapExceeded, match="^instance too large: signature_basis reached "
                                          "terms 4, over the terms cap of 3$"):
        signature_basis([x + y + z + w], GREVLEX)


def test_degree_cap_trips_in_the_running_s_reduction(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "degree=2")
    x, y = poly_ring(QQ, ("x", "y")).gens()
    # both generators fit; under lex x*y reduces by x - y^2 to y^3
    with pytest.raises(CapExceeded, match="^instance too large: s_reduce reached degree 3, "
                                          "over the degree cap of 2$"):
        signature_basis([x - y**2, x * y], LEX)


def test_terms_cap_trips_in_the_running_s_reduction(monkeypatch):
    monkeypatch.setenv("UFDLAB_CAPS", "terms=3")
    x, y, z = poly_ring(QQ, NAMES).gens()
    # both generators fit; reducing x^3 by x - y - z runs through four
    # unreduced terms (2xyz + xz^2 + y^3 + y^2z)
    with pytest.raises(CapExceeded, match="^instance too large: s_reduce reached terms 4, "
                                          "over the terms cap of 3$"):
        signature_basis([x - y - z, x**3], GREVLEX)
