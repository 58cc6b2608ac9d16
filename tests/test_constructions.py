"""Tests for the ring builders and hypothesis checkers."""

import math

import pytest

from ufdlab.coeff import GF, QQ
from ufdlab import constructions
from ufdlab.constructions import (
    Clause,
    PresentedRing,
    _residue_rank,
    check_condition_P,
    common_radical,
    export_presentation,
    free_ring,
    jacobian_tangent_dim,
    lemma_level_check,
    load_presentation_json,
    pham_brieskorn,
    present_extension,
    radical_extension,
    relatively_prime,
    threefold_family,
    trinomial_ring,
    w_chain,
)
from ufdlab.errors import CapExceeded, HypothesisError
from ufdlab.groebner import divide, ideal, ideal_equal, ideal_power
from ufdlab import poly
from ufdlab.poly import degree_of, poly_ring


# ---------------------------------------------------------------------------
# presented rings and the fraction extension
# ---------------------------------------------------------------------------


def test_presented_ring_rejects_zero_relation():
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    with pytest.raises(ValueError, match="zero relation"):
        PresentedRing(A.ring, (amb.zero(),))


def test_presented_ring_enforces_homogeneity():
    g = {"x": 2, "y": 3}
    ring = poly_ring(QQ, ("x", "y"))
    with pytest.raises(ValueError, match="not homogeneous"):
        PresentedRing(ring, (ring.parse("x + y"),), g)
    ok = PresentedRing(ring, (ring.parse("x^3 - y^2"),), g)
    assert degree_of(ok.relations[0], g) == 6


def test_relatively_prime_basic():
    A = free_ring(GF(5), ("u", "v"))
    amb = A.ring
    ok, _ = relatively_prime(A, amb.var("u"), amb.var("v"))
    assert ok
    ok, offender = relatively_prime(A, amb.parse("u*v"), amb.var("u"))
    assert not ok
    # u*v lies in (uv) cap (u) but not in (u^2 v)
    assert offender is not None


def test_present_extension_records_saturation():
    A = free_ring(GF(5), ("u", "v"))
    amb = A.ring
    B = present_extension(A, amb.var("u"), amb.var("v"))
    assert B.notes["saturation_index"] == 0
    assert B.notes["kernel_equals_presentation"] is True
    assert B.ring.names == ("u", "v", "X")
    big = B.ring
    assert B.relations == (big.parse("u*X - v"),)


def test_present_extension_rejects_common_factor():
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    with pytest.raises(HypothesisError, match="not relatively prime"):
        present_extension(A, amb.parse("u*v"), amb.var("u"))


def test_present_extension_fresh_variable_name():
    A = free_ring(QQ, ("X", "v"))
    amb = A.ring
    B = present_extension(A, amb.var("X"), amb.var("v"))
    assert B.notes["new_variable"] == "X1"


# ---------------------------------------------------------------------------
# the four-clause pair condition
# ---------------------------------------------------------------------------


def test_condition_P_clean_pair():
    A = free_ring(GF(5), ("u", "v"))
    amb = A.ring
    rep = check_condition_P(A, amb.var("u"), amb.var("v"), [amb.var("u")], 4)
    assert rep.clauses["i"].status == "verified"
    assert rep.clauses["ii"].status == "unknown"
    assert rep.clauses["ii"].bound == 4
    assert rep.clauses["iii"].status == "verified"  # vacuous, one prime
    assert rep.clauses["iv"].status == "verified"
    assert rep.overall() == "unknown"
    assert rep.primes == ["u"]


def test_condition_P_refutes_clause_i():
    A = free_ring(GF(5), ("u", "v"))
    amb = A.ring
    rep = check_condition_P(
        A, amb.parse("u*v"), amb.var("u"), [amb.var("u"), amb.var("v")], 3
    )
    assert rep.clauses["i"].status == "refuted"
    assert rep.overall() == "refuted"


def test_condition_P_unit_a_is_vacuous():
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    rep = check_condition_P(A, amb.const(3), amb.var("v"), [], 3)
    assert all(c.status == "verified" for c in rep.clauses.values())
    assert rep.overall() == "verified"
    assert rep.primes == []


def test_condition_P_finds_zero_divisor():
    # A = Q[u,v,w]/(w^2): mod (u, v) the class of w squares to zero.
    ring = poly_ring(QQ, ("u", "v", "w"))
    A = PresentedRing(ring, (ring.parse("w^2"),))
    rep = check_condition_P(A, ring.var("u"), ring.var("v"), [ring.var("u")], 3)
    assert rep.clauses["ii"].status == "refuted"
    assert "w" in rep.clauses["ii"].witness


def test_condition_P_pairwise_membership():
    # p = u, q = u + v: q is not in (p) + (b) with b = v^2... but u+v IS in (u, v^2)? no: v not in (u, v^2).
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    rep = check_condition_P(
        A,
        amb.parse("u^2 + u*v"),
        amb.parse("v^2"),
        [amb.var("u"), amb.parse("u + v")],
        3,
    )
    assert rep.clauses["iii"].status == "verified"
    # and a failing pair: q = u + v^2 lies in (u) + (v^2)
    rep2 = check_condition_P(
        A,
        amb.parse("u^2 + u*v^2"),
        amb.parse("v^2"),
        [amb.var("u"), amb.parse("u + v^2")],
        3,
    )
    assert rep2.clauses["iii"].status == "refuted"


def test_condition_P_excludes_unit_combinations():
    # p = u, b = u - 1: (p) + (b) contains 1, so p is excluded from the prime set.
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    rep = check_condition_P(A, amb.var("u"), amb.parse("u - 1"), [amb.var("u")], 3)
    assert rep.primes == []
    assert rep.excluded and "prime set" in rep.excluded[0]


def test_condition_P_rejects_wrong_factorization():
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    with pytest.raises(HypothesisError, match="factor product"):
        check_condition_P(A, amb.var("u"), amb.var("v"), [amb.var("v")], 3)


def test_condition_P_scalar_factor_mismatch_allowed():
    # factorization may differ from a by a unit scalar
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    rep = check_condition_P(A, amb.parse("2*u"), amb.var("v"), [amb.var("u")], 2)
    assert rep.clauses["i"].status == "verified"


def test_condition_P_clause_iv_refutation():
    # A = Q[u,v]/(u - u^2 v): u = u^2 v = u^3 v^2 = ... lies in every power of (u, v).
    ring = poly_ring(QQ, ("u", "v"))
    A = PresentedRing(ring, (ring.parse("u - u^2*v"),))
    rep = check_condition_P(A, ring.var("u"), ring.var("v"), [ring.var("u")], 3)
    assert rep.clauses["iv"].status == "refuted"


def test_condition_P_merges_associate_primes():
    A = free_ring(QQ, ("u", "v"))
    amb = A.ring
    u = amb.var("u")
    rep = check_condition_P(A, amb.parse("2*u^2"), amb.var("v"), [u, u * 2], 3)
    assert rep.primes == ["u"]
    assert rep.clauses["iii"] == Clause("verified", note="vacuous: no non-associate prime pairs")


def test_condition_P_searches_every_prime_for_zero_divisors():
    # A = Q[u,v,w]/(w^2), b = v: A/(w, v) = Q[u] is a domain, A/(u, v) = Q[w]/(w^2) is not.
    ring = poly_ring(QQ, ("u", "v", "w"))
    A = PresentedRing(ring, (ring.parse("w^2"),))
    u, v, w = ring.gens()
    rep = check_condition_P(A, u * w, v, [w, u], 3)
    assert rep.primes == ["w", "u"]
    assert rep.clauses["ii"] == Clause(
        "refuted", witness="zero divisors mod (u)+(v): w * w = 0 with both factors nonzero")


def test_condition_P_builds_one_quotient_ideal_per_prime_class(monkeypatch):
    ring = poly_ring(QQ, ("u", "v", "w"))
    A = PresentedRing(ring, (ring.parse("u*w - v^2"),))
    u, v, w = ring.gens()
    built = []

    class CountingIdeal(constructions.Ideal):
        def __init__(self, ring, gens):
            super().__init__(ring, gens)
            built.append(self.gens)

    monkeypatch.setattr(constructions, "Ideal", CountingIdeal)
    # u and 2u are one class; (v - 1) + (v) is the unit ideal, so v - 1 is excluded
    factors = [u, w, u * 2, v - 1]
    rep = check_condition_P(A, u * u * w * (v - 1) * 2, v, factors, 2)
    assert rep.primes == ["u", "w"]
    assert rep.excluded == ["v - 1: pA+bA = A, not in the prime set"]
    quotients = [g[-2] for g in built if g[:-2] == A.relations and g[-1] == v]
    assert quotients == [u, w, v - 1]


# ---------------------------------------------------------------------------
# the ideal chain W_i, J_i
# ---------------------------------------------------------------------------


def test_w_chain_regular_parameters():
    # b = u, s = v, t = w: every level is the full power (u, v)^i.
    ring = poly_ring(QQ, ("u", "v", "w"))
    u, v, w = ring.gens()
    W, J = w_chain(ring, u, v, w, 4)
    base = ideal(ring, u, v)
    for i in range(5):
        assert ideal_equal(W[i], ideal_power(base, i))
        assert ideal_equal(J[i], ideal_power(base, i))


def test_w_chain_t_equal_one():
    # t = 1 makes the quotient a no-op; the chain still collapses to powers.
    ring = poly_ring(QQ, ("u", "v"))
    u, v = ring.gens()
    W, _ = w_chain(ring, u, v, ring.one(), 3)
    base = ideal(ring, u, v)
    for i in range(4):
        assert ideal_equal(W[i], ideal_power(base, i))


def test_w_chain_absorbing_parameters():
    # b = s = t = u: W_1 = (u), J_1 = (1), and the chain stabilizes.
    ring = poly_ring(QQ, ("u", "v"))
    u, _ = ring.gens()
    W, J = w_chain(ring, u, u, u, 3)
    assert ideal_equal(W[1], ideal(ring, u))
    assert J[1].is_trivial()
    for i in range(2, 4):
        assert ideal_equal(W[i], ideal(ring, u))
        assert J[i].is_trivial()


def test_w_chain_caps_depth():
    ring = poly_ring(QQ, ("u", "v"))
    u, v = ring.gens()
    with pytest.raises(CapExceeded, match="^instance too large: w_chain reached depth 33, "
                                          "over the depth cap of 32$"):
        w_chain(ring, u, v, ring.one(), 33)


def test_w_chain_rejects_zero_parameters():
    ring = poly_ring(QQ, ("u", "v"))
    u, v = ring.gens()
    with pytest.raises(ValueError, match="nonzero"):
        w_chain(ring, ring.zero(), u, v, 2)


def test_lemma_level_check_agrees():
    ring = poly_ring(QQ, ("u", "v"))
    u, v = ring.gens()
    levels = lemma_level_check(ring, u + v, u, v, 3)
    assert all(levels)
    assert levels == [True, True, True, True]


def test_lemma_level_check_galois_field():
    ring = poly_ring(GF(5), ("u", "v"))
    u, v = ring.gens()
    levels = lemma_level_check(ring, u + v, u, v, 2)
    assert all(levels)


def test_lemma_level_check_rejects_common_factor():
    ring = poly_ring(QQ, ("u", "v"))
    u, v = ring.gens()
    with pytest.raises(HypothesisError, match="^must be relatively prime to s = u: ") as err:
        lemma_level_check(ring, v, u, u, 2)
    assert err.value.param == "t"
    # a = u*v and b = u share the factor u
    with pytest.raises(HypothesisError, match=r"^must be relatively prime to s\*t = u\*v: ") as err:
        lemma_level_check(ring, u, u, v, 2)
    assert err.value.param == "b"


def test_lemma_level_check_over_a_ring_holding_X():
    # X is taken, so the new variable is X1; the levels are those of a
    # renamed copy of the ring
    held = poly_ring(GF(5), ("X", "v"))
    free = poly_ring(GF(5), ("u", "v"))
    X, v = held.gens()
    u, w = free.gens()
    levels = lemma_level_check(held, X + v**2, X, v, 3)
    assert levels == lemma_level_check(free, u + w**2, u, w, 3) == [True] * 4


# ---------------------------------------------------------------------------
# radical extensions and diagonal hypersurfaces
# ---------------------------------------------------------------------------


def test_radical_extension_grading():
    ring = poly_ring(QQ, ("x", "y"))
    A = PresentedRing(ring, (), {"x": 2, "y": 3})
    B = radical_extension(A, ring.parse("x^3 + y^2"), 5)
    assert B.grading["x"] == 10
    assert B.grading["y"] == 15
    assert B.grading["Z"] == 6
    big = B.ring
    assert B.relations == (big.parse("Z^5 - x^3 - y^2"),)
    assert B.notes["deg_F"] == 6


def test_radical_extension_root_steps_past_a_held_Z():
    ring = poly_ring(QQ, ("x", "Z"))
    A = PresentedRing(ring, (), {"x": 2, "Z": 3})
    B = radical_extension(A, ring.parse("x^3 + Z^2"), 5)
    assert B.ring.names == ("x", "Z", "Z1")
    assert B.notes["new_variable"] == "Z1"
    assert B.grading == {"x": 10, "Z": 15, "Z1": 6}
    assert B.relations == (B.ring.parse("Z1^5 - x^3 - Z^2"),)


def test_radical_extension_rejects_inhomogeneous():
    ring = poly_ring(QQ, ("x", "y"))
    A = PresentedRing(ring, (), {"x": 2, "y": 3})
    with pytest.raises(HypothesisError, match="F not homogeneous"):
        radical_extension(A, ring.parse("x + y"), 5)


def test_radical_extension_rejects_common_degree():
    ring = poly_ring(QQ, ("x", "y"))
    A = PresentedRing(ring, (), {"x": 2, "y": 3})
    with pytest.raises(HypothesisError, match="gcd"):
        radical_extension(A, ring.parse("x^3 + y^2"), 2)


def test_pham_brieskorn_235():
    B = pham_brieskorn(QQ, (2, 3, 5))
    assert B.grading["X1"] == 15
    assert B.grading["X2"] == 10
    assert B.grading["Z"] == 6
    big = B.ring
    assert B.relations == (big.parse("Z^5 + X1^2 + X2^3"),)
    assert B.notes["case"].startswith("case (2)")


def test_pham_brieskorn_rejects_223():
    with pytest.raises(HypothesisError, match=r"case \(2\) fails"):
        pham_brieskorn(QQ, (2, 2, 3))


def test_builders_reject_exponents_that_are_not_ints():
    # True is an int in Python, and (2, True, 3) would pass case (2)
    for bad in ((2, True, 3), (2, "3", 5), (2, 3.0, 5)):
        with pytest.raises(HypothesisError, match="positive integers"):
            pham_brieskorn(QQ, bad)
    x = poly_ring(QQ, ("x",)).var("x")
    for a, b in (([True], [3]), (["2"], [3]), ([2], [3.0])):
        with pytest.raises(HypothesisError, match="positive integers"):
            threefold_family(QQ, [x], [1], [1], a, b)
    with pytest.raises(HypothesisError, match="positive integers"):
        trinomial_ring(QQ, [[2], [3], [True, 5]], [1])
    with pytest.raises(HypothesisError, match="must be a list"):
        trinomial_ring(QQ, [2, 3, 5], [1])


def test_pham_brieskorn_2345_case_one():
    B = pham_brieskorn(QQ, (2, 3, 4, 5))
    assert B.notes["case"].startswith("case (1)")
    # omega = lcm(2,3,4) = 12; weights 6, 4, 3 scaled by 5
    assert B.grading["X1"] == 30
    assert B.grading["X2"] == 20
    assert B.grading["X3"] == 15
    assert B.grading["Z"] == 12


def test_pham_brieskorn_rejects_n4_shared_factor():
    with pytest.raises(HypothesisError, match=r"case \(1\) fails"):
        pham_brieskorn(QQ, (2, 3, 4, 6))


# ---------------------------------------------------------------------------
# hypersurface chains over k[x] and their Jacobian
# ---------------------------------------------------------------------------


def _chain_n1(field=QQ, a=2, b=3):
    xring = poly_ring(field, ("x",))
    x = xring.var("x")
    return threefold_family(field, [x], [1], [1], [a], [b], kappa=x)


def test_threefold_family_shape():
    B = _chain_n1()
    ring = B.ring
    assert ring.names == ("x", "z0", "z1", "z2")
    assert B.relations == (ring.parse("x*z2 + z1^2 + z0^3"),)
    assert B.notes["quotient_shape_ok"] is True
    assert B.notes["zn_outside_In"] is True


def test_threefold_family_rejects_shared_exponent_factor():
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    with pytest.raises(HypothesisError, match="gcd"):
        threefold_family(QQ, [x, x], [1, 1], [1, 1], [2, 3], [3, 2])


def test_threefold_family_rejects_mixed_radical():
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    with pytest.raises(HypothesisError, match="common radical"):
        threefold_family(QQ, [x, x + 1], [1, 1], [1, 1], [2, 5], [3, 3])


def test_threefold_family_accepts_powers_of_one_prime():
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    B = threefold_family(QQ, [x**2, x**3], [1, 1], [1, 1], [2, 5], [3, 3], kappa=x)
    assert B.notes["quotient_shape_ok"] is True
    assert B.notes["zn_outside_In"] is True
    assert B.ring.names == ("x", "z0", "z1", "z2", "z3")


def test_threefold_family_takes_one_p_of_high_degree():
    # one p shares its radical with itself: no pair to check
    x = poly_ring(QQ, ("x",)).var("x")
    B = threefold_family(QQ, [x**9], [1], [1], [2], [3])
    assert B.relations == (B.ring.parse("x^9*z2 + z1^2 + z0^3"),)


def test_threefold_family_takes_powers_of_one_prime_at_the_default_caps():
    # gcds decide the common radical, so no power such as (x^9)^9 is built
    x = poly_ring(QQ, ("x",)).var("x")
    B = threefold_family(QQ, [x**8, x**9], [1, 1], [1, 1], [2, 2], [3, 3])
    assert B.relations[1] == B.ring.parse("x^9*z3 + z2^2 + z1^3")
    p = sum((x**i for i in range(41)), x * 0)
    with pytest.raises(HypothesisError, match=r"common radical: .* has the factor x \+ 1, prime"):
        threefold_family(QQ, [p * (x + 1), p], [1, 1], [1, 1], [2, 2], [3, 3])


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)], ids=str)
def test_common_radical_by_gcds(field):
    x = poly_ring(field, ("x",)).var("x")
    common_radical([x**8, x**9])
    common_radical([x**2 * (x + 1), x * (x + 1) ** 3, x**2 + x])
    # a factor of either one missing from the other, in either order
    for ps in ([x, x + 1], [x * (x + 1), x**3], [x**3, x * (x + 1)]):
        with pytest.raises(HypothesisError, match="common radical"):
            common_radical(ps)
    for ps in ([x, x.ring.one()], [x.ring.zero(), x]):
        with pytest.raises(HypothesisError, match="p_i must be nonconstant"):
            common_radical(ps)


def test_threefold_family_rejects_bad_kappa():
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    with pytest.raises(HypothesisError, match="kappa"):
        threefold_family(QQ, [x], [1], [1], [2], [3], kappa=x + 1)


def test_jacobian_tangent_dim_pinned():
    B = _chain_n1()
    xring = poly_ring(QQ, ("x",))
    rank, dim = jacobian_tangent_dim(B, xring.var("x"))
    assert rank == 0
    assert dim == 4


def test_jacobian_rejects_linear_exponent():
    B = _chain_n1(a=1, b=3)
    xring = poly_ring(QQ, ("x",))
    with pytest.raises(HypothesisError, match="a_i >= 2"):
        jacobian_tangent_dim(B, xring.var("x"))


def test_jacobian_two_step_chain():
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    B = threefold_family(QQ, [x**2, x**3], [1, 1], [1, 1], [3, 5], [2, 2], kappa=x)
    rank, dim = jacobian_tangent_dim(B, x)
    assert rank == 0
    assert dim == 5


def test_jacobian_uses_the_stored_polynomials(monkeypatch):
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    B = threefold_family(QQ, [x**2, x**3], [1, 1], [1, 1], [3, 5], [2, 2], kappa=x)

    def no_parse(ring, text):
        raise AssertionError(f"parsed {text!r}")

    monkeypatch.setattr(poly, "parse_poly", no_parse)
    assert jacobian_tangent_dim(B, x) == (0, 5)


def test_jacobian_rejects_p_read_back_as_text():
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    B = load_presentation_json(export_presentation(_chain_n1(), "json"))
    assert B.notes["params"]["p"] == ["x"]
    with pytest.raises(ValueError, match="p must hold polynomials"):
        jacobian_tangent_dim(B, x)


def test_jacobian_rejects_nondividing_point():
    xring = poly_ring(QQ, ("x",))
    x = xring.var("x")
    B = threefold_family(QQ, [x * (x + 1)], [1], [1], [2], [3])
    with pytest.raises(HypothesisError, match="q does not divide"):
        jacobian_tangent_dim(B, x + 2)


def test_jacobian_rejects_reducible_point_over_prime_field():
    F = GF(5)
    xring = poly_ring(F, ("x",))
    q = xring.parse("x^2 - 1")
    B = threefold_family(F, [q], [1], [1], [2], [3])
    with pytest.raises(HypothesisError, match="q must be irreducible"):
        jacobian_tangent_dim(B, q)


def test_jacobian_accepts_irreducible_point_over_prime_field():
    F = GF(5)
    xring = poly_ring(F, ("x",))
    q = xring.parse("x^2 + 2")
    B = threefold_family(F, [q], [1], [1], [2], [3])
    rank, dim = jacobian_tangent_dim(B, q)
    assert rank == 0
    assert dim == 4


def test_residue_rank_over_gaussian_rationals():
    xring = poly_ring(QQ, ("x",))
    x, one = xring.var("x"), xring.one()
    q = x**2 + 1
    assert _residue_rank([[x, one], [one, -x]], q) == 1  # det = -(x^2 + 1)
    assert _residue_rank([[x, one], [one, x]], q) == 2  # det = x^2 - 1 = -2


def test_residue_rank_over_cubic_extension_of_gf7():
    xring = poly_ring(GF(7), ("x",))
    x, one, zero = xring.var("x"), xring.one(), xring.zero()
    q = x**3 + x + 1  # no root in GF(7), so irreducible
    row = [x, x**2, one]
    # x times the row: dependent over the residue field, independent over GF(7)
    shifted = [divide(x * e, [q])[0] for e in row]
    assert _residue_rank([row, shifted], q) == 1
    assert _residue_rank([row, shifted, [one, zero, zero]], q) == 2
    assert _residue_rank([[x, one], [one, x**2]], q) == 2  # det = x^3 - 1 = 6x + 5
    assert _residue_rank([[zero, zero]], q) == 0


# ---------------------------------------------------------------------------
# three-term-relation rings
# ---------------------------------------------------------------------------


def test_trinomial_mori_example():
    B = trinomial_ring(QQ, [[2], [3], [5]], [1])
    ring = B.ring
    assert ring.names == ("t0", "t1", "t2")
    assert B.relations == (ring.parse("t0^2 + t1^3 + t2^5"),)
    step = B.notes["step_gradings"][0]
    assert step["degree"] == 6
    assert step["weights"] == {"t0": 3, "t1": 2}
    assert math.gcd(5, step["degree"]) == 1


def test_trinomial_rejects_non_coprime_blocks():
    with pytest.raises(HypothesisError, match=r"\(D\.2\)"):
        trinomial_ring(QQ, [[2], [2], [3]], [1])


def test_trinomial_rejects_bad_lambdas():
    with pytest.raises(HypothesisError, match=r"\(D\.3\)"):
        trinomial_ring(QQ, [[2], [3], [5], [7]], [1, 1])
    with pytest.raises(HypothesisError, match="entries must be nonzero"):
        trinomial_ring(QQ, [[2], [3], [5]], [0])


def test_trinomial_rejects_shape_errors():
    with pytest.raises(HypothesisError, match=r"\(D\.1\)"):
        trinomial_ring(QQ, [[2], [3]], [])
    with pytest.raises(HypothesisError, match=r"\(D\.1\)"):
        trinomial_ring(QQ, [[2], [3], [5]], [1, 2])
    with pytest.raises(HypothesisError, match="exponents must be positive integers"):
        trinomial_ring(QQ, [[2], [0], [5]], [1])


def test_trinomial_multivariable_block():
    B = trinomial_ring(QQ, [[2, 4], [3], [5]], [1])
    ring = B.ring
    assert ring.names == ("t0_1", "t0_2", "t1", "t2")
    assert B.relations == (ring.parse("t0_1^2*t0_2^4 + t1^3 + t2^5"),)
    step = B.notes["step_gradings"][0]
    assert step["degree"] == 6


def test_trinomial_three_relations():
    B = trinomial_ring(QQ, [[2], [3], [5], [7]], [1, 2])
    assert len(B.relations) == 2
    steps = B.notes["step_gradings"]
    assert [s["degree"] for s in steps] == [6, 30]
    assert steps[1]["weights"] == {"t0": 15, "t1": 10, "t2": 6}


# ---------------------------------------------------------------------------
# export / import
# ---------------------------------------------------------------------------


def test_presentation_json_round_trip():
    B = pham_brieskorn(GF(7), (2, 3, 5))
    text = export_presentation(B, "json")
    C = load_presentation_json(text)
    assert C.ring == B.ring
    assert C.relations == B.relations
    assert C.grading == B.grading
    assert C.tag == B.tag


def test_presentation_json_round_trip_ungraded():
    B = _chain_n1()
    C = load_presentation_json(export_presentation(B, "json"))
    assert C.relations == B.relations
    assert C.grading is None
    assert C.notes["params"]["a"] == [2]


def test_presentation_cas_text():
    B = pham_brieskorn(QQ, (2, 3, 5))
    text = export_presentation(B, "cas-text")
    lines = text.strip().splitlines()
    assert lines[0] == "field Q"
    assert "var X1 weight 15" in lines
    assert "var Z weight 6" in lines
    assert any(l.startswith("rel ") for l in lines)
    assert "tag pham-brieskorn" in lines


def test_presentation_unknown_format():
    B = _chain_n1()
    with pytest.raises(ValueError, match="unknown format"):
        export_presentation(B, "xml")
