import hashlib
import random
import time

import pytest

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.exprs import parse_element
from kstacks.groupring import GroupRingElement, one_minus
from kstacks.grobner import (
    AbGroupInvariants,
    IntPolynomial,
    PolyPresentation,
    StrongGroebnerBasis,
    _grevlex_key,
    _W,
    _divides,
    _is_strong_basis,
    _lcm_exponent,
    _pack,
    _pair_polys,
    _primary_invariants,
    _standard_monomials,
    _unpack,
    normal_form,
    present,
    strong_groebner,
    unpresent,
    zmodule_invariants,
)
from kstacks.ktheory import k0_presentation
from kstacks.stacks import builtin_example, make_stack_data

from conftest import _MacaulayLattice, lattice_invariants, macaulay_member


def laurent_presentation():
    Z = FgAbelianGroup.canonical(1)
    return Z, PolyPresentation.for_group(Z)


def laurent2_presentation():
    Z2 = FgAbelianGroup.canonical(2)
    return Z2, PolyPresentation.for_group(Z2)


def blowup_basis():
    Z2, p = laurent2_presentation()
    u = GroupRingElement.monomial(Z2.element([1, 0]))
    v = GroupRingElement.monomial(Z2.element([0, 1]))
    gens = [present(1 - v, p), present((1 - u) * (1 - u), p)]
    return Z2, p, strong_groebner(gens, p), u, v


def rugby_basis(p_, q_):
    G = group_from_relations(2, [[p_, -q_]])
    pres = PolyPresentation.for_group(G)
    e = G.element([1, 0])
    ep = G.element([0, 1])
    gen = one_minus(e) * one_minus(ep)
    gb = strong_groebner([present(gen, pres)], pres)
    return G, pres, gb, e, ep


def test_grevlex_order():
    # same degree: the monomial with the smaller exponent in the later
    # variable is larger
    assert _grevlex_key((1, 0)) > _grevlex_key((0, 1))
    assert _grevlex_key((0, 0, 2)) < _grevlex_key((1, 1, 0))


def test_present_clears_negative_exponents():
    Z, p = laurent_presentation()
    tinv = GroupRingElement.monomial(Z.element([-1]))
    poly = present(1 - tinv, p)
    assert poly == IntPolynomial({(0, 0): 1, (0, 1): -1})  # 1 - y'
    assert unpresent(poly, p) == 1 - tinv

    t = GroupRingElement.monomial(Z.element([1]))
    poly2 = present(1 - t, p)
    assert poly2 == IntPolynomial({(0, 0): 1, (1, 0): -1})
    assert unpresent(poly2, p) == 1 - t


def test_present_roundtrip_random():
    rng = random.Random(42)
    G = group_from_relations(2, [[2, -4]])
    p = PolyPresentation.for_group(G)
    r = G.free_rank
    for _ in range(40):
        e = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 4)):
            coords = [rng.randint(-3, 3), rng.randint(-3, 3)]
            e = e + GroupRingElement.monomial(G.element(coords), rng.randint(-4, 4))
        poly = present(e, p)
        assert len(poly.terms) == len(e.terms)
        # no unit factor: each free coordinate uses y or y', never both
        assert all(exp[2 * i] == 0 or exp[2 * i + 1] == 0 for exp in poly.terms for i in range(r))
        assert unpresent(poly, p) == e


def test_gcd_completion_over_int():
    # {2(1-t), 3(1-t)} completes to a basis holding t - 1 itself
    Z, p = laurent_presentation()
    t = GroupRingElement.monomial(Z.element([1]))
    gb = strong_groebner([present(2 * (1 - t), p), present(3 * (1 - t), p)], p)
    assert present(t - 1, p) in gb.elements


def test_structural_alone_is_its_own_basis():
    Z, p = laurent_presentation()
    gb = strong_groebner([], p)
    assert gb.elements == p.structural


def test_blowup_normal_forms():
    Z2, p, gb, u, v = blowup_basis()
    u2 = present(u * u, p)
    expected = present(2 * u - 1, p)
    assert normal_form(u2, gb) == normal_form(expected, gb)
    assert normal_form(present(1 - v, p), gb).is_zero()
    assert normal_form(present((1 - u) * (1 - u) * (1 - v), p), gb).is_zero()
    assert not normal_form(present(1 - u, p), gb).is_zero()


def test_rugby_normal_forms():
    G, pres, gb, e, ep = rugby_basis(2, 3)
    t = GroupRingElement.monomial(e)
    # (1 - t)(1 - t^p) lies in the ideal because 1 - t^p = 1 - s^q
    f = one_minus(e) * one_minus(2 * e)
    assert normal_form(present(f, pres), gb).is_zero()
    lhs = present(one_minus(2 * e), pres)
    rhs = present(one_minus(3 * ep), pres)
    assert normal_form(lhs, gb) == normal_form(rhs, gb)
    assert not normal_form(present(one_minus(e), pres), gb).is_zero()
    assert normal_form(present(t * one_minus(2 * e) - one_minus(2 * e), pres), gb).is_zero()


def test_normal_form_idempotent_and_sound():
    rng = random.Random(7)
    G, pres, gb, e, ep = rugby_basis(2, 3)
    zgens = [one_minus(e) * one_minus(ep)]
    for _ in range(25):
        f = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 4)):
            coords = [rng.randint(-2, 2), rng.randint(-2, 2)]
            f = f + GroupRingElement.monomial(G.element(coords), rng.randint(-3, 3))
        poly = present(f, pres)
        nf = normal_form(poly, gb)
        assert normal_form(nf, gb) == nf
        diff = unpresent(poly, pres) - unpresent(nf, pres)
        assert macaulay_member(diff, zgens, 24)


def test_normal_form_multiplicative():
    rng = random.Random(13)
    Z2, p, gb, u, v = blowup_basis()
    for _ in range(20):
        a = GroupRingElement.zero(Z2)
        b = GroupRingElement.zero(Z2)
        for _ in range(rng.randint(1, 3)):
            a = a + GroupRingElement.monomial(
                Z2.element([rng.randint(0, 2), rng.randint(0, 2)]), rng.randint(-3, 3)
            )
            b = b + GroupRingElement.monomial(
                Z2.element([rng.randint(0, 2), rng.randint(0, 2)]), rng.randint(-3, 3)
            )
        # products are taken in the group ring, then presented
        lhs = normal_form(present(a * b, p), gb)
        na, nb = (unpresent(normal_form(present(x, p), gb), p) for x in (a, b))
        rhs = normal_form(present(na * nb, p), gb)
        assert lhs == rhs


def test_membership_matches_macaulay_oracle():
    # five fixed instances, both member and non-member cases
    Z2, p2, gb_blowup, u, v = blowup_basis()
    blowup_gens = [1 - v, (1 - u) * (1 - u)]
    G, pres, gb_rugby, e, ep = rugby_basis(2, 3)
    rugby_gens = [one_minus(e) * one_minus(ep)]
    t = GroupRingElement.monomial(e)
    Z = FgAbelianGroup.canonical(1)
    pz = PolyPresentation.for_group(Z)
    w = GroupRingElement.monomial(Z.element([1]))
    gcd_gens = [2 * (1 - w), 3 * (1 - w)]
    gb_gcd = strong_groebner([present(g, pz) for g in gcd_gens], pz)

    uinv = GroupRingElement.monomial(Z2.element([-1, 0]))
    instances = [
        (1 - u, blowup_gens, p2, gb_blowup),
        ((1 - u) * (1 - u) * uinv, blowup_gens, p2, gb_blowup),
        (t * one_minus(2 * e) - one_minus(2 * e), rugby_gens, pres, gb_rugby),
        (one_minus(e), rugby_gens, pres, gb_rugby),
        (1 - w, gcd_gens, pz, gb_gcd),
    ]
    for f, gens, presn, gb in instances:
        nf_says = normal_form(present(f, presn), gb).is_zero()
        oracle_says = macaulay_member(f, gens, 14)
        assert nf_says == oracle_says


def test_invariants_blowup():
    Z2, p, gb, u, v = blowup_basis()
    inv = zmodule_invariants(gb)
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_invariants_unit_ideal():
    Z, p = laurent_presentation()
    gb = strong_groebner([IntPolynomial({(0, 0): 1})], p)
    inv = zmodule_invariants(gb)
    assert inv.invariants() == (0, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_invariants_p1():
    Z, p = laurent_presentation()
    t = GroupRingElement.monomial(Z.element([1]))
    gb = strong_groebner([present((1 - t) * (1 - t), p)], p)
    inv = zmodule_invariants(gb)
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_invariants_not_finitely_generated():
    Z, p = laurent_presentation()
    gb = strong_groebner([], p)
    inv = zmodule_invariants(gb)
    assert inv.status == AbGroupInvariants.NOT_FG
    assert inv.free_rank is None


def test_invariants_torsion_quotient():
    # Z[t, 1/t]/(5, 1 - t): five torsion classes of the constants
    Z, p = laurent_presentation()
    t = GroupRingElement.monomial(Z.element([1]))
    gb = strong_groebner([present(GroupRingElement.constant(Z, 5), p), present(1 - t, p)], p)
    inv = zmodule_invariants(gb)
    assert inv.invariants() == (0, (5,))
    assert inv.status == AbGroupInvariants.EXACT


def test_unit_ideal_default_path_does_not_stall():
    # the Macaulay lattice of these generators blows up; the default path
    # builds none and certifies the unit ideal from its checked basis
    Z2, p = laurent2_presentation()
    gens = [
        parse_element(s, Z2)
        for s in ("3*t^[0,-2]", "-2*t^[-2,-1] - t^[-1,0] - 2*t^[0,2]", "-t^[-2,-2] + 1 + t^[0,1]")
    ]
    gb = strong_groebner([present(g, p) for g in gens], p)
    started = time.perf_counter()
    inv = zmodule_invariants(gb)
    assert time.perf_counter() - started < 1.0
    assert inv.invariants() == (0, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_unverified_basis_is_unknown():
    # Z[t, 1/t]/(t^2 - 1): the uncompleted inputs y^2 - 1, y'^2 - 1 and
    # y*y' - 1 leave the standard monomials 1, y, y' (rank 3, not 2), and
    # the S-polynomial y' - y of the first and last does not reduce to zero;
    # the criterion check alone must catch it
    Z, p = laurent_presentation()
    gens = [IntPolynomial({(2, 0): 1, (0, 0): -1}), IntPolynomial({(0, 2): 1, (0, 0): -1})]
    unfinished = StrongGroebnerBasis(p, gens + list(p.structural), gens)
    assert len(_standard_monomials(unfinished)) == 3
    inv = zmodule_invariants(unfinished)
    assert inv.status == AbGroupInvariants.UNKNOWN
    assert inv.free_rank is None
    completed = zmodule_invariants(strong_groebner(gens, p))
    assert (completed.invariants(), completed.status) == ((2, ()), AbGroupInvariants.EXACT)


NARROW_COEFFS = (-3, -2, -1, 1, 1, 2, 3)
WIDE_COEFFS = tuple(c for c in range(-6, 7) if c)


def _random_element(rng, G, spread, coeffs=NARROW_COEFFS):
    e = GroupRingElement.zero(G)
    for _ in range(rng.randint(1, 3)):
        coords = [rng.randint(-spread, spread) for _ in range(G.num_generators)]
        e = e + GroupRingElement.monomial(G.element(coords), rng.choice(coeffs))
    return e


def _shift_size(key, G):
    return max((abs(x) for x in key[:G.free_rank]), default=0)


@pytest.mark.parametrize(
    "group", [(1, ()), (2, ()), (1, (2,)), (1, (3,))], ids=["Z", "Z2", "ZxZ2", "ZxZ3"]
)
def test_incremental_lattice_property(group):
    rng = random.Random(f"lattice/{group}")
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    agreed = 0
    for _ in range(12):
        gens = [g for g in (_random_element(rng, G, 1) for _ in range(rng.randint(1, 3))) if not g.is_zero()]
        if not gens:
            continue
        gb = strong_groebner([present(g, p) for g in gens], p)
        standard = _standard_monomials(gb)
        if standard is None:
            continue
        inside = [next(iter(unpresent(IntPolynomial({E: 1}), p).terms)) for E in standard]
        bound = rng.randint(0, 3)
        incremental = lattice_invariants(G, gens, inside, (bound, bound + 1))
        separate = [lattice_invariants(G, gens, inside, (b,))[0] for b in (bound, bound + 1)]
        assert incremental == separate
        # the checked basis alone certifies the standard-monomial invariants,
        # and the oracle agrees wherever its two readings do
        primary = _primary_invariants(gb, standard)
        default = zmodule_invariants(gb)
        assert (default.invariants(), default.status) == (primary, AbGroupInvariants.EXACT)
        if incremental[0] == incremental[1]:
            agreed += 1
            assert incremental[0] == primary
        # every combination of generator shifts inside the box is a member
        f = GroupRingElement.zero(G)
        for q in gens:
            shift = _random_element(rng, G, bound)
            if all(_shift_size(key, G) <= bound for key in shift.terms):
                f = f + shift * q
        assert macaulay_member(f, gens, bound)
    assert agreed >= 3


def test_macaulay_oracle_entries_stay_small():
    # without Hermite form this lattice reached million-bit entries at bound 3
    Z2 = FgAbelianGroup.canonical(2)
    gens = [
        parse_element(s, Z2)
        for s in ("-2*t^[-2,0] - 2*t^[0,2]", "t^[-2,-1] + t^[1,-1] + 3*t^[1,0]", "t^[-2,0] + 2*t^[0,-1] + 3*t^[0,2]")
    ]
    e = parse_element("-2*t^[1,0]", Z2)
    started = time.perf_counter()
    assert not macaulay_member(e, gens, 3)
    assert time.perf_counter() - started < 1.0
    lattice = _MacaulayLattice(Z2, gens, 3, list(e.terms))
    lattice.grow(3)
    assert max(abs(v).bit_length() for row in lattice.pivots.values() for v in row.values()) <= 64


@pytest.mark.parametrize(
    "group, wide",
    [((1, ()), False), ((2, ()), False), ((1, (2,)), False), ((1, (3,)), False), ((2, (2,)), False),
     ((1, ()), True), ((2, ()), True), ((1, (2,)), True), ((1, (3,)), True), ((1, (4,)), True),
     ((0, (6,)), True)],
    ids=["Z", "Z2", "ZxZ2", "ZxZ3", "Z2xZ2", "Z-wide", "Z2-wide", "ZxZ2-wide", "ZxZ3-wide", "ZxZ4-wide",
         "Z6-wide"],
)
def test_completion_property(group, wide):
    # the pair criteria and the retirement of redundant elements skip work,
    # never a pair the certificate needs.  Wide inputs (exponent spread 2,
    # coefficients up to 6) often have leading coefficients that do not
    # divide each other, so G-polynomials are nontrivial and the
    # coefficient conditions of the update rule come into play.
    rng = random.Random(f"completion/{group}" + ("/wide" if wide else ""))
    spread, coeffs = (2, WIDE_COEFFS) if wide else (1, NARROW_COEFFS)
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    for _ in range(12):
        gens = [present(g, p) for g in (_random_element(rng, G, spread, coeffs) for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        gb = strong_groebner(gens, p)
        assert _is_strong_basis(gb)
        assert strong_groebner(gens[::-1], p).elements == gb.elements
        assert all(normal_form(g, gb).is_zero() for g in gens)


# Reduced bases recorded from the completion loop that formed pairs with
# every element and reduced by all of them; the update rule must not change
# a single term.  "stall" is an ideal over Z^2 x Z/3 on which that loop took
# seconds.  "Z/6" loses its certificate if the chain criterion drops the
# condition lcm(LM_i, LM_k) != L.
PINNED_BASES = {
    "wps(5,7,11,13)": [
        {(0, 0): -1, (1, 1): 1},
        {(0, 0): 2, (0, 2): 1, (0, 5): -1, (0, 6): 1, (0, 7): -1, (0, 11): -1, (0, 13): -1, (0, 18): 1,
         (2, 0): 1, (5, 0): -1, (6, 0): 1, (7, 0): -1, (11, 0): -1, (13, 0): -1, (18, 0): 1},
        {(0, 1): 2, (0, 3): 1, (0, 6): -1, (0, 7): 1, (0, 8): -1, (0, 12): -1, (0, 14): -1, (0, 19): 1,
         (1, 0): 1, (4, 0): -1, (5, 0): 1, (6, 0): -1, (10, 0): -1, (12, 0): -1, (17, 0): 1},
    ],
    "wps(3,7,7,9)": [
        {(0, 0): -1, (1, 1): 1},
        {(0, 1): 1, (0, 3): 2, (0, 4): -1, (0, 6): -2, (0, 10): -1, (0, 13): 1, (1, 0): 1, (3, 0): 2,
         (4, 0): -1, (6, 0): -2, (10, 0): -1, (13, 0): 1},
        {(0, 0): 1, (0, 2): 1, (0, 4): 2, (0, 5): -1, (0, 7): -2, (0, 11): -1, (0, 14): 1, (2, 0): 2,
         (3, 0): -1, (5, 0): -2, (9, 0): -1, (12, 0): 1},
    ],
    "F_3": [
        {(0, 0, 0, 0): -2, (0, 1, 0, 0): 1, (1, 0, 0, 0): 1},
        {(0, 0, 0, 0): 3, (0, 0, 0, 1): -3, (0, 0, 0, 2): 1, (0, 0, 1, 0): -1},
        {(0, 0, 0, 0): -1, (0, 0, 1, 1): 1},
        {(0, 0, 0, 0): 5, (0, 0, 0, 1): -4, (0, 0, 1, 0): -1, (0, 1, 0, 0): -3, (0, 1, 0, 1): 3},
        {(0, 0, 0, 0): 3, (0, 0, 0, 1): -1, (0, 0, 1, 0): -3, (0, 0, 2, 0): 1},
        {(0, 0, 0, 0): 2, (0, 0, 0, 1): -1, (0, 0, 1, 0): -1, (0, 1, 0, 0): -2, (0, 1, 0, 1): 1,
         (0, 1, 1, 0): 1},
        {(0, 0, 0, 0): 1, (0, 1, 0, 0): -2, (0, 2, 0, 0): 1},
    ],
    "(P1)^2xZ/3(1,1)": [
        {(0, 0, 0, 0, 2): -2, (0, 0, 0, 1, 1): 1, (0, 0, 1, 0, 0): 1},
        {(0, 0, 0, 0, 2): -2, (0, 1, 0, 0, 1): 1, (1, 0, 0, 0, 0): 1},
        {(0, 0, 0, 0, 2): -3, (0, 0, 0, 2, 0): 1, (0, 0, 1, 0, 0): 2},
        {(0, 0, 0, 0, 0): -1, (0, 0, 1, 1, 0): 1},
        {(0, 0, 0, 0, 1): -3, (0, 0, 0, 1, 0): 2, (0, 0, 2, 0, 0): 1},
        {(0, 0, 1, 0, 1): -2, (0, 1, 1, 0, 0): 1, (1, 0, 0, 0, 1): 2, (1, 0, 0, 1, 0): -1},
        {(0, 0, 0, 0, 2): -3, (0, 2, 0, 0, 0): 1, (1, 0, 0, 0, 0): 2},
        {(0, 0, 0, 0, 0): -1, (1, 1, 0, 0, 0): 1},
        {(0, 0, 0, 0, 1): -3, (0, 1, 0, 0, 0): 2, (2, 0, 0, 0, 0): 1},
        {(0, 0, 0, 0, 0): -1, (0, 0, 0, 0, 3): 1},
        {(0, 0, 0, 0, 1): -2, (0, 0, 0, 1, 0): 1, (0, 0, 1, 0, 2): 1},
        {(0, 0, 0, 0, 1): -2, (0, 1, 0, 0, 0): 1, (1, 0, 0, 0, 2): 1},
        {(0, 0, 0, 0, 2): 4, (0, 0, 1, 0, 0): -2, (0, 1, 0, 1, 0): -1, (1, 0, 0, 0, 0): -2,
         (1, 0, 1, 0, 1): 1},
    ],
    "rugby(12,18)": [
        {(0, 0, 0): -1, (1, 1, 0): 1},
        {(0, 1, 3): 1, (1, 0, 2): -1, (2, 0, 1): -1, (4, 0, 0): 1},
        {(0, 0, 2): -1, (0, 2, 3): 1, (1, 0, 1): -1, (3, 0, 0): 1},
        {(0, 0, 4): -1, (0, 1, 4): -1, (0, 4, 0): 1, (3, 0, 2): 1},
        {(0, 0, 4): 1, (0, 2, 0): -1, (0, 3, 0): -1, (0, 4, 1): 1, (1, 0, 4): 1, (2, 0, 3): -1},
        {(0, 0, 3): -1, (0, 1, 4): -1, (0, 5, 0): 1, (1, 0, 2): -1, (2, 0, 2): 1, (3, 0, 1): 1},
        {(0, 0, 0): -1, (0, 0, 6): 1},
        {(0, 0, 4): 1, (0, 1, 5): 1, (0, 3, 0): -1, (2, 0, 3): -1},
        {(0, 0, 5): -1, (0, 1, 0): -1, (0, 3, 1): 1, (2, 0, 4): 1},
    ],
    "ZxZ/4(1,2,5)": [
        {(0, 0, 0): -1, (1, 1, 0): 1},
        {(0, 0, 0): -1, (0, 0, 4): 1},
        {(0, 1, 3): -1, (0, 2, 0): 1, (0, 3, 0): 1, (0, 4, 1): -1, (1, 0, 3): 1, (2, 0, 2): -1, (3, 0, 2): -1,
         (4, 0, 1): 1},
        {(0, 0, 2): -1, (0, 2, 0): 1, (0, 2, 3): 1, (0, 4, 1): -1, (1, 0, 3): 1, (3, 0, 1): -1, (3, 0, 2): -1,
         (5, 0, 0): 1},
        {(0, 1, 2): -1, (0, 2, 3): 1, (0, 3, 3): 1, (0, 4, 0): -1, (1, 0, 2): 1, (2, 0, 1): -1, (3, 0, 1): -1,
         (4, 0, 0): 1},
        {(0, 0, 3): -1, (0, 2, 3): 1, (0, 3, 0): -1, (0, 4, 0): -1, (0, 5, 1): 1, (1, 0, 2): 1, (2, 0, 2): 1,
         (3, 0, 1): -1},
        {(0, 0, 2): 1, (0, 2, 1): 1, (0, 2, 2): -1, (0, 2, 3): -1, (0, 4, 0): 1, (0, 4, 2): -1, (0, 5, 0): -1,
         (0, 6, 0): 1, (1, 0, 0): 1, (1, 0, 2): -1, (3, 0, 0): 1, (3, 0, 1): 1, (3, 0, 3): -1, (4, 0, 0): -1},
    ],
    "Z/6": [
        {(0,): 1330},
        {(0,): 442, (1,): 2},
        {(0,): 1329, (6,): 1},
    ],
    "stall": [
        {(0, 0, 0, 0, 0): 533143486135},
        {(0, 0, 0, 0, 0): 72514378169, (0, 0, 0, 0, 1): 1},
        {(0, 0, 0, 0, 0): 12282063509, (0, 0, 0, 1, 0): 1},
        {(0, 0, 0, 0, 0): 216768993819, (0, 0, 1, 0, 0): 1},
        {(0, 0, 0, 0, 0): 207053053439, (0, 1, 0, 0, 0): 1},
        {(0, 0, 0, 0, 0): 430023594669, (1, 0, 0, 0, 0): 1},
    ],
}


def _stack(G, degrees, components):
    names = [f"x{i}" for i in range(len(degrees))]
    variables = [(v, d, False) for v, d in zip(names, degrees)]
    return make_stack_data(G, variables, [names[a:b] for a, b in components])


def _completed(group, gens):
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    return strong_groebner([present(parse_element(s, G), p) for s in gens], p)


PINNED_INPUTS = {
    "wps(5,7,11,13)": lambda: k0_presentation(builtin_example("wps", [5, 7, 11, 13])).basis,
    "wps(3,7,7,9)": lambda: k0_presentation(builtin_example("wps", [3, 7, 7, 9])).basis,
    "F_3": lambda: k0_presentation(
        _stack(FgAbelianGroup.canonical(2), [[1, 0], [1, 0], [-3, 1], [0, 1]], [(0, 2), (2, 4)])
    ).basis,
    "(P1)^2xZ/3(1,1)": lambda: k0_presentation(
        _stack(FgAbelianGroup.canonical(2, (3,)), [[1, 0, 1], [1, 0, 1], [0, 1, 1], [0, 1, 1]], [(0, 2), (2, 4)])
    ).basis,
    "rugby(12,18)": lambda: k0_presentation(builtin_example("rugby", [12, 18])).basis,
    "ZxZ/4(1,2,5)": lambda: k0_presentation(
        _stack(FgAbelianGroup.canonical(1, (4,)), [[1, 3], [2, 3], [5, 2]], [(0, 3)])
    ).basis,
    "stall": lambda: _completed((2, (3,)), ("3*t^[-2,0;2] + 2*t^[1,2;1]", "3*t^[-1,-2;2] - 3*t^[-1,0;0]",
                                            "-2*t^[-1,0;0] + t^[0,2;0] + t^[2,1;1]")),
    "Z/6": lambda: _completed((0, (6,)), ("-4*t^[;4] + 6*t^[;5]",)),
}


@pytest.mark.parametrize("name", PINNED_BASES)
def test_pinned_bases(name):
    assert [f.terms for f in PINNED_INPUTS[name]().elements] == PINNED_BASES[name]


# Inputs of the benchmark's families: the wps tuples of `classes` and of
# `invariants`, the Z x Z/m gradings of `classes` with fixed residues,
# Hirzebruch F_0..F_4 and (P1)^2, with and without a Z/m grading.  The
# residue of variable i of a Z x Z/m grading is (i + 1) mod m.
DIGEST_WPS = [
    (2, 3, 5), (3, 5, 7), (2, 7, 9), (4, 5, 11), (5, 7, 11), (3, 8, 13), (6, 9, 12), (7, 11, 13),
    (1, 2, 3, 5), (2, 3, 5, 7), (1, 4, 6, 9), (3, 4, 5, 8), (2, 5, 7, 9), (3, 5, 7, 8), (2, 4, 8, 11),
    (3, 7, 7, 9),
    (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 6), (5, 6),
    (1, 1, 2), (1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 3, 5), (1, 4, 6), (3, 4, 5),
]
DIGEST_ZZM = [((1, 2, 3), 2), ((2, 3, 5), 2), ((2, 3, 4), 3), ((1, 3, 4), 3), ((1, 2, 5), 4), ((3, 4, 5), 4)]


def _digest_inputs():
    inputs = {f"wps{w}": lambda w=w: builtin_example("wps", w) for w in DIGEST_WPS}
    for weights, m in DIGEST_ZZM:
        degrees = [[w, (i + 1) % m] for i, w in enumerate(weights)]
        inputs[f"ZxZ/{m}{weights}"] = lambda d=degrees, m=m: _stack(
            FgAbelianGroup.canonical(1, (m,)), d, [(0, len(d))])
    Z2 = FgAbelianGroup.canonical(2)
    for a in range(5):
        inputs[f"F_{a}"] = lambda a=a: _stack(Z2, [[1, 0], [1, 0], [-a, 1], [0, 1]], [(0, 2), (2, 4)])
    inputs["(P1)^2"] = lambda: _stack(Z2, [[1, 0], [1, 0], [0, 1], [0, 1]], [(0, 2), (2, 4)])
    for m, (r, s) in ((2, (0, 1)), (3, (1, 0))):
        inputs[f"(P1)^2xZ/{m}({r},{s})"] = lambda m=m, r=r, s=s: _stack(
            FgAbelianGroup.canonical(2, (m,)), [[1, 0, r], [1, 0, r], [0, 1, s], [0, 1, s]], [(0, 2), (2, 4)])
    return inputs


DIGEST_INPUTS = _digest_inputs()


def basis_digest(data):
    """sha256 of the reduced basis of a stack's K0 presentation (its terms
    in element order), its work counters and the normal forms of four fixed
    queries."""
    pres = k0_presentation(data)
    G, gb = data.group, pres.basis

    def mono(a):
        return "t^[" + ",".join([str(a)] * G.free_rank) + (";" + ",".join(["1"] * len(G.torsion))
                                                             if G.torsion else "") + "]"
    queries = [mono(3), mono(-2), f"(1 - {mono(1)})^3 - 2*{mono(-1)}", f"5*{mono(2)} + 7"]
    forms = [normal_form(present(parse_element(q, G), pres.presentation), gb) for q in queries]
    record = ([sorted(f.terms.items()) for f in gb.elements],
              [getattr(gb, k) for k in StrongGroebnerBasis.COUNTERS],
              [sorted(f.terms.items()) for f in forms])
    return hashlib.sha256(repr(record).encode()).hexdigest()


# A kernel change must keep every digest: a different term, pair order,
# work counter or normal form moves it.
PINNED_DIGESTS = {
    "wps(2, 3, 5)": "d17de3dc01c4f9a0285bef3567631a18449157290436a991a574ca8a7a95b625",
    "wps(3, 5, 7)": "0b0b0322243aaeefd4de8da00ef38150301a84ad4c73bb94818b7a45f9b2a20f",
    "wps(2, 7, 9)": "9b524173c0ad2b8161a0485e0e2c5fe49c63e47722b555de6efe1b52798c6aed",
    "wps(4, 5, 11)": "d7dcdacf342e46f33667d9ae8dc8af2c180db227fa8ddc1dec0e0e6c2578eb9b",
    "wps(5, 7, 11)": "9b265453677dfebeead67911e95a24550b0b053d143d8a08af66bc0b89f2272b",
    "wps(3, 8, 13)": "0e5e1f3add3b5e5783a6ae68978573b8177b3aac356fda88c98a797a38a1be57",
    "wps(6, 9, 12)": "350c2277bcbe947851aadc4dea998b89dc3c5e6aff42ca174138698a61b881c2",
    "wps(7, 11, 13)": "463bbf48f690e96e8dbc2019bc9a5bd3cdd91be027cd2bab6e6ecef6c0284a4e",
    "wps(1, 2, 3, 5)": "db5304e3738b9d8848dfa4a5cc99e61abc8d737c76962cdf23aaafa026537ce4",
    "wps(2, 3, 5, 7)": "2d12e5fdfe6522f5b4166f072d80645887ece421e87c25861649eac1c9fef4f9",
    "wps(1, 4, 6, 9)": "1ffb597062db41d28144729754de60b6761475dc0974c7ea5f2227841e8ea4f0",
    "wps(3, 4, 5, 8)": "55abb36476f22c81bfaffb6cc4c1451469f3f271f6bab628d1a6b1884630a55c",
    "wps(2, 5, 7, 9)": "26339b5a09e75288e91819edfe25a7c89caf2717895f462d3b94cc7ed7ddd902",
    "wps(3, 5, 7, 8)": "aa986eb970d829aa2f585dabb496baddcdd03c22f1808d8d114808f30fd26449",
    "wps(2, 4, 8, 11)": "4adbcf76b41f7944c971fbd0936e338a886456d3511a5951e9b3490e8877385c",
    "wps(3, 7, 7, 9)": "9d7d2173aa383d5b07362e779079373975bbd637fa2af4681c8284b65cd0350b",
    "wps(1, 2)": "dc95597ac930d14bdca19fb1569fc2d7c744db8e5954665cd562d4be94bbd7ff",
    "wps(1, 3)": "650a63ab15a43562d9578ce0ef3773dab49d8843770d616b98d3cbcd1a078055",
    "wps(2, 3)": "18558f92fab5b7f0555f49ab032b47ac994c11116a964c9fb4aed8cdc05f9a85",
    "wps(1, 4)": "77c0fcb66bcb4f223adcf77436fe2dd9364d2f7c374bd9a9730c4bcd80474915",
    "wps(3, 4)": "7039312b871599886d49002cd0042dbc1ea42b6449bfbf8d1c6774ec349e353e",
    "wps(2, 5)": "514abc514ac314f6b67428324eae8d79cecd07abfeecdc9c6fcf763e70e08957",
    "wps(1, 6)": "590e6e8f45054410a332a00da2fa4bb75c1c8b7026b89b67266a6fee36158edb",
    "wps(5, 6)": "c7bd29b8c26adf1bb05b8cdf551ffcb5dd46e963f1382e4f1d6e01c12bc084c0",
    "wps(1, 1, 2)": "31b8078c47f8588cd2bcf693ae6b6ce4ad1fe28e1e965e2040998be378547f49",
    "wps(1, 2, 3)": "3c5d202d9504ccfd5e977bb5582cfe209388ff5c230f63460582d529fa6a814c",
    "wps(1, 2, 4)": "d4255ac79a8751a41da41db34acaf016da63b0f6d5269374bb966b5af6012a6a",
    "wps(2, 3, 4)": "f1110db0f1cb73fbd1bbfd3a5b776b23de45d773653b76405d3c44c8e289f4a1",
    "wps(1, 3, 5)": "ce563fbaae0882e052406b7daca9ae4fe3f188f20253bf9fc33bb0ba50d38473",
    "wps(1, 4, 6)": "4c3513b64aeaeb25c121b8e5e6d7c9eb3413b0f227f47ae2c458e3bb50c3288f",
    "wps(3, 4, 5)": "6ad92e01815120a0a6ee71b64e28cdfd28b01adf2b5aed4b402d943121e4c396",
    "ZxZ/2(1, 2, 3)": "bd2b90afc17849c0ae9626322df72a62d3c65bfd5401e8d0ed8559b136c26099",
    "ZxZ/2(2, 3, 5)": "f3900f7e5f58d335f34198ce5a83bd60b69991f31aba9b11482f376b5f0dd148",
    "ZxZ/3(2, 3, 4)": "52121fe78f3db454b2bf4d041aac4efff729ea8f2dec7423dd44563c6e2d2bc6",
    "ZxZ/3(1, 3, 4)": "6e4fc87937c07f47b47151227980485930620f2dff31df45b12ccb2d3a7dbaff",
    "ZxZ/4(1, 2, 5)": "341b460e6a1ecd47d6546dcef9d36a9e744f069b72d1e50582d7917d2d831cfe",
    "ZxZ/4(3, 4, 5)": "d1bde669f95e014eac161bfa059def0dc47f03943085df77399a1a075406090c",
    "F_0": "01ffff283272b24c24d423f223ff1afc411e478d40bc0f448007544226cc449f",
    "F_1": "2b1c314266f0b130c37011fbdfe5ec593a2645a69b8b1a3e474c6330f3da795b",
    "F_2": "1c53811a266141693f29d28757239765bf88d76f4c6c6bbf1aac44a228203061",
    "F_3": "53c93d39a4c93b0049da40c4ed2ebb3adf4b88adcbb2a0c23952b6e96df6c865",
    "F_4": "41c85c669f480341199669a32b5346c7644eaca514c46f2f98d9c15f5e7bc204",
    "(P1)^2": "01ffff283272b24c24d423f223ff1afc411e478d40bc0f448007544226cc449f",
    "(P1)^2xZ/2(0,1)": "712611d3ba5a1df103535bfd70544b39dcc73a172d271b586ff2ea6c6b7557f7",
    "(P1)^2xZ/3(1,0)": "98f4b37a114c57b3c0b43cd11a0a35788113c459f83e4f922dea1eee3b3a1625",
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_pinned_basis_digests(name):
    assert basis_digest(DIGEST_INPUTS[name]()) == PINNED_DIGESTS[name]


def test_malformed_exponents_are_rejected():
    Z, p = laurent_presentation()
    gb = strong_groebner([IntPolynomial({(1, 0): 1, (0, 0): -1})], p)
    for bad in (IntPolynomial({(3,): 1}), IntPolynomial({(3, 0, 5): 1})):
        with pytest.raises(ValueError):
            normal_form(bad, gb)
        with pytest.raises(ValueError):
            strong_groebner([bad], p)


def test_leading_term_cache():
    # the checked constructor drops zero coefficients and finds the leading
    # term on first use as the grevlex maximum; the cached term stays right
    rng = random.Random(5)
    made = 0
    for _ in range(400):
        terms = {tuple(rng.randint(0, 3) for _ in range(3)): rng.choice([-4, -2, -1, 0, 1, 3])
                 for _ in range(rng.randint(1, 5))}
        h = IntPolynomial(terms)
        assert h.terms == {E: c for E, c in terms.items() if c}
        if h.is_zero():
            continue
        made += 1
        E = max(h.terms, key=_grevlex_key)
        assert h.leading_term() == (E, h.terms[E])
        assert h.leading_term() == (E, h.terms[E])
    assert made > 300


@pytest.mark.parametrize(
    "group", [(1, ()), (2, ()), (1, (3,)), (2, (3,))], ids=["Z", "Z2", "ZxZ3", "Z2xZ3"]
)
def test_reduction_order_gives_leading_terms(group):
    # basis elements and normal forms take their leading term from the order
    # in which the reduction emits terms; it must be the grevlex maximum,
    # with a positive coefficient on basis elements, and the reducer data
    # must match the terms
    rng = random.Random(f"leading/{group}")
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    checked = 0
    for _ in range(10):
        gens = [present(g, p) for g in (_random_element(rng, G, 1) for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        gb = strong_groebner(gens, p)
        forms = [normal_form(present(_random_element(rng, G, 2, WIDE_COEFFS), p), gb) for _ in range(5)]
        for f in list(gb.elements) + forms:
            if f.is_zero():
                assert f._lt is None
                continue
            E = max(f.terms, key=_grevlex_key)
            assert f._lt == (E, f.terms[E])
            assert list(f.terms)[0] == E
            KB, a, tail = f._reducer_data()
            assert (KB, a) == (_pack(E), f._lt[1])
            assert dict(tail) == {_pack(F): c for F, c in f.terms.items() if F != E}
            checked += 1
        assert all(f._lt[1] > 0 for f in gb.elements)
    assert checked >= 25


# Work counters of two pinned completions; a changed pair order, update rule
# or criterion moves them.  On ZxZ/4(1,2,5) the product criterion spares one
# S-polynomial, which reduced to zero.
PINNED_COUNTERS = {
    "wps(5,7,11,13)": dict(pairs_queued=39, pairs_popped=39, chain_skipped=1, product_skipped=0,
                           reductions=40, reductions_to_zero=19, retired=18, peak_live=3),
    "ZxZ/4(1,2,5)": dict(pairs_queued=30, pairs_popped=30, chain_skipped=13, product_skipped=1,
                         reductions=19, reductions_to_zero=9, retired=3, peak_live=7),
}


@pytest.mark.parametrize("name", PINNED_COUNTERS)
def test_work_counters(name):
    gb = PINNED_INPUTS[name]()
    assert {k: getattr(gb, k) for k in StrongGroebnerBasis.COUNTERS} == PINNED_COUNTERS[name]
    assert all(type(getattr(gb, k)) is int for k in StrongGroebnerBasis.COUNTERS)
    # a basis built any other way reports no work
    again = StrongGroebnerBasis(gb.presentation, gb.elements, gb.input_generators)
    assert all(getattr(again, k) == 0 for k in StrongGroebnerBasis.COUNTERS)


def test_invariants_invariance_under_generators_presentation():
    Z2, p, _, u, v = blowup_basis()
    g1 = present(1 - v, p)
    g2 = present((1 - u) * (1 - u), p)
    base = zmodule_invariants(strong_groebner([g1, g2], p))
    permuted = zmodule_invariants(strong_groebner([g2, g1], p))
    assert (base.invariants(), base.status) == (permuted.invariants(), permuted.status)
    # multiplying a generator by a unit monomial of the group ring
    uinv = GroupRingElement.monomial(Z2.element([-1, 0]))
    g2u = present((1 - u) * (1 - u) * uinv, p)
    scaled = zmodule_invariants(strong_groebner([g1, g2u], p))
    assert (base.invariants(), base.status) == (scaled.invariants(), scaled.status)


def test_weighted_projective_ranks():
    Z, p = laurent_presentation()
    t = lambda n: GroupRingElement.monomial(Z.element([n]))
    for weights in [(1,), (2,), (1, 1), (4, 6), (2, 3, 5), (1, 2, 3, 4)]:
        f = GroupRingElement.one(Z)
        for q in weights:
            f = f * (1 - t(q))
        gb = strong_groebner([present(f, p)], p)
        inv = zmodule_invariants(gb)
        assert inv.invariants() == (sum(weights), ())
        assert inv.status == AbGroupInvariants.EXACT


def test_basis_deterministic():
    Z2, p, gb1, u, v = blowup_basis()
    _, _, gb2, _, _ = blowup_basis()
    assert gb1.elements == gb2.elements


def assert_closed_under_pairs(gb):
    elems = list(gb.elements)
    n = gb.presentation.num_vars
    for i in range(len(elems)):
        for j in range(i + 1, len(elems)):
            L = _lcm_exponent(elems[i].leading_term()[0], elems[j].leading_term()[0])
            for terms in _pair_polys(elems[i]._reducer_data(), elems[j]._reducer_data(), _pack(L)):
                combo = IntPolynomial({_unpack(K, n): c for K, c in terms.items()})
                assert normal_form(combo, gb).is_zero()


def test_basis_closed_under_pairs():
    _, _, gb, _, _ = blowup_basis()
    assert_closed_under_pairs(gb)
    for pq in [(2, 3), (2, 2), (3, 4)]:
        _, _, gb, _, _ = rugby_basis(*pq)
        assert_closed_under_pairs(gb)
    rng = random.Random(31)
    G = FgAbelianGroup.canonical(1, (2,))
    p = PolyPresentation.for_group(G)
    for _ in range(10):
        gens = []
        for _ in range(rng.randint(1, 3)):
            e = GroupRingElement.zero(G)
            for _ in range(rng.randint(1, 3)):
                coords = [rng.randint(-2, 2), rng.randint(0, 1)]
                e = e + GroupRingElement.monomial(G.element(coords), rng.randint(-4, 4))
            if not e.is_zero():
                gens.append(present(e, p))
        assert_closed_under_pairs(strong_groebner(gens, p))


def test_reduced_basis_canonical_under_input_order():
    Z2, p, _, u, v = blowup_basis()
    g1 = present(1 - v, p)
    g2 = present((1 - u) * (1 - u), p)
    a = strong_groebner([g1, g2], p)
    b = strong_groebner([g2, g1], p)
    assert a.elements == b.elements


def test_packed_encoding_property():
    # K order is grevlex order, the mask test is divisibility, K is linear
    # and unpacking inverts packing, also for exponents near the degree bound
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 6)
        H = PolyPresentation(None, ["v"] * n, ())._mask
        top = (1 << (_W - 3)) // (2 * max(n, 1)) - 1
        E, F = (tuple(rng.choice((rng.randint(0, 3), rng.randint(0, top))) for _ in range(n))
                for _ in range(2))
        KE, KF = _pack(E), _pack(F)
        assert (KE < KF) == (_grevlex_key(E) < _grevlex_key(F))
        assert (KE == KF) == (E == F)
        assert (((KE - KF + H) & H) == H) == _divides(E, F)
        assert (((KF - KE + H) & H) == H) == _divides(F, E)
        assert _pack(tuple(a + b for a, b in zip(E, F))) == KE + KF
        assert _unpack(KE, n) == E and _unpack(KF, n) == F
        if n:
            G = E[:-1] + (E[-1] + rng.randint(1, 3),)  # E divides G
            assert ((_pack(E) - _pack(G) + H) & H) == H


def test_degree_bound_is_reported():
    # a term of total degree 2^(W-3) raises ValueError naming the exponent,
    # where terms are packed and when a new basis element would reach it
    Z, p = laurent_presentation()
    gb = strong_groebner([IntPolynomial({(0, 0): 2})], p)
    big = 1 << (_W - 3)
    assert normal_form(IntPolynomial({(big - 1, 0): 3}), gb).terms == {(big - 1, 0): 1}
    for E in ((big, 0), (big - 7, 7)):
        with pytest.raises(ValueError, match=rf"\({E[0]}, {E[1]}\)"):
            normal_form(IntPolynomial({(0, 0): 1, E: 2}), gb)
    with pytest.raises(ValueError, match=rf"\({big}, 0\)"):
        strong_groebner([IntPolynomial({(big, 0): 1, (0, 0): -1})], p)
    # with no structural relations, the G-polynomial of 2*a^A*b and 3*a*b^B
    # is the monomial a^A*b^B, of degree 2^(W-3)
    A = big // 2
    free = PolyPresentation(FgAbelianGroup.canonical(2), ["a", "b"], ())
    with pytest.raises(ValueError, match=rf"\({A}, {A}\)"):
        strong_groebner([IntPolynomial({(A, 1): 2}), IntPolynomial({(1, A): 3})], free)


def test_smith_form_on_touched_columns():
    # P^1 x B(Z/500): 1000 standard monomials and no relation row, so no
    # dense 1000 x 1000 Smith form
    data = _stack(FgAbelianGroup.canonical(1, (500,)), [[1, 0], [1, 0]], [(0, 2)])
    gb = k0_presentation(data).basis
    started = time.perf_counter()
    inv = zmodule_invariants(gb)
    assert time.perf_counter() - started < 0.1
    assert (inv.invariants(), inv.status) == ((1000, ()), AbGroupInvariants.EXACT)


def test_int_polynomial_takes_only_ints():
    for terms in ({(1, 0): 2.9}, {(1.5, 0): 1, (0, 0): -1}, {(1, 0): 0.0}):
        with pytest.raises(TypeError):
            IntPolynomial(terms)
    with pytest.raises(ValueError):
        IntPolynomial({(-1, 0): 1})
