import hashlib
import random
import time

import pytest

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.exprs import parse_element
from kstacks.groupring import GroupRingElement, one_minus
from kstacks.grobner import (
    AbGroupInvariants,
    PolyPresentation,
    StrongGroebnerBasis,
    _W,
    _complete,
    _is_strong_basis,
    _lcm_packer,
    _pack,
    _pair_polys,
    _primary_invariants,
    _reduce_terms,
    _standard_monomials,
    _unpack,
    normal_form,
    strong_groebner,
    zmodule_invariants,
)
from kstacks.ktheory import _centred, k0_presentation
from kstacks.stacks import builtin_example, make_stack_data

from conftest import (
    _MacaulayLattice,
    _divides,
    _grevlex_key,
    _lcm_exponent,
    all_pairs_certificate,
    grevlex_leading_term,
    lattice_invariants,
    macaulay_member,
    present,
    staircase_oracle,
)


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
    return Z2, p, strong_groebner([1 - v, (1 - u) * (1 - u)], p), u, v


def rugby_basis(p_, q_):
    G = group_from_relations(2, [[p_, -q_]])
    pres = PolyPresentation.for_group(G)
    e = G.element([1, 0])
    ep = G.element([0, 1])
    gen = one_minus(e) * one_minus(ep)
    gb = strong_groebner([gen], pres)
    return G, pres, gb, e, ep


def test_grevlex_order():
    # same degree: the monomial with the smaller exponent in the later
    # variable is larger
    assert _grevlex_key((1, 0)) > _grevlex_key((0, 1))
    assert _grevlex_key((0, 0, 2)) < _grevlex_key((1, 1, 0))


def test_present_clears_negative_exponents():
    # 1 - t^-1 packs as the polynomial 1 - y', 1 - t as 1 - y, and both
    # decode back to their keys
    Z, p = laurent_presentation()
    tinv = GroupRingElement.monomial(Z.element([-1]))
    assert p._encode(1 - tinv) == {_pack((0, 0)): 1, _pack((0, 1)): -1}
    assert p._decode(p._encode(1 - tinv)) == (1 - tinv).terms

    t = GroupRingElement.monomial(Z.element([1]))
    assert p._encode(1 - t) == {_pack((0, 0)): 1, _pack((1, 0)): -1}
    assert p._decode(p._encode(1 - t)) == (1 - t).terms


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
        packed = p._encode(e)
        assert len(packed) == len(e.terms)
        # no unit factor: each free coordinate uses y or y', never both
        exps = [_unpack(K, p.num_vars) for K in packed]
        assert all(exp[2 * i] == 0 or exp[2 * i + 1] == 0 for exp in exps for i in range(r))
        assert p._decode(packed) == e.terms


def test_gcd_completion_over_int():
    # {2(1-t), 3(1-t)} completes to a basis holding t - 1 itself
    Z, p = laurent_presentation()
    t = GroupRingElement.monomial(Z.element([1]))
    gb = strong_groebner([2 * (1 - t), 3 * (1 - t)], p)
    assert present(t - 1) in gb.decoded()


def test_structural_alone_is_its_own_basis():
    Z, p = laurent_presentation()
    gb = strong_groebner([], p)
    assert gb.decoded() == [{(1, 1): 1, (0, 0): -1}]
    assert list(gb.elements) == p._structural


def test_blowup_normal_forms():
    Z2, p, gb, u, v = blowup_basis()
    assert normal_form(u * u, gb) == normal_form(2 * u - 1, gb)
    assert normal_form(1 - v, gb).is_zero()
    assert normal_form((1 - u) * (1 - u) * (1 - v), gb).is_zero()
    assert not normal_form(1 - u, gb).is_zero()


def test_rugby_normal_forms():
    G, pres, gb, e, ep = rugby_basis(2, 3)
    t = GroupRingElement.monomial(e)
    # (1 - t)(1 - t^p) lies in the ideal because 1 - t^p = 1 - s^q
    f = one_minus(e) * one_minus(2 * e)
    assert normal_form(f, gb).is_zero()
    assert normal_form(one_minus(2 * e), gb) == normal_form(one_minus(3 * ep), gb)
    assert not normal_form(one_minus(e), gb).is_zero()
    assert normal_form(t * one_minus(2 * e) - one_minus(2 * e), gb).is_zero()


def test_normal_form_idempotent_and_sound():
    rng = random.Random(7)
    G, pres, gb, e, ep = rugby_basis(2, 3)
    zgens = [one_minus(e) * one_minus(ep)]
    for _ in range(25):
        f = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 4)):
            coords = [rng.randint(-2, 2), rng.randint(-2, 2)]
            f = f + GroupRingElement.monomial(G.element(coords), rng.randint(-3, 3))
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        assert macaulay_member(f - nf, zgens, 24)


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
        # products are taken in the group ring, then reduced
        lhs = normal_form(a * b, gb)
        na, nb = (normal_form(x, gb) for x in (a, b))
        assert lhs == normal_form(na * nb, gb)


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
    gb_gcd = strong_groebner(gcd_gens, pz)

    uinv = GroupRingElement.monomial(Z2.element([-1, 0]))
    instances = [
        (1 - u, blowup_gens, gb_blowup),
        ((1 - u) * (1 - u) * uinv, blowup_gens, gb_blowup),
        (t * one_minus(2 * e) - one_minus(2 * e), rugby_gens, gb_rugby),
        (one_minus(e), rugby_gens, gb_rugby),
        (1 - w, gcd_gens, gb_gcd),
    ]
    for f, gens, gb in instances:
        nf_says = normal_form(f, gb).is_zero()
        oracle_says = macaulay_member(f, gens, 14)
        assert nf_says == oracle_says


def test_invariants_blowup():
    Z2, p, gb, u, v = blowup_basis()
    inv = zmodule_invariants(gb)
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_invariants_unit_ideal():
    Z, p = laurent_presentation()
    gb = strong_groebner([GroupRingElement.one(Z)], p)
    inv = zmodule_invariants(gb)
    assert inv.invariants() == (0, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_invariants_p1():
    Z, p = laurent_presentation()
    t = GroupRingElement.monomial(Z.element([1]))
    gb = strong_groebner([(1 - t) * (1 - t)], p)
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
    gb = strong_groebner([GroupRingElement.constant(Z, 5), 1 - t], p)
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
    gb = strong_groebner(gens, p)
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
    gens = [parse_element("t^[2] - 1", Z), parse_element("t^[-2] - 1", Z)]
    seeds = [p._encode(g) for g in gens]
    unfinished = StrongGroebnerBasis(p, seeds + p._structural, seeds)
    assert _standard_monomials(unfinished) == sorted(map(_pack, [(0, 0), (1, 0), (0, 1)]))
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
        gb = strong_groebner(gens, p)
        standard = _standard_monomials(gb)
        if standard is None:
            continue
        inside = [next(iter(p._decode({K: 1}))) for K in standard]
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
        gens = [g for g in (_random_element(rng, G, spread, coeffs) for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        gb = strong_groebner(gens, p)
        assert _is_strong_basis(gb)
        assert strong_groebner(gens[::-1], p).elements == gb.elements
        assert all(normal_form(g, gb).is_zero() for g in gens)


# random ideals for the certificate and staircase tests; exponent spread 2
# over Z^2 x Z/3 makes some completions take seconds
certificate_groups = pytest.mark.parametrize(
    "group, spread", [((1, ()), 2), ((2, ()), 2), ((1, (2,)), 2), ((1, (3,)), 2), ((0, (6,)), 2), ((2, (3,)), 1)],
    ids=["Z", "Z2", "ZxZ2", "ZxZ3", "Z6", "Z2xZ3"])


@certificate_groups
def test_certificate_agrees_with_all_pairs_oracle(group, spread):
    # skipping the S-polynomials of product pairs changes no verdict: on
    # completed random ideals and on each basis with one element dropped,
    # the certificate agrees with the one that checks every pair
    rng = random.Random(f"certificate/{group}")
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    rejected = product_pairs = 0
    for _ in range(60):
        gens = [g for g in (_random_element(rng, G, spread, WIDE_COEFFS) for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        gb = strong_groebner(gens, p)
        assert _is_strong_basis(gb) and all_pairs_certificate(gb)
        product_pairs += gb.product_skipped
        for k in range(len(gb.elements)):
            dropped = StrongGroebnerBasis(p, gb.elements[:k] + gb.elements[k + 1:], gb.seeds)
            verdict = all_pairs_certificate(dropped)
            assert _is_strong_basis(dropped) == verdict
            rejected += not verdict
    assert rejected and product_pairs


def test_product_criterion_needs_coprime_coefficients():
    # 2*y + 1 and 2*s + 1 have coprime leading monomials but not coprime
    # leading coefficients: their S-polynomial s - y reduces to s + y + 1,
    # so they are no strong basis of the ideal they generate
    free = PolyPresentation(FgAbelianGroup.canonical(0), ["y", "s"])
    gens = [{_pack(E): c for E, c in g.items()} for g in ({(1, 0): 2, (0, 0): 1}, {(0, 1): 2, (0, 0): 1})]
    basis = StrongGroebnerBasis(free, gens, gens)
    assert not _is_strong_basis(basis) and not all_pairs_certificate(basis)
    assert _pair_polys(*basis._reducers, _pack((1, 1)))[0] is False
    done = _complete(basis.seeds, free)
    assert _is_strong_basis(done) and all_pairs_certificate(done)


@certificate_groups
def test_standard_monomials_walk_property(group, spread):
    # the packed walk returns ascending ints, which is grevlex order, and
    # they unpack to the staircase the tuple oracle finds
    rng = random.Random(f"staircase/{group}")
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    finite = 0
    for _ in range(30):
        gens = [g for g in (_random_element(rng, G, spread, WIDE_COEFFS) for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        gb = strong_groebner(gens, p)
        standard, oracle = _standard_monomials(gb), staircase_oracle(gb)
        if oracle is None:
            assert standard is None
            continue
        finite += 1
        exps = [_unpack(K, p.num_vars) for K in standard]
        assert standard == sorted(set(standard)) and set(exps) == oracle
        assert exps == sorted(exps, key=_grevlex_key)
    assert finite >= 5


# Reduced bases recorded from the completion loop that formed pairs with
# every element and reduced by all of them; the update rule must not change
# a single term.  "stall" is an ideal over Z^2 x Z/3 on which that loop took
# seconds.  "Z/6" loses its certificate if the chain criterion lets k serve
# when only one of its pairs with i and j has been popped.
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
    return strong_groebner([parse_element(s, G) for s in gens], p)


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
    assert PINNED_INPUTS[name]().decoded() == PINNED_BASES[name]


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


def _digest_queries(G):
    """Four fixed query elements over G."""
    def mono(a):
        return "t^[" + ",".join([str(a)] * G.free_rank) + (";" + ",".join(["1"] * len(G.torsion))
                                                             if G.torsion else "") + "]"
    queries = [mono(3), mono(-2), f"(1 - {mono(1)})^3 - 2*{mono(-1)}", f"5*{mono(2)} + 7"]
    return [parse_element(q, G) for q in queries]


def _completed_digest_input(name):
    """The K0 presentation of a digest input and the normal forms of four
    fixed queries over its basis."""
    pres = k0_presentation(DIGEST_INPUTS[name]())
    return pres, [normal_form(q, pres.basis) for q in _digest_queries(pres.group)]


def basis_digest(pres, forms):
    """sha256 of a reduced basis (its terms in element order) and of the
    normal forms of the queries, read back as polynomial exponents."""
    record = ([sorted(f.items()) for f in pres.basis.decoded()], [sorted(present(f).items()) for f in forms])
    return hashlib.sha256(repr(record).encode()).hexdigest()


# The answers, pinned apart from the work: a kernel or seeding change must
# keep every digest, as a different term or normal form moves it.  The
# counters record the work of each completion and move with the pair
# order, the update rule, the criteria and the seeds.
PINNED_DIGESTS = {
    "wps(2, 3, 5)": "9a71378d293e2c0e6c0257a3136316058a1cb4c5786585a529fecdd4d775b4e3",
    "wps(3, 5, 7)": "5a800756f2e24f67a7f07c1c58165c1c502e44043124506429b038d02793f2ac",
    "wps(2, 7, 9)": "177713cb7f687523f15812291381509a14f9e0d3e1ec47d473af2207c7303e64",
    "wps(4, 5, 11)": "b214fe4e6f30666a40ce0f0e674153d0297f3a283ffa0cbfe631c640b4b5736a",
    "wps(5, 7, 11)": "2c3446275a148ceafba22a7cdd313756599d834f5328b53f02a0dfeeccaca8cc",
    "wps(3, 8, 13)": "53ae1e74c06ec236fbcdadfb77a49719c24af627278cb2baa1c46f6e65452eaa",
    "wps(6, 9, 12)": "257d449a15f63c94110c174e1cd68e91972d72b5d903a895fd8fe2f8da143e9e",
    "wps(7, 11, 13)": "2b2519a7a298910f26c9dd405d5cb87127878528bf9bfdf663547b0bd0a6188a",
    "wps(1, 2, 3, 5)": "bf7a3a1a30d10ee472fe6e4458a4534fa8a2c19eded54c30dbabf063a087b0bc",
    "wps(2, 3, 5, 7)": "b71744195726a28318b7c85ea96e74d8fbdebd4414ae56d0ca847fa8f8cf4982",
    "wps(1, 4, 6, 9)": "edbf38430ad0b109de6b2b51d1c31a58873bba6a8fddccf974b8cb83d22f1409",
    "wps(3, 4, 5, 8)": "9a14c3e3401d550616501716104fdf372eeef7f56d438de7ef8589db92e96816",
    "wps(2, 5, 7, 9)": "dd26bd6e94446a52b63d8aabde909523e526e250f8a97337ef68d5257114c495",
    "wps(3, 5, 7, 8)": "d18ca469811268f866aaa4e6a18f705c8794c89e903598ecde51978407de6527",
    "wps(2, 4, 8, 11)": "d6c2a78cb86969b7053a98f6ea102dc7813bb7d386f5fa11ef14d74fbe370371",
    "wps(3, 7, 7, 9)": "0c5d656c00001b432cf74597ecfedf7a5ad20e1a57b8fec8f6904630244740ae",
    "wps(1, 2)": "52790e80fe45ad74a4a3d5321ee451c072fc17efda38a795cabb27442d694d85",
    "wps(1, 3)": "fac9e9a2d36966b1073dcd50a8d2d271c38521d06b0b39ffd9d34731d921e49a",
    "wps(2, 3)": "97d2c113f37ca932fe36560adf53a4152009c63278e2491c6affb7248a105ab8",
    "wps(1, 4)": "8e8cfb8c88524466475f1a4b4ee0be79df9bc9f787aa42d74a6ed8d36afd42fa",
    "wps(3, 4)": "4d8f008ce748c3ec9766c03a07826e31335c900d2664684b2bd6cc766256a259",
    "wps(2, 5)": "77da85337f0c064876bb7e06d5791f0643511067c1f35a790b53493c198e6b77",
    "wps(1, 6)": "49891716ece539833663be342af6b6ad388d9a2824144c4179f0ce9ce25539e5",
    "wps(5, 6)": "66d25c2673f12a10b6871fa201f913322b490541732d184357eb8f6ce3f6c882",
    "wps(1, 1, 2)": "e0d6b4afbd59bbe5be5ab853ea26b6fd16fdf042a5be07327ce23fd399571974",
    "wps(1, 2, 3)": "40790e19cef54de44ca24b765cc346a77cc6d807296a5b1c26808e0b91ff531e",
    "wps(1, 2, 4)": "dbc9b44af9555843f7f49031a7bee126a39fb182102ad9bb085013236bce68f0",
    "wps(2, 3, 4)": "244474022ff0885bf38ca8af0df5e776c20d4df9b24874dc5dd858d7147cf3df",
    "wps(1, 3, 5)": "2a04ab6a74b01bdc9419991e865dbee7e3944424ae905147ee81bea17298a6bf",
    "wps(1, 4, 6)": "9de588740d961b00d09ad91a4375f6da19af2f3984b8821d5fa61590d4dbd12a",
    "wps(3, 4, 5)": "9381442c22f4e58caaa669001d95da37d5a9ab9b06622354b66471ec070b1979",
    "ZxZ/2(1, 2, 3)": "ca089a8e2aacb15b7925c29d24942423a8939ea070d7fd3015b1e0fa39099c98",
    "ZxZ/2(2, 3, 5)": "9ce34cfcf16ba7f62fffdcd49ca3b9b8660bb5a7b830c3d480edcbee3e0b5ff1",
    "ZxZ/3(2, 3, 4)": "40bb4c1a2268d81537e0e4edea8c02bce893b45e0c7673e0c367e1cfa32621cb",
    "ZxZ/3(1, 3, 4)": "2f87df71413265211a2d412f70db53a86104dccf996691978afc52130cc07de7",
    "ZxZ/4(1, 2, 5)": "a7e0247cec98b13c919020ef114b6575f578cdd9f69d03f2bce5d268806d6cf3",
    "ZxZ/4(3, 4, 5)": "48f9244568ac44a7ecb127bde948ffbf53860110d5709d8b68c997105e457157",
    "F_0": "2c5047b68002307d118af66d24601f299b9ee49cf324e5cdd906843b21604611",
    "F_1": "fcc8f4676ffe108a204c86a178ecb4038914dc6c19f3d279b22fdf9cf8bc07fd",
    "F_2": "27058a32215c5e73ef0774b752b7ff1824e084edeb2860e367b690712fe90e61",
    "F_3": "e1ced44ee81e5ddb69d7c10c9d155a3230149e0cb9b05347bfd037801072a5c0",
    "F_4": "6eb863d968dbbe781717077f536b4ea339fb1b42262ce3401664a302d591d2b1",
    "(P1)^2": "2c5047b68002307d118af66d24601f299b9ee49cf324e5cdd906843b21604611",
    "(P1)^2xZ/2(0,1)": "72292b3b74375a7d6f7ee60a55b9b353367e8c5bf4f35f530b22d0b4c7941485",
    "(P1)^2xZ/3(1,0)": "a4fbc3a2d9dd835f1e961b5f0e6ec8fbf4465b7197f0d72388e04fddcde2810e",
}

PINNED_DIGEST_COUNTERS = {
    "wps(2, 3, 5)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(3, 5, 7)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(2, 7, 9)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(4, 5, 11)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                          reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(5, 7, 11)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                          reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(3, 8, 13)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                          reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(6, 9, 12)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                          reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(7, 11, 13)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                           reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 2, 3, 5)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                            reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(2, 3, 5, 7)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                            reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 4, 6, 9)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                            reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(3, 4, 5, 8)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                            reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(2, 5, 7, 9)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                            reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(3, 5, 7, 8)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                            reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(2, 4, 8, 11)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                             reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(3, 7, 7, 9)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                            reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 2)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 3)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(2, 3)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 4)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(3, 4)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(2, 5)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 6)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(5, 6)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                      reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 1, 2)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 2, 3)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 2, 4)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(2, 3, 4)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 3, 5)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(1, 4, 6)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "wps(3, 4, 5)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                         reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "ZxZ/2(1, 2, 3)": dict(pairs_queued=6, pairs_popped=6, chain_skipped=1, product_skipped=3,
                           reductions=5, reductions_to_zero=1, retired=0, peak_live=4),
    "ZxZ/2(2, 3, 5)": dict(pairs_queued=6, pairs_popped=6, chain_skipped=1, product_skipped=3,
                           reductions=5, reductions_to_zero=1, retired=0, peak_live=4),
    "ZxZ/3(2, 3, 4)": dict(pairs_queued=6, pairs_popped=6, chain_skipped=1, product_skipped=3,
                           reductions=5, reductions_to_zero=1, retired=0, peak_live=4),
    "ZxZ/3(1, 3, 4)": dict(pairs_queued=21, pairs_popped=21, chain_skipped=10, product_skipped=1,
                           reductions=13, reductions_to_zero=6, retired=0, peak_live=7),
    "ZxZ/4(1, 2, 5)": dict(pairs_queued=15, pairs_popped=15, chain_skipped=6, product_skipped=1,
                           reductions=11, reductions_to_zero=5, retired=0, peak_live=6),
    "ZxZ/4(3, 4, 5)": dict(pairs_queued=15, pairs_popped=15, chain_skipped=6, product_skipped=1,
                           reductions=11, reductions_to_zero=5, retired=0, peak_live=6),
    "F_0": dict(pairs_queued=6, pairs_popped=6, chain_skipped=0, product_skipped=6,
                reductions=4, reductions_to_zero=0, retired=0, peak_live=4),
    "F_1": dict(pairs_queued=21, pairs_popped=21, chain_skipped=7, product_skipped=6,
                reductions=12, reductions_to_zero=5, retired=0, peak_live=7),
    "F_2": dict(pairs_queued=27, pairs_popped=27, chain_skipped=10, product_skipped=6,
                reductions=15, reductions_to_zero=7, retired=1, peak_live=7),
    "F_3": dict(pairs_queued=29, pairs_popped=29, chain_skipped=10, product_skipped=7,
                reductions=17, reductions_to_zero=8, retired=2, peak_live=7),
    "F_4": dict(pairs_queued=34, pairs_popped=34, chain_skipped=12, product_skipped=8,
                reductions=18, reductions_to_zero=8, retired=3, peak_live=7),
    "(P1)^2": dict(pairs_queued=6, pairs_popped=6, chain_skipped=0, product_skipped=6,
                   reductions=4, reductions_to_zero=0, retired=0, peak_live=4),
    "(P1)^2xZ/2(0,1)": dict(pairs_queued=10, pairs_popped=10, chain_skipped=0, product_skipped=10,
                            reductions=5, reductions_to_zero=0, retired=0, peak_live=5),
    "(P1)^2xZ/3(1,0)": dict(pairs_queued=36, pairs_popped=36, chain_skipped=10, product_skipped=15,
                            reductions=16, reductions_to_zero=7, retired=1, peak_live=8),
}


@pytest.mark.parametrize("name", PINNED_DIGESTS)
def test_pinned_basis_digests(name):
    assert basis_digest(*_completed_digest_input(name)) == PINNED_DIGESTS[name]


@pytest.mark.parametrize("name", PINNED_DIGEST_COUNTERS)
def test_pinned_digest_counters(name):
    gb = _completed_digest_input(name)[0].basis
    assert {k: getattr(gb, k) for k in StrongGroebnerBasis.COUNTERS} == PINNED_DIGEST_COUNTERS[name]


def _centred_and_plain(gens, p):
    centred = strong_groebner([_centred(q) for q in gens], p)
    plain = strong_groebner(gens, p)
    assert _is_strong_basis(centred) and _is_strong_basis(plain)
    return centred.elements, plain.elements


@pytest.mark.parametrize(
    "group", [(1, ()), (2, ()), (1, (2,)), (1, (3,))], ids=["Z", "Z2", "ZxZ2", "ZxZ3"]
)
def test_centring_keeps_the_basis(group):
    # t^(-c) is a unit, so centring a seed keeps the ideal and its reduced
    # strong basis; the certificate checks the centred inputs
    rng = random.Random(f"centring/{group}")
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    for _ in range(10):
        gens = [g for g in (_random_element(rng, G, 2, WIDE_COEFFS) for _ in range(rng.randint(1, 3)))
                if not g.is_zero()]
        centred, plain = _centred_and_plain(gens, p)
        assert centred == plain


def test_centring_keeps_the_digest_bases():
    for name, make in DIGEST_INPUTS.items():
        pres = k0_presentation(make())
        centred, plain = _centred_and_plain(pres.generators, pres.basis.presentation)
        assert centred == plain == pres.basis.elements, name


def test_centring_edge_cases():
    Z = FgAbelianGroup.canonical(1)
    # a degree-zero variable makes its component product zero, which stays zero
    flat = make_stack_data(Z, [("x0", [0], False), ("x1", [1], False), ("x2", [1], False)], [["x0"], ["x1", "x2"]])
    pres = k0_presentation(flat)
    assert pres.generators[0].is_zero() and _centred(pres.generators[0]).is_zero()
    assert zmodule_invariants(pres.basis).invariants() == (2, ())
    # over a torsion-only group there is no free coordinate to centre
    C3 = FgAbelianGroup.canonical(0, (3,))
    pres = k0_presentation(_stack(C3, [[1], [2]], [(0, 2)]))
    assert _centred(pres.generators[0]) == pres.generators[0]
    assert zmodule_invariants(pres.basis).invariants() == (1, (3,))
    # the shift is floor((min + max) / 2) per free coordinate, here (-1, 2);
    # residues stay
    Z2xC3 = FgAbelianGroup.canonical(2, (3,))
    q = parse_element("t^[-3,4;2] - 2*t^[0,1;1] + t^[2,1;0]", Z2xC3)
    assert _centred(q) == parse_element("t^[-2,2;2] - 2*t^[1,-1;1] + t^[3,-1;0]", Z2xC3)


def test_malformed_exponents_are_rejected():
    # an element over another group has keys of another shape; both entry
    # points refuse it before anything is packed
    Z, p = laurent_presentation()
    gb = strong_groebner([parse_element("t^[1] - 1", Z)], p)
    for bad in (parse_element("t^[3,0]", FgAbelianGroup.canonical(2)),
                parse_element("t^[3;4]", FgAbelianGroup.canonical(1, (5,)))):
        with pytest.raises(ValueError, match="different groups"):
            normal_form(bad, gb)
        with pytest.raises(ValueError, match="different groups"):
            strong_groebner([bad], p)


def test_leading_term_cache():
    # a basis takes each element's leading term as its largest packed key,
    # in any term order, and keeps it in the reducer data; it is the
    # grevlex maximum of the decoded terms, and decoding keeps the terms
    rng = random.Random(5)
    p = PolyPresentation(FgAbelianGroup.canonical(0), ["a", "b", "c"])
    made = 0
    for _ in range(400):
        terms = {tuple(rng.randint(0, 3) for _ in range(3)): rng.choice([-4, -2, -1, 1, 3])
                 for _ in range(rng.randint(1, 5))}
        packed = {_pack(E): c for E, c in rng.sample(list(terms.items()), len(terms))}
        basis = StrongGroebnerBasis(p, [packed], [])
        E, c = grevlex_leading_term(terms)
        (KB, a, tail), = basis._reducers
        assert (KB, a) == (_pack(E), c)
        assert dict(tail) == {_pack(F): d for F, d in terms.items() if F != E}
        assert basis.decoded() == [terms]
        made += len(terms) > 1
    assert made > 300


@pytest.mark.parametrize(
    "group", [(1, ()), (2, ()), (1, (3,)), (2, (3,))], ids=["Z", "Z2", "ZxZ3", "Z2xZ3"]
)
def test_reduction_order_gives_leading_terms(group):
    # basis elements take their leading term from the order in which the
    # reduction emits terms, largest first; it must be the grevlex maximum,
    # with a positive coefficient, and the reducer data must match the terms
    rng = random.Random(f"leading/{group}")
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    checked = 0
    for _ in range(10):
        gens = [g for g in (_random_element(rng, G, 1) for _ in range(rng.randint(1, 3))) if not g.is_zero()]
        gb = strong_groebner(gens, p)
        for _ in range(5):
            form = _reduce_terms(p._encode(_random_element(rng, G, 2, WIDE_COEFFS)), gb._reducers, p._mask)
            assert list(form) == sorted(form, reverse=True)
            checked += bool(form)
        for f, decoded, (KB, a, tail) in zip(gb.elements, gb.decoded(), gb._reducers):
            E, c = grevlex_leading_term(decoded)
            assert next(iter(f)) == max(f) == KB == _pack(E)
            assert list(decoded)[0] == E
            assert a == c > 0
            assert dict(tail) == {_pack(F): d for F, d in decoded.items() if F != E}
            checked += 1
    assert checked >= 25


# Work counters of three pinned completions; a changed pair order, update
# rule, criterion or seeding moves them.  On ZxZ/4(1,2,5) the product
# criterion spares one S-polynomial, which reduced to zero.  "stall" pins
# the chain criterion on a completion with hundreds of retirements.
PINNED_COUNTERS = {
    "wps(5,7,11,13)": dict(pairs_queued=3, pairs_popped=3, chain_skipped=1, product_skipped=0,
                           reductions=4, reductions_to_zero=1, retired=0, peak_live=3),
    "ZxZ/4(1,2,5)": dict(pairs_queued=21, pairs_popped=21, chain_skipped=10, product_skipped=1,
                         reductions=13, reductions_to_zero=6, retired=0, peak_live=7),
    "stall": dict(pairs_queued=7312, pairs_popped=7312, chain_skipped=5331, product_skipped=66,
                  reductions=2466, reductions_to_zero=2223, retired=237, peak_live=40),
}


@pytest.mark.parametrize("name", PINNED_COUNTERS)
def test_work_counters(name):
    gb = PINNED_INPUTS[name]()
    assert {k: getattr(gb, k) for k in StrongGroebnerBasis.COUNTERS} == PINNED_COUNTERS[name]
    assert all(type(getattr(gb, k)) is int for k in StrongGroebnerBasis.COUNTERS)
    # a basis built any other way reports no work
    again = StrongGroebnerBasis(gb.presentation, gb.elements, gb.seeds)
    assert all(getattr(again, k) == 0 for k in StrongGroebnerBasis.COUNTERS)


def test_invariants_invariance_under_generators_presentation():
    Z2, p, _, u, v = blowup_basis()
    g1 = 1 - v
    g2 = (1 - u) * (1 - u)
    base = zmodule_invariants(strong_groebner([g1, g2], p))
    permuted = zmodule_invariants(strong_groebner([g2, g1], p))
    assert (base.invariants(), base.status) == (permuted.invariants(), permuted.status)
    # multiplying a generator by a unit monomial of the group ring
    uinv = GroupRingElement.monomial(Z2.element([-1, 0]))
    g2u = (1 - u) * (1 - u) * uinv
    scaled = zmodule_invariants(strong_groebner([g1, g2u], p))
    assert (base.invariants(), base.status) == (scaled.invariants(), scaled.status)


def test_weighted_projective_ranks():
    Z, p = laurent_presentation()
    t = lambda n: GroupRingElement.monomial(Z.element([n]))
    for weights in [(1,), (2,), (1, 1), (4, 6), (2, 3, 5), (1, 2, 3, 4)]:
        f = GroupRingElement.one(Z)
        for q in weights:
            f = f * (1 - t(q))
        gb = strong_groebner([f], p)
        inv = zmodule_invariants(gb)
        assert inv.invariants() == (sum(weights), ())
        assert inv.status == AbGroupInvariants.EXACT


def test_basis_deterministic():
    Z2, p, gb1, u, v = blowup_basis()
    _, _, gb2, _, _ = blowup_basis()
    assert gb1.elements == gb2.elements


def test_basis_closed_under_pairs():
    _, _, gb, _, _ = blowup_basis()
    assert all_pairs_certificate(gb)
    for pq in [(2, 3), (2, 2), (3, 4)]:
        _, _, gb, _, _ = rugby_basis(*pq)
        assert all_pairs_certificate(gb)
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
                gens.append(e)
        assert all_pairs_certificate(strong_groebner(gens, p))


def test_reduced_basis_canonical_under_input_order():
    Z2, p, _, u, v = blowup_basis()
    g1 = 1 - v
    g2 = (1 - u) * (1 - u)
    a = strong_groebner([g1, g2], p)
    b = strong_groebner([g2, g1], p)
    assert a.elements == b.elements


def test_packed_encoding_property():
    # K order is grevlex order, the mask test is divisibility, K is linear
    # and unpacking inverts packing, also for exponents near the degree bound
    rng = random.Random(17)
    for _ in range(300):
        n = rng.randint(0, 6)
        H = PolyPresentation(FgAbelianGroup.canonical(0), ["v"] * n)._mask
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


@pytest.mark.parametrize(
    "group", [(1, ()), (2, ()), (1, (2,)), (1, (3,)), (2, (3,))], ids=["Z", "Z2", "ZxZ2", "ZxZ3", "Z2xZ3"]
)
def test_key_map_property(group):
    # a key packs to _pack of its presented exponent, as the oracle's
    # present writes it, and decoding the packed key gives the key back
    rng = random.Random(f"keymap/{group}")
    G = FgAbelianGroup.canonical(*group)
    p = PolyPresentation.for_group(G)
    zero = (0,) * (G.free_rank + len(G.torsion))
    for _ in range(60):
        terms = {zero: rng.choice(WIDE_COEFFS)}
        for _ in range(rng.randint(0, 5)):
            free = [rng.randint(-4, 4) for _ in range(G.free_rank)]
            terms[tuple(free + [rng.randint(-4, 4) % m for m in G.torsion])] = rng.choice(WIDE_COEFFS)
        e = GroupRingElement(G, terms)
        packed = p._encode(e)
        assert packed == {_pack(E): c for E, c in present(e).items()}
        assert p._decode(packed) == e.terms


def test_reduce_matches_the_presented_route():
    # reducing a class equals presenting it as a polynomial (the oracle's
    # present), reducing the packed polynomial and decoding the result
    for name, make in DIGEST_INPUTS.items():
        pres = k0_presentation(make())
        p = pres.basis.presentation
        for e in _digest_queries(pres.group):
            via = _reduce_terms({_pack(E): c for E, c in present(e).items()}, pres.basis._reducers, p._mask)
            assert pres.reduce(e).terms == p._decode(via), name


def test_normal_form_matches_plain_reduction():
    # normal_form replaces each key by its normal monomial before reducing
    # it; plain reduction, with no replacing, gives the same remainder
    rng = random.Random("normal-form/plain")
    inputs = {**DIGEST_INPUTS, **{f"rugby{pq}": lambda pq=pq: builtin_example("rugby", pq)
                                  for pq in ((2, 3), (3, 5), (4, 6), (12, 18))}}
    for name, make in inputs.items():
        pres = k0_presentation(make())
        p, gb = pres.basis.presentation, pres.basis
        for _ in range(4):
            e = _random_element(rng, pres.group, 9, WIDE_COEFFS)
            plain = p._decode(_reduce_terms(p._encode(e), gb._reducers, p._mask))
            assert normal_form(e, gb).terms == plain, (name, e)


@pytest.mark.parametrize("N", [2000, 20000])
def test_normal_form_is_linear_in_the_exponent(N):
    # on P1 the basis has leading monomial y, and y^N reduces through the
    # y^a alone once each y^a*y' becomes y^(a-1)
    pres = k0_presentation(builtin_example("p1"))
    start = time.perf_counter()
    got = pres.reduce(parse_element(f"t^[{N}]", pres.group))
    assert time.perf_counter() - start < 1
    assert got == parse_element(f"{N + 1} - {N}*t^[-1]", pres.group)


def test_degree_bound_is_reported():
    # a key whose presented exponent has total degree 2^(W-3) raises
    # ValueError naming that exponent, in normal_form and strong_groebner;
    # the completion core raises it when a new basis element would reach it
    Z, p = laurent_presentation()
    gb = strong_groebner([GroupRingElement.constant(Z, 2)], p)
    big = 1 << (_W - 3)

    def t(a):
        return GroupRingElement.monomial(Z.element([a]))
    assert normal_form(3 * t(big - 1), gb) == t(big - 1)
    assert normal_form(3 * t(1 - big), gb) == t(1 - big)
    for a, E in ((big, (big, 0)), (-big, (0, big))):
        with pytest.raises(ValueError, match=rf"\({E[0]}, {E[1]}\)"):
            normal_form(1 + 2 * t(a), gb)
        with pytest.raises(ValueError, match=rf"\({E[0]}, {E[1]}\)"):
            strong_groebner([t(a) - 1], p)
    # a residue counts towards the degree: 2^(W-3) - 1 packs, 2^(W-3) does not
    G = FgAbelianGroup.canonical(1, (3,))
    q = PolyPresentation.for_group(G)
    assert q._encode(parse_element(f"t^[{3 - big};2]", G)) == {_pack((0, big - 3, 2)): 1}
    with pytest.raises(ValueError, match=rf"\(0, {big - 2}, 2\)"):
        strong_groebner([parse_element(f"1 - t^[{3 - big};2] + t^[{2 - big};2]", G)], q)
    # so does a structural relation sj^mj - 1: mj = 2^(W-3) cannot be presented
    assert PolyPresentation.for_group(FgAbelianGroup.canonical(0, (big - 1,)))._structural == \
        [{_pack((big - 1,)): 1, 0: -1}]
    with pytest.raises(ValueError, match=rf"\(0, 0, {big}\)"):
        PolyPresentation.for_group(FgAbelianGroup.canonical(1, (big,)))
    # raw exponents go to the completion core as packed seeds
    with pytest.raises(ValueError, match=rf"\({big}, 0\)"):
        _complete([{_pack((big, 0)): 1, 0: -1}], p)
    # with no structural relations, the G-polynomial of 2*a^A*b and 3*a*b^B
    # is the monomial a^A*b^B, of degree 2^(W-3)
    A = big // 2
    free = PolyPresentation(FgAbelianGroup.canonical(0), ["a", "b"])
    with pytest.raises(ValueError, match=rf"\({A}, {A}\)"):
        _complete([{_pack((A, 1)): 2}, {_pack((1, A)): 3}], free)


def test_smith_form_on_touched_columns():
    # P^1 x B(Z/500): 1000 standard monomials and no relation row, so no
    # dense 1000 x 1000 Smith form
    data = _stack(FgAbelianGroup.canonical(1, (500,)), [[1, 0], [1, 0]], [(0, 2)])
    gb = k0_presentation(data).basis
    started = time.perf_counter()
    inv = zmodule_invariants(gb)
    assert time.perf_counter() - started < 0.1
    assert (inv.invariants(), inv.status) == ((1000, ()), AbGroupInvariants.EXACT)


def test_presentation_needs_a_name_per_variable():
    # the encoding uses 2r + k variables: with fewer names _encode would
    # drop coordinates and give wrong answers labelled exact
    with pytest.raises(ValueError, match="2 variable names .* uses 3"):
        PolyPresentation(FgAbelianGroup.canonical(1, (3,)), ["y", "y'"])
    with pytest.raises(ValueError, match="1 variable names .* uses 2"):
        PolyPresentation(FgAbelianGroup.canonical(1), ["y"])
    # a plain polynomial ring over the trivial group stays allowed
    assert PolyPresentation(FgAbelianGroup.canonical(0), ["a", "b"]).num_vars == 2
    assert PolyPresentation(FgAbelianGroup.canonical(0), []).num_vars == 0


def test_extra_names_are_plain_variables():
    # names past the 2r + k of the encoding take no structural relation and
    # no part of a group-ring key: keys keep their r + k entries
    Z = FgAbelianGroup.canonical(1)
    p = PolyPresentation(Z, ["y", "y'", "z"])
    assert p._structural == [{_pack((1, 1, 0)): 1, 0: -1}]
    reduced = normal_form(parse_element("t^[2] + 3", Z), strong_groebner([parse_element("t^[1] - 1", Z)], p))
    assert reduced.terms == {(0,): 4}
    trivial = FgAbelianGroup.canonical(0)
    p = PolyPresentation(trivial, ["a", "b"])
    assert p._structural == []
    five = GroupRingElement.constant(trivial, 5)
    assert normal_form(five, strong_groebner([], p)) == five
    G = FgAbelianGroup.canonical(1, (3,))
    gens = [parse_element("2*(1 - t^[1;0])^2", G), parse_element("3*(1 - t^[0;1])^2", G)]
    e = parse_element("t^[3;1] - 5*t^[-2;2] + 7", G)
    extra = normal_form(e, strong_groebner(gens, PolyPresentation(G, ["y", "y'", "s", "x"])))
    usual = normal_form(e, strong_groebner(gens, PolyPresentation.for_group(G)))
    assert all(len(key) == 2 for key in extra.terms)
    assert extra.render() == usual.render() == \
        "t^[-2;0] - 14*t^[-1;0] + 2*t^[-1;2] + 10 + t^[0;1] + 2*t^[0;2] + t^[3;0]"


def test_normal_form_refuses_a_term_in_an_extra_name():
    # a basis over y - z reduces t^[1] = y to z, which no key can hold:
    # dropping z rendered t^[1] as 1 while t^[1] - 1 stayed nonzero
    Z = FgAbelianGroup.canonical(1)
    p = PolyPresentation(Z, ["y", "y'", "z"])
    gb = _complete([{_pack((1, 0, 0)): 1, _pack((0, 0, 1)): -1}], p)
    for text in ("t^[1]", "t^[1] - 1"):
        with pytest.raises(ValueError, match="variable z"):
            normal_form(parse_element(text, Z), gb)
    assert normal_form(parse_element("t^[-1] + 2", Z), gb).render() == "t^[-1] + 2"
    # over Z x Z/3 a basis over s - z reduces y*s to y*z: the error names z,
    # the last name the term holds, not the y that a key can hold
    G = FgAbelianGroup.canonical(1, (3,))
    p = PolyPresentation(G, ["y", "y'", "s", "z"])
    gb = _complete([{_pack((0, 0, 1, 0)): 1, _pack((0, 0, 0, 1)): -1}], p)
    with pytest.raises(ValueError, match="variable z,"):
        normal_form(parse_element("t^[1;1]", G), gb)


@pytest.mark.parametrize("n", [1, 2, 4, 6, 10])
def test_packed_lcm_matches_the_tuple_oracle(n):
    # 16,000 seeded pairs per n: entries up to 2^20, ties and zeros, and
    # pairs at the degree bound 2^(W-3) - 1, where the lcm has its largest
    # degree; the mask test is divisibility on the same pairs
    rng = random.Random(f"lcm/{n}")
    lcm, H = _lcm_packer(n), PolyPresentation(FgAbelianGroup.canonical(0), ["v"] * n)._mask
    top = (1 << (_W - 3)) - 1

    def exponent(kind):
        if kind == "bound":
            cuts = sorted(rng.randint(0, top) for _ in range(n - 1))
            return tuple(b - a for a, b in zip([0] + cuts, cuts + [top]))
        return tuple(rng.choice((0, rng.randint(0, 3), rng.randint(0, 1 << 20))) for _ in range(n))

    at_bound = 0
    for _ in range(16000):
        kinds = rng.choice((("wide", "wide"), ("wide", "bound"), ("bound", "wide"), ("bound", "bound")))
        A, B = map(exponent, kinds)
        if rng.random() < 0.2:
            B = tuple(rng.choice((a, b)) for a, b in zip(A, B))  # shared fields
        KA, KB = _pack(A), _pack(B)
        assert lcm(KA, KB) == _pack(_lcm_exponent(A, B))
        assert (((KA - KB + H) & H) == H) == _divides(A, B)
        at_bound += sum(A) == top or sum(B) == top
    assert at_bound > 8000
