import itertools
import random
import sys
import time
from math import gcd

import pytest

from kstacks.abelian import FgAbelianGroup, GroupElement, GroupHomomorphism, IntMatrix, group_from_relations
from kstacks.groupring import GroupRingElement, one_minus
from kstacks.grobner import AbGroupInvariants
from kstacks.ktheory import (
    class_of_intersection,
    class_of_koszul_quotient,
    class_of_twist,
    equal_in_k0,
    induced_map,
    invariants,
    k0_presentation,
    K0Class,
)
from kstacks.stacks import StackDataError, builtin_example, check_connected, connectify, make_stack_data

from conftest import (
    brute_force_numerator,
    determinant,
    equal_up_to_unit,
    euler_characteristic,
    fp_quotient_dimension,
    inclusion_exclusion_class,
)

RUGBY_PAIRS = [(1, 1), (2, 3), (2, 2), (3, 4)]


def test_blowup_hirzebruch_presentation():
    data = builtin_example("blowup-a2-hirzebruch")
    pres = k0_presentation(data)
    G = data.group
    u = GroupRingElement.monomial(G.element([1, 0]))
    v = GroupRingElement.monomial(G.element([0, 1]))
    expected = [1 - v, (1 - u) * (1 - u)]
    assert len(pres.generators) == 2
    matched = set()
    for got in pres.generators:
        for i, want in enumerate(expected):
            if i not in matched and equal_up_to_unit(got, want):
                matched.add(i)
                break
    assert matched == {0, 1}
    inv = invariants(pres)
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_cox_presentation_matches_connectify():
    # the Cox grading of the blown-up plane fails the degree-zero test
    # (x0*x1 has degree zero), yet its K0 is Z^2, read directly and through
    # the connectified data that passes the test
    data = builtin_example("blowup-a2-cox")
    pres = k0_presentation(data)
    assert not pres.hypothesis_verified
    for p in (pres, k0_presentation(connectify(data))):
        inv = invariants(p)
        assert inv.invariants() == (2, ()) and inv.status == AbGroupInvariants.EXACT


def test_k0_build_never_runs_the_degree_zero_test(monkeypatch):
    # the build and the invariants need no degree-zero test; only reading
    # hypothesis_verified asks check_connected for it
    def unexpected(rows):
        raise AssertionError("phase-one test called")

    monkeypatch.setattr("kstacks.stacks._rational_annihilator_exists", unexpected)
    for name, args in (("blowup-a2-cox", ()), ("wps", (2, 3)), ("rugby", (2, 3))):
        pres = k0_presentation(builtin_example(name, args))
        assert invariants(pres).status == AbGroupInvariants.EXACT
        with pytest.raises(AssertionError, match="phase-one test called"):
            pres.hypothesis_verified


def test_inverted_variables_give_exact_k0():
    # b-mu q inverts x of degree q, read as the component {x}: K0 is
    # Z[t^+-1]/(1 - t^q), the representation ring of mu_q, of rank q
    for q in range(1, 8):
        pres = k0_presentation(builtin_example("b-mu", (q,)))
        assert pres.hypothesis_verified
        assert [g.render() for g in pres.generators] == [f"1 - t^[{q}]"]
        inv = invariants(pres)
        assert inv.invariants() == (q, ())
        assert inv.status == AbGroupInvariants.EXACT


def test_connectified_cox_matches_hirzebruch():
    cox = builtin_example("blowup-a2-cox")
    fixed = connectify(cox)
    pres = k0_presentation(fixed)
    assert pres.hypothesis_verified
    inv = invariants(pres)
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT
    # q1 = (1 - t^{(1,1)})^2, q2 = 1 - t^{(0,1)} in user coordinates
    z = GroupRingElement.monomial(fixed.group.element([0, 1]))
    x0 = GroupRingElement.monomial(fixed.group.element([1, 1]))
    assert any(equal_up_to_unit(g, (1 - x0) * (1 - x0)) for g in pres.generators)
    assert any(equal_up_to_unit(g, 1 - z) for g in pres.generators)


def test_rugby_presentation_single_generator():
    for p, q in RUGBY_PAIRS:
        data = builtin_example("rugby", (p, q))
        pres = k0_presentation(data)
        G = data.group
        e, ep = G.element([1, 0]), G.element([0, 1])
        assert len(pres.generators) == 1
        assert pres.generators[0] == one_minus(e) * one_minus(ep)


def test_wps_presentation():
    data = builtin_example("wps", (4, 6))
    pres = k0_presentation(data)
    G = data.group
    t = lambda n: GroupRingElement.monomial(G.element([n]))
    assert len(pres.generators) == 1
    assert pres.generators[0] == (1 - t(4)) * (1 - t(6))


EULER_WEIGHTS = [(1, 1), (2, 3), (4, 6), (1, 2, 3), (5, 7, 11, 13), (3, 7, 7, 9), (1, 1, 1, 1)]


@pytest.mark.parametrize("weights", EULER_WEIGHTS, ids=str)
def test_euler_characteristic_kills_the_ideal(weights):
    # chi is additive on the stack, so each c -> chi(c * t^(-a)) is a map K0 -> Z
    data = builtin_example("wps", weights)
    pres = k0_presentation(data)
    t = lambda n: GroupRingElement.monomial(data.group.element([n]))
    total = sum(weights)
    for q in pres.generators:
        # q * t^s * t^(-a) for every s in [-3 sum w, 3 sum w) and a in [0, sum w)
        for shift in range(-4 * total + 1, 3 * total):
            assert euler_characteristic(data, q * t(shift)) == 0, (q, shift)


@pytest.mark.parametrize("weights", EULER_WEIGHTS, ids=str)
def test_euler_characteristic_decides_class_equality(weights):
    # K0 is free on O(0), ..., O(sum w - 1) and the Euler form is unimodular
    # there, so the twisted Euler characteristics separate classes
    data = builtin_example("wps", weights)
    pres = k0_presentation(data)
    G, total = data.group, sum(weights)
    rng = random.Random(f"euler/{weights}")

    def draw():
        out = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 4)):
            d = rng.randint(-2 * total, 2 * total)
            out = out + GroupRingElement.monomial(G.element([d]), rng.randint(-3, 3))
        return out

    twists = [GroupRingElement.monomial(G.element([-a])) for a in range(total)]
    seen = {True: 0, False: 0}
    for _ in range(100):
        f = draw()
        g = f + draw() * rng.choice(pres.generators) if rng.random() < 0.5 else draw()
        by_chi = all(euler_characteristic(data, (f - g) * u) == 0 for u in twists)
        equal = equal_in_k0(K0Class(pres, f), K0Class(pres, g))
        assert equal == by_chi, (f, g)
        seen[equal] += 1
    assert seen[True] and seen[False]


def test_class_of_twist():
    data = builtin_example("rugby", (2, 3))
    pres = k0_presentation(data)
    G = data.group
    e = G.element([1, 0])
    assert class_of_twist(pres, G.zero()).representative == GroupRingElement.one(G)
    c = class_of_twist(pres, -1 * e)
    assert c.representative == GroupRingElement.monomial(e)
    rng = random.Random(5)
    for _ in range(20):
        a = G.element([rng.randint(-3, 3), rng.randint(-3, 3)])
        b = G.element([rng.randint(-3, 3), rng.randint(-3, 3)])
        lhs = class_of_twist(pres, a) * class_of_twist(pres, b)
        rhs = class_of_twist(pres, a + b)
        assert lhs.representative == rhs.representative


def test_class_arithmetic_refuses_other_operands():
    # anything but a class (or, for *, an int) is refused with TypeError,
    # from either side
    data = builtin_example("rugby", (2, 3))
    pres = k0_presentation(data)
    G = data.group
    c = class_of_twist(pres, G.element([1, 0]))
    one = GroupRingElement.one(G)
    for other in (2.5, "x", one, None):
        for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(c, other)
            with pytest.raises(TypeError):
                op(other, c)
    assert (3 * c - c * 2 + c * c).representative == c.representative + c.representative ** 2
    with pytest.raises(ValueError, match="different presentations"):
        c + class_of_twist(k0_presentation(data), G.element([1, 0]))


def test_rugby_point_classes():
    for p, q in RUGBY_PAIRS:
        data = builtin_example("rugby", (p, q))
        pres = k0_presentation(data)
        G = data.group
        e, ep = G.element([1, 0]), G.element([0, 1])
        t = GroupRingElement.monomial(e)
        north = class_of_koszul_quotient(pres, [e])
        assert north.representative == 1 - t
        point = class_of_koszul_quotient(pres, [p * e])
        # the class of a plain point is the sum of the twisted north poles
        total = GroupRingElement.zero(G)
        for i in range(p):
            total = total + t**i * (1 - t)
        assert equal_in_k0(point, K0Class(pres, total))
        # twisting a plain point does not change its class
        assert equal_in_k0(K0Class(pres, t * point.representative), point)
        # same class through the south pole
        assert equal_in_k0(point, class_of_koszul_quotient(pres, [q * ep]))
        assert class_of_koszul_quotient(pres, []).representative == GroupRingElement.one(G)


def test_coordinate_quotient_classes():
    data = builtin_example("blowup-a2-hirzebruch")
    pres = k0_presentation(data)
    G = data.group
    u = GroupRingElement.monomial(G.element([1, 0]))
    v = GroupRingElement.monomial(G.element([0, 1]))
    # the class of one coordinate ideal is the intersection of one component
    c1 = class_of_intersection(pres, [["x1"]])
    assert c1.representative == 1 - v
    assert c1.is_zero()
    c2 = class_of_intersection(pres, [["t0"]])
    assert c2.representative == 1 - u
    assert not c2.is_zero()
    assert class_of_intersection(pres, [[]]).representative == GroupRingElement.one(G)
    # every normalized component dies in the quotient
    for comp in data.irrelevant:
        assert class_of_intersection(pres, [comp]).is_zero()
    with pytest.raises(StackDataError, match="unknown variable name 'x9'"):
        class_of_intersection(pres, [["x1", "x9"]])


def test_intersection_classes():
    data = builtin_example("blowup-a2-hirzebruch")
    pres = k0_presentation(data)
    single = class_of_intersection(pres, [data.irrelevant[0]])
    same = class_of_koszul_quotient(pres, [data.variable(name).degree for name in data.irrelevant[0]])
    assert single.representative == same.representative
    repeated = class_of_intersection(pres, [("t0", "t1"), ("t0", "t1")])
    assert repeated.representative == class_of_intersection(pres, [("t0", "t1")]).representative
    # the class of the full irrelevant locus vanishes
    full = class_of_intersection(pres, list(data.irrelevant))
    assert full.is_zero()
    with pytest.raises(ValueError, match="need at least one component"):
        class_of_intersection(pres, [])


def test_intersection_disjoint_singletons():
    Z = FgAbelianGroup.canonical(1)
    data = make_stack_data(Z, [("a", [1], False), ("b", [2], False)], [["a", "b"]])
    pres = k0_presentation(data)
    t = lambda n: GroupRingElement.monomial(Z.element([n]))
    got = class_of_intersection(pres, [("a",), ("b",)])
    expected = (1 - t(1)) + (1 - t(2)) - (1 - t(1)) * (1 - t(2))
    assert got.representative == expected


def test_intersection_matches_inclusion_exclusion():
    # 1,200 seeded inputs: free rank 1 or 2, no torsion or Z/2 or Z/3,
    # degrees in [-2, 2], 1-5 variables and 1-4 components, empty ones
    # included; only the representative is compared, so the presentations
    # have no generators
    rng = random.Random("intersection/inclusion-exclusion")
    empty = 0
    for _ in range(1200):
        G = FgAbelianGroup.canonical(rng.choice((1, 2)), rng.choice(((), (2,), (3,))))
        names = [f"x{i}" for i in range(rng.randint(1, 5))]
        degrees = [(nm, [rng.randint(-2, 2) for _ in range(G.num_generators)]) for nm in names]
        pres = k0_presentation(make_stack_data(G, degrees, []))
        comps = [rng.sample(names, rng.randint(0, len(names))) for _ in range(rng.randint(1, 4))]
        empty += not all(comps)
        got = class_of_intersection(pres, comps).representative
        assert got.terms == inclusion_exclusion_class(pres, comps).terms, (G, degrees, comps)
    assert empty > 200


def test_intersection_pivot_budget():
    # the 15 pairwise coordinate ideals of wps(1^6) take 41 calls, where
    # inclusion-exclusion took 2^15 - 1 subcollections
    data = builtin_example("wps", (1,) * 6)
    pres = k0_presentation(data)
    pairs = list(itertools.combinations(range(6), 2))
    start = time.perf_counter()
    cls = class_of_intersection(pres, [[f"x{i}" for i in pair] for pair in pairs])
    cls.normal_form()
    assert time.perf_counter() - start < 0.05
    got = {key[0]: c for key, c in cls.representative.terms.items()}
    assert got == brute_force_numerator([1] * 6, pairs, 1, 8)
    # a chain of 20 overlapping pairs {xi, x(i+1)} is one block of 21
    # variables, and its recursion runs past the budget
    data = builtin_example("wps", (1,) * 21)
    pres = k0_presentation(data)
    start = time.perf_counter()
    with pytest.raises(ValueError, match="PIVOT_BUDGET = 65536"):
        class_of_intersection(pres, [[f"x{i}", f"x{i + 1}"] for i in range(20)])
    assert time.perf_counter() - start < 1


def test_intersection_splits_into_disjoint_blocks():
    # components in disjoint variables intersect in their product ideal, so
    # K = 1 - prod(1 - K(block)), and each block's K is computed once: two
    # disjoint 600-variable components answer, where the recursion through
    # both at once ran past its budget
    Z = FgAbelianGroup.canonical(1)
    names = [f"x{i}" for i in range(1200)]
    pres = k0_presentation(make_stack_data(Z, [(nm, [1]) for nm in names], []))
    start = time.perf_counter()
    got = class_of_intersection(pres, [names[:600], names[600:]]).representative
    assert time.perf_counter() - start < 5
    block = (1 - GroupRingElement.monomial(Z.element([1]))) ** 600
    assert got == 1 - (1 - block) * (1 - block)
    # 16 disjoint pairs are 16 blocks, where the recursion took about 4 * 2^16 calls
    got = class_of_intersection(pres, [[f"x{2 * i}", f"x{2 * i + 1}"] for i in range(16)]).representative
    assert got == 1 - (1 - (1 - GroupRingElement.monomial(Z.element([1]))) ** 2) ** 16
    # a two-component block beside a pair and a singleton, against counted monomials
    data = builtin_example("wps", (1,) * 6)
    comps = [(0, 1), (1, 2), (3, 4), (5,)]
    got = class_of_intersection(k0_presentation(data), [[f"x{i}" for i in c] for c in comps])
    assert {key[0]: c for key, c in got.representative.terms.items()} == brute_force_numerator([1] * 6, comps, 1, 8)


def test_intersection_runs_past_the_recursion_limit():
    # the recursion goes one component deeper per singleton, so its calls
    # must not nest as Python frames: the intersection of the (xi) is the
    # principal ideal of the product of the xi
    n = sys.getrecursionlimit() + 100
    Z = FgAbelianGroup.canonical(1)
    names = [f"x{i}" for i in range(n)]
    pres = k0_presentation(make_stack_data(Z, [(nm, [1]) for nm in names], []))
    got = class_of_intersection(pres, [[nm] for nm in names]).representative
    assert got == 1 - GroupRingElement.monomial(Z.element([n]))


def test_equal_in_k0_is_congruence():
    data = builtin_example("rugby", (2, 3))
    pres = k0_presentation(data)
    G = data.group
    rng = random.Random(17)

    def rand_elem():
        out = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 3)):
            coords = [rng.randint(-2, 2), rng.randint(-2, 2)]
            out = out + GroupRingElement.monomial(G.element(coords), rng.randint(-3, 3))
        return out

    q = pres.generators[0]
    for _ in range(15):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        ca = K0Class(pres, a)
        cb = K0Class(pres, a + q * b)
        assert equal_in_k0(ca, cb)
        assert equal_in_k0(ca + K0Class(pres, c), cb + K0Class(pres, c))
        assert equal_in_k0(ca * K0Class(pres, c), cb * K0Class(pres, c))
    # a class is unequal to anything but a class, its representative included
    assert K0Class(pres, q) != q and K0Class(pres, q) != 0
    # class_of is the K0Class constructor, and an ideal generator's class is zero
    assert pres.class_of(q) == K0Class(pres, q) and pres.class_of(q).is_zero()


CANONICAL_STACKS = [
    ("wps(1,1)", lambda: builtin_example("wps", (1, 1))),
    ("wps(2,3)", lambda: builtin_example("wps", (2, 3))),
    ("rugby(2,3)", lambda: builtin_example("rugby", (2, 3))),
    ("rugby(4,6)", lambda: builtin_example("rugby", (4, 6))),
    ("blowup-a2-hirzebruch", lambda: builtin_example("blowup-a2-hirzebruch")),
    ("F_2", lambda: _hirzebruch(2)),
    ("P1^2xZ/3(0,1)", lambda: _p1_product(2, 3, (0, 1))),
]


@pytest.mark.parametrize("name, build", CANONICAL_STACKS, ids=[n for n, _ in CANONICAL_STACKS])
def test_reduce_is_canonical(name, build):
    data = build()
    pres = k0_presentation(data)
    G = data.group
    rng = random.Random(f"canonical/{name}")

    def draw():
        out = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 4)):
            coords = [rng.randint(-3, 3) for _ in range(G.num_generators)]
            out = out + GroupRingElement.monomial(G.element(coords), rng.randint(-3, 3))
        return out

    # elements of one class, however written, reduce to one element
    for _ in range(12):
        e = draw()
        f = e + draw() * rng.choice(pres.generators)
        assert pres.reduce(e) == pres.reduce(f)
    # and reduced forms match exactly when the classes are equal
    seen = {"equal": 0, "different": 0}
    for _ in range(24):
        a = draw()
        b = a + draw() * rng.choice(pres.generators) if rng.random() < 0.5 else draw()
        equal = equal_in_k0(K0Class(pres, a), K0Class(pres, b))
        assert (pres.reduce(a) == pres.reduce(b)) == equal
        seen["equal" if equal else "different"] += 1
    assert seen["equal"] and seen["different"]


def test_invariants_examples():
    assert invariants(k0_presentation(builtin_example("rugby", (1, 1)))).invariants() == (2, ())
    inv = invariants(k0_presentation(builtin_example("wps", (1, 1))))
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT


def test_default_invariants_build_no_lattice():
    names = ["t0", "t1", "x0", "x1"]
    Z2 = FgAbelianGroup.canonical(2)
    Z2xZ3 = FgAbelianGroup.canonical(2, (3,))
    hirzebruch = [[1, 0], [1, 0], [-2, 1], [0, 1]]
    p1p1_z3 = [[1, 0, 1], [1, 0, 1], [0, 1, 0], [0, 1, 0]]
    cases = [
        (builtin_example("wps", (2, 3)), (5, ())),
        (make_stack_data(Z2, [(v, d) for v, d in zip(names, hirzebruch)], [names[:2], names[2:]]), (4, ())),
        (make_stack_data(Z2xZ3, [(v, d) for v, d in zip(names, p1p1_z3)], [names[:2], names[2:]]), (12, ())),
    ]
    for data, expected in cases:
        pres = k0_presentation(data)
        inv = invariants(pres)
        assert (inv.invariants(), inv.status) == (expected, AbGroupInvariants.EXACT)


def _hirzebruch(a):
    names = ["t0", "t1", "x0", "x1"]
    degrees = [[1, 0], [1, 0], [-a, 1], [0, 1]]
    return make_stack_data(FgAbelianGroup.canonical(2), list(zip(names, degrees)), [names[:2], names[2:]])


def _p1_product(k, m=None, residues=()):
    """(P^1)^k, or with m given (P^1)^k x B(Z/m) up to a change of grading
    coordinates: the variables of factor i carry residue residues[i]."""
    G = FgAbelianGroup.canonical(k, (m,) if m else ())
    variables, components = [], []
    for i in range(k):
        degree = [int(j == i) for j in range(k)] + ([residues[i]] if m else [])
        pair = [f"x{i}", f"y{i}"]
        variables += [(name, degree) for name in pair]
        components.append(pair)
    return make_stack_data(G, variables, components)


def _tag(params):
    return ",".join(map(str, params))


FAN_STACKS = (
    [(f"wps({_tag(w)})", lambda w=w: builtin_example("wps", w))
     for w in [(1, 1), (2, 3), (5, 7, 11, 13), (3, 7, 7, 9), (1, 2, 3)]]
    + [(f"rugby({_tag(pq)})", lambda pq=pq: builtin_example("rugby", pq)) for pq in [(2, 3), (1, 1)]]
    + [(name, lambda name=name: builtin_example(name)) for name in ["m11", "blowup-a2-hirzebruch"]]
    + [(f"F_{a}", lambda a=a: _hirzebruch(a)) for a in range(6)]
    + [(f"P1^2xZ/{m}({_tag(rs)})", lambda m=m, rs=rs: _p1_product(2, m, rs))
       for m, rs in [(3, (0, 1)), (3, (1, 1)), (2, (1, 0))]]
    + [(f"P1^{k}", lambda k=k: _p1_product(k)) for k in (2, 3)]
)


def _fan_rank(data):
    """Sum over the maximal cones of the order of the grading group modulo
    the degrees of the variables outside the cone.

    A cone is a set of variables containing no irrelevant component.  In
    user coordinates the order is the gcd of the g x g minors of the
    relation rows stacked on those degree rows (0 when the quotient is
    infinite).
    """
    G = data.group
    g = G.num_generators
    names = data.variable_names()
    components = [set(c) for c in data.irrelevant]
    cones = [
        set(s)
        for k in range(len(names) + 1)
        for s in itertools.combinations(names, k)
        if not any(c <= set(s) for c in components)
    ]
    maximal = [s for s in cones if not any(s < t for t in cones)]
    total = 0
    for cone in maximal:
        rows = [list(r) for r in G.relations.entries] + [
            list(G.user_representative(data.variable(n).degree)) for n in names if n not in cone
        ]
        order = 0
        for minor in itertools.combinations(rows, g):
            order = gcd(order, determinant(IntMatrix(minor, cols=g)))
        total += order
    return total


@pytest.mark.parametrize("build", [pytest.param(b, id=label) for label, b in FAN_STACKS])
def test_exact_rank_matches_fan_count(build):
    data = build()
    inv = invariants(k0_presentation(data))
    assert inv.status == AbGroupInvariants.EXACT
    assert inv.invariants() == (_fan_rank(data), ())


def _grading(group, degrees, components):
    names = [f"x{i}" for i in range(len(degrees))]
    return make_stack_data(group, list(zip(names, degrees)), components)


# two small gradings whose K-group is Z x Z/3; the first has an incomplete
# fan, with the rays {x1} and {x2} as its only maximal cones
TORSION_STACKS = [
    ("Z2-torsion", lambda: _grading(
        FgAbelianGroup.canonical(2), [[1, -1], [3, -2], [1, 0], [0, -3]], [["x0"], ["x1", "x2"], ["x3"]])),
    ("ZxZ3-torsion", lambda: _grading(
        FgAbelianGroup.canonical(1, (3,)), [[3, 1], [3, 2], [2, 1], [1, 1]], [["x3"], ["x0", "x2"]])),
]


@pytest.mark.parametrize(
    "build, torsion",
    [pytest.param(b, (), id=label) for label, b in FAN_STACKS]
    + [pytest.param(b, (3,), id=label) for label, b in TORSION_STACKS],
)
def test_exact_invariants_match_fp_dimensions(build, torsion):
    # Z^r x Z/d1 x ... tensored with F_p has dimension r + #{i : p | di}
    pres = k0_presentation(build())
    inv = invariants(pres)
    assert inv.status == AbGroupInvariants.EXACT
    rank, factors = inv.invariants()
    assert factors == torsion
    divisors = {q for d in factors for q in range(2, d + 1) if d % q == 0}
    primes = {2, 3, 5} | {q for q in divisors if all(q % k for k in range(2, q))}
    for p in sorted(primes):
        expected = rank + sum(1 for d in factors if d % p == 0)
        assert fp_quotient_dimension(pres.generators, pres.basis.presentation, p) == expected, p


def test_induced_maps_rugby():
    for p, q in RUGBY_PAIRS:
        rugby = k0_presentation(builtin_example("rugby", (p, q)))
        target = k0_presentation(builtin_example("wps", (q, p)))
        phi = induced_map([[q], [p]], rugby.data, target)
        image = phi.push_element(rugby.generators[0])
        assert target.reduce(image).is_zero()
        G = target.group
        t = lambda n: GroupRingElement.monomial(G.element([n]))
        assert image == (1 - t(p)) * (1 - t(q))

        p1 = k0_presentation(builtin_example("p1"))
        psi = induced_map([[p, 0]], p1.data, rugby)
        w = GroupRingElement.monomial(p1.group.element([1]))
        sq = psi.push_element((1 - w) * (1 - w))
        assert rugby.reduce(sq).is_zero()


def test_induced_map_rejects_bad_matrix():
    rugby = k0_presentation(builtin_example("rugby", (2, 3)))
    p1 = k0_presentation(builtin_example("p1"))
    with pytest.raises(ValueError):
        induced_map([[1], [1]], rugby.data, p1)  # does not kill 2e - 3e'
    z_to_z = k0_presentation(builtin_example("wps", (1, 1)))
    with pytest.raises(ValueError):
        # 1 -> e alone does not carry the ideal into the rugby ideal
        induced_map([[1, 0]], z_to_z.data, rugby)


def test_pushforward_is_ring_map():
    rugby = k0_presentation(builtin_example("rugby", (2, 3)))
    wps = k0_presentation(builtin_example("wps", (3, 2)))
    phi = induced_map([[3], [2]], rugby.data, wps)
    rng = random.Random(23)
    G = rugby.group

    def rand_elem():
        out = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 3)):
            coords = [rng.randint(-2, 2), rng.randint(-2, 2)]
            out = out + GroupRingElement.monomial(G.element(coords), rng.randint(-3, 3))
        return out

    for _ in range(15):
        a, b = rand_elem(), rand_elem()
        assert phi.push_element(a + b) == phi.push_element(a) + phi.push_element(b)
        assert phi.push_element(a * b) == phi.push_element(a) * phi.push_element(b)


def test_push_refuses_an_element_of_another_group():
    # a Z/5 key has the length of a rugby(2,3) key; it must not be read as one
    phi = induced_map([[3], [2]], k0_presentation(builtin_example("rugby", (2, 3))).data,
                      k0_presentation(builtin_example("wps", (3, 2))))
    with pytest.raises(ValueError, match="different groups"):
        phi.push_element(GroupRingElement.monomial(FgAbelianGroup.canonical(0, (5,)).element([2])))


def test_induced_map_on_classes():
    # the README map rugby(2,3) -> wps(3,2), e -> 3, e' -> 2
    rugby = k0_presentation(builtin_example("rugby", (2, 3)))
    wps = k0_presentation(builtin_example("wps", (3, 2)))
    phi = induced_map([[3], [2]], rugby.data, wps)
    rng = random.Random(29)
    G = rugby.group
    g = rugby.generators[0]

    def rand_elem():
        out = GroupRingElement.zero(G)
        for _ in range(rng.randint(0, 3)):
            coords = [rng.randint(-2, 2), rng.randint(-2, 2)]
            out = out + GroupRingElement.monomial(G.element(coords), rng.randint(-3, 3))
        return out

    for _ in range(10):
        e, h = rand_elem(), rand_elem()
        a, b = K0Class(rugby, e), K0Class(rugby, e + h * g)
        # a class and a class differing by an ideal element push to one class
        assert phi(a).presentation is wps and phi(a) == phi(b)
        assert a - b == b - b
        # a nonzero constant moves the rank, so the classes differ
        c = K0Class(rugby, e + GroupRingElement.constant(G, rng.choice([-2, -1, 1, 2])))
        assert not a - c == c - c and not a == c
    with pytest.raises(ValueError):
        phi(K0Class(wps, GroupRingElement.one(wps.group)))
    other = k0_presentation(builtin_example("rugby", (2, 3)))
    with pytest.raises(ValueError):
        phi(K0Class(other, GroupRingElement.one(other.group)))


def _random_element(rng, G):
    out = GroupRingElement.zero(G)
    for _ in range(rng.randint(0, 3)):
        coords = [rng.randint(-2, 2) for _ in range(G.num_generators)]
        out = out + GroupRingElement.monomial(G.element(coords), rng.randint(-3, 3))
    return out


def _random_class(rng, pres):
    return K0Class(pres, _random_element(rng, pres.group))


def test_k0_agrees_with_connectify():
    # 300 seeded gradings: free rank 1-2, no torsion or Z/2 or Z/3, 1-4
    # variables (some inverted) and 1-2 components.  connectify adds a free
    # coordinate z, of degree 1 on every variable, and the component {z};
    # its ideal holds 1 - t^z, so forgetting z is an isomorphism of the two
    # quotient rings: the invariants agree, e_i -> (e_i, 0) and its inverse
    # (e_i, 0) -> e_i, z -> 0 are induced maps, and each undoes the other.
    # hypothesis_verified is the phase-one verdict of check_connected.
    rng = random.Random("k0/connectify")
    verified = exact_unverified = 0
    for _ in range(300):
        G = FgAbelianGroup.canonical(rng.choice((1, 2)), rng.choice(((), (2,), (3,))))
        r, g = G.free_rank, G.num_generators
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        variables = [(nm, [rng.randint(-2, 2) for _ in range(r)] + [rng.randrange(m) for m in G.torsion],
                      rng.random() < 0.25) for nm in names]
        comps = [rng.sample(names, rng.randint(1, len(names))) for _ in range(rng.randint(1, 2))]
        data = make_stack_data(G, variables, comps)
        pres, fixed = k0_presentation(data), k0_presentation(connectify(data))
        assert pres.hypothesis_verified == check_connected(data, bound=0).is_connected()
        verified += pres.hypothesis_verified
        got, want = invariants(pres), invariants(fixed)
        assert got.status == want.status, (G, variables, comps)
        if got.status == AbGroupInvariants.EXACT:
            assert got.invariants() == want.invariants(), (G, variables, comps)
            exact_unverified += not pres.hypothesis_verified
        up = induced_map([[int(i == j) for j in range(g + 1)] for i in range(g)], pres.data, fixed)
        down = induced_map([[int(i == j) for j in range(g)] for i in range(g + 1)], fixed.data, pres)
        for _ in range(3):
            c, c2 = _random_class(rng, pres), _random_class(rng, fixed)
            assert down(up(c)) == c and up(down(c2)) == c2
    assert 50 < verified < 250 and exact_unverified > 50


def _image_by_user_route(hom, e):
    """hom(e) the long way: a user representative of e, times hom.matrix,
    read back as a target element."""
    return hom.target.element(hom.matrix.apply_row(hom.source.user_representative(e)))


def _pushed_by_hom(hom, element):
    """The sum of c*t^hom(e) over the terms c*t^e of element, each exponent
    sent through user coordinates by _image_by_user_route."""
    G = hom.source
    r = G.free_rank
    out = GroupRingElement.zero(hom.target)
    for key, c in element.terms.items():
        image = _image_by_user_route(hom, GroupElement(G, key[:r], key[r:]))
        out = out + GroupRingElement.monomial(image, c)
    return out


def test_canonical_matrix_push_agrees_with_the_homomorphism():
    # push_element and GroupHomomorphism.__call__ send each key through one
    # matrix on canonical coordinates; the oracle goes through user coordinates
    rng = random.Random("push/hom")
    maps = [([[3], [2]], builtin_example("rugby", (2, 3)), builtin_example("wps", (3, 2)))]
    # Z x Z/m onto the same group written as Z/m x Z, through (1, 0) -> (1, 1)
    # and (0, 1) -> (1, 0): the target's degrees are the source's images, so
    # each source product lands on a target product
    for m in (2, 3, 4, 6):
        theta = [[1, 1], [1, 0]]
        G, H = FgAbelianGroup.canonical(1, (m,)), group_from_relations(2, [[m, 0]])
        names = [f"x{i}" for i in range(rng.randint(2, 4))]
        degrees = [[rng.randint(-3, 3), rng.randrange(m)] for _ in names]
        comps = [rng.sample(names, rng.randint(1, len(names))) for _ in range(2)]
        image = IntMatrix(theta)
        source = make_stack_data(G, list(zip(names, degrees)), comps)
        target = make_stack_data(H, [(nm, image.apply_row(d)) for nm, d in zip(names, degrees)], comps)
        # and back through the inverse, from a source whose from_canonical is not the identity
        maps += [(theta, source, target), ([[0, 1], [1, -1]], target, source)]
    # connectify's up and down maps on gradings drawn as in test_k0_agrees_with_connectify
    for _ in range(20):
        G = FgAbelianGroup.canonical(rng.choice((1, 2)), rng.choice(((), (2,), (3,))))
        r, g = G.free_rank, G.num_generators
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        variables = [(nm, [rng.randint(-2, 2) for _ in range(r)] + [rng.randrange(m) for m in G.torsion],
                      rng.random() < 0.25) for nm in names]
        comps = [rng.sample(names, rng.randint(1, len(names))) for _ in range(rng.randint(1, 2))]
        data = make_stack_data(G, variables, comps)
        fixed = connectify(data)
        maps.append(([[int(i == j) for j in range(g + 1)] for i in range(g)], data, fixed))
        maps.append(([[int(i == j) for j in range(g)] for i in range(g + 1)], fixed, data))
    for theta, source, target in maps:
        phi = induced_map(theta, source, k0_presentation(target))
        hom = GroupHomomorphism(source.group, target.group, theta)
        assert phi.images == tuple(_pushed_by_hom(hom, q) for q in phi.generators)
        for _ in range(5):
            e = _random_element(rng, source.group)
            assert phi.push_element(e) == _pushed_by_hom(hom, e), (theta, e.render())
            d = source.group.element([rng.randint(-4, 4) for _ in range(source.group.num_generators)])
            assert hom(d) == _image_by_user_route(hom, d), (theta, d)
