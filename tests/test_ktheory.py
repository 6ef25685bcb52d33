import itertools
import random
from math import gcd

import pytest

from kstacks.abelian import FgAbelianGroup, IntMatrix
from kstacks.groupring import GroupRingElement, one_minus
from kstacks.grobner import AbGroupInvariants
from kstacks.ktheory import (
    HypothesisError,
    class_of_coordinate_quotient,
    class_of_intersection,
    class_of_koszul_quotient,
    class_of_twist,
    equal_in_k0,
    induced_map,
    invariants,
    k0_presentation,
    K0Class,
)
from kstacks.stacks import builtin_example, connectify, make_stack_data

from conftest import brute_force_numerator, determinant, equal_up_to_unit

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


def test_cox_presentation_refused_without_override():
    data = builtin_example("blowup-a2-cox")
    with pytest.raises(HypothesisError):
        k0_presentation(data)
    pres = k0_presentation(data, override=True)
    assert not pres.hypothesis_verified
    assert pres.watermarks


def test_inverted_variables_refused():
    with pytest.raises(HypothesisError):
        k0_presentation(builtin_example("b-mu", (5,)), override=True)


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
    c1 = class_of_coordinate_quotient(pres, ["x1"])
    assert c1.representative == 1 - v
    assert c1.is_zero()
    c2 = class_of_coordinate_quotient(pres, ["t0"])
    assert c2.representative == 1 - u
    assert not c2.is_zero()
    assert class_of_coordinate_quotient(pres, []).representative == GroupRingElement.one(G)
    # every normalized component dies in the quotient
    for comp in data.irrelevant:
        assert class_of_coordinate_quotient(pres, comp).is_zero()


def test_intersection_classes():
    data = builtin_example("blowup-a2-hirzebruch")
    pres = k0_presentation(data)
    single = class_of_intersection(pres, [data.irrelevant[0]])
    same = class_of_coordinate_quotient(pres, data.irrelevant[0])
    assert single.representative == same.representative
    repeated = class_of_intersection(pres, [("t0", "t1"), ("t0", "t1")])
    assert repeated.representative == class_of_coordinate_quotient(pres, ("t0", "t1")).representative
    # the class of the full irrelevant locus vanishes
    full = class_of_intersection(pres, list(data.irrelevant))
    assert full.is_zero()


def test_intersection_disjoint_singletons():
    Z = FgAbelianGroup.canonical(1)
    data = make_stack_data(Z, [("a", [1], False), ("b", [2], False)], [["a", "b"]])
    pres = k0_presentation(data)
    t = lambda n: GroupRingElement.monomial(Z.element([n]))
    got = class_of_intersection(pres, [("a",), ("b",)])
    expected = (1 - t(1)) + (1 - t(2)) - (1 - t(1)) * (1 - t(2))
    assert got.representative == expected


def test_intersection_against_monomial_counting():
    # all pointed configurations with up to 3 variables, degrees in [-2, 2],
    # and one or two components, against the brute-force numerator
    checked = 0
    for nvars in (1, 2, 3):
        for degs in _degree_tuples(nvars):
            sign = 1 if all(d > 0 for d in degs) else -1
            if not (all(d > 0 for d in degs) or all(d < 0 for d in degs)):
                continue
            functional = sign
            Z = FgAbelianGroup.canonical(1)
            names = [f"v{i}" for i in range(nvars)]
            data = make_stack_data(
                Z, [(nm, [d], False) for nm, d in zip(names, degs)], [names]
            )
            pres = k0_presentation(data)
            subsets = _nonempty_subsets(names)
            configs = [[s] for s in subsets]
            configs += [[a, b] for i, a in enumerate(subsets) for b in subsets[i + 1:]]
            for comps in configs:
                cls = class_of_intersection(pres, comps)
                got = {
                    key[0]: c
                    for key, c in cls.representative.terms.items()
                    if functional * key[0] <= 8
                }
                index_comps = [
                    [names.index(nm) for nm in comp] for comp in comps
                ]
                want = brute_force_numerator(list(degs), index_comps, functional, 8)
                assert got == want, (degs, comps)
                checked += 1
    assert checked > 200


def _degree_tuples(nvars):
    import itertools

    return itertools.product(range(-2, 3), repeat=nvars)


def _nonempty_subsets(names):
    import itertools

    out = []
    for r in range(1, len(names) + 1):
        out.extend(itertools.combinations(names, r))
    return out


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


def test_induced_maps_rugby():
    for p, q in RUGBY_PAIRS:
        rugby = k0_presentation(builtin_example("rugby", (p, q)))
        target = k0_presentation(builtin_example("wps", (q, p)))
        phi = induced_map([[q], [p]], rugby, target)
        image = phi.push_element(rugby.generators[0])
        assert target.is_zero_class(image)
        G = target.group
        t = lambda n: GroupRingElement.monomial(G.element([n]))
        assert image == (1 - t(p)) * (1 - t(q))

        p1 = k0_presentation(builtin_example("p1"))
        psi = induced_map([[p, 0]], p1, rugby)
        w = GroupRingElement.monomial(p1.group.element([1]))
        sq = psi.push_element((1 - w) * (1 - w))
        assert rugby.is_zero_class(sq)


def test_induced_map_rejects_bad_matrix():
    rugby = k0_presentation(builtin_example("rugby", (2, 3)))
    p1 = k0_presentation(builtin_example("p1"))
    with pytest.raises(ValueError):
        induced_map([[1], [1]], rugby, p1)  # does not kill 2e - 3e'
    z_to_z = k0_presentation(builtin_example("wps", (1, 1)))
    with pytest.raises(ValueError):
        # 1 -> e alone does not carry the ideal into the rugby ideal
        induced_map([[1, 0]], z_to_z, rugby)


def test_pushforward_is_ring_map():
    rugby = k0_presentation(builtin_example("rugby", (2, 3)))
    wps = k0_presentation(builtin_example("wps", (3, 2)))
    phi = induced_map([[3], [2]], rugby, wps)
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
