import random
from math import gcd

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.picard import pic, pic_open
from kstacks.stacks import builtin_example, make_stack_data

from conftest import determinantal_invariants


def test_pic_weighted_projective():
    for weights in [(1, 1), (4, 6), (2, 3, 5), (1, 2, 3, 4)]:
        result = pic(builtin_example("wps", weights))
        assert result.invariants() == (1, ())


def test_pic_classifying_stacks():
    for q in range(1, 13):
        result = pic(builtin_example("b-mu", (q,)))
        expected = (0, ()) if q == 1 else (0, (q,))
        assert result.invariants() == expected


def test_pic_rugby():
    for p, q in [(1, 1), (2, 3), (2, 2), (3, 4), (4, 6)]:
        result = pic(builtin_example("rugby", (p, q)))
        g = gcd(p, q)
        expected = (1, ()) if g == 1 else (1, (g,))
        assert result.invariants() == expected


def test_pic_single_variable_components():
    # wps(3) is the classifying stack of mu_3: removing V(x0) makes x0 a unit
    result = pic(builtin_example("wps", (3,)))
    assert result.invariants() == (0, (3,))
    assert [u.free for u in result.units_subgroup_generators] == [(3,)]
    # the same blowup of the affine plane in both gradings
    assert pic(builtin_example("blowup-a2-hirzebruch")).invariants() == (1, ())
    assert pic(builtin_example("blowup-a2-cox")).invariants() == (1, ())


def test_pic_open_moduli_point():
    data = builtin_example("wps", (4, 6))
    result = pic_open(data, data.group.element([12]))
    assert result.invariants() == (0, (12,))


def test_pic_open_edges():
    data = builtin_example("wps", (4, 6))
    unchanged = pic_open(data, data.group.zero())
    assert unchanged.invariants() == pic(data).invariants()
    p1 = builtin_example("p1")
    trivial = pic_open(p1, p1.group.element([1]))
    assert trivial.invariants() == (0, ())


def test_pic_projection_map():
    data = builtin_example("b-mu", (6,))
    result = pic(data)
    proj = result.projection
    x_deg = data.variables[0].degree
    assert proj(x_deg).is_zero()
    assert not proj(data.group.element([1])).is_zero()


def test_pic_invariant_under_renaming_and_permutation():
    Z = FgAbelianGroup.canonical(1)
    base = make_stack_data(
        Z,
        [("a", [2], False), ("b", [3], False), ("c", [5], True)],
        [["a", "b"]],
    )
    renamed = make_stack_data(
        Z,
        [("p", [2], False), ("q", [3], False), ("r", [5], True)],
        [["q", "p"]],
    )
    assert pic(base).invariants() == pic(renamed).invariants()

    two_comp = make_stack_data(
        Z,
        [("a", [1], False), ("b", [1], False), ("c", [2], False), ("d", [2], False)],
        [["a", "b"], ["c", "d"]],
    )
    swapped = make_stack_data(
        Z,
        [("a", [1], False), ("b", [1], False), ("c", [2], False), ("d", [2], False)],
        [["c", "d"], ["a", "b"]],
    )
    assert pic(two_comp).invariants() == pic(swapped).invariants()


def test_pic_independent_of_non_inverted_variables():
    Z = FgAbelianGroup.canonical(1)
    small = make_stack_data(Z, [("y", [4], True)], [])
    bigger = make_stack_data(
        Z, [("y", [4], True), ("x1", [7], False), ("x2", [-3], False)], []
    )
    assert pic(small).invariants() == pic(bigger).invariants()


def test_pic_matches_determinantal_oracle():
    # the quotient presented on the user generators, with invariants from
    # gcds of minors, so no Smith form of kstacks enters the expectation
    rng = random.Random(20260809)
    for trial in range(60):
        if trial % 3 == 2:
            # relations such as rugby p q with gcd > 1: to_canonical is not the identity
            g = rng.randint(2, 3)
            rels = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(rng.randint(1, 2))]
            if trial % 2:
                p, q = rng.choice([(2, 2), (2, 4), (4, 6), (3, 9), (6, 4)])
                g, rels = 2, [[p, -q]]
            G = group_from_relations(g, rels)
        else:
            G = FgAbelianGroup.canonical(rng.randint(1, 2), rng.choice([(), (2,), (3,), (2, 4)]))
        g = G.num_generators
        variables = [(f"u{i}", [rng.randint(-6, 6) for _ in range(g)], True)
                     for i in range(rng.randint(0, 2))]
        variables.append(("x", [rng.randint(-6, 6) for _ in range(g)], False))
        alpha_vec = [rng.randint(-6, 6) for _ in range(g)]
        data = make_stack_data(G, variables, [])

        rows = [list(r) for r in G.relations.entries]
        rows += [list(vec) for _, vec, inv in variables if inv]
        assert pic(data).invariants() == determinantal_invariants(g, rows)
        result = pic_open(data, G.element(alpha_vec))
        assert result.invariants() == determinantal_invariants(g, rows + [alpha_vec])
        assert result.projection(G.element(alpha_vec)).is_zero()
