import random
from math import gcd

import pytest

from kstacks.abelian import (
    FgAbelianGroup,
    GroupElement,
    GroupHomomorphism,
    IntMatrix,
    _with_free_coordinate,
    group_from_relations,
    quotient_by_subgroup,
    smith_normal_form,
)
from kstacks.groupring import GroupRingElement
from kstacks.stacks import stackdata_from_json

from conftest import check_smith_decomposition, reference_smith_normal_form


def test_snf_examples():
    assert smith_normal_form(IntMatrix([[4, -6]])).invariant_factors == (2,)
    assert smith_normal_form(IntMatrix.identity(2)).invariant_factors == (1, 1)
    assert smith_normal_form(IntMatrix([[2, 4], [6, 8]])).invariant_factors == (2, 4)


def test_snf_zero_and_empty():
    assert smith_normal_form(IntMatrix([[0, 0, 0], [0, 0, 0]])).invariant_factors == (0, 0)
    snf = smith_normal_form(IntMatrix([], cols=3))
    assert snf.invariant_factors == ()
    assert snf.V == IntMatrix.identity(3)


def test_snf_random_matrices():
    rng = random.Random(20260809)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        check_smith_decomposition(A, smith_normal_form(A))


def test_snf_deterministic():
    A = IntMatrix([[6, 4, -2], [0, 9, 3], [7, -5, 1]])
    s1 = smith_normal_form(A)
    s2 = smith_normal_form(A)
    assert (s1.V, s1.V_inv, s1.invariant_factors) == (s2.V, s2.V_inv, s2.invariant_factors)


def test_invariant_factors_permutation_invariant():
    rng = random.Random(7)
    for _ in range(25):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        rows = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        base = smith_normal_form(IntMatrix(rows)).invariant_factors
        perm_rows = rows[:]
        rng.shuffle(perm_rows)
        cols = list(range(n))
        rng.shuffle(cols)
        permuted = [[row[j] for j in cols] for row in perm_rows]
        assert smith_normal_form(IntMatrix(permuted)).invariant_factors == base


def test_group_from_relations_examples():
    G = group_from_relations(2, [[2, -4]])
    assert G.invariants() == (1, (2,))
    assert group_from_relations(3, IntMatrix([], cols=3)).invariants() == (3, ())
    assert group_from_relations(1, [[7]]).invariants() == (0, (7,))


def test_rugby_relation_matches_gcd():
    for p in range(1, 11):
        for q in range(1, 11):
            G = group_from_relations(2, [[p, -q]])
            g = gcd(p, q)
            expected = (1, ()) if g == 1 else (1, (g,))
            assert G.invariants() == expected
            # the defining relation itself dies in the group
            assert G.element([p, -q]).is_zero()


def test_canonicalize():
    G = FgAbelianGroup.canonical(0, (12,))
    e = GroupElement(G, (), (25,))
    assert e.residues == (1,)

    rugby = group_from_relations(2, [[2, -2]])
    assert rugby.invariants() == (1, (2,))
    assert rugby.element([2, 0]) == rugby.element([0, 2])
    assert rugby.element([1, 0]) != rugby.element([0, 1])

    Z2 = FgAbelianGroup.canonical(2)
    assert Z2.zero().is_zero()


def test_equal_matrices_hash_equal():
    a, b = IntMatrix([[1, 2], [3, 4]]), IntMatrix([[1, 2], [3, 4]])
    assert a is not b and a == b and hash(a) == hash(b)
    assert len({a, b, IntMatrix([[1, 2], [3, 5]])}) == 2


def test_element_arithmetic_and_canonical_roundtrip():
    rng = random.Random(11)
    G = group_from_relations(3, [[2, 0, -4], [0, 3, 3]])
    for _ in range(50):
        u = [rng.randint(-6, 6) for _ in range(3)]
        v = [rng.randint(-6, 6) for _ in range(3)]
        a, b = G.element(u), G.element(v)
        assert a + b == G.element([x + y for x, y in zip(u, v)])
        assert a - a == G.zero()
        assert 3 * a == a + a + a
        # from_canonical gives an actual representative
        assert G.element(G.user_representative(a)) == a


def test_canonicalize_compatible_with_addition():
    G = FgAbelianGroup.canonical(1, (2, 4))
    rng = random.Random(3)
    for _ in range(40):
        u = [rng.randint(-5, 5), rng.randint(-9, 9), rng.randint(-9, 9)]
        v = [rng.randint(-5, 5), rng.randint(-9, 9), rng.randint(-9, 9)]
        total = GroupElement(G, u[:1], u[1:]) + GroupElement(G, v[:1], v[1:])
        w = [x + y for x, y in zip(u, v)]
        assert total == GroupElement(G, w[:1], w[1:])
        assert all(0 <= x < m for x, m in zip(total.residues, G.torsion))


def test_quotient_examples():
    Z = FgAbelianGroup.canonical(1)
    Q = quotient_by_subgroup(Z, [Z.element([12])])
    assert Q.invariants() == (0, (12,))
    assert Q.element(Z.element([12]).key()).is_zero()
    assert not Q.element(Z.element([5]).key()).is_zero()

    Q7 = quotient_by_subgroup(Z, [Z.element([7])])
    assert Q7.invariants() == (0, (7,))

    Z2 = FgAbelianGroup.canonical(2)
    Q2 = quotient_by_subgroup(Z2, [Z2.element([1, 0])])
    assert Q2.invariants() == (1, ())


def test_quotient_edge_cases():
    G = group_from_relations(2, [[2, -4]])
    Q = quotient_by_subgroup(G, [])
    assert Q.invariants() == G.invariants()
    gens = [G.element([1, 0]), G.element([0, 1])]
    Q2 = quotient_by_subgroup(G, gens)
    assert Q2.invariants() == (0, ())
    assert Q2.element(G.element([3, 5]).key()).is_zero()


def test_homomorphism_checks_relations():
    rugby = group_from_relations(2, [[2, -3]])
    Z = FgAbelianGroup.canonical(1)
    # e -> 3, e' -> 2 respects 2e = 3e'
    phi = GroupHomomorphism(rugby, Z, [[3], [2]])
    assert phi(rugby.element([2, -3])).is_zero()
    assert phi(rugby.element([1, 0])) == Z.element([3])
    try:
        GroupHomomorphism(rugby, Z, [[1], [0]])
    except ValueError:
        pass
    else:
        raise AssertionError("ill-defined map was accepted")


def test_snf_huge_entries_exact():
    big = 2**100
    A = IntMatrix([[big, big + 6], [2 * big, 3 * big + 4]])
    snf = smith_normal_form(A)
    check_smith_decomposition(A, snf)
    assert snf.invariant_factors[0] == 2
    # quotient structure follows along exactly
    G = group_from_relations(2, [[big, big + 6]])
    assert G.free_rank == 1
    assert G.element([big, big + 6]).is_zero()


def test_describe():
    assert FgAbelianGroup.canonical(0).describe() == "0"
    assert FgAbelianGroup.canonical(1).describe() == "Z"
    assert FgAbelianGroup.canonical(2, (2, 4)).describe() == "Z^2 x Z/2 x Z/4"


def test_non_integers_are_type_errors():
    # int() used to truncate each of these silently
    Z = FgAbelianGroup.canonical(1)
    for make in (lambda: IntMatrix([[1.7, 2]]),
                 lambda: FgAbelianGroup.canonical(1.9),
                 lambda: FgAbelianGroup.canonical(1, (2.0,)),
                 lambda: group_from_relations(2.7, []),
                 lambda: group_from_relations(2, [[1, 0.5]]),
                 lambda: Z.element([1.5]),
                 # bool is an int subclass; True rendered as t^[True], which does not parse
                 lambda: IntMatrix([[True, False]]),
                 lambda: FgAbelianGroup.canonical(True),
                 lambda: FgAbelianGroup.canonical(1, (True,)),
                 lambda: Z.element([True]),
                 lambda: GroupElement(Z, (False,), ()),
                 lambda: GroupRingElement(Z, {(True,): 1})):
        with pytest.raises(TypeError):
            make()
    assert group_from_relations(2, [[2, 0]]).invariants() == (1, (2,))
    # canonical coordinates used to go through int() as well
    G = FgAbelianGroup.canonical(1, (3,))
    for free, residues in (((1.5,), (2,)), ((1,), (2.7,)), (("7",), (0,)), ((1,), ("2",))):
        with pytest.raises(TypeError, match="coordinates must be ints"):
            GroupElement(G, free, residues)
    assert GroupElement(G, (1,), (5,)).key() == (1, 2)


def test_torsion_factors_are_checked():
    # ">= 2" is tested before the chain, which would divide by a zero factor
    for torsion in ((0, 2), (1,), (-2, 4)):
        with pytest.raises(ValueError, match="torsion factors must be >= 2"):
            FgAbelianGroup.canonical(0, torsion)
    with pytest.raises(ValueError, match="divisibility chain"):
        FgAbelianGroup.canonical(0, (2, 3))
    with pytest.raises(ValueError, match="torsion factors must be >= 2"):
        stackdata_from_json({"grading_group": {"free_rank": 0, "torsion": [0, 2]}, "variables": []})
    assert FgAbelianGroup.canonical(0, (2, 6)).invariants() == (0, (2, 6))


def test_negative_column_count_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        IntMatrix([], cols=-2)
    with pytest.raises(ValueError, match="nonnegative"):
        IntMatrix.identity(-1)
    assert IntMatrix([], cols=0).cols == 0


def _seeded_matrices(rng, count):
    """0-5 x 1-5 matrices, about half the entries zero, the rest bounded by
    a per-matrix choice of 3, 30 or 10^6 so that pivot ties are common."""
    for _ in range(count):
        m, n = rng.randint(0, 5), rng.randint(1, 5)
        bound = rng.choice((3, 30, 10**6))
        yield IntMatrix(
            [[rng.randint(-bound, bound) if rng.random() < 0.5 else 0 for _ in range(n)]
             for _ in range(m)],
            cols=n,
        )
    big = 2**100
    for _ in range(20):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        yield IntMatrix([[rng.choice((0, rng.randint(-big, big))) for _ in range(n)]
                         for _ in range(m)], cols=n)


def test_snf_matches_reference_implementation():
    # V fixes every group's canonical coordinates, so the output must match
    # the reference operation for operation, not only up to equivalence
    rng = random.Random("quotient gens")
    for A in _seeded_matrices(random.Random(20261019), 2000):
        got, ref = smith_normal_form(A), reference_smith_normal_form(A)
        assert (got.V, got.V_inv, got.invariant_factors) == (ref.V, ref.V_inv, ref.invariant_factors), A
        g = A.cols
        diag = list(ref.invariant_factors) + [0] * (g - len(ref.invariant_factors))
        pick = [i for i in range(g) if diag[i] == 0] + [i for i in range(g) if diag[i] >= 2]
        G = group_from_relations(g, A)
        assert G.invariants() == (diag.count(0), tuple(d for d in diag if d >= 2))
        assert G.to_canonical == IntMatrix([[row[j] for j in pick] for row in ref.V.entries],
                                           cols=len(pick))
        assert G.from_canonical == IntMatrix([ref.V_inv.entries[i] for i in pick], cols=g)
        # quotient_by_subgroup, behind every Pic, presents G / <0-3 gens> on
        # G's canonical coordinates by G's torsion rows and then the gens
        gens = [GroupElement(G, [rng.randint(-9, 9) for _ in range(G.free_rank)],
                             [rng.randrange(m) for m in G.torsion]) for _ in range(rng.randint(0, 3))]
        Q = quotient_by_subgroup(G, gens)
        c = G.free_rank + len(G.torsion)
        rows = IntMatrix([[m if j == G.free_rank + i else 0 for j in range(c)] for i, m in enumerate(G.torsion)]
                         + [list(e.key()) for e in gens], cols=c)
        qref = reference_smith_normal_form(rows)
        qdiag = list(qref.invariant_factors) + [0] * (c - len(qref.invariant_factors))
        qpick = [i for i in range(c) if qdiag[i] == 0] + [i for i in range(c) if qdiag[i] >= 2]
        assert Q.invariants() == (qdiag.count(0), tuple(d for d in qdiag if d >= 2))
        assert Q.to_canonical == IntMatrix([[row[j] for j in qpick] for row in qref.V.entries],
                                           cols=len(qpick))
        assert Q.from_canonical == IntMatrix([qref.V_inv.entries[i] for i in qpick], cols=c)


def _relation_matrices(rng):
    """Relation matrices of the shapes a grading group is given by: empty,
    torsion-only (square, nonsingular), rugby-type [p, -q], with zero rows,
    and with entries up to 2^100."""
    for g in range(4):
        yield IntMatrix([], cols=g)
    yield IntMatrix([[]], cols=0)
    for _ in range(100):
        g = rng.randint(1, 4)
        while True:
            rows = [[rng.randint(-6, 6) for _ in range(g)] for _ in range(g)]
            if smith_normal_form(IntMatrix(rows)).invariant_factors[-1]:
                break
        yield IntMatrix(rows)
        yield IntMatrix([[m if j == i else 0 for j in range(g)] for i, m in enumerate(rng.sample(range(2, 9), g))])
        p, q = rng.randint(1, 12), rng.randint(1, 12)
        yield IntMatrix([[p, -q]])
        rows = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(g)] for _ in range(rng.randint(1, 4))]
        rows.insert(rng.randrange(len(rows) + 1), [0] * g)
        yield IntMatrix(rows)
        yield IntMatrix([[rng.choice((0, rng.randint(-2**100, 2**100))) for _ in range(g)]
                         for _ in range(rng.randint(1, 3))])


def test_free_coordinate_is_the_smith_form_of_the_extended_relations():
    # A Smith pass never touches a zero column, so G + Z with the new
    # coordinate last among the free ones is group_from_relations(g + 1, [R | 0])
    for R in _relation_matrices(random.Random("free coordinate")):
        g = R.cols
        got = _with_free_coordinate(group_from_relations(g, R))
        want = group_from_relations(g + 1, IntMatrix([list(row) + [0] for row in R.entries], cols=g + 1))
        assert (got.free_rank, got.torsion, got.num_generators, got.canonical_presentation) == \
            (want.free_rank, want.torsion, want.num_generators, want.canonical_presentation), R
        assert (got.to_canonical, got.from_canonical, got.relations) == \
            (want.to_canonical, want.from_canonical, want.relations), R


def test_relation_row_of_the_wrong_length():
    with pytest.raises(ValueError, match=r"relation row 0 has 3 entries, expected 2"):
        group_from_relations(2, [[1, 2, 3]])
    with pytest.raises(ValueError, match=r"relation row 1 has 1 entries, expected 2"):
        group_from_relations(2, [[1, 2], [4]])
    with pytest.raises(ValueError, match=r"relation rows have 3 entries, expected 2"):
        group_from_relations(2, IntMatrix([[1, 2, 3]]))
    # the lengths are checked before the entries
    with pytest.raises(ValueError, match=r"relation row 0 has 3 entries"):
        group_from_relations(2, [[1, 2.5, 3]])
    with pytest.raises(TypeError):
        group_from_relations(2, [[1, 2.5]])
