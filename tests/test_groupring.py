import random

import pytest

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.grobner import PolyPresentation, present, unpresent
from kstacks.groupring import GroupRingElement, one_minus


def laurent():
    return FgAbelianGroup.canonical(1)


def t(group, n=1):
    return GroupRingElement.monomial(group.element([n]))


def random_element(rng, group, nterms=3, span=4, coeff=5):
    out = GroupRingElement.zero(group)
    for _ in range(rng.randint(0, nterms)):
        coords = [rng.randint(-span, span) for _ in range(group.num_generators)]
        out = out + GroupRingElement.monomial(group.element(coords), rng.randint(-coeff, coeff))
    return out


def test_add_cancellation():
    Z = laurent()
    one = GroupRingElement.one(Z)
    a = one - t(Z)
    b = t(Z) - t(Z, 2)
    assert a + b == one - t(Z, 2)
    assert a + GroupRingElement.zero(Z) == a


def test_telescoping_identity():
    Z = laurent()
    for p in range(1, 13):
        total = GroupRingElement.zero(Z)
        for i in range(p):
            total = total + t(Z, i) * (1 - t(Z))
        assert total == 1 - t(Z, p)


def test_mul_basics():
    Z = laurent()
    assert (1 - t(Z)) * (1 + t(Z)) == 1 - t(Z, 2)
    C2 = FgAbelianGroup.canonical(0, (2,))
    s = GroupRingElement.monomial(C2.element_canonical((), (1,)))
    sq = (1 - s) * (1 - s)
    assert sq == 2 - 2 * s


def test_rugby_monomial_identity():
    for p, q in [(1, 1), (2, 3), (2, 2), (3, 4)]:
        G = group_from_relations(2, [[p, -q]])
        e = G.element([1, 0])
        ep = G.element([0, 1])
        assert GroupRingElement.monomial(p * e) == GroupRingElement.monomial(q * ep)
        # t^{pe} - t^{qe'} vanishes before any quotient is taken
        diff = GroupRingElement.monomial(p * e) - GroupRingElement.monomial(q * ep)
        assert diff.is_zero()
        G23 = group_from_relations(2, [[2, -3]])
        e, ep = G23.element([1, 0]), G23.element([0, 1])
        te = GroupRingElement.monomial(e)
        assert te ** 2 * te == GroupRingElement.monomial(3 * e)
        assert te ** 2 == GroupRingElement.monomial(3 * ep)


def test_ring_axioms_random():
    rng = random.Random(20260809)
    G = group_from_relations(2, [[2, -4]])
    for _ in range(40):
        a = random_element(rng, G)
        b = random_element(rng, G)
        c = random_element(rng, G)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_render_and_order():
    Z2 = FgAbelianGroup.canonical(2)
    u = GroupRingElement.monomial(Z2.element([1, 0]))
    v = GroupRingElement.monomial(Z2.element([0, 1]))
    assert (1 - v).render() == "1 - t^[0,1]"
    sq = (1 - u) * (1 - u)
    assert sq.render() == "1 - 2*t^[1,0] + t^[2,0]"
    mixed = FgAbelianGroup.canonical(1, (2,))
    s = GroupRingElement.monomial(mixed.element_canonical((0,), (1,)))
    w = GroupRingElement.monomial(mixed.element([1, 0]))
    assert (s * w - 3).render() == "-3 + t^[1;1]"
    assert GroupRingElement.zero(Z2).render() == "0"
    neg = GroupRingElement.monomial(Z2.element([-1, 0]))
    assert (1 - neg).render() == "-t^[-1,0] + 1"


def test_power_and_errors():
    Z = laurent()
    assert (1 + t(Z)) ** 0 == GroupRingElement.one(Z)
    assert (1 + t(Z)) ** 2 == 1 + 2 * t(Z) + t(Z, 2)
    try:
        (1 + t(Z)) ** -1
    except ValueError:
        pass
    else:
        raise AssertionError("negative power accepted")
    other = FgAbelianGroup.canonical(2)
    try:
        t(Z) + GroupRingElement.one(other)
    except ValueError:
        pass
    else:
        raise AssertionError("group mismatch accepted")


def test_one_minus_coefficient_sum():
    Z = laurent()
    assert one_minus(Z.element([3])).coefficient_sum() == 0
    assert GroupRingElement.one(Z).coefficient_sum() == 1


def _oracle_keys(pairs):
    """Term keys of a sum of (group element, coefficient) pairs, summed as
    group elements."""
    total = {}
    for e, c in pairs:
        total[e] = total.get(e, 0) + c
    return {e.key(): c for e, c in total.items() if c}


@pytest.mark.parametrize(
    "group",
    [
        FgAbelianGroup.canonical(0, (2, 4)),
        FgAbelianGroup.canonical(1, (2, 4)),
        FgAbelianGroup.canonical(2, (3,)),
        group_from_relations(2, [[4, -6]]),
    ],
    ids=["Z2xZ4", "ZxZ2xZ4", "Z2xZ3", "rel-4,-6"],
)
def test_tuple_keys_match_group_element_oracle(group):
    rng = random.Random(f"keys/{group.describe()}/{group.num_generators}")
    p = PolyPresentation.for_group(group)

    def draw():
        return [
            (group.element([rng.randint(-5, 5) for _ in range(group.num_generators)]), rng.randint(-3, 3))
            for _ in range(rng.randint(0, 4))
        ]

    def ring(pairs):
        out = GroupRingElement.zero(group)
        for e, c in pairs:
            out = out + GroupRingElement.monomial(e, c)
        return out

    for _ in range(40):
        u, v = draw(), draw()
        a, b = ring(u), ring(v)
        assert a.terms == _oracle_keys(u)
        assert (a + b).terms == _oracle_keys(u + v)
        assert (a * b).terms == _oracle_keys([(e + f, c * d) for e, c in u for f, d in v])
        assert unpresent(present(a, p), p).terms == _oracle_keys(u)
    other = FgAbelianGroup.canonical(group.free_rank + 1, group.torsion)
    with pytest.raises(ValueError):
        a + other.zero()
    with pytest.raises(ValueError):
        a * other.zero()
