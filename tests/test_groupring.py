import random
import time

import pytest

from kstacks.abelian import FgAbelianGroup, GroupElement, group_from_relations
from kstacks.exprs import ParseError, parse_element
from kstacks.grobner import PolyPresentation
from kstacks.groupring import POWER_BUDGET, GroupRingElement, one_minus, one_minus_product


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
    s = GroupRingElement.monomial(GroupElement(C2, (), (1,)))
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
    s = GroupRingElement.monomial(GroupElement(mixed, (0,), (1,)))
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
    # large exponents parse by square and multiply, not n products
    for text, expected in (
        ("2^1000000", GroupRingElement.constant(Z, 2**1000000)),
        ("t^[1]^100000000", t(Z, 100000000)),
    ):
        started = time.perf_counter()
        assert parse_element(text, Z) == expected
        assert time.perf_counter() - started < 1.0, text
    # the square-and-multiply loop is iterative: a 400-digit exponent does
    # not exhaust the stack
    N = 10**400 + 1
    assert parse_element(f"1^{N}", Z) == 1
    assert list(parse_element(f"t^[1]^{N}", Z).terms.items()) == [((N,), 1)]
    rng = random.Random(1012)
    for group in (Z, FgAbelianGroup.canonical(1, (3,)), FgAbelianGroup.canonical(2)):
        for _ in range(10):
            x = random_element(rng, group)
            product = GroupRingElement.one(group)
            for n in range(13):
                assert x**n == product, (x, n)
                product = product * x
    other = FgAbelianGroup.canonical(2)
    try:
        t(Z) + GroupRingElement.one(other)
    except ValueError:
        pass
    else:
        raise AssertionError("group mismatch accepted")
    # an element equals ints and group elements, which hash otherwise, so it
    # is unhashable
    assert GroupRingElement.constant(Z, 3) == 3 and t(Z) == Z.element([1])
    with pytest.raises(TypeError):
        hash(GroupRingElement.constant(Z, 3))


def test_power_budget():
    # a squaring that weighs more than POWER_BUDGET is refused before it
    # runs: (1 + t)^4000 took 25 s; (1 + t)^1000 and single terms pass
    Z = laurent()
    assert len(parse_element("(1+t^[1])^1000", Z).terms) == 1001
    wide = "(" + " + ".join(f"t^[{i}]" for i in range(801)) + ")"
    for text in ("(1+t^[1])^4000", wide + "^2"):
        started = time.perf_counter()
        with pytest.raises(ParseError, match="POWER_BUDGET"):
            parse_element(text, Z)
        assert time.perf_counter() - started < 5.0, text
    with pytest.raises(ValueError, match="POWER_BUDGET"):
        parse_element(wide, Z) ** 2
    assert 801**2 > POWER_BUDGET >= 501**2
    # every product is budgeted by its term pairs: a plain multiply, and the
    # 19th binomial of a product of 1 - t^(2^i), which would double 2^18 terms
    with pytest.raises(ValueError, match="a product of 801 by 801 terms weighs 641601, more than POWER_BUDGET"):
        parse_element(wide, Z) * parse_element(wide, Z)
    started = time.perf_counter()
    with pytest.raises(ValueError, match="a product of 262144 by 2 terms"):
        one_minus_product(Z, [Z.element([2**i]) for i in range(30)])
    assert time.perf_counter() - started < 5.0


def test_power_budget_weighs_coefficients():
    # coefficients count by size: (2^10000 (1 + t))^300 did not finish in
    # 20 s; a multiply step is budgeted like a squaring; powers with small
    # results stay allowed
    Z = laurent()
    for text, product in (("(2^10000*(1+t^[1]))^300", "10 by 10 terms"),
                          ("(" + " + ".join(f"t^[{i}]" for i in range(600)) + ")^3", "1199 by 600 terms")):
        started = time.perf_counter()
        with pytest.raises(ParseError, match=f"a product of {product} .*POWER_BUDGET"):
            parse_element(text, Z)
        assert time.perf_counter() - started < 1.0, text
    assert parse_element("2^1000000", Z) == 2**1000000
    assert parse_element("t^[1]^100000000", Z) == t(Z, 100000000)
    assert parse_element("(2^10000*(1+t^[1]))^4", Z) == 2**40000 * (1 + t(Z)) ** 4


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
        assert p._decode(p._encode(a)) == _oracle_keys(u)
    other = FgAbelianGroup.canonical(group.free_rank + 1, group.torsion)
    with pytest.raises(ValueError):
        a + other.zero()
    with pytest.raises(ValueError):
        a * other.zero()


def test_non_integers_are_rejected():
    # a float exponent, scalar or coordinate used to be truncated by int()
    Z = laurent()
    with pytest.raises(TypeError):
        t(Z) ** 2.5
    with pytest.raises(TypeError):
        Z.element([3]) * 2.5
    with pytest.raises(TypeError):
        2.5 * Z.element([3])
    with pytest.raises(TypeError):
        Z.element([1.5])
    with pytest.raises(TypeError):
        t(Z) * 2.5
    # a float key entry died inside the packed encoding
    with pytest.raises(TypeError, match="key entries must be ints"):
        GroupRingElement(Z, {(1.0,): 1})
    with pytest.raises(TypeError, match="coefficients must be ints"):
        GroupRingElement(Z, {(1,): 1.5})
    with pytest.raises(TypeError, match="coefficients must be ints"):
        GroupRingElement.constant(Z, 2.5)
    assert Z.element([3]) * 2 == Z.element([6])
    assert t(Z) ** True == t(Z)


def test_constructor_rejects_a_key_of_the_wrong_length():
    # over Z, (1, 7) rendered t^[1;7] and reduced like t^[1]
    with pytest.raises(ValueError, match="2 entries; the group needs 1"):
        GroupRingElement(laurent(), {(1, 7): 1})
    with pytest.raises(ValueError, match="0 entries; the group needs 2"):
        GroupRingElement(FgAbelianGroup.canonical(1, (3,)), {(): 1})


def test_constructor_reduces_residues():
    G = FgAbelianGroup.canonical(1, (3,))
    assert GroupRingElement(G, {(0, 5): 1}) == GroupRingElement(G, {(0, 2): 1})
    assert GroupRingElement(G, {(1, 5): 1, (1, -1): 2}).terms == {(1, 2): 3}
    assert GroupRingElement(G, {(1, 5): 1, (1, 2): -1}).is_zero()
    assert GroupRingElement(G, {(-4, 3): 1}).render() == "t^[-4;0]"


@pytest.mark.parametrize(
    "build_a, build_b",
    [(lambda: group_from_relations(2, [[2, -3]]), lambda: group_from_relations(2, [[2, -3]])),
     (lambda: FgAbelianGroup.canonical(1), lambda: group_from_relations(1, []))],
    ids=["relations-twice", "canonical-and-relations"],
)
def test_equal_groups_built_apart_share_their_ring(build_a, build_b):
    A, B = build_a(), build_b()
    assert A is not B and A == B and hash(A) == hash(B)
    a, b = parse_element("1 + t^[1]", A), parse_element("2 - t^[-1]", B)
    assert a + b == parse_element("3 + t^[1] - t^[-1]", A)
    assert a - b == parse_element("-1 + t^[1] + t^[-1]", A)
    assert a * b == b * a == parse_element("1 + 2*t^[1] - t^[-1]", B)


def test_group_elements_are_monomials_in_arithmetic():
    G = laurent()
    e = parse_element("1 + t^[1]", G)
    assert e + G.element([2]) == e + parse_element("t^[2]", G)
    assert e * G.element([2]) == e * parse_element("t^[2]", G)
    assert parse_element("t^[2]", G) == G.element([2]) != parse_element("t^[2]", G) + 1
    # another type is unequal, not an error, and so is an element over another group
    assert e != "1 + t^[1]" and GroupRingElement.one(G) != GroupRingElement.one(FgAbelianGroup.canonical(2))
