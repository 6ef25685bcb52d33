import random

import pytest

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.exprs import ParseError, parse_element
from kstacks.groupring import GroupRingElement
from kstacks.stacks import builtin_example, example_symbols


def test_basic_parsing():
    Z = FgAbelianGroup.canonical(1)
    t = GroupRingElement.monomial(Z.element([1]))
    assert parse_element("1 - t^[1]", Z) == 1 - t
    assert parse_element("(1-t^[1])*(1+t^[1])", Z) == 1 - t * t
    assert parse_element("2*t^[3] - 5", Z) == 2 * t**3 - 5
    assert parse_element("-t^[-1] + 1", Z) == 1 - GroupRingElement.monomial(Z.element([-1]))
    assert parse_element("t^[2]^2", Z) == t**4
    assert parse_element("0", Z) == GroupRingElement.zero(Z)


def test_symbols_bound_per_example():
    data = builtin_example("rugby", (2, 3))
    syms = example_symbols("rugby", data)
    G = data.group
    t = GroupRingElement.monomial(G.element([1, 0]))
    s = GroupRingElement.monomial(G.element([0, 1]))
    assert parse_element("1 - t^3", G, syms) == 1 - t**3
    assert parse_element("(1-t)*(1+t+t^2)", G, syms) == (1 - t) * (1 + t + t**2)
    assert parse_element("s^3 - t^2", G, syms) == s**3 - t**2
    assert parse_element("e'", G, syms) == s
    # the defining relation makes these the same monomial
    assert parse_element("t^2", G, syms) == parse_element("s^3", G, syms)


def test_torsion_monomials():
    G = FgAbelianGroup.canonical(1, (2,))
    e = parse_element("t^[1;1]", G)
    assert e == GroupRingElement.monomial(G.element_canonical((1,), (1,)))
    assert parse_element("t^[0;1]^2", G) == GroupRingElement.one(G)
    with pytest.raises(ParseError):
        parse_element("t^[1]", G)  # missing torsion block


def test_parse_errors():
    Z = FgAbelianGroup.canonical(1)
    for bad in ["t^[1", "1 +", "(1", "u", "t^[a]", "t^-2", "2 ** 3", "t^[1,2]", "2²",
                "t^[١]", "t^[1_0]", "t^[²]", "t^[- 1]", "t^[+-1]"]:
        with pytest.raises(ParseError):
            parse_element(bad, Z)
    # exponents are ASCII integers with an optional sign; spaces around them stay allowed
    t = GroupRingElement.monomial(Z.element([1]))
    assert parse_element("t^[ +1 ]", Z) == parse_element("t^[1]", Z) == t
    assert parse_element("t^[ -10 ]", Z) == GroupRingElement.monomial(Z.element([-10]))
    G = FgAbelianGroup.canonical(1, (3,))
    with pytest.raises(ParseError):
        parse_element("t^[1;٢]", G)


def test_arbitrary_precision_literals():
    Z = FgAbelianGroup.canonical(1)
    big = 123456789012345678901234567890
    e = parse_element(f"{big}*t^[{2**70}]", Z)
    assert e == GroupRingElement.monomial(Z.element([2**70]), big)
    assert parse_element(e.render(), Z) == e


def test_render_parse_roundtrip():
    rng = random.Random(99)
    groups = [
        FgAbelianGroup.canonical(1),
        FgAbelianGroup.canonical(2),
        FgAbelianGroup.canonical(1, (2,)),
        group_from_relations(2, [[2, -4]]),
    ]
    for G in groups:
        for _ in range(40):
            e = GroupRingElement.zero(G)
            for _ in range(rng.randint(0, 5)):
                coords = [rng.randint(-4, 4) for _ in range(G.num_generators)]
                e = e + GroupRingElement.monomial(G.element(coords), rng.randint(-9, 9))
            text = e.render()
            assert parse_element(text, G) == e
