import pytest

from kstacks.groupring import GroupRingElement, component_product
from kstacks.stacks import builtin_example


def test_blowup_components():
    data = builtin_example("blowup-a2-hirzebruch")
    G = data.group
    u = GroupRingElement.monomial(G.element([1, 0]))
    v = GroupRingElement.monomial(G.element([0, 1]))
    assert component_product(data, 1) == 1 - v
    assert component_product(data, 2) == (1 - u) * (1 - u)
    with pytest.raises(IndexError):
        component_product(data, 3)
    with pytest.raises(IndexError):
        component_product(data, 0)


def test_coefficient_sum_vanishes_on_nonempty_components():
    for name, params in [
        ("blowup-a2-hirzebruch", ()),
        ("wps", (4, 6)),
        ("rugby", (2, 2)),
    ]:
        data = builtin_example(name, params)
        for m in range(1, len(data.irrelevant) + 1):
            assert component_product(data, m).coefficient_sum() == 0

