"""Picard groups of validated stack data.

The Picard group is the grading group modulo the subgroup of degrees of
homogeneous units.  For this ring class the homogeneous units are scalars
times monomials in the inverted variables, so the unit subgroup is generated
by the inverted variables' degrees.  Removing the zero locus of one
homogeneous element of degree alpha further quotients by alpha.
"""

from __future__ import annotations

from .abelian import quotient_by_subgroup
from .stacks import check_pic_hypotheses


class PicResult:
    __slots__ = ("group", "projection", "units_subgroup_generators", "hypotheses", "certified")

    def __init__(self, group, projection, units_gens, hypotheses):
        self.group = group
        self.projection = projection
        self.units_subgroup_generators = tuple(units_gens)
        self.hypotheses = hypotheses
        self.certified = hypotheses.satisfied

    def invariants(self):
        return self.group.invariants()

    def __repr__(self):
        tag = "certified" if self.certified else "not certified"
        return f"PicResult({self.group.describe()}, {tag})"


def units_subgroup(data):
    """Degrees of the inverted variables; these generate the unit-degree
    subgroup for this ring class."""
    return [v.degree for v in data.variables if v.inverted]


def pic(data):
    """Picard group of the stack: grading group / unit degrees.

    Never refuses; ``certified`` is False when the hypothesis report fails.
    """
    units = units_subgroup(data)
    group, proj = quotient_by_subgroup(data.group, units)
    return PicResult(group, proj, units, check_pic_hypotheses(data))


def pic_open(data, alpha):
    """Picard group of the complement of the zero locus of one homogeneous
    element of degree alpha: grading group / (unit degrees, alpha)."""
    data.group.require_same(alpha.group)
    units = units_subgroup(data)
    group, proj = quotient_by_subgroup(data.group, units + [alpha])
    return PicResult(group, proj, units, check_pic_hypotheses(data))
