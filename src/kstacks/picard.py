"""Picard groups of validated stack data.

The Picard group is the grading group modulo the subgroup of degrees of
homogeneous units.  An inverted variable x is read as the component {x}
(see ``stacks.validate``), and on the open set left by removing V(x) the
variable x is a unit, so the unit subgroup is generated by the degrees of
the single-variable components.  Every other normalized component has at
least two variables, none of them a unit, so in the ring with those units
inverted (a factorial Laurent polynomial ring) the rest of the removed
locus has codimension at least two and the local cohomology along it
vanishes in degrees 0 and 1: the quotient is the Picard group of every
input.  Removing the zero locus of one homogeneous element of degree
alpha further quotients by alpha.  ``pic`` and ``pic_open`` return that
quotient group; its user generators are the grading group's canonical
coordinates, so the class of a degree d is ``pic(data).element(d.key())``.
"""

from .abelian import quotient_by_subgroup


def _unit_degrees(data):
    return [data.variable(c[0]).degree for c in data.irrelevant if len(c) == 1]


def pic(data):
    """Picard group of the stack: grading group / unit degrees."""
    return quotient_by_subgroup(data.group, _unit_degrees(data))


def pic_open(data, alpha):
    """Picard group of the complement of the zero locus of one homogeneous
    element of degree alpha: grading group / (unit degrees, alpha)."""
    return quotient_by_subgroup(data.group, _unit_degrees(data) + [alpha])
