"""Sparse exact arithmetic in the integral group ring of an abelian group.

Elements are finite integer combinations of formal monomials t^a indexed by
canonical group elements.  Because exponents are canonicalized, monomial
identities of the group (for instance t^(pe) = t^(qe') in a presented group)
hold automatically at the element level.
"""

from __future__ import annotations

from .abelian import GroupElement


class GroupRingElement:
    """Finite map from canonical group elements to nonzero coefficients."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms):
        clean = {}
        for elem, coeff in terms.items():
            coeff = int(coeff)
            if coeff:
                group.require_same(elem.group)
                clean[elem] = coeff
        self.group = group
        self.terms = clean

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def one(cls, group):
        return cls(group, {group.zero(): 1})

    @classmethod
    def monomial(cls, exponent, coeff=1):
        """coeff * t^exponent for a GroupElement exponent."""
        return cls(exponent.group, {exponent: coeff})

    @classmethod
    def constant(cls, group, n):
        return cls(group, {group.zero(): n})

    def is_zero(self):
        return not self.terms

    def is_one(self):
        return self.terms == {self.group.zero(): 1}

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].key())

    def coefficient_sum(self):
        """Image under t^a -> 1 for every a."""
        return sum(self.terms.values())

    def support(self):
        return set(self.terms)

    def _coerce(self, other):
        if isinstance(other, GroupRingElement):
            self.group.require_same(other.group)
            return other
        if isinstance(other, int):
            return GroupRingElement.constant(self.group, other)
        if isinstance(other, GroupElement):
            return GroupRingElement.monomial(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for elem, coeff in other.terms.items():
            terms[elem] = terms.get(elem, 0) + coeff
        return GroupRingElement(self.group, terms)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement(self.group, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return GroupRingElement(self.group, {e: other * c for e, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = e1 + e2
                terms[key] = terms.get(key, 0) + c1 * c2
        return GroupRingElement(self.group, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not defined in the group ring")
        out = GroupRingElement.one(self.group)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, (int, GroupElement)):
            other = self._coerce(other)
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group.same_group(other.group) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset((e.key(), c) for e, c in self.terms.items()))

    def render(self):
        """Canonical text form: terms in exponent order, joined by ' + '/' - '.

        Monomials print as t^[a1,...,ar;c1,...,ck] with the torsion block
        omitted when the group has no torsion.
        """
        if not self.terms:
            return "0"
        pieces = []
        for i, (elem, coeff) in enumerate(self.sorted_terms()):
            mono = _render_monomial(elem)
            mag = abs(coeff)
            if mono is None:
                body = str(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{mag}*{mono}"
            if i == 0:
                pieces.append(body if coeff > 0 else f"-{body}")
            else:
                pieces.append(f" + {body}" if coeff > 0 else f" - {body}")
        return "".join(pieces)

    __str__ = render

    def __repr__(self):
        return f"<GroupRingElement {self.render()}>"


def _render_monomial(elem):
    """Bracket form of t^elem, or None for the identity monomial."""
    if elem.is_zero():
        return None
    free = ",".join(str(x) for x in elem.free)
    if elem.residues:
        tors = ",".join(str(x) for x in elem.residues)
        return f"t^[{free};{tors}]"
    return f"t^[{free}]"


def one_minus(exponent):
    """1 - t^exponent."""
    group = exponent.group
    return GroupRingElement.one(group) - GroupRingElement.monomial(exponent)


def one_minus_product(group, degrees):
    """Product of (1 - t^d) over the degrees d, multiplied in order; the
    empty product is 1."""
    out = GroupRingElement.one(group)
    for d in degrees:
        out = out * one_minus(d)
    return out


def component_product(data, m):
    """Product of (1 - t^deg(x)) over the variables of the m-th irrelevant
    component of ``data`` (1-based).  An index m outside 1..n raises
    IndexError.  Validated data has no empty component, but an empty one
    would give the empty product 1.
    """
    components = data.irrelevant
    if not 1 <= m <= len(components):
        raise IndexError(f"component index {m} out of range 1..{len(components)}")
    return one_minus_product(data.group, (data.variable(name).degree for name in components[m - 1]))
