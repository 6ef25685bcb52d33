"""Sparse exact arithmetic in the integral group ring of an abelian group.

Elements are finite integer combinations of formal monomials t^a.  Each
term is keyed by one flat int tuple, ``GroupElement.key()`` of its
exponent: the free coordinates, then the torsion residues in [0, m_i).
Products add keys and reduce the residues, so monomial identities of the
group (for instance t^(pe) = t^(qe') in a presented group) hold
automatically at the element level.  ``GroupElement`` appears only at the
boundary: ``monomial`` takes one, and a group element operand is read as
its monomial.
"""

from __future__ import annotations

from operator import add, mod

from .abelian import GroupElement


class GroupRingElement:
    """Finite map ``terms`` from exponent keys (flat tuples free +
    residues, see the module docstring) to nonzero integer coefficients."""

    __slots__ = ("group", "terms")

    def __init__(self, group, terms):
        self.group = group
        self.terms = {key: c for key, c in terms.items() if c}

    @classmethod
    def zero(cls, group):
        return cls(group, {})

    @classmethod
    def one(cls, group):
        return cls.constant(group, 1)

    @classmethod
    def monomial(cls, exponent, coeff=1):
        """coeff * t^exponent for a GroupElement exponent."""
        return cls(exponent.group, {exponent.key(): coeff})

    @classmethod
    def constant(cls, group, n):
        return cls(group, {(0,) * (group.free_rank + len(group.torsion)): n})

    def is_zero(self):
        return not self.terms

    def coefficient_sum(self):
        """Image under t^a -> 1 for every a."""
        return sum(self.terms.values())

    def _coerce(self, other):
        """``other`` as a ring element over the same group, or None for an
        unsupported type; an int is a constant, a group element its
        monomial, and another group raises ValueError."""
        if isinstance(other, int):
            return GroupRingElement.constant(self.group, other)
        if isinstance(other, GroupElement):
            other = GroupRingElement.monomial(other)
        elif not isinstance(other, GroupRingElement):
            return None
        self.group.require_same(other.group)
        return other

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        terms = dict(self.terms)
        for key, coeff in other.terms.items():
            terms[key] = terms.get(key, 0) + coeff
        return GroupRingElement(self.group, terms)

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement(self.group, {key: -c for key, c in self.terms.items()})

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
            return GroupRingElement(self.group, {key: other * c for key, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        r, torsion = self.group.free_rank, self.group.torsion
        terms = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                key = tuple(map(add, k1, k2))
                if torsion:
                    key = key[:r] + tuple(map(mod, key[r:], torsion))
                terms[key] = terms.get(key, 0) + c1 * c2
        return GroupRingElement(self.group, terms)

    __rmul__ = __mul__

    def __pow__(self, n):
        n = int(n)
        if n < 0:
            raise ValueError("negative powers are not defined in the group ring")
        # square and multiply from the top bit, in a loop: the exponent may
        # have more bits than the recursion limit allows frames
        out = GroupRingElement.one(self.group)
        for bit in bin(n)[2:]:
            out = out * out
            if bit == "1":
                out = out * self
        return out

    def __eq__(self, other):
        if isinstance(other, int):
            other = GroupRingElement.constant(self.group, other)
        elif isinstance(other, GroupElement):
            other = GroupRingElement.monomial(other)
        elif not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.group.same_group(other.group) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def render(self):
        """Canonical text form: terms in key order, joined by ' + '/' - '.

        Monomials print as t^[a1,...,ar;c1,...,ck] with the torsion block
        omitted when the group has no torsion.
        """
        if not self.terms:
            return "0"
        r = self.group.free_rank
        pieces = []
        for i, (key, coeff) in enumerate(sorted(self.terms.items())):
            mono = _render_monomial(key, r)
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


def _render_monomial(key, r):
    """Bracket form of the monomial with key ``key`` over a group of free
    rank r, or None for the identity monomial."""
    if not any(key):
        return None
    free = ",".join(map(str, key[:r]))
    if len(key) > r:
        tors = ",".join(map(str, key[r:]))
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
    IndexError.
    """
    components = data.irrelevant
    if not 1 <= m <= len(components):
        raise IndexError(f"component index {m} out of range 1..{len(components)}")
    return one_minus_product(data.group, (data.variable(name).degree for name in components[m - 1]))
