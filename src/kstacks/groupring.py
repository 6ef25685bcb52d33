"""Sparse exact arithmetic in the integral group ring of an abelian group.

Elements are finite integer combinations of formal monomials t^a.  Each
term is keyed by one flat int tuple, ``GroupElement.key()`` of its
exponent: the free coordinates, then the torsion residues in [0, m_i).
Products add keys and reduce the residues, so monomial identities of the
group (for instance t^(pe) = t^(qe') in a presented group) hold
automatically at the element level.  ``GroupElement`` appears only at the
boundary: ``monomial`` takes one, and ``_coerce``, the one reader of the
other operand of ``+``, ``-``, ``*`` and ``==``, reads a group element as
its monomial.  The operators and the expression parser share one set of
kernels on term dicts: ``_combine``, ``_product`` and ``_power``.
"""

from __future__ import annotations

import sys
from operator import add, mod

from .abelian import GroupElement, _require_ints

#: the most weight one product inside a power may have.  A term dict weighs
#: its number of terms times 1 + b // 1024, for b the bit length of its
#: largest coefficient, and a product the product of its factors' weights:
#: below 1024 bits a coefficient product costs no more than a few times the
#: bookkeeping of one term, and schoolbook multiplication grows with both
#: sizes.  (1 + t)^1000 squares 501 terms of under 1024 bits, 2^1000000 one
#: term of 500001 bits (weight 489); (1 + t)^2000 would square 1001 terms
POWER_BUDGET = 500_000


class GroupRingElement:
    """Finite map ``terms`` from exponent keys (flat tuples free +
    residues, see the module docstring) to nonzero integer coefficients.

    The constructor checks its terms: a key entry or coefficient that is not
    an int (a bool is not one) raises TypeError, and a key whose length is
    not r + k ValueError.
    It reduces the residues into [0, m_i) and adds up the coefficients of
    keys that then meet.  ``_of`` takes terms kstacks computed as given.
    """

    __slots__ = ("group", "terms")

    def __init__(self, group, terms):
        r, torsion = group.free_rank, group.torsion
        _require_ints(terms.values(), "coefficients")
        out = {}
        for key, c in terms.items():
            key = _require_ints(key, "key entries")
            if len(key) != r + len(torsion):
                raise ValueError(f"key {key} has {len(key)} entries; the group needs {r + len(torsion)}")
            key = key[:r] + tuple(map(mod, key[r:], torsion))
            out[key] = out.get(key, 0) + c
        self.group = group
        self.terms = {key: c for key, c in out.items() if c}

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

    @classmethod
    def _of(cls, group, terms):
        """Element over ``group`` of a term dict with no zero coefficients, taken as is."""
        e = object.__new__(cls)
        e.group = group
        e.terms = terms
        return e

    def _coerce(self, other):
        """The term dict of the operand ``other`` read over this group, or
        None for an unsupported type: an int is a constant and a group
        element its monomial.  An operand over another group raises
        ValueError."""
        if other.__class__ is GroupRingElement and other.group is self.group:
            return other.terms
        if isinstance(other, int):  # True too, which the checked constant() refuses
            group = self.group
            return {(0,) * (group.free_rank + len(group.torsion)): other} if other else {}
        if isinstance(other, GroupElement):
            other = GroupRingElement.monomial(other)
        elif not isinstance(other, GroupRingElement):
            return None
        self.group.require_same(other.group)
        return other.terms

    def __add__(self, other):
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        return GroupRingElement._of(self.group, _combine(self.terms, terms, 1))

    __radd__ = __add__

    def __neg__(self):
        return GroupRingElement._of(self.group, {key: -c for key, c in self.terms.items()})

    def __sub__(self, other):
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        return GroupRingElement._of(self.group, _combine(self.terms, terms, -1))

    def __rsub__(self, other):
        return -self + other

    def __mul__(self, other):
        group = self.group
        if isinstance(other, int):
            return GroupRingElement._of(group, {k: other * c for k, c in self.terms.items()} if other else {})
        terms = self._coerce(other)
        if terms is None:
            return NotImplemented
        return GroupRingElement._of(group, _product(self.terms, terms, group.free_rank, group.torsion))

    __rmul__ = __mul__

    def __pow__(self, n):
        group = self.group
        return GroupRingElement._of(group, _power(self.terms, n, group.free_rank, group.torsion))

    def __eq__(self, other):
        try:
            terms = self._coerce(other)
        except ValueError:  # an operand over another group
            return False
        return NotImplemented if terms is None else self.terms == terms

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
                body = _text(mag)
            elif mag == 1:
                body = mono
            else:
                body = f"{_text(mag)}*{mono}"
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
    free = ",".join(map(_text, key[:r]))
    if len(key) > r:
        tors = ",".join(map(str, key[r:]))
        return f"t^[{free};{tors}]"
    return f"t^[{free}]"


def _text(n):
    """str(n), or a ValueError naming the size of n past the interpreter's int-to-text limit."""
    try:
        return str(n)
    except ValueError:
        raise ValueError(f"an integer of about {int(n.bit_length() * 0.30103) + 1} digits exceeds the "
                         f"{sys.get_int_max_str_digits()}-digit limit on int-to-text conversion") from None


def _combine(a, b, sign):
    """Terms of a + sign * b, for term dicts with no zero coefficients and
    sign 1 or -1."""
    terms = dict(a)
    for key, c in b.items():
        c = terms.get(key, 0) + sign * c
        if c:
            terms[key] = c
        else:
            del terms[key]
    return terms


def _product(a, b, r, torsion):
    """Terms of the product of term dicts a and b over a group of free rank
    r and the given torsion: keys add, and the residues wrap."""
    terms = {}
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = tuple(map(add, k1, k2))
            if torsion:
                key = key[:r] + tuple(map(mod, key[r:], torsion))
            terms[key] = terms.get(key, 0) + c1 * c2
    return {key: c for key, c in terms.items() if c}


def _weight(terms):
    """Weight of a term dict in POWER_BUDGET's cost model."""
    return len(terms) * (1 + max(map(int.bit_length, terms.values()), default=0) // 1024)


def _power(a, n, r, torsion):
    """Terms of a**n for an int n >= 0, by square and multiply from the top
    bit in a loop, as n may have more bits than the recursion limit allows.
    A squaring or multiply step that weighs more than POWER_BUDGET raises
    ValueError before it runs."""
    if not isinstance(n, int):
        raise TypeError(f"powers must be ints, got {type(n).__name__}")
    if n < 0:
        raise ValueError("negative powers are not defined in the group ring")

    def step(x, y):
        weight = _weight(x) * _weight(y)
        if weight > POWER_BUDGET:
            raise ValueError(f"power ^{n}: a product of {len(x)} by {len(y)} terms weighs {weight}, "
                             f"more than POWER_BUDGET = {POWER_BUDGET}")
        return _product(x, y, r, torsion)

    out = {(0,) * (r + len(torsion)): 1}
    for bit in bin(n)[2:]:
        out = step(out, out)
        if bit == "1":
            out = step(out, a)
    return out


def one_minus(exponent):
    """1 - t^exponent."""
    return one_minus_product(exponent.group, [exponent])


def one_minus_product(group, degrees):
    """Product of (1 - t^d) over the degrees d, multiplied in order; the
    empty product is 1."""
    r, torsion = group.free_rank, group.torsion
    out = one = {(0,) * (r + len(torsion)): 1}
    for d in degrees:
        group.require_same(d.group)
        out = _product(out, _combine(one, {d.key(): 1}, -1), r, torsion)
    return GroupRingElement._of(group, out)


def component_product(data, m):
    """Product of (1 - t^deg(x)) over the variables of the m-th irrelevant
    component of ``data`` (1-based).  An index m outside 1..n raises
    IndexError.
    """
    components = data.irrelevant
    if not 1 <= m <= len(components):
        raise IndexError(f"component index {m} out of range 1..{len(components)}")
    return one_minus_product(data.group, (data.variable(name).degree for name in components[m - 1]))
