"""K-group presentations of validated stack data and the class calculus.

The presentation is the group ring of the grading group modulo one product
generator per irrelevant component.  Classes of sheaves are group-ring
elements; equality of classes is decided by reducing the difference to its
normal form.  Group homomorphisms between grading groups induce maps between
presentations once each source generator is checked to land in the target
ideal.
"""

from __future__ import annotations

from operator import sub

from .abelian import GroupHomomorphism, IntMatrix
from .groupring import GroupRingElement, _combine, component_product, one_minus_product
from .grobner import PolyPresentation, normal_form, strong_groebner, zmodule_invariants
from .stacks import check_connected


class HypothesisError(RuntimeError):
    """The K-group formula does not apply to the given data (and no override)."""


class K0Presentation:
    __slots__ = ("data", "group", "generators", "presentation", "basis", "connectedness")

    def __init__(self, data, generators, presentation, basis, connectedness):
        self.data = data
        self.group = data.group
        self.generators = tuple(generators)
        self.presentation = presentation
        self.basis = basis
        self.connectedness = connectedness

    @property
    def hypothesis_verified(self):
        return self.connectedness.is_connected()

    @property
    def watermarks(self):
        """Warnings that every result built on this presentation carries."""
        if self.hypothesis_verified:
            return ()
        return (
            f"hypothesis not verified (connectedness verdict: {self.connectedness.verdict}); "
            "the presentation formula may not compute the K-group of this stack",
        )

    def __repr__(self):
        return f"K0Presentation({self.data.label or 'unlabeled'}, {len(self.generators)} generators)"

    def reduce(self, element):
        """Canonical reduced representative of a group-ring element's class:
        its normal form over the strong basis, the same for two elements of
        one class, and equal to the input modulo the ideal."""
        return normal_form(element, self.basis)

    def is_zero_class(self, element):
        return normal_form(element, self.basis).is_zero()

    def class_of(self, element):
        return K0Class(self, element)


def _centred(q):
    """q times the unit t^(-c), where c_i = floor((min_i + max_i)/2) over
    the i-th free coordinate of q's keys; residues and a zero q stay."""
    r = q.group.free_rank
    c = [(min(col) + max(col)) // 2 for col in zip(*q.terms)][:r]
    return GroupRingElement._of(q.group, {tuple(map(sub, key[:r], c)) + key[r:]: a for key, a in q.terms.items()})


def k0_presentation(data, override=False, bound=None):
    """Build the K-group presentation of validated stack data.

    Refuses when the ring has inverted variables (the product formula is
    derived for polynomial rings) and, without ``override``, when the
    degree-zero hypothesis is not verified; an override labels everything
    downstream as unverified.

    ``generators`` keeps the component products q as the formula gives
    them, but completion starts from their centred multiples t^(-c)*q
    (``_centred``): on wps q has degree sum(w) in y, t^(-c)*q about half
    of it in y and in y', and completion pops far fewer pairs.  The ideal
    is the same, as t^(-c) is a unit of the group ring and yi*yi' - 1 lies
    in every ideal, and the reduced strong basis of an ideal is unique, so
    the basis, normal forms and invariants do not change.
    """
    if data.has_inverted():
        raise HypothesisError(
            "the K-group presentation needs a polynomial coordinate ring; "
            "inverted variables are not covered by the product formula"
        )
    report = check_connected(data, bound=bound)
    if not report.is_connected() and not override:
        raise HypothesisError(
            f"degree-zero hypothesis not verified (verdict: {report.verdict}); "
            "rerun with an explicit override to compute anyway"
        )
    generators = [component_product(data, m) for m in range(1, len(data.irrelevant) + 1)]
    presentation = PolyPresentation.for_group(data.group)
    basis = strong_groebner([_centred(q) for q in generators], presentation)
    return K0Presentation(data, generators, presentation, basis, report)


class K0Class:
    """A class in the K-group, carried by a group-ring representative."""

    __slots__ = ("presentation", "representative")

    def __init__(self, presentation, representative):
        presentation.group.require_same(representative.group)
        self.presentation = presentation
        self.representative = representative

    def normal_form(self):
        return self.presentation.reduce(self.representative)

    def is_zero(self):
        return self.presentation.is_zero_class(self.representative)

    def _check_same(self, other):
        if self.presentation is not other.presentation:
            raise ValueError("classes live in different presentations")

    def __add__(self, other):
        if not isinstance(other, K0Class):
            return NotImplemented
        self._check_same(other)
        return K0Class(self.presentation, self.representative + other.representative)

    def __sub__(self, other):
        if not isinstance(other, K0Class):
            return NotImplemented
        self._check_same(other)
        return K0Class(self.presentation, self.representative - other.representative)

    def __mul__(self, other):
        if isinstance(other, int):
            return K0Class(self.presentation, other * self.representative)
        if not isinstance(other, K0Class):
            return NotImplemented
        self._check_same(other)
        return K0Class(self.presentation, self.representative * other.representative)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, K0Class):
            return NotImplemented
        return equal_in_k0(self, other)

    def __repr__(self):
        return f"K0Class({self.representative.render()})"


def equal_in_k0(a, b):
    """Whether two classes agree in the quotient, that is, whether their
    reduced forms are equal: the difference has normal form zero."""
    a._check_same(b)
    return a.presentation.is_zero_class(a.representative - b.representative)


def class_of_twist(pres, alpha):
    """Class of the structure sheaf twisted by alpha: representative
    t^(-alpha)."""
    return K0Class(pres, GroupRingElement.monomial(-alpha))


def class_of_koszul_quotient(pres, degrees):
    """Class of the quotient by a homogeneous regular sequence with the given
    degrees (regularity is the caller's assertion): product of 1 - t^deg."""
    return K0Class(pres, one_minus_product(pres.group, degrees))


def class_of_coordinate_quotient(pres, names):
    """Class of the quotient by the coordinate ideal of the named variables."""
    return class_of_koszul_quotient(pres, [pres.data.variable(name).degree for name in names])


def class_of_intersection(pres, components):
    """Class of the quotient by an intersection of coordinate ideals,
    by inclusion-exclusion over the nonempty subcollections."""
    components = [tuple(c) for c in components]
    if not components:
        raise ValueError("need at least one component")
    total = {}
    for mask in range(1, 1 << len(components)):
        chosen = [c for i, c in enumerate(components) if mask >> i & 1]
        degrees = (pres.data.variable(name).degree for name in sorted(set().union(*chosen)))
        total = _combine(total, one_minus_product(pres.group, degrees).terms, (-1) ** (len(chosen) + 1))
    return K0Class(pres, GroupRingElement._of(pres.group, total))


def invariants(pres):
    """Abelian-group invariants of the K-group presentation.

    The status is certified by checking the presentation's strong Groebner
    basis with Buchberger's criterion (see ``zmodule_invariants``)."""
    return zmodule_invariants(pres.basis)


class InducedK0Map:
    """Pushforward of classes along a grading-group homomorphism.

    Exponents are mapped through the homomorphism.  Construction pushes
    every source ideal generator once and keeps the results, in order, as
    ``images``; ``induced_map`` checks that each lands in the target ideal.
    """

    __slots__ = ("source", "target", "hom", "images")

    def __init__(self, source, target, hom):
        self.source = source
        self.target = target
        self.hom = hom
        self.images = tuple(self.push_element(q) for q in source.generators)

    def push_element(self, element):
        source = self.source.group
        r = source.free_rank
        terms = {}
        for key, coeff in element.terms.items():
            image = self.hom(source.element_canonical(key[:r], key[r:])).key()
            terms[image] = terms.get(image, 0) + coeff
        return GroupRingElement(self.target.group, terms)

    def __call__(self, cls):
        if cls.presentation is not self.source:
            raise ValueError("class does not live in the source presentation")
        return K0Class(self.target, self.push_element(cls.representative))


def induced_map(theta, source, target):
    """Checked pushforward between two presentations.

    ``theta`` is an integer matrix on user generators (row i is the image of
    the i-th source generator in target user coordinates).  Raises ValueError
    if the matrix does not kill a source relation, or if the image of some
    source ideal generator has nonzero normal form in the target.
    """
    if not isinstance(theta, IntMatrix):
        theta = IntMatrix(theta, cols=target.group.num_generators)
    hom = GroupHomomorphism(source.group, target.group, theta)
    out = InducedK0Map(source, target, hom)
    for q, image in zip(source.generators, out.images):
        if not target.is_zero_class(image):
            raise ValueError(
                f"ideal generator {q.render()} maps to {image.render()}, "
                "which is nonzero in the target"
            )
    return out
