"""K-group presentations of validated stack data and the class calculus.

The presentation is the group ring of the grading group modulo one product
generator per irrelevant component.  Classes of sheaves are group-ring
elements; equality of classes is decided by reducing the difference to its
normal form.  Group homomorphisms between grading groups induce maps from
a stack's group ring to another's K-group once each source ideal generator,
read from the source data, is checked to land in the target ideal.
"""

from operator import add, mul, sub

from .abelian import GroupHomomorphism
from .groupring import GroupRingElement, _combine, _product, component_product, one_minus_product
from .grobner import PolyPresentation, normal_form, strong_groebner, zmodule_invariants
from .stacks import check_connected


#: the most calls the pivot recursion of ``class_of_intersection`` may make
PIVOT_BUDGET = 1 << 16


class K0Presentation:
    __slots__ = ("data", "group", "generators", "basis")

    def __init__(self, data, generators, basis):
        self.data = data
        self.group = data.group
        self.generators = tuple(generators)
        self.basis = basis

    def __repr__(self):
        return f"K0Presentation({self.data.label or 'unlabeled'}, {len(self.generators)} generators)"

    def reduce(self, element):
        """Canonical reduced representative of a group-ring element's class:
        its normal form over the strong basis, the same for two elements of
        one class, and equal to the input modulo the ideal."""
        return normal_form(element, self.basis)

    @property
    def hypothesis_verified(self):
        """Whether the degrees pass the exact rational test of
        ``check_connected``'s first phase; asked on each read."""
        return check_connected(self.data, bound=0).is_connected()

    def class_of(self, element):
        return K0Class(self, element)


def _centred(q):
    """q times the unit t^(-c), where c_i = floor((min_i + max_i)/2) over
    the i-th free coordinate of q's keys; residues and a zero q stay."""
    r = q.group.free_rank
    c = [(min(col) + max(col)) // 2 for col in zip(*q.terms)][:r]
    return GroupRingElement._of(q.group, {tuple(map(sub, key[:r], c)) + key[r:]: a for key, a in q.terms.items()})


def _ideal_generators(data):
    """The ideal generators of data's K-group, one component product per
    irrelevant component, in order."""
    return tuple(component_product(data, m) for m in range(1, len(data.irrelevant) + 1))


def k0_presentation(data):
    """Build the K-group presentation of validated stack data.

    An inverted variable x counts as the polynomial variable x with the
    component {x} (see ``stacks.validate``), so its product is 1 - t^deg(x).

    The formula needs no degree-zero check.  ``connectify(data)`` presents
    the same quotient stack with a free coordinate added and passes the
    check.  Its ideal holds 1 - t^(0,...,0,1), the product of the new
    variable's singleton component, and modulo that element t^(d,1) = t^d,
    so each of its other generators becomes the matching generator here:
    forgetting the new coordinate is an isomorphism of its quotient ring
    onto this one, and the two K-groups agree.

    ``generators`` keeps the component products q as the formula gives
    them, but completion starts from their centred multiples t^(-c)*q
    (``_centred``): on wps q has degree sum(w) in y, t^(-c)*q about half
    of it in y and in y', and completion pops far fewer pairs.  The ideal
    is the same, as t^(-c) is a unit of the group ring and yi*yi' - 1 lies
    in every ideal, and the reduced strong basis of an ideal is unique, so
    the basis, normal forms and invariants do not change.
    """
    generators = _ideal_generators(data)
    basis = strong_groebner([_centred(q) for q in generators], PolyPresentation.for_group(data.group))
    return K0Presentation(data, generators, basis)


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
        return self.presentation.reduce(self.representative).is_zero()

    def _apply(self, op, other):
        """The class of op(self's representative, other's) for a class
        ``other`` of this presentation, NotImplemented for anything else;
        a class of another presentation raises ValueError."""
        if not isinstance(other, K0Class):
            return NotImplemented
        if self.presentation is not other.presentation:
            raise ValueError("classes live in different presentations")
        return K0Class(self.presentation, op(self.representative, other.representative))

    def __add__(self, other):
        return self._apply(add, other)

    def __sub__(self, other):
        return self._apply(sub, other)

    def __mul__(self, other):
        if isinstance(other, int):
            return K0Class(self.presentation, other * self.representative)
        return self._apply(mul, other)

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
    return (a - b).is_zero()


def class_of_twist(pres, alpha):
    """Class of the structure sheaf twisted by alpha: representative
    t^(-alpha)."""
    return K0Class(pres, GroupRingElement.monomial(-alpha))


def class_of_koszul_quotient(pres, degrees):
    """Class of the quotient by a homogeneous regular sequence with the given
    degrees (regularity is the caller's assertion): product of 1 - t^deg."""
    return K0Class(pres, one_minus_product(pres.group, degrees))


def class_of_intersection(pres, components):
    """Class of R/I for the intersection I of the coordinate ideals of the
    components, by the pivot recursion on a variable v of the first one:
    K(comps) = t^deg(v)*K(the components without v) + (1 - t^deg(v))*K(every
    component with v removed), 1 with an empty component.  A variable in no
    component adds the factor t^d + (1 - t^d) = 1, so the cost grows with
    the variables V that the components use, at most 2^(|V|+1) calls, not
    with the 2^m - 1 subcollections of m components.

    Components that share no variable fall into blocks, taken last to
    first.  The components of the later blocks pass through every branch of
    a block's recursion unchanged, so where none of the block's own
    components is left, the recursion takes K of the later blocks, computed
    once, and 0 after the last block; each block costs its own calls, not
    their product.  More than PIVOT_BUDGET calls over all blocks raise
    ValueError."""
    components = [tuple(c) for c in components]
    if not components:
        raise ValueError("need at least one component")
    r, torsion = pres.group.free_rank, pres.group.torsion
    one = {(0,) * (r + len(torsion)): 1}
    shift = {name: {pres.data.variable(name).degree.key(): 1} for c in components for name in c}
    root = {name: name for name in shift}  # union-find over the variables

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for c in components:
        if c:
            head = find(c[0])
            for name in c[1:]:
                root[find(name)] = head
    blocks = {}
    for c in components:
        blocks.setdefault(c and find(c[0]), []).append(c)
    calls, later = 0, {}
    for block in reversed(blocks.values()):
        # a stack keeps deep recursions off Python's limit: a component list is a call,
        # and a shift t^d joins the two results on top, K(removed) + t^d*(K(without) - K(removed))
        stack, results = [block], []
        while stack:
            item = stack.pop()
            if isinstance(item, dict):
                removed = results.pop()
                results.append(_combine(removed, _product(item, _combine(results.pop(), removed, -1), r, torsion), 1))
            elif (calls := calls + 1) > PIVOT_BUDGET:
                raise ValueError(f"the intersection takes more than PIVOT_BUDGET = {PIVOT_BUDGET} pivot calls")
            elif item and all(item):
                v = item[0][0]
                stack += (shift[v], [tuple(x for x in c if x != v) for c in item], [c for c in item if v not in c])
            else:
                results.append(one if item else later)
        later = results.pop()
    return K0Class(pres, GroupRingElement._of(pres.group, later))


def invariants(pres):
    """Abelian-group invariants of the K-group presentation.

    The status is certified by checking the presentation's strong Groebner
    basis with Buchberger's criterion (see ``zmodule_invariants``)."""
    return zmodule_invariants(pres.basis)


class InducedK0Map:
    """Pushforward along a checked grading-group homomorphism ``hom``, from
    the stack data ``source`` to the K-group ``target``.

    ``matrix`` is ``hom.canonical``: a term's key times it is its image's
    key once the residues are reduced.  Construction pushes every source
    ideal generator, read from the data, once and keeps the results, in
    order, as ``images``; ``induced_map`` checks that each lands in the
    target ideal.
    """

    __slots__ = ("source", "target", "generators", "images", "matrix")

    def __init__(self, source, target, hom):
        self.source = source
        self.target = target
        self.matrix = hom.canonical
        self.generators = _ideal_generators(source)
        self.images = tuple(self.push_element(q) for q in self.generators)

    def push_element(self, element):
        self.source.group.require_same(element.group)
        terms = {}
        for key, coeff in element.terms.items():
            image = self.matrix.apply_row(key)
            terms[image] = terms.get(image, 0) + coeff
        return GroupRingElement(self.target.group, terms)

    def __call__(self, cls):
        if cls.presentation.data is not self.source:
            raise ValueError("class does not live in the source presentation")
        return K0Class(self.target, self.push_element(cls.representative))


def induced_map(theta, source, target):
    """Checked pushforward from the stack data ``source`` to the K-group
    presentation ``target``.

    ``theta`` is an integer matrix on user generators (row i is the image of
    the i-th source generator in target user coordinates).  The source's
    ideal generators are read from its data, and no source basis is built.
    Raises ValueError if the matrix does not kill a source relation, or if
    the image of some source ideal generator has nonzero normal form in the
    target.
    """
    out = InducedK0Map(source, target, GroupHomomorphism(source.group, target.group, theta))
    for q, image in zip(out.generators, out.images):
        if not target.reduce(image).is_zero():
            raise ValueError(
                f"ideal generator {q.render()} maps to {image.render()}, "
                "which is nonzero in the target"
            )
    return out
