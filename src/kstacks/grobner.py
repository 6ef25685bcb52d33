"""Strong Groebner bases over the integers for group-ring quotients.

The group ring of Z^r x Z/m1 x ... x Z/mk is presented as an ordinary
polynomial ring on variables y1, y1', ..., yr, yr', s1, ..., sk modulo the
structural relations yi*yi' - 1 and sj^mj - 1, which makes a monomial order
available.  ``present`` writes an element as the polynomial equal to it (a
free exponent -a < 0 becomes yi'^a) and ``unpresent`` maps back, so the
elements of one class share one normal form.  Over the integers a Groebner
basis must be closed under both S-polynomials and GCD-polynomials;
reduction then leaves coefficient remainders in [0, lc), and
``normal_form(f) == 0`` decides ideal membership.
Exponent vectors must have one entry per presentation variable;
``strong_groebner``, ``normal_form`` and ``in_ideal`` raise ValueError
otherwise.

Completion follows the pair update of Gebauer & Moeller (1988), which
carries over to strong bases over the integers (Lichtblau 2012).  Pairs
(i, j) of basis elements wait in a queue ordered by the grevlex key of
L = lcm(LM_i, LM_j), then by (i, j).  A new element h forms pairs with the
live elements only; then every live g with LM_h | LM_g and lc_h | lc_g
retires.  A retired g leaves the reducers and forms no new pairs, but the
pairs it already has stay queued, and the reduced basis is built from the
live elements alone.  Retiring g is sound over the integers because the
coefficient divides too: h reduces every term that g reduces, to a
remainder in [0, lc_h), inside [0, lc_g); and g = (lc_g/lc_h) X^(LM_g -
LM_h) h + S(g, h), where S(g, h) is the S-polynomial of the queued pair
(g, h).  A later h' needs no pair with g: as in the chain criterion,
LM_h | lcm(LM_g, LM_h') and lc_h | lc_g, and the pairs (g, h) and (h, h')
are formed.  Without the coefficient condition h would not reduce g's
leading term.

The chain criterion skips the S-polynomial of a pair (i, j) only when its
G-polynomial is trivial (one leading coefficient divides the other) and
some other element k whose pairs with i and with j were both formed has
LM_k | L and lc_k | lcm(lc_i, lc_j), with neither lcm(LM_i, LM_k) nor
lcm(LM_j, LM_k) equal to L.  G-polynomials are never skipped.  Each S- and
G-polynomial is built as one term dict from the two shifted polynomials,
and the certificate ``_is_strong_basis`` uses the same builder on every
pair of the final basis.  Reduction takes terms largest first from a heap
and reads each reducer's leading term, cached on the immutable
``IntPolynomial``, once per call.

Z-module invariants of a quotient are read off the standard monomials of
the basis together with their leading-coefficient relations.  They are
``exact`` when the standard monomial set is finite and the basis passes
Buchberger's criterion over the integers (Kandri-Rody & Kapur 1988;
Lichtblau 2012): every input generator and structural relation reduces to
zero, and so does the S-polynomial and the G-polynomial of every pair of
basis elements.
"""

from __future__ import annotations

import heapq
import itertools
from math import gcd, inf, prod
from operator import add, mod, sub

from .abelian import group_from_relations, xgcd
from .groupring import GroupRingElement

#: soft cap on the size of an enumerated standard-monomial box
BOX_LIMIT = 20000


def _grevlex_key(exp):
    return (sum(exp), tuple(-e for e in reversed(exp)))


def _divides(B, E):
    return all(b <= e for b, e in zip(B, E))


def _lcm_exponent(A, B):
    return tuple(map(max, A, B))


class IntPolynomial:
    """Sparse polynomial with integer coefficients and nonnegative exponents.

    Immutable by contract: ``terms`` is never written after construction, and
    every operation returns a new polynomial.  The leading term is computed
    on first use and cached, so a caller that changed ``terms`` in place
    would read a stale one.
    """

    __slots__ = ("terms", "_lt")

    def __init__(self, terms):
        clean = {}
        for exp, coeff in terms.items():
            coeff = int(coeff)
            if coeff:
                if any(e < 0 for e in exp):
                    raise ValueError("exponents must be nonnegative")
                clean[tuple(exp)] = coeff
        self.terms = clean
        self._lt = None

    def is_zero(self):
        return not self.terms

    def leading_term(self):
        if self._lt is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            exp = max(self.terms, key=_grevlex_key)
            self._lt = (exp, self.terms[exp])
        return self._lt

    def __add__(self, other):
        terms = dict(self.terms)
        for exp, coeff in other.terms.items():
            terms[exp] = terms.get(exp, 0) + coeff
        return IntPolynomial(terms)

    def __neg__(self):
        return IntPolynomial({e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial({e: other * c for e, c in self.terms.items()})
        terms = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                terms[key] = terms.get(key, 0) + c1 * c2
        return IntPolynomial(terms)

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"IntPolynomial({self.terms!r})"


class PolyPresentation:
    """Polynomial model of a group ring.

    The variable order is y1, y1', ..., yr, yr', s1, ..., sk and the
    structural relations are always part of every ideal built over the
    presentation.
    """

    __slots__ = ("group", "names", "num_vars", "structural")

    def __init__(self, group, names, structural):
        self.group = group
        self.names = tuple(names)
        self.num_vars = len(self.names)
        self.structural = tuple(structural)

    @classmethod
    def for_group(cls, group):
        r = group.free_rank
        names = []
        for i in range(r):
            names.extend((f"y{i + 1}", f"y{i + 1}'"))
        names.extend(f"s{j + 1}" for j in range(len(group.torsion)))
        nvars = len(names)
        structural = []
        for i in range(r):
            exp = [0] * nvars
            exp[2 * i] = 1
            exp[2 * i + 1] = 1
            structural.append(
                IntPolynomial({tuple(exp): 1, (0,) * nvars: -1})
            )
        for j, m in enumerate(group.torsion):
            exp = [0] * nvars
            exp[2 * r + j] = m
            structural.append(
                IntPolynomial({tuple(exp): 1, (0,) * nvars: -1})
            )
        return cls(group, names, structural)

    def __repr__(self):
        return f"PolyPresentation({', '.join(self.names)})"


def present(e, presentation):
    """The presentation polynomial equal to a group-ring element: a free
    exponent a becomes yi^a when a >= 0 and yi'^(-a) when a < 0, a residue c
    becomes sj^c.  unpresent(present(e, p), p) == e, and as yi*yi' - 1 lies
    in every ideal, the elements of one class have one normal form."""
    presentation.group.require_same(e.group)
    r = e.group.free_rank
    terms = {}
    for key, coeff in e.terms.items():
        exp = []
        for a in key[:r]:
            exp += (a, 0) if a >= 0 else (0, -a)
        terms[tuple(exp) + key[r:]] = coeff
    return IntPolynomial(terms)


def unpresent(f, presentation):
    """Map a presentation polynomial back to the group ring: the monomial
    with exponent E becomes the term with key (E[0] - E[1], ...,
    E[2r-2] - E[2r-1], then E[2r:] reduced mod the torsion).  This is the
    quotient map by the structural relations, and it inverts ``present``."""
    group = presentation.group
    r, torsion = group.free_rank, group.torsion
    terms = {}
    for exp, coeff in f.terms.items():
        free = tuple(exp[2 * i] - exp[2 * i + 1] for i in range(r))
        key = free + tuple(map(mod, exp[2 * r:], torsion))
        terms[key] = terms.get(key, 0) + coeff
    return GroupRingElement(group, terms)


def _normalize_sign(f):
    _, lc = f.leading_term()
    return f if lc > 0 else -f


def _reduce_terms(terms, basis):
    """Full reduction of a term dict by a list of polynomials with positive
    leading coefficients.

    Every output term has its coefficient in [0, lc(g)) for every basis
    element g whose leading monomial divides it.  Terms are taken largest
    first from a heap in grevlex order; a heap entry whose exponent has left
    ``work`` (cancelled, or already taken) is skipped.  Reduction only adds
    terms below the one being reduced, so an exponent never returns to
    ``work`` once taken.  One pass over the divisors in basis order suffices:
    each step leaves the coefficient in [0, a) and never raises it.
    """
    reducers = []
    for g in basis:
        B, a = g.leading_term()
        reducers.append((B, a, [(i, b) for i, b in enumerate(B) if b], g.terms))
    work = dict(terms)
    heap = [(-sum(E), E[::-1], E) for E in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        E = heapq.heappop(heap)[2]
        c = work.pop(E, 0)
        if not c:
            continue
        for B, a, support, gterms in reducers:
            for i, b in support:
                if E[i] < b:
                    break
            else:
                q = c // a
                if q:
                    c -= q * a
                    shift = tuple(map(sub, E, B))
                    for F, cf in gterms.items():
                        if F is B:  # the leading term is this dict's own key
                            continue
                        key = tuple(map(add, shift, F))
                        val = work.get(key)
                        if val is None:
                            work[key] = -q * cf
                            heapq.heappush(heap, (-sum(key), key[::-1], key))
                        else:
                            val -= q * cf
                            if val:
                                work[key] = val
                            else:
                                del work[key]
                    if not c:
                        break
        if c:
            out[E] = c
    return out


class StrongGroebnerBasis:
    """Reduced strong Groebner basis, deterministic for a fixed input."""

    __slots__ = ("presentation", "elements", "input_generators")

    def __init__(self, presentation, elements, input_generators):
        self.presentation = presentation
        self.elements = tuple(elements)
        self.input_generators = tuple(input_generators)

    def __repr__(self):
        return f"StrongGroebnerBasis({len(self.elements)} elements)"


def _pair_polys(f, g):
    """Term dicts of the S-polynomial of f and g and, unless one leading
    coefficient divides the other, of their G-polynomial.

    With leading terms a*X^A and b*X^B and L = lcm(A, B), each is
    x * X^(L - A) * f + y * X^(L - B) * g, built as one dict: (l/a, -l/b)
    for l = lcm(a, b), so the leading terms cancel, and the Bezout pair of
    x*a + y*b = gcd(a, b).  Neither x nor y is zero.
    """
    (A, a), (B, b) = f.leading_term(), g.leading_term()
    L = _lcm_exponent(A, B)
    u, v = tuple(map(sub, L, A)), tuple(map(sub, L, B))
    l = a // gcd(a, b) * b
    out = [_shifted_sum(f.terms, u, l // a, g.terms, v, -(l // b))]
    if a % b and b % a:
        _, x, y = xgcd(a, b)
        out.append(_shifted_sum(f.terms, u, x, g.terms, v, y))
    return out


def _shifted_sum(fterms, u, x, gterms, v, y):
    """Terms of x * X^u * f + y * X^v * g, for nonzero x and y."""
    terms = {tuple(map(add, E, u)): x * c for E, c in fterms.items()}
    for E, c in gterms.items():
        key = tuple(map(add, E, v))
        c = terms.get(key, 0) + y * c
        if c:
            terms[key] = c
        else:
            del terms[key]
    return terms


def _check_exponents(polys, presentation):
    n = presentation.num_vars
    for f in polys:
        for E in f.terms:
            if len(E) != n:
                raise ValueError(
                    f"exponent {E} has length {len(E)}; the presentation has {n} variables"
                )


def strong_groebner(gens, presentation):
    """Complete ``gens`` plus the structural relations to a reduced strong
    Groebner basis.

    Pairs (i, j) of basis elements wait in a queue ordered by the grevlex
    key of L = lcm(LM_i, LM_j), then by (i, j); a popped pair adds the
    reductions of its S-polynomial and its G-polynomial, when nonzero, to
    the basis.  The update rule (Gebauer & Moeller 1988; over the integers,
    Lichtblau 2012):

    - a new element h forms pairs with every live element, then retires
      each live g with LM_h | LM_g and lc_h | lc_g;
    - a retired g no longer reduces and forms no new pairs, but its queued
      pairs stay queued and are processed as usual;
    - the S-polynomial of (i, j) is skipped only when its G-polynomial is
      trivial (one leading coefficient divides the other) and some k other
      than i and j, whose pairs with i and with j were both formed, has
      LM_k | L, lc_k | lcm(lc_i, lc_j), and neither lcm(LM_i, LM_k) nor
      lcm(LM_j, LM_k) equal to L.  Both lcms then properly divide L, so
      those pairs come earlier in the queue and have been popped.

    Retiring g keeps the result: h reduces every term g reduces, and g is
    a multiple of h plus the S-polynomial of the queued pair (g, h); see
    the module docstring.  G-polynomials are never skipped, the live
    elements are interreduced into the result, and ``_is_strong_basis``
    checks every pair.  An exponent whose length is not
    ``presentation.num_vars`` raises ValueError.
    """
    gens = list(gens)
    _check_exponents(gens, presentation)
    seeds = []
    seen = set()
    for f in itertools.chain(gens, presentation.structural):
        if f.is_zero():
            continue
        f = _normalize_sign(f)
        if f not in seen:
            seen.add(f)
            seeds.append(f)

    basis = []  # every element ever added; pairs refer to their indices
    lts = []
    until = []  # index of the element that retired basis[k], or inf while it is live
    live = []  # indices of the live elements, ascending
    reducers = []  # the live elements, in the same order
    pairs = []

    def add_element(h):
        j = len(basis)
        B, b = h.leading_term()
        for i in live:
            heapq.heappush(pairs, (_grevlex_key(_lcm_exponent(lts[i][0], B)), i, j))
        basis.append(h)
        lts.append((B, b))
        until.append(inf)
        for k in live:
            C, c = lts[k]
            if c % b == 0 and _divides(B, C):
                until[k] = j
        live[:] = [k for k in live if until[k] > j] + [j]
        reducers[:] = [basis[k] for k in live]

    def chain_skips(i, j, L):
        # i < j.  k may serve only if its pairs with i and with j were both
        # queued: k <= until[i] and k <= until[j], and an older k was still
        # live when j came.  Those pairs were popped before (i, j): see the
        # docstring.
        (A, a), (B, b) = lts[i], lts[j]
        l = max(a, b)  # lcm(a, b), as one divides the other
        for k in range(min(until[i], until[j], len(lts) - 1) + 1):
            C, c = lts[k]
            if (
                k != i
                and k != j
                and (k > j or until[k] >= j)
                and l % c == 0
                and _divides(C, L)
                and _lcm_exponent(A, C) != L
                and _lcm_exponent(B, C) != L
            ):
                return True
        return False

    for f in seeds:
        reduced = IntPolynomial(_reduce_terms(f.terms, reducers)) if reducers else f
        if not reduced.is_zero():
            add_element(_normalize_sign(reduced))

    while pairs:
        _, i, j = heapq.heappop(pairs)
        (A, a), (B, b) = lts[i], lts[j]
        if (a % b == 0 or b % a == 0) and chain_skips(i, j, _lcm_exponent(A, B)):
            continue
        for combo in _pair_polys(basis[i], basis[j]):
            r = _reduce_terms(combo, reducers)
            if r:
                add_element(_normalize_sign(IntPolynomial(r)))

    return StrongGroebnerBasis(presentation, _interreduce(reducers), gens)


def _interreduce(live):
    """Tail-reduce each live element by all of them.  No live leading term
    divides another's with its coefficient, so none is dropped; leading
    terms are untouched, so one pass leaves every non-leading term
    irreducible."""
    reduced = []
    for f in live:
        B, a = f.leading_term()
        tail = {E: c for E, c in f.terms.items() if E != B}
        nf_tail = _reduce_terms(tail, live)
        nf_tail[B] = a
        reduced.append(IntPolynomial(nf_tail))
    reduced.sort(key=lambda f: (_grevlex_key(f.leading_term()[0]), f.leading_term()[1]))
    return reduced


def normal_form(f, gb):
    """Canonical remainder of f modulo the ideal of the basis.  An exponent
    whose length is not the presentation's ``num_vars`` raises ValueError."""
    _check_exponents((f,), gb.presentation)
    return IntPolynomial(_reduce_terms(f.terms, list(gb.elements)))


def in_ideal(f, gb):
    """Whether f lies in the ideal of the basis; malformed exponents raise
    ValueError as in ``normal_form``."""
    return normal_form(f, gb).is_zero()


# ---------------------------------------------------------------------------
# Z-module invariants


class AbGroupInvariants:
    """Abelian-group structure of a quotient ring, with an honesty status.

    status is "exact" (a verified strong basis with a finite standard
    monomial set), "not_finitely_generated" (a verified strong basis whose
    standard monomial set is infinite), or "unknown" (the basis fails the
    check, or the standard monomial box exceeds BOX_LIMIT).
    """

    EXACT = "exact"
    NOT_FG = "not_finitely_generated"
    UNKNOWN = "unknown"

    __slots__ = ("free_rank", "torsion", "status")

    def __init__(self, free_rank, torsion, status):
        self.free_rank = free_rank
        self.torsion = tuple(torsion)
        self.status = status

    def invariants(self):
        return (self.free_rank, self.torsion)

    def __eq__(self, other):
        if not isinstance(other, AbGroupInvariants):
            return NotImplemented
        return (self.free_rank, self.torsion, self.status) == (
            other.free_rank,
            other.torsion,
            other.status,
        )

    def __repr__(self):
        return (
            f"AbGroupInvariants(rank={self.free_rank}, torsion={list(self.torsion)}, "
            f"status={self.status})"
        )

    def to_json(self):
        return {
            "rank": self.free_rank,
            "torsion": list(self.torsion),
            "status": self.status,
        }


def _standard_monomials(gb):
    """Finite standard-monomial set of the quotient, or None if infinite.

    A monomial is standard when it is not divisible by the leading monomial
    of any unit-leading-coefficient basis element; the set is finite exactly
    when each variable has such a pure power.
    """
    nvars = gb.presentation.num_vars
    lts = [f.leading_term() for f in gb.elements]
    unit_lms = [B for B, a in lts if a == 1]
    if any(not any(B) for B in unit_lms):
        # a unit constant: the quotient is trivial
        return []
    caps = []
    for v in range(nvars):
        powers = [
            B[v]
            for B in unit_lms
            if B[v] and all(B[w] == 0 for w in range(nvars) if w != v)
        ]
        if not powers:
            return None
        caps.append(min(powers))
    if prod(caps, start=1) > BOX_LIMIT:
        raise _BoxTooLarge()
    box = itertools.product(*(range(c) for c in caps)) if caps else iter([()])
    standard = [
        E for E in box if not any(_divides(B, E) for B in unit_lms)
    ]
    standard.sort(key=_grevlex_key)
    return standard


class _BoxTooLarge(Exception):
    pass


def _primary_invariants(gb, standard):
    lts = [f.leading_term() for f in gb.elements]
    index = {E: i for i, E in enumerate(standard)}
    rows = []
    for E in standard:
        divisors = [a for B, a in lts if _divides(B, E)]
        if not divisors:
            continue
        mu = min(divisors)
        nf = _reduce_terms({E: mu}, list(gb.elements))
        row = [0] * len(standard)
        row[index[E]] = mu
        for F, c in nf.items():
            row[index[F]] -= c
        rows.append(row)
    return group_from_relations(len(standard), rows).invariants()


def _is_strong_basis(gb):
    """Buchberger's criterion for a strong basis over the integers.

    Passes only if every element has a positive leading coefficient, every
    input generator and structural relation reduces to zero, and every pair
    of elements has an S-polynomial and a G-polynomial that reduce to zero.
    The elements lie in the input ideal by construction, so passing proves
    that they form a strong Groebner basis of it.
    """
    basis = list(gb.elements)
    if any(f.leading_term()[1] < 0 for f in basis):
        return False
    pairs = itertools.combinations(basis, 2)
    must_vanish = itertools.chain(
        (f.terms for f in gb.input_generators),
        (f.terms for f in gb.presentation.structural),
        (h for f, g in pairs for h in _pair_polys(f, g)),
    )
    return not any(_reduce_terms(h, basis) for h in must_vanish)


def zmodule_invariants(gb):
    """Abelian-group invariants of (polynomial ring)/(basis ideal) as a
    Z-module, with the status described in the module docstring: the
    standard-monomial box is bounded, the basis is checked by Buchberger's
    criterion, and the invariants are read off the standard monomials."""
    try:
        standard = _standard_monomials(gb)
    except _BoxTooLarge:
        return AbGroupInvariants(None, (), AbGroupInvariants.UNKNOWN)
    if not _is_strong_basis(gb):
        return AbGroupInvariants(None, (), AbGroupInvariants.UNKNOWN)
    if standard is None:
        return AbGroupInvariants(None, (), AbGroupInvariants.NOT_FG)
    rank, torsion = _primary_invariants(gb, standard)
    return AbGroupInvariants(rank, torsion, AbGroupInvariants.EXACT)
