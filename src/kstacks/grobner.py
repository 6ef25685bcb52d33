"""Strong Groebner bases over the integers for group-ring quotients.

The group ring of Z^r x Z/m1 x ... x Z/mk is presented as an ordinary
polynomial ring on variables y1, y1', ..., yr, yr', s1, ..., sk modulo the
structural relations yi*yi' - 1 and sj^mj - 1, which makes a monomial order
available.  ``present`` writes an element as the polynomial equal to it (a
free exponent -a < 0 becomes yi'^a) and ``unpresent`` maps back, so the
elements of one class share one normal form.  Arithmetic happens in the
group ring; this module only completes and reduces.  Over the integers a
Groebner basis must be closed under both S-polynomials and
GCD-polynomials; reduction then leaves coefficient remainders in [0, lc),
and ``normal_form(f, gb).is_zero()`` decides ideal membership.  Exponent
vectors must have one entry per presentation variable; ``strong_groebner``
and ``normal_form`` raise ValueError otherwise.

Completion follows the pair update of Gebauer & Moeller (1988), which
carries over to strong bases over the integers (Lichtblau 2012);
``strong_groebner`` states the update rule and why it is sound.  Each S-
and G-polynomial is built as one term dict, and the certificate
``_is_strong_basis`` uses the same builder on every pair of the final
basis.  Basis elements and normal forms take their leading term from the
order in which reduction emits terms; ``IntPolynomial._from_ordered``
states that contract.  Each polynomial caches its reducer data, and each
basis keeps the list of its elements' reducer data.

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
from math import gcd, inf
from operator import add, le, mod, neg, sub

from .abelian import group_from_relations, xgcd
from .groupring import GroupRingElement

#: cap on the number of standard monomials the staircase walk visits
BOX_LIMIT = 20000


def _grevlex_key(exp):
    return (sum(exp), tuple(map(neg, exp[::-1])))


def _divides(B, E):
    return all(map(le, B, E))


def _lcm_exponent(A, B):
    return tuple(map(max, A, B))


class IntPolynomial:
    """Sparse polynomial with integer coefficients and nonnegative exponents.

    Immutable by contract: ``terms`` is never written after construction.
    Arithmetic belongs to ``GroupRingElement``.  The leading term and the
    reducer data (leading monomial, lc, support of the leading monomial,
    tail terms) are cached, so a caller that changed ``terms`` in place
    would read stale ones.  The public constructor checks every term and
    finds the leading term on first use as the grevlex maximum;
    ``_from_ordered`` takes a dict whose first key is the grevlex maximum,
    as ``_reduce_terms`` emits it, and skips the checks and the search.
    """

    __slots__ = ("terms", "_lt", "_reducer")

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
        self._reducer = None

    @classmethod
    def _from_ordered(cls, terms, positive=False):
        """Polynomial of a term dict with nonzero coefficients whose keys come
        largest first in grevlex order, as ``_reduce_terms`` returns them; the
        leading term is the first key.  With ``positive`` the signs are
        flipped when the leading coefficient is negative."""
        f = cls.__new__(cls)
        f._lt = f._reducer = None
        if terms:
            E, c = next(iter(terms.items()))
            if positive and c < 0:
                terms = {F: -d for F, d in terms.items()}
                c = -c
            f._lt = (E, c)
        f.terms = terms
        return f

    def is_zero(self):
        return not self.terms

    def leading_term(self):
        if self._lt is None:
            if not self.terms:
                raise ValueError("zero polynomial has no leading term")
            exp = max(self.terms, key=_grevlex_key)
            self._lt = (exp, self.terms[exp])
        return self._lt

    def _reducer_data(self):
        """(leading monomial B, lc, [(i, B[i]) for nonzero B[i]], tail terms),
        as ``_reduce_terms`` reads a reducer."""
        if self._reducer is None:
            B, a = self.leading_term()
            support = [(i, b) for i, b in enumerate(B) if b]
            tail = [(F, c) for F, c in self.terms.items() if F != B]
            self._reducer = (B, a, support, tail)
        return self._reducer

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
        # yi*yi' - 1 sets positions 2i and 2i+1 to 1; sj^mj - 1 sets 2r+j to mj
        leads = [(2 * i, 2 * i + 1, 1) for i in range(r)]
        leads += [(2 * r + j, 2 * r + j, m) for j, m in enumerate(group.torsion)]
        structural = []
        for v, w, m in leads:
            exp = [0] * nvars
            exp[v] = exp[w] = m
            structural.append(IntPolynomial({tuple(exp): 1, (0,) * nvars: -1}))
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
    """Terms of f, with every sign flipped when the leading coefficient is
    negative."""
    _, lc = f.leading_term()
    return f.terms if lc > 0 else {E: -c for E, c in f.terms.items()}


def _reduce_terms(terms, reducers):
    """Full reduction of a term dict by polynomials with positive leading
    coefficients, given by their ``_reducer_data()``.

    Every output term has its coefficient in [0, lc(g)) for every reducer g
    whose leading monomial divides it.  Terms are taken largest
    first from a heap in grevlex order; a heap entry whose exponent has left
    ``work`` (cancelled, or already taken) is skipped.  Reduction only adds
    terms below the one being reduced, so an exponent never returns to
    ``work`` once taken, and the output dict lists its terms largest first.
    One pass over the divisors in reducer order suffices: each step leaves
    the coefficient in [0, a) and never raises it.
    """
    work = dict(terms)
    heap = [(-sum(E), E[::-1], E) for E in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        E = heapq.heappop(heap)[2]
        c = work.pop(E, 0)
        if not c:
            continue
        for B, a, support, tail in reducers:
            for i, b in support:
                if E[i] < b:
                    break
            else:
                q = c // a
                if q:
                    c -= q * a
                    shift = tuple(map(sub, E, B))
                    for F, cf in tail:
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
    """Reduced strong Groebner basis, deterministic for a fixed input.

    ``strong_groebner`` also records the work of its completion in plain
    ints, zero on a basis built any other way: pairs queued, popped,
    skipped by the chain criterion and spared their S-polynomial by the
    product criterion; reductions of seeds and of S- and
    G-polynomials, and how many of them gave zero; elements retired; and
    the largest number of live elements.
    """

    COUNTERS = ("pairs_queued", "pairs_popped", "chain_skipped", "product_skipped", "reductions",
                "reductions_to_zero", "retired", "peak_live")

    __slots__ = ("presentation", "elements", "input_generators", "_reducers") + COUNTERS

    def __init__(self, presentation, elements, input_generators, **counters):
        self.presentation = presentation
        self.elements = tuple(elements)
        self.input_generators = tuple(input_generators)
        self._reducers = [f._reducer_data() for f in self.elements]
        for name in self.COUNTERS:
            setattr(self, name, counters.get(name, 0))

    def __repr__(self):
        return f"StrongGroebnerBasis({len(self.elements)} elements)"


def _pair_polys(f, g, s_poly=True):
    """Term dicts of the S-polynomial of f and g, unless ``s_poly`` is
    false, and, unless one leading coefficient divides the other, of their
    G-polynomial.

    With leading terms a*X^A and b*X^B and L = lcm(A, B), each is
    x * X^(L - A) * f + y * X^(L - B) * g, built as one dict: (l/a, -l/b)
    for l = lcm(a, b), so the leading terms cancel, and the Bezout pair of
    x*a + y*b = gcd(a, b).  Neither x nor y is zero.
    """
    (A, a), (B, b) = f.leading_term(), g.leading_term()
    L = _lcm_exponent(A, B)
    u, v = tuple(map(sub, L, A)), tuple(map(sub, L, B))
    l = a // gcd(a, b) * b
    out = [_shifted_sum(f.terms, u, l // a, g.terms, v, -(l // b))] if s_poly else []
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
      those pairs come earlier in the queue and have been popped;
    - the S-polynomial of (i, j) is not built when gcd(lc_i, lc_j) = 1 and
      LM_i, LM_j are coprime (Buchberger's first criterion; over the
      integers, Lichtblau 2012).  It is then g_j*tail(g_i) - g_i*tail(g_j),
      whose monomials all lie below L: an lcm-representation.  The
      G-polynomial is still reduced when neither lc divides the other.

    Retiring g is sound over the integers because the coefficient divides
    too: h reduces every term that g reduces, to a remainder in [0, lc_h),
    inside [0, lc_g); and g = (lc_g/lc_h) X^(LM_g - LM_h) h + S(g, h), the
    S-polynomial of the queued pair (g, h).  A later h' needs no pair with
    g: as in the chain criterion, LM_h | lcm(LM_g, LM_h') and lc_h | lc_g,
    and the pairs (g, h) and (h, h') are formed.  G-polynomials are never
    skipped, the live elements are interreduced into the result, and
    ``_is_strong_basis`` checks every pair.  An exponent whose length is not
    ``presentation.num_vars`` raises ValueError.
    """
    gens = list(gens)
    _check_exponents(gens, presentation)
    seeds = {}  # distinct nonzero inputs up to sign, in input order
    for f in itertools.chain(gens, presentation.structural):
        if not f.is_zero():
            terms = _normalize_sign(f)
            seeds.setdefault(frozenset(terms.items()), terms)

    basis = []  # every element ever added; pairs refer to their indices
    lts = []
    until = []  # index of the element that retired basis[k], or inf while it is live
    partners = []  # partners[j]: the elements live when basis[j] came, ascending
    live = []  # indices of the live elements, ascending
    reducers = []  # reducer data of the live elements, in the same order
    pairs = []
    work = dict.fromkeys(StrongGroebnerBasis.COUNTERS, 0)

    def add_element(h):
        j = len(basis)
        B, b = h.leading_term()
        for i in live:
            heapq.heappush(pairs, (_grevlex_key(_lcm_exponent(lts[i][0], B)), i, j))
        work["pairs_queued"] += len(live)
        basis.append(h)
        lts.append((B, b))
        until.append(inf)
        partners.append(tuple(live))
        for k in live:
            C, c = lts[k]
            if c % b == 0 and _divides(B, C):
                until[k] = j
                work["retired"] += 1
        live[:] = [k for k in live if until[k] > j] + [j]
        reducers[:] = [basis[k]._reducer_data() for k in live]
        work["peak_live"] = max(work["peak_live"], len(live))

    def chain_skips(i, j, L):
        # i < j.  k may serve only if its pairs with i and with j were both
        # queued: k <= until[i] and k <= until[j], and an older k was still
        # live when j came.  Those pairs were popped before (i, j): see the
        # docstring.  The older k that qualify are partners[j].
        (A, a), (B, b) = lts[i], lts[j]
        l = max(a, b)  # lcm(a, b), as one divides the other
        newer = range(j + 1, min(until[i], until[j], len(lts) - 1) + 1)
        for k in itertools.chain(partners[j], newer):
            C, c = lts[k]
            if (
                k != i
                and k != j
                and l % c == 0
                and _divides(C, L)
                and _lcm_exponent(A, C) != L
                and _lcm_exponent(B, C) != L
            ):
                return True
        return False

    def reduce_and_add(terms):
        work["reductions"] += 1
        r = _reduce_terms(terms, reducers)
        if r:
            add_element(IntPolynomial._from_ordered(r, positive=True))
        else:
            work["reductions_to_zero"] += 1

    for terms in seeds.values():
        reduce_and_add(terms)

    while pairs:
        _, i, j = heapq.heappop(pairs)
        work["pairs_popped"] += 1
        (A, a), (B, b) = lts[i], lts[j]
        if (a % b == 0 or b % a == 0) and chain_skips(i, j, _lcm_exponent(A, B)):
            work["chain_skipped"] += 1
            continue
        coprime = gcd(a, b) == 1 and not any(map(min, A, B))
        work["product_skipped"] += coprime
        for combo in _pair_polys(basis[i], basis[j], s_poly=not coprime):
            reduce_and_add(combo)

    return StrongGroebnerBasis(presentation, _interreduce(reducers), gens, **work)


def _interreduce(reducers):
    """Tail-reduce each live element, given by its reducer data, by all of
    them.  No live leading term divides another's with its coefficient, so
    none is dropped; leading terms are untouched, so one pass leaves every
    non-leading term irreducible."""
    reduced = []
    for B, a, _, tail in reducers:
        terms = {B: a}
        terms.update(_reduce_terms(dict(tail), reducers))
        reduced.append(IntPolynomial._from_ordered(terms))
    reduced.sort(key=lambda f: (_grevlex_key(f.leading_term()[0]), f.leading_term()[1]))
    return reduced


def normal_form(f, gb):
    """Canonical remainder of f modulo the ideal of the basis.  An exponent
    whose length is not the presentation's ``num_vars`` raises ValueError."""
    _check_exponents((f,), gb.presentation)
    return IntPolynomial._from_ordered(_reduce_terms(f.terms, gb._reducers))


# ---------------------------------------------------------------------------
# Z-module invariants


class AbGroupInvariants:
    """Abelian-group structure of a quotient ring, with an honesty status.

    status is "exact" (a verified strong basis with a finite standard
    monomial set), "not_finitely_generated" (a verified strong basis whose
    standard monomial set is infinite), or "unknown" (the basis fails the
    check, or the staircase holds more than BOX_LIMIT standard monomials).
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
    when each variable has such a pure power.  The walk reaches each
    standard monomial once, from the one with its last nonzero coordinate
    lowered by one, as the standard monomials are closed under division;
    more than BOX_LIMIT of them raise _BoxTooLarge.
    """
    nvars = gb.presentation.num_vars
    unit_lms = [B for B, a, _, _ in gb._reducers if a == 1]
    if any(not any(B) for B in unit_lms):
        # a unit constant: the quotient is trivial
        return []
    for v in range(nvars):
        if not any(B[v] and sum(B) == B[v] for B in unit_lms):
            return None
    standard = []
    walk = [((0,) * nvars, 0)]  # a monomial and the first variable it may raise
    while walk:
        E, first = walk.pop()
        standard.append(E)
        if len(standard) > BOX_LIMIT:
            raise _BoxTooLarge()
        for v in range(first, nvars):
            F = E[:v] + (E[v] + 1,) + E[v + 1:]
            if not any(_divides(B, F) for B in unit_lms):
                walk.append((F, v))
    standard.sort(key=_grevlex_key)
    return standard


class _BoxTooLarge(Exception):
    pass


def _primary_invariants(gb, standard):
    index = {E: i for i, E in enumerate(standard)}
    rows = []
    for E in standard:
        divisors = [a for B, a, _, _ in gb._reducers if _divides(B, E)]
        if not divisors:
            continue
        mu = min(divisors)
        nf = _reduce_terms({E: mu}, gb._reducers)
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
    if any(a < 0 for _, a, _, _ in gb._reducers):
        return False
    pairs = itertools.combinations(gb.elements, 2)
    must_vanish = itertools.chain(
        (f.terms for f in gb.input_generators),
        (f.terms for f in gb.presentation.structural),
        (h for f, g in pairs for h in _pair_polys(f, g)),
    )
    return not any(_reduce_terms(h, gb._reducers) for h in must_vanish)


def zmodule_invariants(gb):
    """Abelian-group invariants of (polynomial ring)/(basis ideal) as a
    Z-module, with the status described in the module docstring: the
    staircase walk is bounded, the basis is checked by Buchberger's
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
