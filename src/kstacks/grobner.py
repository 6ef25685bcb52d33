"""Strong Groebner bases over the integers for group-ring quotients.

The group ring of Z^r x Z/m1 x ... x Z/mk is presented as an ordinary
polynomial ring on variables y1, y1', ..., yr, yr', s1, ..., sk modulo the
structural relations yi*yi' - 1 and sj^mj - 1, which makes a monomial order
available.  A group-ring term t^(a;c) stands for the monomial with yi^ai
for ai >= 0, yi'^(-ai) for ai < 0 and sj^cj, so the elements of one class
share one normal form.  Arithmetic happens in the group ring; this module
only completes and reduces: ``strong_groebner`` and ``normal_form`` take
group-ring elements, and ``normal_form`` returns the reduced element.  Over
the integers a Groebner basis must be closed under both S-polynomials and
GCD-polynomials; reduction then leaves coefficient remainders in [0, lc),
and ``normal_form(e, gb).is_zero()`` decides ideal membership.

Inside the kernels a monomial is one int (Bachmann & Schoenemann 1998;
Monagan & Pearce 2011).  With n variables and W = 32 bits per field, the
exponent vector E packs to K(E) = deg(E)*2^(W*n) - sum_i e_i*2^(W*i).
Below the degree the e_i are the digits of one number, e_(n-1) the most
significant, so int order compares the degree, then -e_(n-1), -e_(n-2),
...: it is grevlex order.  K is linear, so a shift is one addition, and a
group-ring key packs with no exponent vector between:
``PolyPresentation._encode`` sums ai*K(yi) or |ai|*K(yi') and cj*K(sj),
and ``_decode`` reads the fields of -K back into a key.  The low fields of
K(B) - K(E) are the balanced digits e_i - b_i, so B | E exactly when
((K(B) - K(E) + H) & H) == H, where H has 2^(W-1) in each low field:
adding it sets a field's top bit just when its digit is >= 0.  This needs
every digit below 2^(W-1) in size, so packing a term of total degree
2^(W-3) or more raises ValueError, and so does a new basis element of that
degree; an S-polynomial term has degree at most deg LM_i + deg LM_j, and
reduction never raises the degree.

Basis elements are packed term dicts, and pair lcms are packed too
(``_lcm_packer``).  With ``low`` masking the n fields and X = -K & low,
M = (((X_A | H) - X_B) & H) >> (W-1) has a 1 at the base of each field with
a_i >= b_i, and mask = M*(2^W - 1).  The lcm has the fields
X_L = (X_A & mask) | (X_B & (low ^ mask)), its degree is field n-1 of
X_L*sum_i 2^(W*i), and K_L = deg(L)*2^(W*n) - X_L.  No field overflows:
every basis element has degree below 2^(W-3), so a field of X_A | H minus
one of X_B borrows from no neighbour, and field j of the product, the sum
of the fields 0..j of X_L, is at most deg(L) < 2^(W-2).

Completion follows the pair update of Gebauer & Moeller (1988), which
carries over to strong bases over the integers (Lichtblau 2012); see
``strong_groebner``.  The certificate ``_is_strong_basis`` shares its S-
and G-polynomial builder, product criterion included.  Polynomials built
from reduction output take their leading term from the order of its keys.

Z-module invariants of a quotient are read off the standard monomials of
the basis together with their leading-coefficient relations.  They are
``exact`` when the standard monomial set is finite and the basis passes
Buchberger's criterion over the integers (Kandri-Rody & Kapur 1988;
Lichtblau 2012): every input generator and structural relation reduces to
zero, and so do the G-polynomial and, unless they form a product pair
(``_pair_polys``), the S-polynomial of every pair of basis elements.
"""

from __future__ import annotations

import heapq
import itertools
import struct
import sys
from array import array
from math import gcd, inf

from .abelian import group_from_relations, xgcd
from .groupring import GroupRingElement

#: cap on the number of standard monomials the staircase walk visits
BOX_LIMIT = 20000

_W = 8 * array("I").itemsize  # bits per exponent field of a packed monomial


def _pack(E):
    """K(E) of the module docstring, for an exponent E within the bounds."""
    return (sum(E) << _W * len(E)) - int.from_bytes(array("I", E), sys.byteorder)


def _unpack(K, n):
    """The exponent vector of n entries that K packs."""
    return tuple(array("I", (-K & ((1 << _W * n) - 1)).to_bytes(_W // 8 * n, sys.byteorder)))


def _lcm_packer(n):
    """The function (K(A), K(B)) -> K(lcm(A, B)) on n variables, for
    exponents of degree below 2^(W-3): the packed lcm of the module
    docstring."""
    low, field, top = (1 << _W * n) - 1, (1 << _W) - 1, _W * max(n - 1, 0)
    ones = low // field  # 1 in each field
    H = ones << (_W - 1)

    def lcm(KA, KB):
        XA, XB = -KA & low, -KB & low
        mask = ((((XA | H) - XB) & H) >> (_W - 1)) * field
        X = (XA & mask) | (XB & (low ^ mask))
        return ((X * ones >> top & field) << _W * n) - X
    return lcm


def _check_degree(E):
    """E, or ValueError if its total degree is too high to pack; the message
    shows E only while its degree has at most 64 bits, so it stays short."""
    d = sum(E)
    if d >> (_W - 3):
        what = f"exponent {E} has total degree {d}" if d.bit_length() <= 64 else \
            f"an exponent has a total degree of {d.bit_length()} bits"
        raise ValueError(f"{what}; total degrees must stay below 2^{_W - 3}")
    return E


class PolyPresentation:
    """Polynomial model of a group ring.

    The variable order is y1, y1', ..., yr, yr', s1, ..., sk, and a
    presentation needs at least these 2r + k names.  The structural
    relations, given as {exponent tuple: int} dicts, are part of every ideal
    built over the presentation; ``_structural`` holds them packed.
    ``_mask`` is the H of the module docstring, ``_lcm`` the packed lcm,
    ``_steps`` holds K(x_v) per variable, ``_units`` (K(yi), K(yi')) per
    free coordinate and (K(sj), K(sj)) per residue, K > ``_limit`` =
    (2^(W-3) - 1)*2^(W*n) exactly when the degree of K reaches 2^(W-3), and
    ``_lanes`` serves ``_decode``.
    """

    __slots__ = ("group", "names", "num_vars", "_structural", "_mask", "_lcm", "_steps", "_units", "_limit", "_lanes")

    def __init__(self, group, names, structural):
        self.group = group
        self.names = tuple(names)
        self.num_vars = n = len(self.names)
        r = group.free_rank
        if n < 2 * r + len(group.torsion):
            raise ValueError(f"{n} variable names for a group whose encoding uses {2 * r + len(group.torsion)}")
        self._structural = [self._pack_relation(f) for f in structural]
        self._mask = ((1 << _W * n) - 1) // ((1 << _W) - 1) << (_W - 1)
        self._lcm = _lcm_packer(n)
        K = [(1 << _W * n) - (1 << _W * v) for v in range(n)]
        self._steps = K
        self._units = list(zip(K[:2 * r:2], K[1:2 * r:2])) + [(k, k) for k in K[2 * r:]]
        self._limit = ((1 << (_W - 3)) - 1) << (_W * n)
        lanes = range(0, 2 * _W * r, 2 * _W)  # lane i holds the fields of yi and yi'
        self._lanes = (sum(((1 << _W) - 1) << b for b in lanes), sum(1 << (b + 2 * _W - 1) for b in lanes),
                       2 * _W * r, struct.Struct(f"<{r}q{n - 2 * r}I"))

    def _pack_relation(self, f):
        """The packed term dict of {exponent tuple: int}, zero terms dropped:
        TypeError unless exponents and coefficients are ints, ValueError for
        an exponent of the wrong length, a negative entry or too high a
        degree."""
        packed = {}
        for E, c in f.items():
            if not (isinstance(c, int) and all(isinstance(e, int) for e in E)):
                raise TypeError(f"exponents and coefficients must be ints, got {E!r}: {c!r}")
            if len(E) != self.num_vars or min(E, default=0) < 0:
                raise ValueError(f"exponent {E!r} is not {self.num_vars} nonnegative ints")
            if c:
                packed[_pack(_check_degree(E))] = c
        return packed

    @classmethod
    def for_group(cls, group):
        """The presentation with the relations yi*yi' - 1 and sj^mj - 1,
        packed as K(yi) + K(yi') and mj*K(sj)."""
        r, torsion = group.free_rank, group.torsion
        names = [f"y{i // 2 + 1}" + "'" * (i % 2) for i in range(2 * r)] + [f"s{j + 1}" for j in range(len(torsion))]
        p = cls(group, names, ())
        for v, m in enumerate(torsion, 2 * r):
            _check_degree((0,) * v + (m,) + (0,) * (len(names) - 1 - v))
        p._structural = [{P + N: 1, 0: -1} for P, N in p._units[:r]] + \
            [{m * S: 1, 0: -1} for m, (S, _) in zip(torsion, p._units[r:])]
        return p

    def _encode(self, e):
        """Packed term dict of a group-ring element over the group, keyed by
        K(key) = sum of ai*K(yi) (ai >= 0) or |ai|*K(yi') (ai < 0), plus
        cj*K(sj).  K > _limit exactly when the degree sum |ai| + sum cj
        reaches 2^(W-3), which raises ValueError naming the exponent."""
        self.group.require_same(e.group)
        packed = {}
        for key, c in e.terms.items():
            K = 0
            for a, (P, N) in zip(key, self._units):
                K += a * P if a >= 0 else -a * N
            packed[K] = c
        if packed and max(packed) > self._limit:
            r = self.group.free_rank
            for key in e.terms:
                _check_degree(sum(((a, 0) if a >= 0 else (0, -a) for a in key[:r]), ()) + key[r:])
        return packed

    def _decode(self, packed):
        """Group-ring term dict of packed reduction output, exact on normal
        forms (never both yi and yi', nor sj^mj).  Field v of L = -K holds
        e_v; lane i of (L & even) + bias - (L >> W & even), 2W bits with the
        bias 2^(2W-1) against borrows, is e_(2i) - e_(2i+1) once xored with
        the bias, and one unpack reads these and the residues after them."""
        low = (1 << _W * self.num_vars) - 1
        even, bias, top, fmt = self._lanes
        terms = {}
        for K, c in packed.items():
            L = -K & low
            lanes = ((L & even) + bias - (L >> _W & even)) ^ bias
            terms[fmt.unpack((lanes | L >> top << top).to_bytes(fmt.size, "little"))] = c
        return terms

    def __repr__(self):
        return f"PolyPresentation({', '.join(self.names)})"


def _reduce_terms(terms, reducers, H):
    """Full reduction of a packed term dict by polynomials with positive
    leading coefficients, given as (K(LM), lc, [(K(F), c) for the other
    terms]) (``StrongGroebnerBasis._reducers``); H is the mask
    of the module docstring.

    Every output term has its coefficient in [0, lc(g)) for every reducer g
    whose leading monomial divides it.  Keys are taken largest first from a
    heap of negated keys, skipping those that left ``work`` (cancelled or
    taken).  Reduction only adds terms below the one reduced, so the output
    lists its terms largest first.  One pass over the divisors in reducer
    order suffices: each step leaves the coefficient in [0, a).
    """
    work = dict(terms)
    heap = [-K for K in work]
    heapq.heapify(heap)
    out = {}
    while heap:
        K = -heapq.heappop(heap)
        c = work.pop(K, 0)
        if not c:
            continue
        for KB, a, tail in reducers:
            if (KB - K + H) & H == H:
                q = c // a
                if q:
                    c -= q * a
                    shift = K - KB
                    for F, cf in tail:
                        key = shift + F
                        val = work.get(key)
                        if val is None:
                            work[key] = -q * cf
                            heapq.heappush(heap, -key)
                        else:
                            val -= q * cf
                            if val:
                                work[key] = val
                            else:
                                del work[key]
                    if not c:
                        break
        if c:
            out[K] = c
    return out


class StrongGroebnerBasis:
    """Reduced strong Groebner basis, deterministic for a fixed input.

    ``strong_groebner`` records the work of its completion in COUNTERS,
    plain ints, zero on a basis built any other way: pairs queued, popped,
    skipped by the chain criterion or spared their S-polynomial by the
    product criterion; reductions, and those to zero; elements retired; and
    the peak number of live elements.  ``elements`` and ``seeds`` hold
    packed term dicts, never written after construction; an element's
    leading term is its largest key, as int order is grevlex order, and
    ``decoded()`` reads the elements as {exponent tuple: int} dicts.
    ``seeds`` holds the inputs, for the certificate ``_is_strong_basis``.
    """

    COUNTERS = ("pairs_queued", "pairs_popped", "chain_skipped", "product_skipped", "reductions",
                "reductions_to_zero", "retired", "peak_live")

    __slots__ = ("presentation", "elements", "seeds", "_reducers") + COUNTERS

    def __init__(self, presentation, elements, seeds, **counters):
        self.presentation = presentation
        self.elements = tuple(elements)
        self.seeds = tuple(seeds)
        self._reducers = [(KB, f[KB], [(K, c) for K, c in f.items() if K != KB])
                          for f, KB in zip(self.elements, map(max, self.elements))]
        for name in self.COUNTERS:
            setattr(self, name, counters.get(name, 0))

    def decoded(self):
        """The elements as {exponent tuple: int} dicts in the presentation's
        variables, in element order and in the order of their terms."""
        n = self.presentation.num_vars
        return [{_unpack(K, n): c for K, c in f.items()} for f in self.elements]

    def __repr__(self):
        return f"StrongGroebnerBasis({len(self.elements)} elements)"


def _pair_polys(f, g, L):
    """(product, polys) for f and g, given by their reducer data, and the
    packed lcm L of their leading monomials.  product: the leading monomials
    (K(A) + K(B) = L) and coefficients are coprime.  polys: the packed
    S-polynomial unless product, and the G-polynomial unless one leading
    coefficient divides the other.

    With leading terms a*X^A and b*X^B, each is x*X^(L-A)*f + y*X^(L-B)*g:
    (l/a, -l/b) for l = lcm(a, b), so the leading terms cancel, and the
    Bezout pair of x*a + y*b = gcd(a, b), which leaves gcd(a, b)*X^L.
    Neither x nor y is zero, and the shifted tails lie below X^L.  A
    product pair's S-polynomial is g*tail(f) - f*tail(g), an
    lcm-representation (Buchberger's first criterion; Lichtblau 2012).
    """
    (KA, a, ftail), (KB, b, gtail) = f, g
    u, v = L - KA, L - KB

    def shifted_tails(x, y):
        terms = {K + u: x * c for K, c in ftail}
        for K, c in gtail:
            c = terms.get(K + v, 0) + y * c
            if c:
                terms[K + v] = c
            else:
                del terms[K + v]
        return terms

    d = gcd(a, b)
    product = d == 1 and KA + KB == L
    out = [] if product else [shifted_tails(b // d, -(a // d))]
    if a % b and b % a:
        d, x, y = xgcd(a, b)
        out.append({L: d, **shifted_tails(x, y)})
    return product, out


def strong_groebner(gens, presentation):
    """Complete the group-ring elements ``gens`` plus the structural
    relations to a reduced strong Groebner basis of their ideal over
    ``presentation``.  An element over another group, or a term whose
    degree is too high for the packed encoding (see the module docstring),
    raises ValueError.  ``_complete`` does the work on the packed terms."""
    return _complete([presentation._encode(g) for g in gens], presentation)


def _complete(seeds, presentation):
    """Complete a list of packed term dicts ``seeds`` plus the structural
    relations to a reduced strong Groebner basis.

    Pairs (i, j) of basis elements wait in a queue ordered by the packed
    L = lcm(LM_i, LM_j), that is by its grevlex order, then by (i, j); a
    popped pair adds the reductions of its S-polynomial and its
    G-polynomial, when nonzero, to the basis.  The update rule (Gebauer &
    Moeller 1988; over the integers, Lichtblau 2012):

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
      LM_i, LM_j are coprime, a product pair (see ``_pair_polys``).  The
      G-polynomial is still reduced when neither lc divides the other.

    Retiring g is sound over the integers because the coefficient divides
    too: h reduces every term that g reduces, to a remainder in [0, lc_h),
    inside [0, lc_g); and g = (lc_g/lc_h) X^(LM_g - LM_h) h + S(g, h), the
    S-polynomial of the queued pair (g, h).  A later h' needs no pair with
    g: as in the chain criterion, LM_h | lcm(LM_g, LM_h') and lc_h | lc_g,
    and the pairs (g, h) and (h, h') are formed.  G-polynomials are never
    skipped, the live elements are interreduced, and ``_is_strong_basis``
    rechecks every pair but the product pairs.  A new element whose leading
    monomial reaches the degree bound raises ValueError.
    """
    H, lcm = presentation._mask, presentation._lcm
    distinct = {}  # distinct nonzero inputs up to sign, in input order
    for terms in itertools.chain(seeds, presentation._structural):
        if terms:
            if terms[max(terms)] < 0:
                terms = {K: -c for K, c in terms.items()}
            distinct.setdefault(frozenset(terms.items()), terms)

    data = []  # reducer data of every element ever added; pairs refer to their indices
    until = []  # index of the element that retired data[k], or inf while it is live
    partners = []  # partners[j]: the elements live when data[j] came, ascending
    live = []  # indices of the live elements, ascending
    reducers = []  # reducer data of the live elements, in the same order
    pairs = []
    work = dict.fromkeys(StrongGroebnerBasis.COUNTERS, 0)

    def add_element(terms):
        j = len(data)
        items = list(terms.items())
        (KB, b), tail = items[0], items[1:]
        if KB > presentation._limit:
            _check_degree(_unpack(KB, presentation.num_vars))
        for k in live:
            KC, c, _ = data[k]
            heapq.heappush(pairs, (lcm(KC, KB), k, j))
            if c % b == 0 and (KB - KC + H) & H == H:
                until[k] = j
                work["retired"] += 1
        work["pairs_queued"] += len(live)
        data.append((KB, b, tail))
        until.append(inf)
        partners.append(tuple(live))
        live[:] = [k for k in live if until[k] > j] + [j]
        reducers[:] = [data[k] for k in live]
        work["peak_live"] = max(work["peak_live"], len(live))

    def chain_skips(i, j, L):
        # i < j.  k may serve only if its pairs with i and with j were both
        # queued: k <= until[i] and k <= until[j], and an older k was still
        # live when j came.  Those pairs were popped before (i, j): see the
        # docstring.  The older k that qualify are partners[j].
        (KA, a, _), (KB, b, _) = data[i], data[j]
        l = max(a, b)  # lcm(a, b), as one divides the other
        newer = range(j + 1, min(until[i], until[j], len(data) - 1) + 1)
        for k in itertools.chain(partners[j], newer):
            KC, c, _ = data[k]
            if (k != i and k != j and l % c == 0 and (KC - L + H) & H == H
                    and lcm(KA, KC) != L and lcm(KB, KC) != L):
                return True
        return False

    def reduce_and_add(terms):
        work["reductions"] += 1
        r = _reduce_terms(terms, reducers, H)
        if r:
            add_element(r if next(iter(r.values())) > 0 else {K: -c for K, c in r.items()})
        else:
            work["reductions_to_zero"] += 1

    for terms in distinct.values():
        reduce_and_add(terms)

    while pairs:
        L, i, j = heapq.heappop(pairs)
        work["pairs_popped"] += 1
        a, b = data[i][1], data[j][1]
        if (a % b == 0 or b % a == 0) and chain_skips(i, j, L):
            work["chain_skipped"] += 1
            continue
        product, polys = _pair_polys(data[i], data[j], L)
        work["product_skipped"] += product
        for combo in polys:
            reduce_and_add(combo)

    return StrongGroebnerBasis(presentation, _interreduce(reducers, H), seeds, **work)


def _interreduce(reducers, H):
    """Tail-reduce each live element, given by its reducer data, by all of
    them, as packed term dicts in (K(LM), lc) order, leading term first.  No
    live leading term divides another's with its coefficient, so none is
    dropped, and one pass leaves every tail term irreducible."""
    return [{KB: a, **_reduce_terms(dict(tail), reducers, H)}
            for KB, a, tail in sorted(reducers, key=lambda f: f[:2])]


def normal_form(e, gb):
    """The reduced element of the class of the group-ring element e modulo
    the ideal of the basis: its terms are reduced as packed monomials and
    read back as keys, so the elements of one class give one result.  An
    element over another group, or a term whose degree is too high for the
    packed encoding, raises ValueError."""
    p = gb.presentation
    return GroupRingElement._of(p.group, p._decode(_reduce_terms(p._encode(e), gb._reducers, p._mask)))


class AbGroupInvariants:
    """Abelian-group structure of a quotient ring, with an honesty status.

    status is "exact" (a verified strong basis, finitely many standard
    monomials), "not_finitely_generated" (a verified strong basis, infinitely
    many), or "unknown" (the basis fails the check, or the staircase holds
    more than BOX_LIMIT standard monomials).
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
        return f"AbGroupInvariants(rank={self.free_rank}, torsion={list(self.torsion)}, status={self.status})"

    def to_json(self):
        return {"rank": self.free_rank, "torsion": list(self.torsion), "status": self.status}


def _standard_monomials(gb):
    """Standard monomials of the quotient as ascending packed ints, None if
    infinitely many.

    A monomial is standard when no unit-lc leading monomial divides it; the
    set is finite exactly when each variable x_v has such a pure power,
    K = deg(K)*K(x_v).  The walk reaches each standard monomial once, adding
    K(x_v) to the one with its last nonzero coordinate v lowered by one, as
    the standard monomials are closed under division; it stops after
    BOX_LIMIT + 1 of them.
    """
    p = gb.presentation
    n, H, steps = p.num_vars, p._mask, p._steps
    units = [KB for KB, a, _ in gb._reducers if a == 1]
    if 0 in units:
        return []  # a unit constant: the quotient is trivial
    if not all(any(KB == -(-KB >> _W * n) * U for KB in units) for U in steps):
        return None
    standard = []
    walk = [(0, 0)]  # a monomial and the first variable it may raise
    while walk and len(standard) <= BOX_LIMIT:
        K, first = walk.pop()
        standard.append(K)
        for v in range(first, n):
            F = K + steps[v]
            if not any((KB - F + H) & H == H for KB in units):
                walk.append((F, v))
    standard.sort()
    return standard


def _primary_invariants(gb, standard):
    """(rank, torsion) of the free module on the packed standard monomials
    modulo one row mu*E - NF(mu*E) for each standard E that some leading
    monomial divides, mu the least lc of those divisors; these have lc > 1.
    The Smith form runs on the columns some row touches; the other standard
    monomials are free."""
    reducers, H = gb._reducers, gb.presentation._mask
    nonunit = [(KB, a) for KB, a, _ in reducers if a != 1]
    rows = []
    for K in standard:
        divisors = [a for KB, a in nonunit if (KB - K + H) & H == H]
        if divisors:
            mu = min(divisors)
            nf = _reduce_terms({K: mu}, reducers, H)
            rows.append({K: mu, **{F: -c for F, c in nf.items()}})
    if not rows:
        return len(standard), ()
    touched = sorted({K for row in rows for K in row})
    matrix = [[row.get(K, 0) for K in touched] for row in rows]
    rank, torsion = group_from_relations(len(touched), matrix).invariants()
    return rank + len(standard) - len(touched), torsion


def _is_strong_basis(gb):
    """Buchberger's criterion for a strong basis over the integers.

    Passes only if every element has a positive leading coefficient and
    every input generator, structural relation and pair polynomial built by
    ``_pair_polys`` reduces to zero; it leaves out only S-polynomials with
    an lcm-representation.  The elements lie in the input ideal by
    construction, so passing proves that they form a strong Groebner basis
    of it.
    """
    reducers, H, lcm = gb._reducers, gb.presentation._mask, gb.presentation._lcm
    pair_polys = (h for f, g in itertools.combinations(reducers, 2) for h in _pair_polys(f, g, lcm(f[0], g[0]))[1])
    must_vanish = itertools.chain(gb.seeds, gb.presentation._structural, pair_polys)
    return all(a > 0 for _, a, _ in reducers) and not any(_reduce_terms(h, reducers, H) for h in must_vanish)


def zmodule_invariants(gb):
    """Abelian-group invariants of (polynomial ring)/(basis ideal) as a
    Z-module, with the status described in the module docstring: the
    staircase walk is bounded, the basis is checked by Buchberger's
    criterion, and the invariants are read off the standard monomials."""
    standard = _standard_monomials(gb)
    if (standard is not None and len(standard) > BOX_LIMIT) or not _is_strong_basis(gb):
        return AbGroupInvariants(None, (), AbGroupInvariants.UNKNOWN)
    if standard is None:
        return AbGroupInvariants(None, (), AbGroupInvariants.NOT_FG)
    rank, torsion = _primary_invariants(gb, standard)
    return AbGroupInvariants(rank, torsion, AbGroupInvariants.EXACT)
