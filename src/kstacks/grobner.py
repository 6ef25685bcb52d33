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
...: it is grevlex order (``_grevlex_key``).  K is linear, so a shift is
one addition, and a group-ring key packs with no exponent vector between:
``PolyPresentation._encode`` sums ai*K(yi) or |ai|*K(yi') and cj*K(sj),
and ``_decode`` reads the fields of -K back into a key.  The low fields of
K(B) - K(E) are the balanced digits e_i - b_i, so B | E exactly when
((K(B) - K(E) + H) & H) == H, where H has 2^(W-1) in each low field:
adding it sets a field's top bit just when its digit is >= 0.  This needs
every digit below 2^(W-1) in size, so packing a term of total degree
2^(W-3) or more raises ValueError, and so does a new basis element of that
degree; an S-polynomial term has degree at most deg LM_i + deg LM_j, and
reduction never raises the degree.  Basis elements keep tuple exponents
outside the kernels, and leading monomials keep their tuple for the pair
criteria, retirement and the staircase walk.

Completion follows the pair update of Gebauer & Moeller (1988), which
carries over to strong bases over the integers (Lichtblau 2012); see
``strong_groebner``.  The certificate ``_is_strong_basis`` builds S- and
G-polynomials with the same builder.  Polynomials built from reduction
output take their leading term from the order of its keys.

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
import struct
import sys
from array import array
from math import gcd, inf
from operator import le, neg

from .abelian import group_from_relations, xgcd
from .groupring import GroupRingElement

#: cap on the number of standard monomials the staircase walk visits
BOX_LIMIT = 20000

_W = 8 * array("I").itemsize  # bits per exponent field of a packed monomial


def _grevlex_key(exp):
    return (sum(exp), tuple(map(neg, exp[::-1])))


def _divides(B, E):
    return all(map(le, B, E))


def _lcm_exponent(A, B):
    return tuple(map(max, A, B))


def _pack(E):
    """K(E) of the module docstring, for an exponent E within the bounds."""
    return (sum(E) << _W * len(E)) - int.from_bytes(array("I", E), sys.byteorder)


def _unpack(K, n):
    """The exponent vector of n entries that K packs."""
    return tuple(array("I", (-K & ((1 << _W * n) - 1)).to_bytes(_W // 8 * n, sys.byteorder)))


def _check_degree(E):
    """E, or ValueError if its total degree is too high to pack; the message
    shows E only while its degree has at most 64 bits, so it stays short."""
    d = sum(E)
    if d >> (_W - 3):
        what = f"exponent {E} has total degree {d}" if d.bit_length() <= 64 else \
            f"an exponent has a total degree of {d.bit_length()} bits"
        raise ValueError(f"{what}; total degrees must stay below 2^{_W - 3}")
    return E


class IntPolynomial:
    """Sparse polynomial with integer coefficients and nonnegative exponents.

    Immutable by contract: ``terms`` is never written after construction,
    as the leading term and the reducer data (packed leading monomial, lc,
    packed tail) are cached.  Arithmetic belongs to ``GroupRingElement``.
    The public constructor checks every term (TypeError for anything but
    ints) and finds the leading term on first use; ``_interreduce`` skips
    both on reduction output.
    """

    __slots__ = ("terms", "_lt", "_reducer")

    def __init__(self, terms):
        clean = {}
        for exp, coeff in terms.items():
            if not (isinstance(coeff, int) and isinstance(sum(exp), int)):  # as abelian._require_ints
                raise TypeError(f"exponents and coefficients must be ints, got {exp!r}: {coeff!r}")
            if coeff:
                if min(exp, default=0) < 0:
                    raise ValueError("exponents must be nonnegative")
                clean[tuple(exp)] = coeff
        self.terms = clean
        self._lt = None
        self._reducer = None

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
        """(K(LM), lc, [(K(F), c) for the other terms]), as ``_reduce_terms``
        reads a reducer."""
        if self._reducer is None:
            B, a = self.leading_term()
            self._reducer = (_pack(B), a, [(_pack(E), c) for E, c in self.terms.items() if E != B])
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
    presentation; ``_structural`` holds them packed.  ``_mask`` is the H of
    the module docstring, ``_units`` holds (K(yi), K(yi')) per free
    coordinate and (K(sj), K(sj)) per residue, K > ``_limit`` =
    (2^(W-3) - 1)*2^(W*n) exactly when the degree of K reaches 2^(W-3), and
    ``_lanes`` serves ``_decode``.
    """

    __slots__ = ("group", "names", "num_vars", "structural", "_structural", "_mask", "_units", "_limit", "_lanes")

    def __init__(self, group, names, structural):
        self.group = group
        self.names = tuple(names)
        self.num_vars = n = len(self.names)
        self.structural = tuple(structural)
        self._structural = [{_pack(_check_degree(E)): c for E, c in f.terms.items()} for f in self.structural]
        self._mask = sum(1 << (_W * i + _W - 1) for i in range(n))
        r, K = group.free_rank, [(1 << _W * n) - (1 << _W * v) for v in range(n)]
        self._units = list(zip(K[:2 * r:2], K[1:2 * r:2])) + [(k, k) for k in K[2 * r:]]
        self._limit = ((1 << (_W - 3)) - 1) << (_W * n)
        lanes = range(0, 2 * _W * r, 2 * _W)  # lane i holds the fields of yi and yi'
        self._lanes = (sum(((1 << _W) - 1) << b for b in lanes), sum(1 << (b + 2 * _W - 1) for b in lanes),
                       2 * _W * r, struct.Struct(f"<{r}q{n - 2 * r}I"))

    @classmethod
    def for_group(cls, group):
        r, torsion = group.free_rank, group.torsion
        names = [f"y{i // 2 + 1}" + "'" * (i % 2) for i in range(2 * r)] + [f"s{j + 1}" for j in range(len(torsion))]
        nvars = len(names)
        # yi*yi' - 1 sets positions 2i and 2i+1 to 1; sj^mj - 1 sets 2r+j to mj
        leads = [(2 * i, 2 * i + 1, 1) for i in range(r)] + [(2 * r + j, 2 * r + j, m) for j, m in enumerate(torsion)]
        structural = []
        for v, w, m in leads:
            exp = [0] * nvars
            exp[v] = exp[w] = m
            structural.append(IntPolynomial({tuple(exp): 1, (0,) * nvars: -1}))
        return cls(group, names, structural)

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
    leading coefficients, given by their ``_reducer_data()``; H is the mask
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
    the peak number of live elements.  ``seeds`` holds the inputs as packed
    term dicts, for the certificate ``_is_strong_basis``.
    """

    COUNTERS = ("pairs_queued", "pairs_popped", "chain_skipped", "product_skipped", "reductions",
                "reductions_to_zero", "retired", "peak_live")

    __slots__ = ("presentation", "elements", "seeds", "_reducers") + COUNTERS

    def __init__(self, presentation, elements, seeds, **counters):
        self.presentation = presentation
        self.elements = tuple(elements)
        self.seeds = tuple(seeds)
        self._reducers = [f._reducer_data() for f in self.elements]
        for name in self.COUNTERS:
            setattr(self, name, counters.get(name, 0))

    def __repr__(self):
        return f"StrongGroebnerBasis({len(self.elements)} elements)"


def _pair_polys(f, g, L, s_poly=True):
    """Packed term dicts of the S-polynomial of f and g, given by their
    reducer data, unless ``s_poly`` is false, and, unless one leading
    coefficient divides the other, of their G-polynomial; L is the packed
    lcm of their leading monomials.

    With leading terms a*X^A and b*X^B, each is x*X^(L-A)*f + y*X^(L-B)*g:
    (l/a, -l/b) for l = lcm(a, b), so the leading terms cancel, and the
    Bezout pair of x*a + y*b = gcd(a, b), which leaves gcd(a, b)*X^L.
    Neither x nor y is zero, and the shifted tails lie below X^L.
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

    l = a // gcd(a, b) * b
    out = [shifted_tails(l // a, -(l // b))] if s_poly else []
    if a % b and b % a:
        d, x, y = xgcd(a, b)
        out.append({L: d, **shifted_tails(x, y)})
    return out


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
    ``_is_strong_basis`` checks every pair.  A new element whose leading
    monomial reaches the degree bound raises ValueError.
    """
    n, H = presentation.num_vars, presentation._mask
    distinct = {}  # distinct nonzero inputs up to sign, in input order
    for terms in itertools.chain(seeds, presentation._structural):
        if terms:
            if terms[max(terms)] < 0:
                terms = {K: -c for K, c in terms.items()}
            distinct.setdefault(frozenset(terms.items()), terms)

    data = []  # reducer data of every element ever added; pairs refer to their indices
    lts = []  # leading monomials as tuples, with their lcs
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
        B = _unpack(KB, n)
        _check_degree(B)
        for i in live:
            heapq.heappush(pairs, (_pack(_lcm_exponent(lts[i][0], B)), i, j))
        work["pairs_queued"] += len(live)
        data.append((KB, b, tail))
        lts.append((B, b))
        until.append(inf)
        partners.append(tuple(live))
        for k in live:
            C, c = lts[k]
            if c % b == 0 and _divides(B, C):
                until[k] = j
                work["retired"] += 1
        live[:] = [k for k in live if until[k] > j] + [j]
        reducers[:] = [data[k] for k in live]
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
            if (k != i and k != j and l % c == 0 and _divides(C, L)
                    and _lcm_exponent(A, C) != L and _lcm_exponent(B, C) != L):
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
        KL, i, j = heapq.heappop(pairs)
        work["pairs_popped"] += 1
        (A, a), (B, b) = lts[i], lts[j]
        if (a % b == 0 or b % a == 0) and chain_skips(i, j, _lcm_exponent(A, B)):
            work["chain_skipped"] += 1
            continue
        coprime = gcd(a, b) == 1 and not any(map(min, A, B))
        work["product_skipped"] += coprime
        for combo in _pair_polys(data[i], data[j], KL, s_poly=not coprime):
            reduce_and_add(combo)

    return StrongGroebnerBasis(presentation, _interreduce(reducers, H, n), seeds, **work)


def _interreduce(reducers, H, n):
    """Tail-reduce each live element, given by its reducer data, by all of
    them.  No live leading term divides another's with its coefficient, so
    none is dropped, and one pass leaves every tail term irreducible."""
    reduced = []
    for KB, a, tail in reducers:
        r = _reduce_terms(dict(tail), reducers, H)
        f = IntPolynomial.__new__(IntPolynomial)
        f.terms = {_unpack(K, n): c for K, c in {KB: a, **r}.items()}
        f._lt, f._reducer = next(iter(f.terms.items())), (KB, a, list(r.items()))
        reduced.append(f)
    reduced.sort(key=lambda f: f._reducer[:2])
    return reduced


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
    """Finite standard-monomial set of the quotient, or None if infinite.

    A monomial is standard when it is not divisible by the leading monomial
    of any unit-leading-coefficient basis element; the set is finite exactly
    when each variable has such a pure power.  The walk reaches each
    standard monomial once, from the one with its last nonzero coordinate
    lowered by one, as the standard monomials are closed under division;
    more than BOX_LIMIT of them raise _BoxTooLarge.
    """
    nvars = gb.presentation.num_vars
    unit_lms = [B for B, a in (f.leading_term() for f in gb.elements) if a == 1]
    if any(not any(B) for B in unit_lms):
        return []  # a unit constant: the quotient is trivial
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
    """(rank, torsion) of the free module on the standard monomials modulo
    one row mu*E - NF(mu*E) for each standard E that some leading monomial
    divides, mu the least lc of those divisors.  The Smith form runs on the
    columns some row touches; the other standard monomials are free."""
    reducers, H = gb._reducers, gb.presentation._mask
    rows = []
    for K in map(_pack, standard):
        divisors = [a for KB, a, _ in reducers if (KB - K + H) & H == H]
        if divisors:
            mu = min(divisors)
            nf = _reduce_terms({K: mu}, reducers, H)
            rows.append({K: mu, **{F: -c for F, c in nf.items()}})
    touched = sorted({K for row in rows for K in row})
    matrix = [[row.get(K, 0) for K in touched] for row in rows]
    rank, torsion = group_from_relations(len(touched), matrix).invariants()
    return rank + len(standard) - len(touched), torsion


def _is_strong_basis(gb):
    """Buchberger's criterion for a strong basis over the integers.

    Passes only if every element has a positive leading coefficient, every
    input generator and structural relation reduces to zero, and every pair
    of elements has an S-polynomial and a G-polynomial that reduce to zero.
    The elements lie in the input ideal by construction, so passing proves
    that they form a strong Groebner basis of it.
    """
    reducers, H = gb._reducers, gb.presentation._mask
    if any(a < 0 for _, a, _ in reducers):
        return False
    lms = [f.leading_term()[0] for f in gb.elements]
    pairs = itertools.combinations(range(len(lms)), 2)
    must_vanish = itertools.chain(
        gb.seeds, gb.presentation._structural,
        (h for i, j in pairs
         for h in _pair_polys(reducers[i], reducers[j], _pack(_lcm_exponent(lms[i], lms[j])))),
    )
    return not any(_reduce_terms(h, reducers, H) for h in must_vanish)


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
