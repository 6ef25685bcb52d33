"""Shared independent oracles for the test suite."""

import heapq
import itertools
import math
from fractions import Fraction
from operator import add, sub

from kstacks.abelian import IntMatrix, group_from_relations, xgcd
from kstacks.grobner import present
from kstacks.groupring import GroupRingElement


def determinant(M):
    """Cofactor-expansion determinant; independent of the SNF machinery."""
    n = M.rows
    assert n == M.cols
    rows = [list(r) for r in M.entries]

    def rec(rs):
        if len(rs) == 1:
            return rs[0][0]
        total = 0
        sign = 1
        for j in range(len(rs)):
            if rs[0][j]:
                minor = [r[:j] + r[j + 1:] for r in rs[1:]]
                total += sign * rs[0][j] * rec(minor)
            sign = -sign
        return total

    return rec(rows)


def check_smith_decomposition(A, snf):
    """Assert that ``snf`` is a Smith normal form of A.

    With V unimodular, these checks hold exactly when some unimodular U has
    U @ A @ V = diag(d): the determinantal divisors of A fix d, and the
    columns of A @ V, divided by the nonzero d_j, have maximal minors with
    gcd 1, so they extend to a unimodular matrix.
    """
    m, n = A.rows, A.cols
    assert snf.V @ snf.V_inv == IntMatrix.identity(n)
    assert snf.V_inv @ snf.V == IntMatrix.identity(n)
    d = snf.invariant_factors
    assert len(d) == min(m, n)
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        assert b % a == 0 if a else b == 0
    AV = A @ snf.V
    for j in range(n):
        dj = d[j] if j < m else 0
        for i in range(m):
            assert (AV.entries[i][j] % dj == 0) if dj else AV.entries[i][j] == 0
    product = 1
    for k in range(1, min(m, n) + 1):
        product *= d[k - 1]
        divisor = 0
        for rows in itertools.combinations(range(m), k):
            for cols in itertools.combinations(range(n), k):
                minor = IntMatrix([[A.entries[i][j] for j in cols] for i in rows])
                divisor = math.gcd(divisor, determinant(minor))
        assert divisor == product, (k, divisor, d)


def equal_up_to_unit(a, b):
    """Whether two group-ring elements differ by a monomial factor."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    G, r = a.group, a.group.free_rank
    ka, kb = min(a.terms), min(b.terms)
    elem_a = G.element_canonical(ka[:r], ka[r:])
    elem_b = G.element_canonical(kb[:r], kb[r:])
    shift = GroupRingElement.monomial(elem_a - elem_b)
    return a == shift * b


def fraction_annihilator_exists(degree_rows):
    """Phase-one simplex with Bland's rule on Fraction arithmetic: the
    feasibility of { e >= 0, sum(e) = 1, A e = 0 } with the columns of A
    the free parts in degree_rows.  The library's integer tableau takes the
    same pivots; this is the rational tableau it replaced."""
    n = len(degree_rows)
    table = [[Fraction(x) for x in row] + [Fraction(0)] for row in zip(*degree_rows)]
    table.append([Fraction(1)] * (n + 1))
    m = len(table)
    basis = [n + i for i in range(m)]
    reduced = [sum(column) for column in zip(*table)]
    while True:
        entering = next((j for j in range(n) if reduced[j] > 0), None)
        if entering is None:
            return reduced[n] == 0
        leaving = None
        best = None
        for i in range(m):
            if table[i][entering] > 0:
                ratio = table[i][n] / table[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        piv = table[leaving][entering]
        table[leaving] = [x / piv for x in table[leaving]]
        for i in range(m):
            if i != leaving and table[i][entering]:
                f = table[i][entering]
                table[i] = [a - f * b for a, b in zip(table[i], table[leaving])]
        f = reduced[entering]
        reduced = [a - f * b for a, b in zip(reduced, table[leaving])]
        basis[leaving] = entering


def _fp_leading(f):
    # degree-lexicographic order, unlike the engine's grevlex
    return max(f, key=lambda e: (sum(e), e))


def _fp_divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def _fp_shifted_sub(f, g, shift, c, p):
    """f - c * X^shift * g in place, over F_p."""
    for e, d in g.items():
        key = tuple(map(add, e, shift))
        v = (f.get(key, 0) - c * d) % p
        if v:
            f[key] = v
        else:
            f.pop(key, None)


def _fp_reduce(f, basis, p):
    """Remainder of f on division by ``basis``, a list of (leading exponent,
    monic polynomial) over F_p; polynomials are dicts from exponent tuples to
    nonzero residues."""
    f, rest = dict(f), {}
    while f:
        lead = _fp_leading(f)
        for g_lead, g in basis:
            if _fp_divides(g_lead, lead):
                _fp_shifted_sub(f, g, tuple(map(sub, lead, g_lead)), f[lead], p)
                break
        else:
            rest[lead] = f.pop(lead)
    return rest


def fp_quotient_dimension(generators, presentation, p, limit=5000):
    """Dimension over F_p of the group ring of ``presentation.group`` modulo
    the ideal of the group-ring ``generators``.

    Plain Buchberger over the field F_p on the y, y', s variables with the
    structural relations y*y' - 1 and s^m - 1; it shares no code with the
    integer engine but ``present``.  The dimension is the number of standard
    monomials, walked up from 1; more than ``limit`` fails the calling test.
    """
    group, n = presentation.group, presentation.num_vars
    r = group.free_rank

    def monomial(*pairs):
        exp = [0] * n
        for i, k in pairs:
            exp[i] = k
        return tuple(exp)

    one = monomial()
    pending = [present(q, presentation).terms for q in generators]
    pending += [{monomial((2 * i, 1), (2 * i + 1, 1)): 1, one: -1} for i in range(r)]
    pending += [{monomial((2 * r + j, m)): 1, one: -1} for j, m in enumerate(group.torsion)]
    pending = [{e: c % p for e, c in f.items() if c % p} for f in pending]
    basis = []
    while pending:
        f = _fp_reduce(pending.pop(), basis, p)
        if not f:
            continue
        lead = _fp_leading(f)
        inverse = pow(f[lead], -1, p)
        f = {e: c * inverse % p for e, c in f.items()}
        for g_lead, g in basis:
            # the S-polynomial of (g, f), skipped for coprime leading monomials
            lcm = tuple(map(max, g_lead, lead))
            if lcm == tuple(map(add, g_lead, lead)):
                continue
            s = {}
            _fp_shifted_sub(s, g, tuple(map(sub, lcm, g_lead)), -1, p)
            _fp_shifted_sub(s, f, tuple(map(sub, lcm, lead)), 1, p)
            pending.append(s)
        basis.append((lead, f))
    standard, frontier = {one}, [one]
    while frontier:
        e = frontier.pop()
        for i in range(n):
            up = e[:i] + (e[i] + 1,) + e[i + 1:]
            if up not in standard and not any(_fp_divides(g_lead, up) for g_lead, _ in basis):
                standard.add(up)
                frontier.append(up)
                assert len(standard) <= limit, "the F_p quotient looks infinite"
    return len(standard)


def brute_force_numerator(degrees, components, functional, window):
    """Monomial-counting Hilbert numerator over a rank-one grading.

    Counts the monomials outside the intersection of the coordinate ideals
    given by ``components`` (index lists), weighted by ``functional`` (a sign
    making every weighted degree positive), up to weighted degree ``window``;
    multiplies the count series by the product of (1 - t^deg) over all
    variables; returns {degree: coefficient} restricted to the zone where the
    truncated computation is complete.
    """
    n = len(degrees)
    weights = [functional * d for d in degrees]
    assert all(w > 0 for w in weights)
    counts = {}

    def enumerate_exponents(i, remaining, exp):
        if i == n:
            in_all = all(any(exp[j] for j in comp) for comp in components)
            if not in_all:
                deg = sum(e * d for e, d in zip(exp, degrees))
                counts[deg] = counts.get(deg, 0) + 1
            return
        k = 0
        while k * weights[i] <= remaining:
            enumerate_exponents(i + 1, remaining - k * weights[i], exp + [k])
            k += 1

    enumerate_exponents(0, window, [])
    full = {}
    for mask in range(1 << n):
        sign = 1
        deg = 0
        for i in range(n):
            if mask & (1 << i):
                sign = -sign
                deg += degrees[i]
        for d, c in counts.items():
            key = d + deg
            full[key] = full.get(key, 0) + sign * c
    return {d: c for d, c in full.items() if functional * d <= window and c}


class _MacaulayLattice:
    """Integer echelon of the lattice spanned by the shifts t^beta * q of
    group-ring generators q, grown one shell of free shifts at a time.

    Each group element the lattice can reach gets an integer column: a
    mixed-radix code of its free coordinates and residues, whose natural
    order is the lexicographic order of the flat term keys, with the
    ``inside`` elements placed after all others.  A row's leading column is
    then ``min(row)``.  Pivot rows have distinct leading columns and
    positive leading entries, so whatever the insertion order, the rows
    that lead with an inside column span the lattice's intersection with
    the inside coordinates.
    """

    __slots__ = ("bound", "pivots", "_rank", "_lo", "_free_strides", "_res_strides",
                 "_inside", "_offset", "_shift_rows")

    def __init__(self, group, zgens, max_bound, inside):
        """``max_bound`` is the largest bound the lattice will grow to;
        ``inside`` holds the term keys (free + residues, flat) of the
        inside elements."""
        torsion = group.torsion
        self._rank = r = group.free_rank
        shifted = [key[:r] for q in zgens for key in q.terms]
        fixed = [key[:r] for key in inside]
        size = 1
        self._res_strides = []
        for m in reversed(torsion):
            self._res_strides.insert(0, size)
            size *= m
        self._lo = []
        self._free_strides = []
        for i in reversed(range(group.free_rank)):
            lo = min(itertools.chain((f[i] - max_bound for f in shifted), (f[i] for f in fixed)))
            hi = max(itertools.chain((f[i] + max_bound for f in shifted), (f[i] for f in fixed)))
            self._lo.insert(0, lo)
            self._free_strides.insert(0, size)
            size *= hi - lo + 1
        self._offset = size
        self._inside = frozenset(self._code(key) for key in inside)
        # one template per generator and torsion shift; a free shift adds a constant
        self._shift_rows = [
            [
                (self._code(key[:r] + tuple((x + s) % m for x, s, m in zip(key[r:], shift, torsion))), c)
                for key, c in q.terms.items()
            ]
            for q in zgens
            for shift in itertools.product(*(range(m) for m in torsion))
        ]
        self.bound = -1
        self.pivots = {}

    def _code(self, key):
        free, residues = key[:self._rank], key[self._rank:]
        return sum((x - lo) * s for x, lo, s in zip(free, self._lo, self._free_strides)) + sum(
            x * s for x, s in zip(residues, self._res_strides)
        )

    def grow(self, bound):
        """Insert the shifts whose largest free coordinate magnitude lies in
        (self.bound, bound]."""
        inside, offset = self._inside, self._offset
        strides = self._free_strides
        for b in range(self.bound + 1, bound + 1):
            for beta in itertools.product(range(-b, b + 1), repeat=len(strides)):
                if max(map(abs, beta), default=0) != b:
                    continue
                delta = sum(x * s for x, s in zip(beta, strides))
                for terms in self._shift_rows:
                    row = {}
                    for k, c in terms:
                        k += delta
                        row[k + offset if k in inside else k] = c
                    self._insert(row)
        self.bound = bound

    def _insert(self, row):
        pivots = self.pivots
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None:
                if row[c] < 0:
                    row = {k: -v for k, v in row.items()}
                self._set_pivot(c, row)
                return
            a, b = piv[c], row[c]
            if b % a == 0:
                _subtract(row, b // a, piv)
            else:
                g, x, y = xgcd(a, b)
                a, b = a // g, b // g
                new_piv = {}
                new_row = {}
                for k in piv.keys() | row.keys():
                    p, r = piv.get(k, 0), row.get(k, 0)
                    v = x * p + y * r
                    if v:
                        new_piv[k] = v
                    v = a * r - b * p
                    if v:
                        new_row[k] = v
                self._set_pivot(c, new_piv)
                row = new_row

    def _set_pivot(self, c, row):
        """Make ``row`` the pivot at column c, keeping the echelon in Hermite
        form: every pivot's entries at the other pivots' columns lie in
        [0, lead).  Without it the entries grow to millions of bits on small
        ideals."""
        pivots = self.pivots
        self._reduce_after(row, c)
        pivots[c] = row
        lead = row[c]
        for d, piv in pivots.items():
            v = piv.get(c)
            if d < c and v is not None and not 0 <= v < lead:
                _subtract(piv, v // lead, row)
                self._reduce_after(piv, c)

    def _reduce_after(self, row, c):
        """Reduce the entries of ``row`` at pivot columns after c into
        [0, lead), in increasing column order; a pivot at column d only
        changes entries at columns from d on."""
        pivots = self.pivots
        heap = [k for k in row if k > c and k in pivots]
        heapq.heapify(heap)
        last = c
        while heap:
            d = heapq.heappop(heap)
            if d == last:
                continue
            last = d
            piv = pivots[d]
            q = row.get(d, 0) // piv[d]
            if q:
                for k, v in piv.items():
                    nv = row.get(k, 0) - q * v
                    if nv:
                        if k not in row and k in pivots:
                            heapq.heappush(heap, k)
                        row[k] = nv
                    else:
                        del row[k]

    def contains(self, e):
        """Whether a group-ring element supported on the inside elements is
        in the lattice."""
        pivots = self.pivots
        row = {self._code(key) + self._offset: c for key, c in e.terms.items()}
        while row:
            c = min(row)
            piv = pivots.get(c)
            if piv is None or row[c] % piv[c]:
                return False
            _subtract(row, row[c] // piv[c], piv)
        return True

    def inside_invariants(self):
        """Invariants of Z^inside modulo the inside part of the lattice."""
        offset = self._offset
        index = {code + offset: i for i, code in enumerate(sorted(self._inside))}
        rows = []
        for c, piv in self.pivots.items():
            if c >= offset:
                row = [0] * len(index)
                for k, v in piv.items():
                    row[index[k]] = v
                rows.append(row)
        return group_from_relations(len(index), rows).invariants()


def _subtract(row, q, piv):
    """row -= q * piv, in place, dropping zero entries."""
    for k, v in piv.items():
        nv = row.get(k, 0) - q * v
        if nv:
            row[k] = nv
        else:
            del row[k]


def _check_bound(bound):
    if bound < 0:
        raise ValueError(f"the Macaulay bound must be non-negative, got {bound}")


def lattice_invariants(group, zgens, inside_keys, bounds):
    """Oracle invariants at each of the increasing ``bounds``, each reading
    extending the lattice of the one before."""
    lattice = _MacaulayLattice(group, zgens, bounds[-1], inside_keys)
    out = []
    for b in bounds:
        lattice.grow(b)
        out.append(lattice.inside_invariants())
    return out


def macaulay_member(e, zgens, bound):
    """Truncated-lattice membership of a group-ring element in the ideal
    generated by ``zgens``: conservative (may say False for members whose
    certificates need shifts beyond the bound), never falsely True."""
    _check_bound(bound)
    zgens = [q for q in zgens if not q.is_zero()]
    if e.is_zero():
        return True
    if not zgens:
        return False
    lattice = _MacaulayLattice(e.group, zgens, bound, list(e.terms))
    lattice.grow(bound)
    return lattice.contains(e)
