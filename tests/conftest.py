"""Shared independent oracles for the test suite."""

import heapq
import itertools
import math
from fractions import Fraction
from operator import add, le, neg, sub

from kstacks.abelian import GroupElement, IntMatrix, SmithDecomposition, group_from_relations, xgcd
from kstacks.grobner import _pack, _reduce_terms
from kstacks.groupring import GroupRingElement, one_minus_product
from kstacks.stacks import make_stack_data


def _grevlex_key(exp):
    """Sort key of grevlex order on exponent tuples: the degree, then the
    smaller exponent in the later variable is larger."""
    return (sum(exp), tuple(map(neg, exp[::-1])))


def _divides(B, E):
    return all(map(le, B, E))


def _lcm_exponent(A, B):
    return tuple(map(max, A, B))


def grevlex_leading_term(f):
    """(exponent, coefficient) of the grevlex-largest term of an
    {exponent tuple: int} dict."""
    E = max(f, key=_grevlex_key)
    return E, f[E]


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


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


# A closure-based Smith normal form kept as the reference: its pivot rule and
# operation order fix every group's canonical coordinates, so the engine's
# output must equal this one exactly, not only up to equivalence.
def reference_smith_normal_form(A):
    """Smith normal form of an IntMatrix.

    Pivot rule: the nonzero entry of minimal absolute value in the active
    submatrix, ties broken by lowest (row, col).  This makes the output a
    pure function of the input.
    """
    m, n = A.rows, A.cols
    M = [list(row) for row in A.entries]
    V = _identity_rows(n)
    V_inv = _identity_rows(n)

    def swap_cols(i, j):
        for r in M:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        V_inv[i], V_inv[j] = V_inv[j], V_inv[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        M[i] = [a + q * b for a, b in zip(M[i], M[j])]

    def add_col(j, i, q):
        # col_j += q * col_i
        for r in M:
            r[j] += q * r[i]
        for r in V:
            r[j] += q * r[i]
        Vi, Vj = V_inv[i], V_inv[j]
        for c in range(n):
            Vi[c] -= q * Vj[c]

    t = 0
    while t < m and t < n:
        best = None
        pivot = None
        for i in range(t, m):
            for j in range(t, n):
                v = abs(M[i][j])
                if v and (best is None or v < best):
                    best = v
                    pivot = (i, j)
        if pivot is None:
            break
        i, j = pivot
        if i != t:
            M[t], M[i] = M[i], M[t]
        if j != t:
            swap_cols(t, j)
        a = M[t][t]
        dirty = False
        for i in range(t + 1, m):
            if M[i][t]:
                q = M[i][t] // a
                if q:
                    add_row(i, t, -q)
                if M[i][t]:
                    dirty = True
        for j in range(t + 1, n):
            if M[t][j]:
                q = M[t][j] // a
                if q:
                    add_col(j, t, -q)
                if M[t][j]:
                    dirty = True
        if dirty:
            # remainders smaller than the pivot appeared; rescan
            continue
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if M[i][j] % a:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            # pull a non-divisible entry into the pivot row and keep reducing
            add_row(t, offender, 1)
            continue
        t += 1

    return SmithDecomposition(
        IntMatrix(V, cols=n),
        IntMatrix(V_inv, cols=n),
        [abs(M[k][k]) for k in range(min(m, n))],
    )


def determinantal_invariants(num_generators, rows):
    """(free rank, torsion chain) of Z^g / rowspan(rows), from the
    determinantal divisors d_k = gcd of the k x k minors; independent of
    the Smith normal form."""
    rows = [list(r) for r in rows if any(r)]
    divisors = [1]
    for k in range(1, min(len(rows), num_generators) + 1):
        d = 0
        for rs in itertools.combinations(rows, k):
            for cs in itertools.combinations(range(num_generators), k):
                d = math.gcd(d, determinant(IntMatrix([[r[c] for c in cs] for r in rs])))
        if d == 0:
            break
        divisors.append(d)
    rank = len(divisors) - 1
    factors = [divisors[k] // divisors[k - 1] for k in range(1, rank + 1)]
    return num_generators - rank, tuple(m for m in factors if m > 1)


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


def reference_connectify(data):
    """connectify by a second Smith form: group_from_relations on the
    relations with a zero column appended, and every degree sent through
    the input's user coordinates and read back in the new group."""
    G = data.group
    g = G.num_generators
    G2 = group_from_relations(g + 1, IntMatrix([list(row) + [0] for row in G.relations.entries], cols=g + 1))
    taken = set(data.variable_names())
    zname = next(n for n in ["z"] + [f"z{i}" for i in range(1, len(taken) + 2)] if n not in taken)
    variables = [(v.name, list(G.user_representative(v.degree)) + [1], v.inverted) for v in data.variables]
    variables.append((zname, [0] * g + [1], False))
    label = f"{data.label} (connectified)" if data.label else "connectified"
    return make_stack_data(G2, variables, [list(c) for c in data.irrelevant] + [[zname]], label)


def product(a, b):
    """The product of two stacks: its grading group is Z^(ga + gb) modulo
    a's relations on the first ga generators and b's on the last gb, each
    variable of a has degree (d, 0) and each of b degree (0, d), and the
    components of both are kept.  Names gain the prefix "a." or "b."."""
    ga, gb = a.group.num_generators, b.group.num_generators
    rows = [list(r) + [0] * gb for r in a.group.relations.entries]
    rows += [[0] * ga + list(r) for r in b.group.relations.entries]
    G = group_from_relations(ga + gb, IntMatrix(rows, cols=ga + gb))
    variables, components = [], []
    for prefix, data, before, after in (("a.", a, 0, gb), ("b.", b, ga, 0)):
        for v in data.variables:
            vec = [0] * before + list(data.group.user_representative(v.degree)) + [0] * after
            variables.append((prefix + v.name, vec, v.inverted))
        components += [[prefix + n for n in c] for c in data.irrelevant]
    return make_stack_data(G, variables, components, "product")


def equal_up_to_unit(a, b):
    """Whether two group-ring elements differ by a monomial factor."""
    if a.is_zero() or b.is_zero():
        return a.is_zero() and b.is_zero()
    G, r = a.group, a.group.free_rank
    ka, kb = min(a.terms), min(b.terms)
    elem_a = GroupElement(G, ka[:r], ka[r:])
    elem_b = GroupElement(G, kb[:r], kb[r:])
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
            if _divides(g_lead, lead):
                _fp_shifted_sub(f, g, tuple(map(sub, lead, g_lead)), f[lead], p)
                break
        else:
            rest[lead] = f.pop(lead)
    return rest


def present(e):
    """Exponent dict of the polynomial in y1, y1', ..., yr, yr', s1, ..., sk
    equal to the group-ring element e: a free exponent a becomes yi^a when
    a >= 0 and yi'^(-a) when a < 0, a residue c becomes sj^c.  The oracles
    convert with it and share no conversion code with the engine.  It also
    reads a reduced element back as polynomial exponents, exactly, as a
    normal form never holds both yi and yi', nor sj^mj."""
    r = e.group.free_rank
    out = {}
    for key, c in e.terms.items():
        exp = []
        for a in key[:r]:
            exp += (a, 0) if a >= 0 else (0, -a)
        out[tuple(exp) + key[r:]] = c
    return out


def all_pairs_certificate(gb):
    """Buchberger's criterion over the integers with no pair criterion, an
    oracle for ``_is_strong_basis``: every element has a positive leading
    coefficient, and every input generator, structural relation and S- and
    G-polynomial of every pair of elements reduces to zero.  The pair
    polynomials are built here on exponent tuples and packed only for the
    engine's reduction, from the decoded elements."""
    reducers, H = gb._reducers, gb.presentation._mask
    polys = gb.decoded()
    leads = [grevlex_leading_term(f) for f in polys]
    must_vanish = list(gb.seeds) + list(gb.presentation._structural)
    for (f, (A, a)), (g, (B, b)) in itertools.combinations(zip(polys, leads), 2):
        L = _lcm_exponent(A, B)
        l = math.lcm(a, b)
        combos = [(l // a, -(l // b))] + ([xgcd(a, b)[1:]] if a % b and b % a else [])
        for x, y in combos:
            h = {}
            for poly, c, M in ((f, x, A), (g, y, B)):
                shift = tuple(map(sub, L, M))
                for E, d in poly.items():
                    key = tuple(map(add, E, shift))
                    h[key] = h.get(key, 0) + c * d
            must_vanish.append({_pack(E): c for E, c in h.items() if c})
    return all(a > 0 for _, a in leads) and not any(_reduce_terms(h, reducers, H) for h in must_vanish)


def staircase_oracle(gb):
    """Standard monomials of a basis as a set of exponent tuples, or None
    when there are infinitely many: those that no leading monomial with
    unit coefficient divides, found by closing {1} under raising any
    variable, once every variable has a unit-coefficient pure power."""
    n = gb.presentation.num_vars
    units = [B for B, a in map(grevlex_leading_term, gb.decoded()) if a == 1]
    if (0,) * n in units:
        return set()
    if not all(any(B[v] == sum(B) > 0 for B in units) for v in range(n)):
        return None
    seen, todo = set(), [(0,) * n]
    while todo:
        E = todo.pop()
        if E not in seen and not any(_divides(B, E) for B in units):
            seen.add(E)
            todo.extend(E[:v] + (E[v] + 1,) + E[v + 1:] for v in range(n))
    return seen


def fp_quotient_dimension(generators, presentation, p, limit=5000):
    """Dimension over F_p of the group ring of ``presentation.group`` modulo
    the ideal of the group-ring ``generators``.

    Plain Buchberger over the field F_p on the y, y', s variables with the
    structural relations y*y' - 1 and s^m - 1, the generators entered
    through ``present`` above; it shares no code with the integer engine.
    The dimension is the number of standard monomials, walked up from 1;
    more than ``limit`` fails the calling test.
    """
    group, n = presentation.group, presentation.num_vars
    r = group.free_rank

    def monomial(*pairs):
        exp = [0] * n
        for i, k in pairs:
            exp[i] = k
        return tuple(exp)

    one = monomial()
    pending = [present(q) for q in generators]
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
            if up not in standard and not any(_divides(g_lead, up) for g_lead, _ in basis):
                standard.add(up)
                frontier.append(up)
                assert len(standard) <= limit, "the F_p quotient looks infinite"
    return len(standard)


def inclusion_exclusion_class(pres, components):
    """Class representative of R/I for the intersection I of the coordinate
    ideals of ``components`` (name lists), by inclusion-exclusion over the
    nonempty subcollections: each adds (-1)^(size + 1) times the product of
    (1 - t^deg) over the union of its components."""
    total = GroupRingElement.zero(pres.group)
    for size in range(1, len(components) + 1):
        for chosen in itertools.combinations(components, size):
            degrees = [pres.data.variable(name).degree for name in sorted(set().union(*chosen))]
            total = total + (-1) ** (size + 1) * one_minus_product(pres.group, degrees)
    return total


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


def _monomial_count(weights, d):
    """#{a in N^n : w.a = d}, the monomials of degree d over positive weights."""
    if d < 0:
        return 0
    ways = [1] + [0] * d
    for w in weights:
        for k in range(w, d + 1):
            ways[k] += ways[k - w]
    return ways[d]


def euler_characteristic(data, element):
    """chi of the class of a group-ring element, t^d read as O(d), on a
    weighted projective stack: one free coordinate, positive weights w and
    one component of all n variables.  Monomial counting gives H^0, and
    Serre duality with omega = O(-sum w) gives H^(n-1), so
    chi(O(d)) = #{a in N^n : w.a = d} + (-1)^(n-1) #{a : w.a = -d - sum w}."""
    assert data.group.invariants() == (1, ()) and data.irrelevant == (tuple(data.variable_names()),)
    weights = [v.degree.free[0] for v in data.variables]
    assert all(w > 0 for w in weights)
    n, total = len(weights), sum(weights)
    return sum(
        c * (_monomial_count(weights, d) + (-1) ** (n - 1) * _monomial_count(weights, -d - total))
        for (d,), c in element.terms.items()
    )


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
