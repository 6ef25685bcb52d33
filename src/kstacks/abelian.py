"""Exact linear algebra over the integers and finitely generated abelian groups.

Everything is arbitrary precision: Smith normal forms that record the
unimodular column transform and its inverse, groups in invariant-factor form
``Z^r x Z/m1 x ... x Z/mk`` with a change of basis back to the user's
generators, quotients, and homomorphisms.

The public constructors are the checking boundary: non-integer entries or
coordinates raise TypeError.  ``IntMatrix._of``, ``GroupElement._of`` and
``FgAbelianGroup._of`` take their int arguments as given and serve only ints
kstacks produced itself.  One list kernel, ``_smith``, does every Smith
pass: ``smith_normal_form`` wraps its output in a SmithDecomposition,
``group_from_relations`` reads a group's coordinate changes straight off its
lists, and ``grobner`` reads K0 invariants off its diagonal alone.  The
pivot rule and operation order fix V, and through it every group's
canonical coordinates, so that order is part of the output.
"""

from __future__ import annotations

from operator import add, mod, mul, neg


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def _require_ints(values, what):
    """``values`` as a tuple, after checking that each is an int and not a
    bool: TypeError otherwise, where ``int()`` would truncate a float or
    parse a string."""
    values = tuple(values)
    # bool is an int subclass, but True renders as "True", not as 1
    if not all(isinstance(x, int) for x in values) or bool in map(type, values):
        raise TypeError(f"{what} must be ints, got {values}")
    return values


def _identity_rows(n):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
    return rows


def _torsion_rows(r, torsion):
    """The relations m_i * e_(r+i) = 0 of Z^r x Z/m1 x ... on r + k generators."""
    k = len(torsion)
    return [(0,) * (r + i) + (m,) + (0,) * (k - 1 - i) for i, m in enumerate(torsion)]


class IntMatrix:
    """Immutable rectangular integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = tuple(_require_ints(row, "matrix entries") for row in entries)
        if cols is None:
            if not entries:
                raise ValueError("a 0-row matrix needs an explicit column count")
            cols = len(entries[0])
        if cols < 0:
            raise ValueError(f"the column count must be nonnegative, got {cols}")
        if any(len(r) != cols for r in entries):
            raise ValueError("ragged matrix")
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    @classmethod
    def _of(cls, rows, cols):
        """Matrix of int rows of length ``cols`` that kstacks computed, taken as is."""
        A = object.__new__(cls)
        A.entries = tuple(map(tuple, rows))
        A.rows = len(A.entries)
        A.cols = cols
        return A

    @classmethod
    def identity(cls, n):
        if n < 0:
            raise ValueError(f"the size must be nonnegative, got {n}")
        return cls._of(_identity_rows(n), n)

    def __eq__(self, other):
        if not isinstance(other, IntMatrix):
            return NotImplemented
        return (self.rows, self.cols, self.entries) == (other.rows, other.cols, other.entries)

    def __hash__(self):
        return hash((self.rows, self.cols, self.entries))

    def __repr__(self):
        return f"IntMatrix({[list(r) for r in self.entries]!r})"

    def __matmul__(self, other):
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        rows = []
        for i in range(self.rows):
            a = self.entries[i]
            rows.append(
                [sum(a[k] * other.entries[k][j] for k in range(self.cols)) for j in range(other.cols)]
            )
        return IntMatrix._of(rows, other.cols)

    def apply_row(self, vec):
        """Row vector times matrix, a tuple of length self.cols."""
        if len(vec) != self.rows:
            raise ValueError("vector length mismatch")
        if not self.rows:
            return (0,) * self.cols
        return tuple(sum(map(mul, vec, col)) for col in zip(*self.entries))


class SmithDecomposition:
    """U @ A @ V = diag(d1, d2, ...) for some unimodular U, which is not
    recorded; V is unimodular with inverse V_inv, and d1 | d2 | ... >= 0."""

    __slots__ = ("V", "V_inv", "invariant_factors")

    def __init__(self, V, V_inv, invariant_factors):
        self.V = V
        self.V_inv = V_inv
        self.invariant_factors = tuple(invariant_factors)


def _smith(M, n):
    """The Smith pass on M, a list of int rows of length n, changed in
    place.  Returns (V, V_inv, d): V and V_inv as lists of rows, and d the
    nonzero diagonal |M[k][k]|, k < len(d), in divisibility order; the
    rest of the diagonal is zero."""
    m = len(M)
    V = _identity_rows(n)
    V_inv = _identity_rows(n)
    t = 0
    while t < m and t < n:
        best = 0
        for i in range(t, m):
            row = M[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (not best or v < best):
                    best, pi, pj = v, i, j
            if best == 1:
                break  # no entry is smaller, and later ones lose the tie
        if not best:
            break
        M[t], M[pi] = M[pi], M[t]
        if pj != t:
            for r in M:
                r[t], r[pj] = r[pj], r[t]
            for r in V:
                r[t], r[pj] = r[pj], r[t]
            V_inv[t], V_inv[pj] = V_inv[pj], V_inv[t]
        Mt = M[t]
        a = Mt[t]
        dirty = False
        for i in range(t + 1, m):
            Mi = M[i]
            if Mi[t]:
                q = Mi[t] // a
                if q:
                    M[i] = Mi = [x - q * y for x, y in zip(Mi, Mt)]
                if Mi[t]:
                    dirty = True
        for j in range(t + 1, n):
            if Mt[j]:
                q = Mt[j] // a
                if q:
                    for r in M:
                        r[j] -= q * r[t]
                    for r in V:
                        r[j] -= q * r[t]
                    V_inv[t] = [x + q * y for x, y in zip(V_inv[t], V_inv[j])]
                if Mt[j]:
                    dirty = True
        if dirty:
            continue  # remainders smaller than the pivot appeared; rescan
        if best > 1:  # a unit pivot divides every entry
            for Mi in M[t + 1:]:
                if any(x % a for x in Mi[t + 1:]):
                    # pull a non-divisible entry into the pivot row and keep reducing
                    M[t] = [x + y for x, y in zip(Mt, Mi)]
                    break
            else:
                t += 1
            continue
        t += 1
    return V, V_inv, [abs(M[k][k]) for k in range(t)]


def smith_normal_form(A):
    """Smith normal form of an IntMatrix.

    Pivot rule: the nonzero entry of minimal absolute value in the active
    submatrix, ties broken by lowest (row, col).  The pivot is swapped to
    (t, t), floor-division steps clear its column by row operations and then
    its row by column operations (recorded in V and V_inv), and a lower row
    with an entry the pivot does not divide is added to the pivot row.  This
    makes the output a pure function of the input.
    """
    n = A.cols
    V, V_inv, d = _smith([list(row) for row in A.entries], n)
    zeros = [0] * (min(A.rows, n) - len(d))
    return SmithDecomposition(IntMatrix._of(V, n), IntMatrix._of(V_inv, n), d + zeros)


class GroupElement:
    """Element of an FgAbelianGroup in canonical coordinates.

    ``free`` has length group.free_rank, ``residues`` has one entry per
    torsion factor, always reduced into [0, m_i).  Equality is fieldwise,
    so the canonical form is the identity test.  The constructor checks
    that the coordinates are ints (TypeError) of the right lengths
    (ValueError); ``_of`` takes coordinates kstacks computed as given.
    """

    __slots__ = ("group", "free", "residues")

    def __init__(self, group, free, residues):
        free = _require_ints(free, "coordinates")
        residues = _require_ints(residues, "coordinates")
        if len(free) != group.free_rank or len(residues) != len(group.torsion):
            raise ValueError("coordinate length mismatch")
        self.group = group
        self.free = free
        self.residues = tuple(map(mod, residues, group.torsion))

    @classmethod
    def _of(cls, group, free, residues):
        e = object.__new__(cls)
        e.group = group
        e.free = tuple(free)
        e.residues = tuple(map(mod, residues, group.torsion))
        return e

    def key(self):
        """The flat int tuple free + residues, a group-ring term's key."""
        return self.free + self.residues

    def is_zero(self):
        return not any(self.free) and not any(self.residues)

    def __eq__(self, other):
        if not isinstance(other, GroupElement):
            return NotImplemented
        return self.group.same_group(other.group) and self.key() == other.key()

    def __hash__(self):
        return hash((self.free, self.residues))

    def __add__(self, other):
        self.group.require_same(other.group)
        return GroupElement._of(
            self.group, map(add, self.free, other.free), map(add, self.residues, other.residues)
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupElement._of(self.group, map(neg, self.free), map(neg, self.residues))

    def __mul__(self, n):
        if not isinstance(n, int):
            raise TypeError(f"group elements are multiplied by ints, not {type(n).__name__}")
        return GroupElement._of(self.group, [n * a for a in self.free], [n * a for a in self.residues])

    __rmul__ = __mul__

    def __repr__(self):
        return f"GroupElement(free={self.free}, residues={self.residues})"


def describe_invariants(free_rank, torsion):
    """Render Z^free_rank x Z/m1 x ... x Z/mk, or "0" for the trivial group."""
    parts = ["Z"] if free_rank == 1 else [f"Z^{free_rank}"] if free_rank else []
    parts.extend(f"Z/{m}" for m in torsion)
    return " x ".join(parts) or "0"


class FgAbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    The group is Z^free_rank x Z/m1 x ... x Z/mk with m1 | m2 | ..., all
    m_i >= 2.  ``to_canonical`` sends user-generator coordinates (row
    vectors of length num_generators) to canonical coordinates;
    ``from_canonical`` picks a user-coordinate representative.  ``relations``
    spans the lattice of user-coordinate vectors that are zero in the group.
    ``canonical`` and ``group_from_relations`` check their arguments;
    ``_of`` is the one field constructor.
    """

    __slots__ = (
        "free_rank",
        "torsion",
        "num_generators",
        "to_canonical",
        "from_canonical",
        "relations",
        "canonical_presentation",
    )

    @classmethod
    def _of(cls, free_rank, torsion, num_generators, to_canonical,
            from_canonical, relations, canonical_presentation):
        """Group whose fields kstacks computed, taken as is: torsion a tuple
        of ints >= 2 in a divisibility chain."""
        G = object.__new__(cls)
        G.free_rank = free_rank
        G.torsion = torsion
        G.num_generators = num_generators
        G.to_canonical = to_canonical
        G.from_canonical = from_canonical
        G.relations = relations
        G.canonical_presentation = canonical_presentation
        return G

    @classmethod
    def canonical(cls, free_rank, torsion=()):
        """Z^free_rank x Z/m1 x ... presented on its canonical generators."""
        (r,) = _require_ints((free_rank,), "the free rank")
        if r < 0:
            raise ValueError(f"the free rank must be nonnegative, got {r}")
        torsion = _require_ints(torsion, "torsion factors")
        # ">= 2" first: the chain test divides by each factor
        if any(m < 2 for m in torsion):
            raise ValueError("torsion factors must be >= 2")
        if any(b % a for a, b in zip(torsion, torsion[1:])):
            raise ValueError("torsion factors must form a divisibility chain")
        g = r + len(torsion)
        identity = IntMatrix.identity(g)
        return cls._of(r, torsion, g, identity, identity, IntMatrix._of(_torsion_rows(r, torsion), g), True)

    def same_group(self, other):
        if self is other:
            return True
        return (
            isinstance(other, FgAbelianGroup)
            and self.free_rank == other.free_rank
            and self.torsion == other.torsion
            and self.num_generators == other.num_generators
            and self.to_canonical == other.to_canonical
            and self.from_canonical == other.from_canonical
        )

    def require_same(self, other):
        if not self.same_group(other):
            raise ValueError("elements lie in different groups")

    def __eq__(self, other):
        if not isinstance(other, FgAbelianGroup):
            return NotImplemented
        return self.same_group(other)

    def __hash__(self):
        return hash((self.free_rank, self.torsion, self.num_generators))

    def __repr__(self):
        return f"FgAbelianGroup({self.describe()})"

    def describe(self):
        return describe_invariants(self.free_rank, self.torsion)

    def invariants(self):
        return (self.free_rank, self.torsion)

    def zero(self):
        return GroupElement._of(self, (0,) * self.free_rank, (0,) * len(self.torsion))

    def element(self, user_coords):
        """Element from coordinates in the user generators."""
        user_coords = _require_ints(user_coords, "coordinates")
        if len(user_coords) != self.num_generators:
            raise ValueError(
                f"expected {self.num_generators} coordinates, got {len(user_coords)}"
            )
        canon = self.to_canonical.apply_row(user_coords)
        return GroupElement._of(self, canon[: self.free_rank], canon[self.free_rank:])

    def user_representative(self, e):
        """A user-coordinate vector mapping onto e (well defined mod relations)."""
        self.require_same(e.group)
        return self.from_canonical.apply_row(e.free + e.residues)


def group_from_relations(num_generators, relations):
    """The quotient of Z^num_generators by the row span of ``relations``,
    an IntMatrix or a list of rows."""
    (g,) = _require_ints((num_generators,), "the generator count")
    if g < 0:
        raise ValueError(f"the generator count must be nonnegative, got {g}")
    if isinstance(relations, IntMatrix):
        R = relations
        if R.cols != g:
            raise ValueError(f"relation rows have {R.cols} entries, expected {g}, one per generator")
    else:
        rows = [tuple(row) for row in relations]
        for i, row in enumerate(rows):
            if len(row) != g:
                raise ValueError(
                    f"relation row {i} has {len(row)} entries, expected {g}, one per generator"
                )
        R = IntMatrix(rows, cols=g)
    V, V_inv, d = _smith([list(row) for row in R.entries], g)
    # d is 1, ..., 1, m1, ..., mk: the columns from len(d) on are free, and
    # the canonical coordinates are those, then the torsion ones
    s, ones = len(d), d.count(1)
    to_canonical = IntMatrix._of([row[s:] + row[ones:s] for row in V], g - ones)
    from_canonical = IntMatrix._of(V_inv[s:] + V_inv[ones:s], g)
    return FgAbelianGroup._of(g - s, tuple(d[ones:]), g, to_canonical, from_canonical, R, False)


def _with_free_coordinate(G):
    """G + Z, presented by G's relations with a zero column appended, its
    new canonical coordinate last among the free ones.

    A Smith pass never pivots on, swaps or changes a zero column, so when G
    came from ``group_from_relations(g, R)`` this is exactly
    ``group_from_relations(g + 1, [R | 0])`` without a second pass: V gains
    the identity on the new generator, which sorts after G's free columns.
    """
    r, k, g = G.free_rank, len(G.torsion), G.num_generators
    to_canonical = [row[:r] + (0,) + row[r:] for row in G.to_canonical.entries]
    to_canonical.append((0,) * r + (1,) + (0,) * k)
    from_canonical = [row + (0,) for row in G.from_canonical.entries]
    from_canonical.insert(r, (0,) * g + (1,))
    relations = IntMatrix._of([row + (0,) for row in G.relations.entries], g + 1)
    return FgAbelianGroup._of(r + 1, G.torsion, g + 1, IntMatrix._of(to_canonical, r + 1 + k),
                              IntMatrix._of(from_canonical, g + 1), relations, False)


class GroupHomomorphism:
    """Homomorphism given by an integer matrix on user generators.

    Row i of ``matrix`` is the image of the i-th user generator of the
    source, written in user coordinates of the target.  The constructor
    checks the map kills every defining relation of the source, then keeps
    ``canonical`` = source.from_canonical @ matrix @ target.to_canonical,
    the map on canonical coordinates: an element's key times it is its
    image's key once the residues are reduced.
    """

    __slots__ = ("source", "target", "matrix", "canonical")

    def __init__(self, source, target, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix, cols=target.num_generators)
        if matrix.rows != source.num_generators or matrix.cols != target.num_generators:
            raise ValueError("matrix shape does not match the generator counts")
        self.source = source
        self.target = target
        self.matrix = matrix
        to_target = matrix @ target.to_canonical
        r, torsion = target.free_rank, target.torsion
        for row in source.relations.entries:
            canon = to_target.apply_row(row)
            if any(canon[:r]) or any(map(mod, canon[r:], torsion)):
                raise ValueError(
                    "matrix does not define a homomorphism: a relation has nonzero image"
                )
        self.canonical = source.from_canonical @ to_target

    def __call__(self, e):
        self.source.require_same(e.group)
        image = self.canonical.apply_row(e.key())
        r = self.target.free_rank
        return GroupElement._of(self.target, image[:r], image[r:])


def quotient_by_subgroup(G, gens):
    """Quotient of G by the subgroup generated by ``gens``, in
    invariant-factor form.

    Its user generators are G's canonical coordinates, so the class of a
    G-element e is ``Q.element(e.key())``.
    """
    g = G.free_rank + len(G.torsion)
    rows = _torsion_rows(G.free_rank, G.torsion)
    for e in gens:
        G.require_same(e.group)
        rows.append(e.free + e.residues)
    return group_from_relations(g, IntMatrix._of(rows, g))
