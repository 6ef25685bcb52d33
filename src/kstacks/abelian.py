"""Exact linear algebra over the integers and finitely generated abelian groups.

Everything is arbitrary precision: Smith normal forms with recorded unimodular
transforms, groups in invariant-factor form ``Z^r x Z/m1 x ... x Z/mk`` with a
change of basis back to the user's generators, quotients, and homomorphisms.
"""

from __future__ import annotations


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


def _identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


class IntMatrix:
    """Immutable rectangular integer matrix."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries, cols=None):
        entries = tuple(tuple(int(x) for x in row) for row in entries)
        rows = len(entries)
        if rows:
            cols = len(entries[0]) if cols is None else cols
            if any(len(r) != cols for r in entries):
                raise ValueError("ragged matrix")
        elif cols is None:
            raise ValueError("a 0-row matrix needs an explicit column count")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @classmethod
    def identity(cls, n):
        return cls(_identity_rows(n), cols=n)

    @classmethod
    def zeros(cls, rows, cols):
        return cls([[0] * cols for _ in range(rows)], cols=cols)

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
        return IntMatrix(rows, cols=other.cols)

    def apply_row(self, vec):
        """Row vector times matrix: returns tuple of length self.cols."""
        if len(vec) != self.rows:
            raise ValueError("vector length mismatch")
        return tuple(
            sum(vec[i] * self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)
        )


class SmithDecomposition:
    """U @ A @ V = D with U, V unimodular, D diagonal and d1 | d2 | ... >= 0."""

    __slots__ = ("U", "D", "V", "U_inv", "V_inv", "invariant_factors")

    def __init__(self, U, D, V, U_inv, V_inv, invariant_factors):
        self.U = U
        self.D = D
        self.V = V
        self.U_inv = U_inv
        self.V_inv = V_inv
        self.invariant_factors = tuple(invariant_factors)


def smith_normal_form(A):
    """Smith normal form of an IntMatrix.

    Pivot rule: the nonzero entry of minimal absolute value in the active
    submatrix, ties broken by lowest (row, col).  This makes the output a
    pure function of the input.
    """
    m, n = A.rows, A.cols
    M = [list(row) for row in A.entries]
    U = _identity_rows(m)
    U_inv = _identity_rows(m)
    V = _identity_rows(n)
    V_inv = _identity_rows(n)

    def swap_rows(i, j):
        M[i], M[j] = M[j], M[i]
        U[i], U[j] = U[j], U[i]
        for r in U_inv:
            r[i], r[j] = r[j], r[i]

    def swap_cols(i, j):
        for r in M:
            r[i], r[j] = r[j], r[i]
        for r in V:
            r[i], r[j] = r[j], r[i]
        V_inv[i], V_inv[j] = V_inv[j], V_inv[i]

    def add_row(i, j, q):
        # row_i += q * row_j
        Mi, Mj = M[i], M[j]
        for c in range(n):
            Mi[c] += q * Mj[c]
        Ui, Uj = U[i], U[j]
        for c in range(m):
            Ui[c] += q * Uj[c]
        for r in U_inv:
            r[j] -= q * r[i]

    def add_col(j, i, q):
        # col_j += q * col_i
        for r in M:
            r[j] += q * r[i]
        for r in V:
            r[j] += q * r[i]
        Vi, Vj = V_inv[i], V_inv[j]
        for c in range(n):
            Vi[c] -= q * Vj[c]

    def negate_row(i):
        M[i] = [-x for x in M[i]]
        U[i] = [-x for x in U[i]]
        for r in U_inv:
            r[i] = -r[i]

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
            swap_rows(t, i)
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

    for k in range(min(m, n)):
        if M[k][k] < 0:
            negate_row(k)

    factors = [M[k][k] for k in range(min(m, n))]
    return SmithDecomposition(
        IntMatrix(U, cols=m),
        IntMatrix(M, cols=n),
        IntMatrix(V, cols=n),
        IntMatrix(U_inv, cols=m),
        IntMatrix(V_inv, cols=n),
        factors,
    )


class GroupElement:
    """Element of an FgAbelianGroup in canonical coordinates.

    ``free`` has length group.free_rank, ``residues`` has one entry per
    torsion factor, always reduced into [0, m_i).  Equality is fieldwise,
    so the canonical form is the identity test.
    """

    __slots__ = ("group", "free", "residues")

    def __init__(self, group, free, residues):
        self.group = group
        self.free = tuple(int(x) for x in free)
        self.residues = tuple(
            int(x) % m for x, m in zip(residues, group.torsion)
        )
        if len(self.free) != group.free_rank or len(residues) != len(group.torsion):
            raise ValueError("coordinate length mismatch")

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
        return GroupElement(
            self.group,
            [a + b for a, b in zip(self.free, other.free)],
            [a + b for a, b in zip(self.residues, other.residues)],
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return GroupElement(self.group, [-a for a in self.free], [-a for a in self.residues])

    def __mul__(self, n):
        n = int(n)
        return GroupElement(self.group, [n * a for a in self.free], [n * a for a in self.residues])

    __rmul__ = __mul__

    def __repr__(self):
        return f"GroupElement(free={self.free}, residues={self.residues})"


class FgAbelianGroup:
    """Finitely generated abelian group in invariant-factor form.

    The group is Z^free_rank x Z/m1 x ... x Z/mk with m1 | m2 | ..., all
    m_i >= 2.  ``to_canonical`` sends user-generator coordinates (row
    vectors of length num_generators) to canonical coordinates;
    ``from_canonical`` picks a user-coordinate representative.  ``relations``
    spans the lattice of user-coordinate vectors that are zero in the group.
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

    def __init__(self, free_rank, torsion, num_generators, to_canonical,
                 from_canonical, relations, canonical_presentation):
        torsion = tuple(int(m) for m in torsion)
        for a, b in zip(torsion, torsion[1:]):
            if b % a:
                raise ValueError("torsion factors must form a divisibility chain")
        if any(m < 2 for m in torsion):
            raise ValueError("torsion factors must be >= 2")
        self.free_rank = free_rank
        self.torsion = torsion
        self.num_generators = num_generators
        self.to_canonical = to_canonical
        self.from_canonical = from_canonical
        self.relations = relations
        self.canonical_presentation = canonical_presentation

    @classmethod
    def canonical(cls, free_rank, torsion=()):
        r = int(free_rank)
        if r < 0:
            raise ValueError(f"the free rank must be nonnegative, got {r}")
        torsion = tuple(int(m) for m in torsion)
        k = len(torsion)
        g = r + k
        rel_rows = []
        for i, m in enumerate(torsion):
            row = [0] * g
            row[r + i] = m
            rel_rows.append(row)
        return cls(
            r,
            torsion,
            g,
            IntMatrix.identity(g),
            IntMatrix.identity(g),
            IntMatrix(rel_rows, cols=g),
            True,
        )

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
        parts = []
        if self.free_rank == 1:
            parts.append("Z")
        elif self.free_rank > 1:
            parts.append(f"Z^{self.free_rank}")
        parts.extend(f"Z/{m}" for m in self.torsion)
        return " x ".join(parts) if parts else "0"

    def invariants(self):
        return (self.free_rank, self.torsion)

    def is_trivial(self):
        return self.free_rank == 0 and not self.torsion

    def zero(self):
        return GroupElement(self, (0,) * self.free_rank, (0,) * len(self.torsion))

    def element(self, user_coords):
        """Element from coordinates in the user generators."""
        user_coords = tuple(int(x) for x in user_coords)
        if len(user_coords) != self.num_generators:
            raise ValueError(
                f"expected {self.num_generators} coordinates, got {len(user_coords)}"
            )
        canon = self.to_canonical.apply_row(user_coords)
        return GroupElement(self, canon[: self.free_rank], canon[self.free_rank:])

    def element_canonical(self, free, residues=()):
        return GroupElement(self, free, residues)

    def generator(self, i):
        coords = [0] * self.num_generators
        coords[i] = 1
        return self.element(coords)

    def user_representative(self, e):
        """A user-coordinate vector mapping onto e (well defined mod relations)."""
        self.require_same(e.group)
        return self.from_canonical.apply_row(e.free + e.residues)


def group_from_relations(num_generators, relations):
    """The quotient of Z^num_generators by the row span of ``relations``."""
    g = int(num_generators)
    if g < 0:
        raise ValueError(f"the generator count must be nonnegative, got {g}")
    if isinstance(relations, IntMatrix):
        R = relations
    else:
        R = IntMatrix(relations, cols=g)
    if R.cols != g:
        raise ValueError("relation rows must have num_generators entries")
    snf = smith_normal_form(R)
    diag = list(snf.invariant_factors) + [0] * (g - len(snf.invariant_factors))
    free_idx = [i for i in range(g) if diag[i] == 0]
    tors_idx = [i for i in range(g) if diag[i] >= 2]
    torsion = [diag[i] for i in tors_idx]
    pick = free_idx + tors_idx
    to_canonical = IntMatrix(
        [[snf.V.entries[i][j] for j in pick] for i in range(g)], cols=len(pick)
    )
    from_canonical = IntMatrix([list(snf.V_inv.entries[i]) for i in pick], cols=g)
    return FgAbelianGroup(
        len(free_idx), torsion, g, to_canonical, from_canonical, R, False
    )


class GroupHomomorphism:
    """Homomorphism given by an integer matrix on user generators.

    Row i of ``matrix`` is the image of the i-th user generator of the
    source, written in user coordinates of the target.  The constructor
    checks the map kills every defining relation of the source.
    """

    __slots__ = ("source", "target", "matrix")

    def __init__(self, source, target, matrix):
        if not isinstance(matrix, IntMatrix):
            matrix = IntMatrix(matrix, cols=target.num_generators)
        if matrix.rows != source.num_generators or matrix.cols != target.num_generators:
            raise ValueError("matrix shape does not match the generator counts")
        self.source = source
        self.target = target
        self.matrix = matrix
        for row in source.relations.entries:
            if not target.element(matrix.apply_row(row)).is_zero():
                raise ValueError(
                    "matrix does not define a homomorphism: a relation has nonzero image"
                )

    def __call__(self, e):
        self.source.require_same(e.group)
        user = self.source.user_representative(e)
        return self.target.element(self.matrix.apply_row(user))


def quotient_by_subgroup(G, gens):
    """Quotient of G by the subgroup generated by ``gens``.

    Returns (Q, projection) where Q is in invariant-factor form and the
    projection is a GroupHomomorphism sending each G-element to its class.
    """
    r, k = G.free_rank, len(G.torsion)
    rows = []
    for i, m in enumerate(G.torsion):
        row = [0] * (r + k)
        row[r + i] = m
        rows.append(row)
    for e in gens:
        G.require_same(e.group)
        rows.append(list(e.free) + list(e.residues))
    Q = group_from_relations(r + k, IntMatrix(rows, cols=r + k))
    proj = GroupHomomorphism(G, Q, G.to_canonical)
    return Q, proj
