"""Input data model for graded polynomial coordinate rings of toric stacks.

A StackData is a grading group, a list of graded variables (each optionally
inverted), and a list of irrelevant components: subsets of variable names
whose common zero loci make up the removed locus.  An inverted variable x
is read as the component {x}: removing V(x) leaves an open set inside
D(x), where x is a unit, so both forms describe the same stack, and every
later layer sees a polynomial ring with components.  A StackData is
normalized when it is built: its constructor checks the names, adds the
component of each inverted variable and drops redundant components.
This module also decides the degree-zero hypothesis (the only monomials
of degree zero are constants), applies the transform that forces the
hypothesis by adding one variable of an extra grading coordinate, and
holds the registry of built-in examples.
"""

from __future__ import annotations

import itertools
import json

from .abelian import FgAbelianGroup, GroupElement, IntMatrix, _with_free_coordinate, group_from_relations
from .exprs import ascii_int
from .groupring import GroupRingElement


class StackDataError(ValueError):
    """Invalid stack input data."""


class Variable:
    __slots__ = ("name", "degree", "inverted")

    def __init__(self, name, degree, inverted=False):
        self.name = name
        self.degree = degree
        self.inverted = bool(inverted)

    def __repr__(self):
        inv = ", inverted" if self.inverted else ""
        return f"Variable({self.name}, deg={self.degree}{inv})"


class StackData:
    """Grading group, graded variables, and irrelevant components.

    The constructor checks that every degree lies in the grading group,
    checks the rest with ``validate`` and keeps the normalized components,
    so every StackData is normalized when built.
    """

    __slots__ = ("group", "variables", "irrelevant", "label", "_by_name")

    def __init__(self, group, variables, irrelevant, label=None):
        self.group = group
        self.variables = tuple(variables)
        for v in self.variables:
            if v.degree.group != group:
                raise StackDataError(f"degree of {v.name!r} lies outside the grading group")
        self.irrelevant = validate(self.variables, irrelevant)
        self.label = label
        self._by_name = {v.name: v for v in self.variables}

    def variable(self, name):
        try:
            return self._by_name[name]
        except KeyError:
            raise StackDataError(f"unknown variable name {name!r}") from None

    def variable_names(self):
        return [v.name for v in self.variables]

    def has_inverted(self):
        return any(v.inverted for v in self.variables)

    def __repr__(self):
        return f"StackData({self.label or 'unlabeled'}, {len(self.variables)} variables)"


def make_stack_data(group, variables, irrelevant, label=None):
    """Build a StackData from user-coordinate degree vectors.

    ``variables`` is a list of (name, degree_vector, inverted) triples; the
    degree vectors are in the group's user-generator coordinates.
    """
    vs = []
    for entry in variables:
        if len(entry) < 2:
            raise StackDataError(f"variable entry {tuple(entry)!r} needs a name and a degree")
        name, vec = entry[0], entry[1]
        inverted = entry[2] if len(entry) > 2 else False
        if len(vec) != group.num_generators:
            raise StackDataError(
                f"degree of {name!r} has {len(vec)} entries, expected {group.num_generators}"
            )
        vs.append(Variable(str(name), group.element(vec), inverted))
    return StackData(group, vs, irrelevant, label)


def validate(variables, irrelevant):
    """Check the variables and irrelevant components of a StackData; returns
    the normalized components.

    Each inverted variable x adds the component {x}.  Components are
    de-duplicated, sorted by variable position, and any component
    containing another is dropped (its zero locus is already covered; the
    zero locus of a component holding x misses D(x)).  An empty irrelevant
    list is allowed and means nothing is removed.
    """
    names = [v.name for v in variables]
    if len(set(names)) != len(names):
        raise StackDataError("duplicate variable names")
    if any(not n for n in names):
        raise StackDataError("empty variable name")
    order = {n: i for i, n in enumerate(names)}

    components = []
    for comp in [*irrelevant, *([v.name] for v in variables if v.inverted)]:
        if isinstance(comp, str):
            raise StackDataError(f"irrelevant component {comp!r} is a string, not a list of names")
        comp_set = set(comp)
        for n in comp_set:
            if n not in order:
                raise StackDataError(f"irrelevant component names unknown variable {n!r}")
        if not comp_set:
            raise StackDataError("empty irrelevant component")
        components.append(comp_set)

    return tuple(
        tuple(sorted(c, key=order.get))
        for i, c in enumerate(components)
        if not any(o < c or (o == c and j < i) for j, o in enumerate(components))
    )


class ConnectednessReport:
    """Outcome of the degree-zero check.

    verdict is "connected", "not_connected" (with a witness exponent vector
    over the variables), or "unknown" (a rational annihilator exists but no
    integer witness was found within the bound).
    """

    CONNECTED = "connected"
    NOT_CONNECTED = "not_connected"
    UNKNOWN = "unknown"

    __slots__ = ("verdict", "witness", "bound")

    def __init__(self, verdict, witness=None, bound=None):
        self.verdict = verdict
        self.witness = tuple(witness) if witness is not None else None
        self.bound = bound

    def is_connected(self):
        return self.verdict == self.CONNECTED

    def __repr__(self):
        extra = f", witness={self.witness}" if self.witness else ""
        return f"ConnectednessReport({self.verdict}{extra})"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "witness": list(self.witness) if self.witness is not None else None,
            "bound": self.bound,
        }


def _rational_annihilator_exists(degree_rows):
    """Exact feasibility of { e >= 0, sum(e) = 1, A e = 0 } over the
    rationals, where the columns of A are the free parts in degree_rows.

    Phase-one simplex with Bland's rule; sound and complete at this scale.
    The right-hand sides are 0 and 1, and the tableau keeps only the
    e-columns and the right-hand side: an artificial that leaves the basis
    is fixed at zero, which keeps the optimum zero exactly when the system
    is feasible.

    The tableau is kept in integers, fraction-free (Edmonds 1967; Bareiss,
    Math. Comp. 22, 1968): the stored rows, the reduced-cost row included,
    are d times the rational ones, where d is the last pivot entry (1 at the
    start).  Pivoting on p = T[r][c] keeps row r and replaces every other
    row R by (p*R - R[c]*T[r]) / d, then sets d = p.  Each stored entry is a
    minor of the initial tableau, so the division is exact.  The pivot entry
    is positive, so d > 0 and every sign test and ratio comparison, made by
    cross-multiplying, reads as it would over the rationals: the pivots are
    the same.  The current vertex is rhs/d on the basic rows.
    """
    n = len(degree_rows)
    table = [list(row) + [0] for row in zip(*degree_rows)]
    table.append([1] * (n + 1))
    m = len(table)
    basis = [n + i for i in range(m)]
    # reduced costs for the sum of the artificials, which is the last entry
    reduced = [sum(column) for column in zip(*table)]
    d = 1

    while True:
        entering = next((j for j in range(n) if reduced[j] > 0), None)
        if entering is None:
            return reduced[n] == 0
        # a positive reduced cost sums entries of the column: a pivot exists;
        # row i beats the leader when rhs_i/a_i < rhs_l/a_l, ties by basis index
        leaving = None
        for i in range(m):
            a = table[i][entering]
            if a > 0:
                if leaving is None:
                    leaving = i
                    continue
                lhs = table[i][n] * table[leaving][entering]
                rhs = table[leaving][n] * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving = i
        row = table[leaving]
        p = row[entering]
        for i in range(m):
            if i != leaving:
                f = table[i][entering]
                table[i] = [(p * x - f * y) // d for x, y in zip(table[i], row)]
        f = reduced[entering]
        reduced = [(p * x - f * y) // d for x, y in zip(reduced, row)]
        d = p
        basis[leaving] = entering


def default_connected_bound(data):
    scale = 1
    for m in data.group.torsion:
        scale *= m
    return 4 * max(1, len(data.variables)) * scale


def _bounded_compositions(total, parts, cap):
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(0, min(total, cap) + 1):
        for rest in _bounded_compositions(total - first, parts - 1, cap):
            yield (first,) + rest


def check_connected(data, bound=None):
    """Two-phase decision of the degree-zero hypothesis.

    Phase 1 rules out any nonzero nonnegative rational annihilator of the
    free parts of the degrees (verdict "connected").  Otherwise phase 2
    enumerates integer exponent vectors with entries up to the bound and
    checks the full condition in the grading group; "unknown" is an honest
    verdict when nothing is found.  An inverted variable counts like any
    other, as it stands for a single-variable component.  A bound that is
    not an int raises TypeError, and a negative one ValueError.
    """
    if bound is None:
        bound = default_connected_bound(data)
    elif isinstance(bound, bool) or not isinstance(bound, int):
        raise TypeError(f"the bound must be an int, got {bound!r}")
    elif bound < 0:
        raise ValueError(f"the bound must be nonnegative, got {bound}")
    variables = data.variables
    if not _rational_annihilator_exists([list(v.degree.free) for v in variables]):
        return ConnectednessReport(ConnectednessReport.CONNECTED, bound=bound)

    zero = data.group.zero()
    for total in range(1, len(variables) * bound + 1):
        for e in _bounded_compositions(total, len(variables), bound):
            acc = zero
            for v, k in zip(variables, e):
                if k:
                    acc = acc + k * v.degree
            if acc.is_zero():
                return ConnectednessReport(ConnectednessReport.NOT_CONNECTED, witness=e, bound=bound)
    return ConnectednessReport(ConnectednessReport.UNKNOWN, bound=bound)


def _fresh_name(base, taken):
    if base not in taken:
        return base
    for i in itertools.count(1):
        cand = f"{base}{i}"
        if cand not in taken:
            return cand


def connectify(data):
    """Force the degree-zero hypothesis without changing the stack.

    The grading group becomes Delta' = Delta + Z, presented by Delta's
    relations with a zero column for one new generator; every variable
    degree gets a 1 there, and one new variable of degree (0, ..., 0, 1) is
    appended together with its own singleton component; inverted variables
    stay inverted.  The new canonical coordinate comes last among the free
    ones, before the torsion ones: a Smith pass never touches a zero
    column, so this is the group that ``group_from_relations`` gives for
    the extended relations whenever it also gave Delta.  The result always
    passes check_connected.
    """
    G = _with_free_coordinate(data.group)
    r = G.free_rank
    zname = _fresh_name("z", set(data.variable_names()))
    variables = [
        Variable(v.name, GroupElement._of(G, v.degree.free + (1,), v.degree.residues), v.inverted)
        for v in data.variables
    ]
    variables.append(Variable(zname, GroupElement._of(G, (0,) * (r - 1) + (1,), (0,) * len(G.torsion))))
    label = f"{data.label} (connectified)" if data.label else "connectified"
    return StackData(G, variables, [*data.irrelevant, (zname,)], label)


# ---------------------------------------------------------------------------
# built-in examples


def _wps(label, *weights):
    names = [f"x{i}" for i in range(len(weights))]
    variables = [(n, [q]) for n, q in zip(names, weights)]
    return make_stack_data(FgAbelianGroup.canonical(1), variables, [names], label)


def _b_mu(label, q):
    return make_stack_data(FgAbelianGroup.canonical(1), [("x", [q], True)], [], label)


def _blowup_cox(label):
    variables = [("x0", [1]), ("x1", [-1]), ("x2", [1])]
    return make_stack_data(FgAbelianGroup.canonical(1), variables, [["x0", "x2"]], label)


def _blowup_hirzebruch(label):
    variables = [("t0", [1, 0]), ("t1", [1, 0]), ("x0", [-1, 1]), ("x1", [0, 1])]
    return make_stack_data(FgAbelianGroup.canonical(2), variables, [["x1"], ["t0", "t1"]], label)


def _rugby(label, p, q):
    G = group_from_relations(2, [[p, -q]])
    return make_stack_data(G, [("x", [1, 0]), ("y", [0, 1])], [["x", "y"]], label)


# Weighted projective examples bind u (and t) to the degree-one monomial;
# the Hirzebruch blowup binds u and v to the two coordinate monomials.  The
# rugby convention: t is the monomial of the first generator's degree (the
# north-pole coordinate) and s the second's; e and e' name the same monomials.
_DEGREE_ONE = {"u": [1], "t": [1]}

#: name -> (parameter text, description, builder, symbol degrees in user
#: coordinates); parameter text "q0 q1 ..." takes one or more parameters
EXAMPLES = {
    "wps": ("q0 q1 ...", "stacky weighted projective space with the given weights",
            _wps, _DEGREE_ONE),
    "b-mu": ("q", "classifying stack of the cyclic group of order q (Laurent presentation)",
             _b_mu, _DEGREE_ONE),
    "blowup-a2-cox": ("", "blowup of the affine plane, one-coordinate grading",
                      _blowup_cox, _DEGREE_ONE),
    "blowup-a2-hirzebruch": ("", "blowup of the affine plane inside the first Hirzebruch surface",
                             _blowup_hirzebruch, {"u": [1, 0], "v": [0, 1]}),
    "rugby": ("p q", "sphere orbifold with cyclic points of orders p and q",
              _rugby, {"t": [1, 0], "s": [0, 1], "e": [1, 0], "e'": [0, 1]}),
    "m11": ("", "stack of pointed genus-one curves, compactified: wps(4,6)",
            lambda label: _wps(label, 4, 6), _DEGREE_ONE),
    "p1": ("", "projective line: wps(1,1)", lambda label: _wps(label, 1, 1), _DEGREE_ONE),
}


def builtin_example(name, params=()):
    """Stack data of a built-in example; every parameter is a positive
    integer, given as an int or as text read like a JSON integer string,
    and their number is the one the parameter text names."""
    try:
        text, _, builder, _ = EXAMPLES[name]
    except KeyError:
        raise StackDataError(
            f"unknown example {name!r}; available: {', '.join(sorted(EXAMPLES))}"
        ) from None
    try:
        params = [_int_in(p, name) for p in params]
    except StackDataError:
        raise StackDataError(f"{name} parameters must be positive integers") from None
    if not (params if text.endswith("...") else len(params) == len(text.split())):
        wanted = f"parameters {text}" if text else "no parameters"
        raise StackDataError(f"{name} takes {wanted}, got {len(params)}")
    if any(p <= 0 for p in params):
        raise StackDataError(f"{name} parameters must be positive integers")
    label = f"{name}({','.join(map(str, params))})" if params else name
    return builder(label, *params)


def example_symbols(name, data):
    """Expression symbols bound inside a built-in example (see EXAMPLES)."""
    return {
        symbol: GroupRingElement.monomial(data.group.element(vec))
        for symbol, vec in EXAMPLES[name][3].items()
    }


# ---------------------------------------------------------------------------
# JSON serialization (integers beyond 64 bits travel as decimal strings)

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _int_out(x):
    return x if _I64_MIN <= x <= _I64_MAX else str(x)


def _int_in(x, what):
    """``x``, a JSON integer or the text of one, as an int; StackDataError
    naming the field ``what`` otherwise."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        try:
            return ascii_int(x)
        except ValueError as exc:
            raise StackDataError(f"{exc} in {what}") from None
    raise StackDataError(f"{what} must be an integer, got {type(x).__name__}")


def stackdata_to_json(data):
    G = data.group
    if G.canonical_presentation:
        group_obj = {"free_rank": G.free_rank, "torsion": [_int_out(m) for m in G.torsion]}
    else:
        group_obj = {
            "generators": G.num_generators,
            "relations": [[_int_out(x) for x in row] for row in G.relations.entries],
        }
    return {
        "grading_group": group_obj,
        "variables": [
            {
                "name": v.name,
                "degree": [_int_out(x) for x in G.user_representative(v.degree)],
                "inverted": v.inverted,
            }
            for v in data.variables
        ],
        "irrelevant": [list(c) for c in data.irrelevant],
        "label": data.label,
    }


def _field(obj, key, where):
    try:
        return obj[key]
    except KeyError:
        raise StackDataError(f"{where} is missing field {key!r}") from None


def _shaped(value, kind, what):
    if not isinstance(value, kind):
        shape = {dict: "object", list: "list", str: "string"}[kind]
        raise StackDataError(f"{what} must be a JSON {shape}")
    return value


#: most generators of a grading group read from JSON (``generators``, or
#: ``free_rank`` plus the torsion factors); group arithmetic is dense g x g
MAX_GRADING_GENERATORS = 256


def _count_in(x, what):
    """``x`` read by ``_int_in`` as a nonnegative int."""
    n = _int_in(x, what)
    if n < 0:
        raise StackDataError(f"{what} must be nonnegative, got {n}")
    return n


def _generator_count(g):
    if g > MAX_GRADING_GENERATORS:
        raise StackDataError(f"grading_group has {g} generators, over {MAX_GRADING_GENERATORS}")
    return g


def stackdata_from_json(obj):
    _shaped(obj, dict, "stack data")
    group_obj = _shaped(_field(obj, "grading_group", "stack data"), dict, "grading_group")
    variables = _shaped(_field(obj, "variables", "stack data"), list, "variables")
    label = obj.get("label")
    if label is not None and not isinstance(label, str):
        raise StackDataError("label must be a JSON string or null")
    if "free_rank" in group_obj:
        r = _count_in(group_obj["free_rank"], "grading_group.free_rank")
        torsion = _shaped(group_obj.get("torsion", []), list, "grading_group.torsion")
        _generator_count(r + len(torsion))
        torsion = [_int_in(m, "grading_group.torsion") for m in torsion]
        try:
            G = FgAbelianGroup.canonical(r, torsion)
        except ValueError as exc:  # factors below 2, or not a divisibility chain
            raise StackDataError(f"{exc} in grading_group.torsion") from None
    elif "generators" in group_obj:
        g = _generator_count(_count_in(group_obj["generators"], "grading_group.generators"))
        rows = []
        for row in _shaped(group_obj.get("relations", []), list, "grading_group.relations"):
            rows.append([_int_in(x, "grading_group.relations") for x in _shaped(row, list, "each relation")])
            if len(row) != g:
                raise StackDataError(
                    f"each row of grading_group.relations needs {g} entries, one per generator; "
                    f"got {len(row)}"
                )
        G = group_from_relations(g, IntMatrix(rows, cols=g))
    else:
        raise StackDataError("grading_group needs free_rank/torsion or generators/relations")
    vs = []
    for v in variables:
        _shaped(v, dict, "each variable")
        name = _shaped(_field(v, "name", "a variable"), str, "a variable name")
        degree = _shaped(_field(v, "degree", f"variable {name!r}"), list, f"degree of {name!r}")
        inverted = v.get("inverted", False)
        if not isinstance(inverted, bool):
            raise StackDataError(f"inverted of {name!r} must be a JSON boolean")
        vs.append((name, [_int_in(x, f"degree of {name!r}") for x in degree], inverted))
    irrelevant = [
        [_shaped(n, str, "each component entry")
         for n in _shaped(c, list, "each irrelevant component")]
        for c in _shaped(obj.get("irrelevant", []), list, "irrelevant")
    ]
    return make_stack_data(G, vs, irrelevant, label)


def load_stackdata(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:  # the decoder recurses once per level of nesting
            raise StackDataError("the JSON document nests too deeply") from None
    return stackdata_from_json(obj)


def dump_stackdata(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stackdata_to_json(data), fh, indent=2, sort_keys=True)
        fh.write("\n")
