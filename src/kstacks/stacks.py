"""Input data model for graded polynomial coordinate rings of toric stacks.

A StackData is a grading group, a list of graded variables (each optionally
inverted), and a list of irrelevant components: subsets of variable names
whose common zero loci make up the removed locus.  This module validates and
normalizes that data, decides the degree-zero hypothesis (the only monomials
of degree zero are constants), applies the transform that forces the
hypothesis by adding one variable of an extra grading coordinate, and holds
the registry of built-in examples.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction

from .abelian import FgAbelianGroup, IntMatrix, group_from_relations
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
    """Grading group, graded variables, and irrelevant components."""

    __slots__ = ("group", "variables", "irrelevant", "label", "_by_name")

    def __init__(self, group, variables, irrelevant, label=None):
        self.group = group
        self.variables = tuple(variables)
        self.irrelevant = tuple(tuple(c) for c in irrelevant)
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
    """Build and validate a StackData from user-coordinate degree vectors.

    ``variables`` is a list of (name, degree_vector, inverted) triples; the
    degree vectors are in the group's user-generator coordinates.
    """
    vs = []
    for entry in variables:
        name, vec = entry[0], entry[1]
        inverted = entry[2] if len(entry) > 2 else False
        if len(vec) != group.num_generators:
            raise StackDataError(
                f"degree of {name!r} has {len(vec)} entries, expected {group.num_generators}"
            )
        vs.append(Variable(str(name), group.element(vec), inverted))
    return validate(StackData(group, vs, irrelevant, label))


def validate(data):
    """Enforce the StackData invariants; returns normalized data.

    Components are de-duplicated, sorted by variable position, and any
    component containing another is dropped (its zero locus is already
    covered).  An empty irrelevant list is allowed and means nothing is
    removed.
    """
    names = [v.name for v in data.variables]
    if len(set(names)) != len(names):
        raise StackDataError("duplicate variable names")
    if any(not n for n in names):
        raise StackDataError("empty variable name")
    order = {n: i for i, n in enumerate(names)}
    inverted = {v.name for v in data.variables if v.inverted}

    components = []
    for comp in data.irrelevant:
        comp_set = set(comp)
        for n in comp_set:
            if n not in order:
                raise StackDataError(f"irrelevant component names unknown variable {n!r}")
            if n in inverted:
                raise StackDataError(f"inverted variable {n!r} cannot lie in a component")
        if not comp_set:
            raise StackDataError("empty irrelevant component")
        components.append(tuple(sorted(comp_set, key=order.get)))

    kept = []
    for i, comp in enumerate(components):
        ci = set(comp)
        redundant = False
        for j, other in enumerate(components):
            if i == j:
                continue
            cj = set(other)
            if cj < ci or (cj == ci and j < i):
                redundant = True
                break
        if not redundant:
            kept.append(comp)

    return StackData(data.group, data.variables, kept, data.label)


class ConnectednessReport:
    """Outcome of the degree-zero check.

    verdict is "connected", "not_connected" (with a witness exponent vector
    over the variables, zero on inverted ones), or "unknown" (a rational
    annihilator exists but no integer witness was found within the bound).
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

    Phase-one simplex with Bland's rule on Fraction arithmetic; sound and
    complete at this scale.
    """
    n = len(degree_rows)
    if n == 0:
        return False
    r = len(degree_rows[0])
    rows = []
    for i in range(r):
        rows.append([Fraction(degree_rows[j][i]) for j in range(n)] + [Fraction(0)])
    rows.append([Fraction(1)] * n + [Fraction(1)])

    m = len(rows)
    # make right-hand sides nonnegative, add artificial basis
    tableau = []
    for row in rows:
        if row[-1] < 0:
            row = [-x for x in row]
        tableau.append(row)
    total = n + m
    table = []
    for i, row in enumerate(tableau):
        art = [Fraction(0)] * m
        art[i] = Fraction(1)
        table.append(row[:-1] + art + [row[-1]])
    basis = [n + i for i in range(m)]
    # objective: minimize the artificials, stated as reduced costs
    cost = [Fraction(0)] * n + [Fraction(1)] * m + [Fraction(0)]
    z = [Fraction(0)] * (total + 1)
    for i in range(m):
        for j in range(total + 1):
            z[j] += table[i][j]

    while True:
        entering = None
        for j in range(total):
            if z[j] - cost[j] > 0:
                entering = j
                break
        if entering is None:
            break
        leaving = None
        best = None
        for i in range(m):
            if table[i][entering] > 0:
                ratio = table[i][total] / table[i][entering]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            break
        piv = table[leaving][entering]
        table[leaving] = [x / piv for x in table[leaving]]
        for i in range(m):
            if i != leaving and table[i][entering]:
                f = table[i][entering]
                table[i] = [a - f * b for a, b in zip(table[i], table[leaving])]
        f = z[entering] - cost[entering]
        if f:
            z = [a - f * b for a, b in zip(z, table[leaving])]
        basis[leaving] = entering

    objective = z[total]
    return objective == 0


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
    free parts of the non-inverted degrees (verdict "connected").  Otherwise
    phase 2 enumerates integer exponent vectors with entries up to the bound
    and checks the full condition in the grading group; "unknown" is an
    honest verdict when nothing is found.
    """
    if bound is None:
        bound = default_connected_bound(data)
    active = [(i, v) for i, v in enumerate(data.variables) if not v.inverted]
    degree_rows = [list(v.degree.free) for _, v in active]
    if not _rational_annihilator_exists(degree_rows):
        return ConnectednessReport(ConnectednessReport.CONNECTED, bound=bound)

    nall = len(data.variables)
    zero = data.group.zero()
    for total in range(1, len(active) * bound + 1):
        for e in _bounded_compositions(total, len(active), bound):
            acc = zero
            for (_, v), k in zip(active, e):
                if k:
                    acc = acc + k * v.degree
            if acc.is_zero():
                witness = [0] * nall
                for (i, _), k in zip(active, e):
                    witness[i] = k
                return ConnectednessReport(
                    ConnectednessReport.NOT_CONNECTED, witness=witness, bound=bound
                )
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

    The grading group gains one free coordinate; every variable degree gets
    a 1 there, and one new variable of degree (0, ..., 0, 1) is appended
    together with its own singleton component.  The result always passes
    check_connected.
    """
    if data.has_inverted():
        raise StackDataError("connectify requires a polynomial ring (no inverted variables)")
    G = data.group
    g = G.num_generators
    ext_rel = [list(row) + [0] for row in G.relations.entries]
    G2 = group_from_relations(g + 1, IntMatrix(ext_rel, cols=g + 1))
    zname = _fresh_name("z", set(data.variable_names()))
    variables = []
    for v in data.variables:
        vec = list(G.user_representative(v.degree)) + [1]
        variables.append((v.name, vec, False))
    variables.append((zname, [0] * g + [1], False))
    irrelevant = [list(c) for c in data.irrelevant] + [[zname]]
    label = f"{data.label} (connectified)" if data.label else "connectified"
    return make_stack_data(G2, variables, irrelevant, label)


class PicHypotheses:
    """Report on the hypotheses behind the Pic computation.

    For this ring class (polynomial ring over a field with a subset of the
    variables inverted) the graded-domain and graded-factorial conditions
    hold automatically.  The vanishing of the two local cohomology groups of
    the ring along the irrelevant ideal is certified combinatorially: it
    holds when nothing is removed, or when every normalized component has at
    least two variables; otherwise it is reported as not verified.
    """

    __slots__ = ("domain_ok", "factorial_ok", "depth_ok", "notes")

    def __init__(self, domain_ok, factorial_ok, depth_ok, notes=()):
        self.domain_ok = domain_ok
        self.factorial_ok = factorial_ok
        self.depth_ok = depth_ok
        self.notes = tuple(notes)

    @property
    def satisfied(self):
        return self.domain_ok and self.factorial_ok and self.depth_ok

    def to_json(self):
        return {
            "graded_domain": self.domain_ok,
            "graded_factorial": self.factorial_ok,
            "local_cohomology_vanishes": self.depth_ok,
            "satisfied": self.satisfied,
            "notes": list(self.notes),
        }


def check_pic_hypotheses(data):
    notes = []
    if data.has_inverted():
        notes.append(
            "homogeneous units are taken to be scalars times monomials in the "
            "inverted variables"
        )
    depth_ok = (not data.irrelevant) or all(len(c) >= 2 for c in data.irrelevant)
    if not depth_ok:
        notes.append(
            "a component with a single variable gives a codimension-one removed "
            "locus; local cohomology vanishing is not certified"
        )
    return PicHypotheses(True, True, depth_ok, notes)


# ---------------------------------------------------------------------------
# built-in examples


def _wps(params, label=None):
    if not params:
        raise StackDataError("wps needs at least one positive weight")
    weights = [int(q) for q in params]
    if any(q <= 0 for q in weights):
        raise StackDataError("wps weights must be positive")
    Z = FgAbelianGroup.canonical(1)
    variables = [(f"x{i}", [q], False) for i, q in enumerate(weights)]
    names = [f"x{i}" for i in range(len(weights))]
    lbl = label or f"wps({','.join(str(q) for q in weights)})"
    return make_stack_data(Z, variables, [names], lbl)


def _b_mu(params):
    if len(params) != 1:
        raise StackDataError("b-mu takes exactly one positive integer")
    q = int(params[0])
    if q <= 0:
        raise StackDataError("b-mu order must be positive")
    Z = FgAbelianGroup.canonical(1)
    return make_stack_data(Z, [("x", [q], True)], [], f"b-mu({q})")


def _blowup_cox(params):
    if params:
        raise StackDataError("blowup-a2-cox takes no parameters")
    Z = FgAbelianGroup.canonical(1)
    variables = [("x0", [1], False), ("x1", [-1], False), ("x2", [1], False)]
    return make_stack_data(Z, variables, [["x0", "x2"]], "blowup-a2-cox")


def _blowup_hirzebruch(params):
    if params:
        raise StackDataError("blowup-a2-hirzebruch takes no parameters")
    Z2 = FgAbelianGroup.canonical(2)
    variables = [
        ("t0", [1, 0], False),
        ("t1", [1, 0], False),
        ("x0", [-1, 1], False),
        ("x1", [0, 1], False),
    ]
    return make_stack_data(
        Z2, variables, [["x1"], ["t0", "t1"]], "blowup-a2-hirzebruch"
    )


def _rugby(params):
    if len(params) != 2:
        raise StackDataError("rugby takes two positive integers p q")
    p, q = int(params[0]), int(params[1])
    if p <= 0 or q <= 0:
        raise StackDataError("rugby parameters must be positive")
    G = group_from_relations(2, [[p, -q]])
    variables = [("x", [1, 0], False), ("y", [0, 1], False)]
    return make_stack_data(G, variables, [["x", "y"]], f"rugby({p},{q})")


def _m11(params):
    if params:
        raise StackDataError("m11 takes no parameters")
    return _wps([4, 6], label="m11")


def _p1(params):
    if params:
        raise StackDataError("p1 takes no parameters")
    return _wps([1, 1], label="p1")


EXAMPLES = {
    "wps": (_wps, "q0 q1 ...", "stacky weighted projective space with the given weights"),
    "b-mu": (_b_mu, "q", "classifying stack of the cyclic group of order q (Laurent presentation)"),
    "blowup-a2-cox": (_blowup_cox, "", "blowup of the affine plane, one-coordinate grading"),
    "blowup-a2-hirzebruch": (_blowup_hirzebruch, "", "blowup of the affine plane inside the first Hirzebruch surface"),
    "rugby": (_rugby, "p q", "sphere orbifold with cyclic points of orders p and q"),
    "m11": (_m11, "", "stack of pointed genus-one curves, compactified: wps(4,6)"),
    "p1": (_p1, "", "projective line: wps(1,1)"),
}


def builtin_example(name, params=()):
    try:
        builder = EXAMPLES[name][0]
    except KeyError:
        raise StackDataError(
            f"unknown example {name!r}; available: {', '.join(sorted(EXAMPLES))}"
        ) from None
    return builder(list(params))


def example_symbols(name, data):
    """Expression symbols bound inside a built-in example.

    The rugby convention: t is the monomial of the first generator's degree
    (the north-pole coordinate) and s the second's; e and e' name the same
    monomials.  Weighted projective examples bind u (and t) to the degree-one
    monomial; the Hirzebruch blowup binds u and v to the two coordinate
    monomials.
    """
    G = data.group
    mono = lambda vec: GroupRingElement.monomial(G.element(vec))
    if name == "rugby":
        return {
            "t": mono([1, 0]),
            "s": mono([0, 1]),
            "e": mono([1, 0]),
            "e'": mono([0, 1]),
        }
    if name in ("wps", "b-mu", "m11", "p1", "blowup-a2-cox"):
        return {"u": mono([1]), "t": mono([1])}
    if name == "blowup-a2-hirzebruch":
        return {"u": mono([1, 0]), "v": mono([0, 1])}
    return {}


# ---------------------------------------------------------------------------
# JSON serialization (integers beyond 64 bits travel as decimal strings)

_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _int_out(x):
    return x if _I64_MIN <= x <= _I64_MAX else str(x)


def _int_in(x):
    if isinstance(x, bool):
        raise StackDataError("expected an integer")
    if isinstance(x, int):
        return x
    if isinstance(x, str):
        try:
            return int(x, 10)
        except ValueError:
            raise StackDataError(f"bad integer literal {x!r}") from None
    raise StackDataError(f"expected an integer, got {type(x).__name__}")


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
        r = _int_in(group_obj["free_rank"])
        torsion = _shaped(group_obj.get("torsion", []), list, "grading_group.torsion")
        _generator_count(r + len(torsion))
        G = FgAbelianGroup.canonical(r, [_int_in(m) for m in torsion])
    elif "generators" in group_obj:
        g = _generator_count(_int_in(group_obj["generators"]))
        rows = [
            [_int_in(x) for x in _shaped(row, list, "each relation")]
            for row in _shaped(group_obj.get("relations", []), list, "grading_group.relations")
        ]
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
        vs.append((name, [_int_in(x) for x in degree], inverted))
    irrelevant = [
        [_shaped(n, str, "each component entry")
         for n in _shaped(c, list, "each irrelevant component")]
        for c in _shaped(obj.get("irrelevant", []), list, "irrelevant")
    ]
    return make_stack_data(G, vs, irrelevant, label)


def load_stackdata(path):
    with open(path, "r", encoding="utf-8") as fh:
        return stackdata_from_json(json.load(fh))


def dump_stackdata(data, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(stackdata_to_json(data), fh, indent=2, sort_keys=True)
        fh.write("\n")
