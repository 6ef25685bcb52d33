"""Seeded inputs, operation lists and answer checks for the four workloads.

Each ``make_<workload>(ks, seed, root)`` builds the inputs of one workload
from the seed and returns a ``Workload``: a JSON-able ``spec`` describing
every input (it is hashed so that two runs can be shown to share inputs) and
the fixed list of operations one round performs.  An operation's ``run(rec)``
returns ``OK``, ``WRONG`` or ``UNKNOWN``; an exception counts as an error.
Every expected answer comes from a known result or from a check that does
not use kstacks (degree arithmetic, determinantal divisors, exit codes).

Inputs are drawn in strata: the seed picks the residues, degree entries
and queries inside each slot, while the number of slots and the size of
each slot (weights, witness total, torsion order) are fixed.  That keeps the
cost of a round close from seed to seed, so timings can be compared across
seeds.  kstacks functions are looked up on the package module ``ks`` at
call time, so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time
from itertools import combinations
from math import gcd

OK, WRONG, UNKNOWN = "ok", "wrong", "unknown"
WORKLOADS = ("classes", "invariants", "hypotheses", "cli")
CLI_TIMEOUT_S = 60


class Op:
    """One operation of a round: a build or a user-facing answer."""

    __slots__ = ("kind", "label", "run")

    def __init__(self, kind, label, run):
        self.kind = kind
        self.label = label
        self.run = run


class Workload:
    __slots__ = ("spec", "ops", "notes")

    def __init__(self, spec, ops, notes=""):
        self.spec = spec
        self.ops = ops
        self.notes = notes

    def input_hash(self):
        text = json.dumps(self.spec, sort_keys=True, separators=(",", ":"))
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def make(name, ks, seed, root):
    builders = {
        "classes": make_classes,
        "invariants": make_invariants,
        "hypotheses": make_hypotheses,
        "cli": make_cli,
    }
    return builders[name](ks, seed, root)


def verdict(ok):
    return OK if ok else WRONG


# ---------------------------------------------------------------------------
# independent oracles


def _det(rows):
    if not rows:
        return 1
    total, sign = 0, 1
    for j, x in enumerate(rows[0]):
        if x:
            total += sign * x * _det([r[:j] + r[j + 1:] for r in rows[1:]])
        sign = -sign
    return total


def group_invariants(num_generators, relations):
    """(free rank, torsion chain) of Z^g / rowspan(relations), from the
    determinantal divisors d_k = gcd of the k x k minors; independent of
    kstacks' Smith normal form."""
    rows = [list(r) for r in relations if any(r)]
    divisors = [1]
    for k in range(1, min(len(rows), num_generators) + 1):
        d = 0
        for rs in combinations(rows, k):
            for cs in combinations(range(num_generators), k):
                d = gcd(d, _det([[r[c] for c in cs] for r in rs]))
        if d == 0:
            break
        divisors.append(d)
    rank = len(divisors) - 1
    factors = [divisors[k] // divisors[k - 1] for k in range(1, rank + 1)]
    return num_generators - rank, tuple(m for m in factors if m > 1)


def is_degree_zero(degrees, torsion, witness):
    """Whether sum(w_i * deg_i) vanishes in Z^r x Z/torsion (canonical
    coordinates, torsion coordinates last)."""
    if not any(witness) or any(w < 0 for w in witness):
        return False
    total = [sum(w * d[i] for w, d in zip(witness, degrees)) for i in range(len(degrees[0]))]
    r = len(total) - len(torsion)
    return all(x == 0 for x in total[:r]) and all(
        x % m == 0 for x, m in zip(total[r:], torsion)
    )


# ---------------------------------------------------------------------------
# expression strings in the kstacks grammar


def mono(free, residues=()):
    body = ",".join(str(x) for x in free)
    if residues:
        body += ";" + ",".join(str(x) for x in residues)
    return f"t^[{body}]"


def one_minus(m):
    return f"(1 - {m})"


def product(monos):
    return "*".join(one_minus(m) for m in monos)


def _canon(G, vec):
    e = G.element(vec)
    return mono(e.free, e.residues)


def _random_element(rng, rank, torsion):
    terms = []
    for i in range(3):
        c = rng.randint(1, 5)
        m = mono([rng.randint(-4, 4) for _ in range(rank)], [rng.randrange(q) for q in torsion])
        sign = "-" if rng.random() < 0.5 else ("" if i == 0 else "+")
        terms.append(f"{sign} {c}*{m}" if sign else f"{c}*{m}")
    return " ".join(terms)


# ---------------------------------------------------------------------------
# classes: one K0 build per stack, then five class-equality queries

# Weight tuples of the wps slots and (free weights, m) of the Z x Z/m
# slots.  They are fixed, in this order, because completion cost varies by
# a factor of two between weight tuples of the same size and between orders
# of the same weights (the order sets the monomial order); the seed draws
# the residues, the rugby orders and every query.
CLASSES_WPS = [
    (2, 3, 5), (3, 5, 7), (2, 7, 9), (4, 5, 11), (5, 7, 11), (3, 8, 13), (6, 9, 12), (7, 11, 13),
    (1, 2, 3, 5), (2, 3, 5, 7), (1, 4, 6, 9), (3, 4, 5, 8), (2, 5, 7, 9), (3, 5, 7, 8), (2, 4, 8, 11),
    (3, 7, 7, 9),
]
CLASSES_TORSION = [((1, 2, 3), 2), ((2, 3, 5), 2), ((2, 3, 4), 3), ((1, 3, 4), 3), ((1, 2, 5), 4),
                   ((3, 4, 5), 4)]
CLASSES_RUGBY = [2, 2, 3, 3, 4, 6]  # gcd of (p, q)


def make_classes(ks, seed, root):
    """wps with 3-4 weights up to 13, rugby p q with gcd > 1 and Z x Z/m
    gradings.  Each stack gets one K0 build, then five queries given as
    expression strings: an equal pair a vs a + c*t^k*g (g a component
    product), an unequal pair a vs a - c*t^k, the Koszul class of a
    component (zero), a Koszul class against its product expression, and
    an intersection class against its inclusion-exclusion expression.
    Builds beside queries act as writes beside reads: a change that trades
    completion cost against reduction cost shows here."""
    rng = random.Random(f"classes/{seed}")
    stacks = []
    for weights in CLASSES_WPS:
        stacks.append(("wps", weights, [[w] for w in weights], ()))
    for g in CLASSES_RUGBY:
        a, b = rng.choice([(a, b) for a in range(1, 7) for b in range(a + 1, 7) if gcd(a, b) == 1 and g * b <= 13])
        stacks.append(("rugby", [g * a, g * b], [[1, 0], [0, 1]], ()))
    for weights, m in CLASSES_TORSION:
        stacks.append(("zzm", [m], [[w, rng.randrange(m)] for w in weights], (m,)))

    spec, ops = [], []
    for kind, params, degrees, torsion in stacks:
        if kind != "zzm":
            data = ks.builtin_example(kind, params)
        else:
            G = ks.FgAbelianGroup.canonical(1, torsion)
            names = [f"x{i}" for i in range(len(degrees))]
            data = ks.make_stack_data(G, [(v, d, False) for v, d in zip(names, degrees)], [names],
                                      f"zzm({params[0]};{degrees})")
        G = data.group
        names = [v.name for v in data.variables]
        monos = [_canon(G, d) for d in degrees]
        rank, tors = G.free_rank, G.torsion
        a = _random_element(rng, rank, tors)
        k = mono([rng.randint(-3, 3) for _ in range(rank)], [rng.randrange(q) for q in tors])
        c = rng.randint(1, 5)
        kos_vecs = [[rng.randint(-4, 4) for _ in degrees[0]] for _ in range(2)]
        if len(names) == 2:
            comps = [[names[0]], [names[1]]]
            inter = f"{one_minus(monos[0])} + {one_minus(monos[1])} - {product(monos)}"
        else:
            comps = [names[:2], names[1:3]]
            inter = f"{product(monos[:2])} + {product(monos[1:3])} - {product(monos[:3])}"
        queries = [
            # a vs a + c * t^k * (component product): equal
            ("eq_equal", a, f"({a}) + {c}*{k}*{product(monos)}", True),
            # a vs a + c * t^k: the augmentations differ, so never equal
            ("eq_unequal", a, f"({a}) - {c}*{k}", False),
            ("koszul_component", ("koszul", degrees), "0", True),
            ("koszul_expr", ("koszul", kos_vecs), product(_canon(G, v) for v in kos_vecs), True),
            ("intersection", ("intersection", comps), inter, True),
        ]
        spec.append({"stack": data.label, "degrees": degrees, "torsion": list(tors), "queries": queries})
        slot = {}
        ops.append(Op("build", f"build {data.label}", _build_op(ks, data, slot)))
        for label, lhs, rhs, expected in queries:
            ops.append(Op("answer", f"{label} {data.label}", _query_op(ks, data, slot, lhs, rhs, expected)))
    return Workload(spec, ops)


def _build_op(ks, data, slot):
    def run(rec):
        slot["pres"] = None
        pres = ks.k0_presentation(data)
        slot["pres"] = pres
        return verdict(pres.hypothesis_verified and len(pres.generators) == len(data.irrelevant))
    return run


def _query_op(ks, data, slot, lhs, rhs, expected):
    def run(rec):
        pres = slot["pres"]
        G = data.group
        if isinstance(lhs, str):
            left = pres.class_of(ks.parse_element(lhs, G))
        elif lhs[0] == "koszul":
            left = ks.class_of_koszul_quotient(pres, [G.element(v) for v in lhs[1]])
        else:
            left = ks.class_of_intersection(pres, lhs[1])
        right = pres.class_of(ks.parse_element(rhs, G))
        return verdict(ks.equal_in_k0(left, right) is expected)
    return run


# ---------------------------------------------------------------------------
# invariants: what `k0 --invariants` does


INVARIANTS_HIRZEBRUCH = range(5)
INVARIANTS_LEFT_OUT = ("F_5 (about 3 s) and (P1)^3 (about 11 s) are left out, "
                       "so that no single input is most of a round")
INVARIANTS_TORSION = [2, 2, 3]  # m of the (P^1)^2 x Z/m gradings
# residues (r, s) of those gradings: one zero and one not.  These cost
# within 10% of each other; (0, 0) and pairs of two non-zero residues cost
# up to 40% more on Z/3, which would move answer_ms.p90 from seed to seed.
# small wps, fixed in order like those of classes: they set answer_ms.p50
INVARIANTS_WPS = [
    (1, 2), (1, 3), (2, 3), (1, 4), (3, 4), (2, 5), (1, 6), (5, 6),
    (1, 1, 2), (1, 2, 3), (1, 2, 4), (2, 3, 4), (1, 3, 5), (2, 3, 5), (1, 4, 6), (3, 4, 5),
]


def make_invariants(ks, seed, root):
    """What `k0 --invariants` does, on Hirzebruch F_0..F_4, (P^1)^2,
    (P^1)^2 with a Z/m grading and small wps.  On rank-2 gradings the
    Macaulay oracle inside zmodule_invariants dominates.  The seed draws the
    residues of the Z/m gradings."""
    rng = random.Random(f"invariants/{seed}")
    Z2 = ks.FgAbelianGroup.canonical(2)
    hirzebruch = ["t0", "t1", "x0", "x1"]
    inputs = []  # (label, group, names, degrees, expected invariants)
    for a in INVARIANTS_HIRZEBRUCH:
        inputs.append((f"F_{a}", Z2, hirzebruch, [[1, 0], [1, 0], [-a, 1], [0, 1]], (4, ())))
    inputs.append(("(P1)^2", Z2, ["x0", "x1", "y0", "y1"], [[1, 0], [1, 0], [0, 1], [0, 1]], (4, ())))
    for m in INVARIANTS_TORSION:
        # (P^1)^2 x B(Z/m) up to a change of grading coordinates: K0 is free of rank 4m
        r, s = rng.choice([(r, s) for r in range(m) for s in range(m) if (r == 0) != (s == 0)])
        G = ks.FgAbelianGroup.canonical(2, (m,))
        degrees = [[1, 0, r], [1, 0, r], [0, 1, s], [0, 1, s]]
        inputs.append((f"(P1)^2xZ/{m}({r},{s})", G, hirzebruch, degrees, (4 * m, ())))

    spec, ops = [], []
    for label, G, names, degrees, expected in inputs:
        comps = [names[:2], names[2:]]
        data = ks.make_stack_data(G, [(v, d, False) for v, d in zip(names, degrees)], comps, label)
        spec.append({"stack": label, "degrees": degrees, "expected": [expected[0], list(expected[1])]})
        ops.append(Op("answer", f"k0 --invariants {label}", _invariants_op(ks, data, expected)))
    for weights in INVARIANTS_WPS:
        # K0 of a weighted projective stack is free of rank the sum of the weights
        data = ks.builtin_example("wps", weights)
        spec.append({"stack": data.label, "expected": [sum(weights), []]})
        ops.append(Op("answer", f"k0 --invariants {data.label}", _invariants_op(ks, data, (sum(weights), ()))))
    return Workload(spec, ops, INVARIANTS_LEFT_OUT)


def _invariants_op(ks, data, expected):
    def run(rec):
        pres = ks.k0_presentation(data)
        inv = ks.invariants(pres)
        if inv.status == "unknown":
            return UNKNOWN
        return verdict(inv.status == "exact" and (inv.free_rank, tuple(inv.torsion)) == expected)
    return run


# ---------------------------------------------------------------------------
# hypotheses: degree-zero check, connectify and Picard groups

# (free rank, torsion order or 0, variables, total of the smallest witness)
HYPOTHESES_PLANTED = [
    (1, 0, 3, 6), (1, 2, 3, 6), (1, 3, 4, 7), (1, 4, 4, 8), (1, 6, 5, 8),
    (2, 0, 3, 6), (2, 2, 4, 7), (2, 3, 4, 8), (2, 4, 5, 8), (2, 6, 5, 9),
]
# (free rank, torsion order or 0, variables) of inputs that pass phase 1
HYPOTHESES_CONNECTED = [
    (1, 0, 2), (1, 2, 3), (1, 3, 4), (1, 6, 5), (2, 0, 3), (2, 4, 4), (2, 6, 5), (2, 3, 2),
]
THIN_FAMILY = (1, 2, 3)  # degrees [1]*k + [-40]; x0^40*y has degree zero


def _random_degree(rng, rank, torsion):
    return [rng.randint(-3, 3) for _ in range(rank)] + [rng.randrange(q) for q in torsion]


def _planted(rng, rank, torsion, n, total):
    """Degrees of n variables whose smallest degree-zero monomial is
    x0^(total-1) * x(n-1), and the only one of that total.  The first free
    coordinate is 3 on x0, 1 or 2 on x1..x(n-2) and -3*(total-1) on
    x(n-1), so every witness has at least total-1 factors besides x(n-1);
    with total-1 of them they are all x0.  The other coordinates are drawn,
    and those of x(n-1) cancel x0^(total-1).  The witness search therefore
    enumerates the same exponent vectors whatever the seed."""
    first = [3] + [rng.randint(1, 2) for _ in range(n - 2)]
    degrees = [[f] + _random_degree(rng, rank, torsion)[1:] for f in first]
    last = [-(total - 1) * x for x in degrees[0]]
    degrees.append(last[:rank] + [x % q for x, q in zip(last[rank:], torsion)])
    return degrees


def make_hypotheses(ks, seed, root):
    """Gradings of rank 1-2 with torsion in {2, 3, 4, 6}: some with a planted
    degree-zero witness, some that pass the rational cone test, the thin
    family [1]*k + [-40] and the built-in wps 4 6, b-mu q and rugby.  Each
    gets check_connected, check_connected(connectify(.)), pic and pic_open.
    There is no Groebner work; the phase-2 witness search carries the time
    and gives `unknown` on thin1 and thin2."""
    rng = random.Random(f"hypotheses/{seed}")
    inputs = []  # (label, free rank, torsion order or 0, degrees, expected verdict, alpha)
    for k in THIN_FAMILY:
        inputs.append((f"thin{k}", 1, 0, [[1]] * k + [[-40]], "not_connected", [1]))
    for rank, m, n, total in HYPOTHESES_PLANTED:
        torsion = (m,) if m else ()
        degrees = _planted(rng, rank, torsion, n, total)
        alpha = _random_degree(rng, rank, torsion)
        inputs.append((f"planted{rank},{m},{n},{total}", rank, m, degrees, "not_connected", alpha))
    for rank, m, n in HYPOTHESES_CONNECTED:
        torsion = (m,) if m else ()
        degrees = [[rng.randint(1, 4)] + _random_degree(rng, rank, torsion)[1:] for _ in range(n)]
        alpha = _random_degree(rng, rank, torsion)
        inputs.append((f"connected{rank},{m},{n}", rank, m, degrees, "connected", alpha))

    spec, ops = [], []
    for label, rank, m, degrees, expected, alpha in inputs:
        torsion = (m,) if m else ()
        G = ks.FgAbelianGroup.canonical(rank, torsion)
        names = [f"x{i}" for i in range(len(degrees))]
        data = ks.make_stack_data(G, [(v, d, False) for v, d in zip(names, degrees)], [names], label)
        relations = [[q if j == rank + i else 0 for j in range(rank + len(torsion))] for i, q in enumerate(torsion)]
        spec.append({"stack": label, "degrees": degrees, "torsion": list(torsion), "alpha": alpha,
                     "expected": expected})
        ops.extend(_hypothesis_ops(ks, data, degrees, torsion, expected, relations, alpha))

    builtins = [("wps", [4, 6], [12]), ("b-mu", [rng.randint(2, 13)], [rng.randint(1, 20)])]
    g = rng.choice([2, 3])
    builtins.append(("rugby", [g * 2, g * 3], [rng.randint(-3, 3), rng.randint(1, 3)]))
    for name, params, alpha in builtins:
        data = ks.builtin_example(name, params)
        relations = [[params[0], -params[1]]] if name == "rugby" else []
        spec.append({"stack": data.label, "alpha": alpha, "expected": "connected"})
        ops.extend(_hypothesis_ops(ks, data, None, (), "connected", relations, alpha))
    return Workload(spec, ops)


def _hypothesis_ops(ks, data, degrees, torsion, expected, relations, alpha):
    label = data.label
    g = data.group.num_generators
    units = [list(data.group.user_representative(v.degree)) for v in data.variables if v.inverted]
    pic_expected = group_invariants(g, relations + units)
    open_expected = group_invariants(g, relations + units + [alpha])

    def check(rec):
        report = ks.check_connected(data)
        if report.verdict == "unknown":
            return UNKNOWN
        if report.verdict != expected:
            return WRONG
        if expected == "not_connected":
            return verdict(is_degree_zero(degrees, torsion, report.witness))
        return OK

    def check_connectified(rec):
        return verdict(ks.check_connected(ks.connectify(data)).verdict == "connected")

    def pic(rec):
        return verdict(ks.pic(data).invariants() == pic_expected)

    def pic_open(rec):
        return verdict(ks.pic_open(data, data.group.element(alpha)).invariants() == open_expected)

    ops = [Op("answer", f"check_connected {label}", check)]
    if not data.has_inverted():  # connectify needs a polynomial ring
        ops.append(Op("answer", f"check_connected(connectify) {label}", check_connectified))
    ops.append(Op("answer", f"pic {label}", pic))
    ops.append(Op("answer", f"pic_open {label}", pic_open))
    return ops


# ---------------------------------------------------------------------------
# cli: the README's command list, one fresh process per command


def make_cli(ks, seed, root):
    """The README's command list, one `python -m kstacks.cli ... --json -`
    process at a time, in a seeded order, with the b-mu order drawn from
    the seed.  The only workload that pays interpreter start, imports,
    argument parsing and report writing."""
    rng = random.Random(f"cli/{seed}")
    q = rng.randint(2, 13)
    work = os.path.join(root, ".perfbench", "work", f"cli-{seed}")
    os.makedirs(work, exist_ok=True)
    fixed = os.path.join(work, "fixed.json")

    def invariants_are(rank):
        return lambda rep: (rep["invariants"]["rank"], rep["invariants"]["torsion"],
                            rep["invariants"]["status"]) == (rank, [], "exact")

    def group_is(rank, torsion):
        return lambda rep: (rep["group"]["rank"], rep["group"]["torsion"]) == (rank, torsion)

    def cox_witness(rep):
        return rep["verdict"] == "not_connected" and is_degree_zero([[1], [-1], [1]], (), rep["witness"])

    # (arguments, expected exit code, check of the JSON report)
    commands = [
        (["k0", "--example", "blowup-a2-hirzebruch", "--invariants"], 0, invariants_are(2)),
        (["k0", "--example", "wps", "1", "1", "--invariants"], 0, invariants_are(2)),
        (["pic", "--example", "wps", "4", "6"], 0, group_is(1, [])),
        (["pic", "--example", "wps", "4", "6", "--remove-degree", "12"], 0, group_is(0, [12])),
        (["pic", "--example", "b-mu", str(q)], 0, group_is(0, [q])),
        (["eq", "--example", "rugby", "2", "3", "--lhs", "t*(1-t^2)", "--rhs", "1-t^2"], 0,
         lambda rep: rep["equal"] is True),
        (["check-connected", "--example", "blowup-a2-cox"], 3, cox_witness),
        (["class", "--example", "rugby", "2", "3", "--koszul", "1,0"], 0, lambda rep: rep["is_zero"] is False),
        (["map", "--example", "rugby", "2", "3", "--matrix", "3;2", "--target", "wps", "3", "2"], 0,
         lambda rep: rep["ok"] is True),
        (["example", "--list"], 0, lambda rep: len(rep["examples"]) == 7),
    ]
    rng.shuffle(commands)
    # connectify writes the file the next command reads, so the pair stays in order
    at = rng.randrange(len(commands) + 1)
    commands[at:at] = [
        (["connectify", "--example", "blowup-a2-cox", "-o", fixed], 0, lambda rep: os.path.isfile(fixed)),
        # the connectified blowup of the plane: K0 is free of rank 2
        (["k0", "--input", fixed, "--invariants"], 0, invariants_are(2)),
    ]
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    spec = [[os.path.relpath(a, root) if a == fixed else a for a in args] + [f"exit {code}"]
            for args, code, _ in commands]
    ops = [Op("answer", "kstacks " + " ".join(args), _cli_op(args, code, check, work, env))
           for args, code, check in commands]
    return Workload(spec, ops)


def parse_report(stdout):
    """The JSON report that ends the output of ``--json -``: it is printed
    last, with indent 2, so it starts at the last line that is just "{"."""
    return json.loads(stdout[stdout.rfind("\n{\n") + 1:])


def _cli_op(args, code, check, work, env):
    argv = [sys.executable, "-m", "kstacks.cli", *args, "--json", "-"]

    def run(rec):
        t0 = time.perf_counter()
        proc = subprocess.run(argv, cwd=work, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S)
        wall_ms = (time.perf_counter() - t0) * 1000.0
        if proc.returncode != code:
            return WRONG
        report = parse_report(proc.stdout)
        rec.count("cli.in_process_ms", report["timing_ms"])
        rec.count("cli.startup_ms", wall_ms - report["timing_ms"])
        return verdict(check(report))
    return run
