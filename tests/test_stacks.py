import json
import random
import re

import pytest

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.grobner import AbGroupInvariants
from kstacks.ktheory import invariants, k0_presentation
from kstacks.picard import pic, pic_open
from kstacks.stacks import (
    EXAMPLES,
    MAX_GRADING_GENERATORS,
    ConnectednessReport,
    StackData,
    StackDataError,
    Variable,
    builtin_example,
    check_connected,
    connectify,
    load_stackdata,
    make_stack_data,
    stackdata_from_json,
    stackdata_to_json,
)

from conftest import reference_connectify


def test_validate_drops_superset_components():
    Z = FgAbelianGroup.canonical(1)
    data = make_stack_data(
        Z,
        [("x1", [1], False), ("t0", [1], False)],
        [["x1"], ["x1", "t0"]],
    )
    assert data.irrelevant == (("x1",),)


def test_validate_keeps_blowup_components():
    data = builtin_example("blowup-a2-hirzebruch")
    assert data.irrelevant == (("x1",), ("t0", "t1"))
    # building again from the normalized data changes nothing
    again = StackData(data.group, data.variables, data.irrelevant, data.label)
    assert again.irrelevant == data.irrelevant


def test_validate_errors():
    Z = FgAbelianGroup.canonical(1)
    with pytest.raises(StackDataError):
        make_stack_data(Z, [("x", [1], False)], [["y"]])
    with pytest.raises(StackDataError):
        make_stack_data(Z, [("x", [1, 2], False)], [])
    with pytest.raises(StackDataError):
        make_stack_data(Z, [("x", [1], False), ("x", [2], False)], [])
    with pytest.raises(StackDataError):
        make_stack_data(Z, [("x", [1], False)], [[]])
    # an entry without a degree is named, not an IndexError
    with pytest.raises(StackDataError, match=r"variable entry \('x',\) needs a name and a degree"):
        make_stack_data(Z, [("x",)], [])
    # an inverted variable in a component is no error: x inverted adds {x},
    # and {x} covers every component that holds x
    data = make_stack_data(Z, [("x", [1], True), ("y", [1], False)], [["x"], ["y", "x"]])
    assert data.irrelevant == (("x",),)


def test_constructor_normalizes_and_checks():
    # a StackData built directly is checked and normalized like one built
    # from degree vectors
    Z = FgAbelianGroup.canonical(1)
    x, y, z = (Variable(n, Z.element([1])) for n in "xyz")
    data = StackData(Z, [x, y, z], [["z", "x", "y"], ["y", "x"], ["x", "y"], ["z", "y"]])
    assert data.irrelevant == (("x", "y"), ("y", "z"))
    u = Variable("u", Z.element([1]), inverted=True)
    for variables, irrelevant in [
        ([x], [["y"]]),
        ([Variable("x", FgAbelianGroup.canonical(2).element([1, 2]))], []),
        ([x, Variable("x", Z.element([2]))], []),
        ([x, Variable("", Z.element([2]))], []),
        ([x], [[]]),
        # a string would be split into one-letter names
        ([x, y], ["xy"]),
    ]:
        with pytest.raises(StackDataError):
            StackData(Z, variables, irrelevant)
    # Z presented on two generators is isomorphic to Z, not the same grading group
    with pytest.raises(StackDataError, match="degree of 'x' lies outside the grading group"):
        StackData(Z, [Variable("x", group_from_relations(2, [[1, -1]]).element([1, 0]))], [])
    assert StackData(Z, [x, u], [["x", "u"]]).irrelevant == (("u",),)
    assert StackData(Z, [u, x, y], [["x", "y"]]).irrelevant == (("x", "y"), ("u",))


def test_check_connected_cox_witness():
    data = builtin_example("blowup-a2-cox")
    report = check_connected(data)
    assert report.verdict == ConnectednessReport.NOT_CONNECTED
    w = report.witness
    assert w is not None and any(w) and all(x >= 0 for x in w)
    total = data.group.zero()
    for wi, v in zip(w, data.variables):
        total = total + wi * v.degree
    assert total.is_zero()


def test_check_connected_hirzebruch():
    data = builtin_example("blowup-a2-hirzebruch")
    assert check_connected(data).verdict == ConnectednessReport.CONNECTED


def test_check_connected_positive_grading():
    Z = FgAbelianGroup.canonical(1)
    data = make_stack_data(Z, [("a", [2], False), ("b", [5], False)], [["a", "b"]])
    assert check_connected(data).verdict == ConnectednessReport.CONNECTED


def test_check_connected_torsion_only_witness():
    # degree-zero monomials exist only through torsion: x of degree 1 mod 2
    C2 = FgAbelianGroup.canonical(0, (2,))
    data = make_stack_data(C2, [("x", [1], False)], [])
    report = check_connected(data)
    assert report.verdict == ConnectednessReport.NOT_CONNECTED
    assert report.witness == (2,)


def test_check_connected_unknown_is_honest():
    # rationally annihilated but no integer witness below a tiny bound:
    # degrees 3 and -2 admit e = (2,3), nothing with entries <= 1
    Z = FgAbelianGroup.canonical(1)
    data = make_stack_data(Z, [("a", [3], False), ("b", [-2], False)], [])
    report = check_connected(data, bound=1)
    assert report.verdict == ConnectednessReport.UNKNOWN
    assert report.bound == 1
    found = check_connected(data, bound=3)
    assert found.verdict == ConnectednessReport.NOT_CONNECTED
    assert found.witness == (2, 3)


def test_check_connected_refuses_a_bound_that_is_no_count():
    # each was accepted: -3 reported connected with that bound, -1 answered
    # unknown on blowup-a2-cox, and 2.5 died inside range
    p1, cox = builtin_example("p1"), builtin_example("blowup-a2-cox")
    for data, bound in ((p1, -3), (cox, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            check_connected(data, bound=bound)
    for bound in (2.5, "7", True):
        with pytest.raises(TypeError, match="must be an int"):
            check_connected(cox, bound=bound)
    assert check_connected(p1, bound=0).bound == 0


def test_connectify_cox():
    data = builtin_example("blowup-a2-cox")
    out = connectify(data)
    assert out.group.invariants() == (2, ())
    degs = {v.name: out.group.user_representative(v.degree) for v in out.variables}
    assert degs == {"x0": (1, 1), "x1": (-1, 1), "x2": (1, 1), "z": (0, 1)}
    assert out.irrelevant == (("x0", "x2"), ("z",))
    assert check_connected(out).verdict == ConnectednessReport.CONNECTED


def test_connectify_always_connected():
    for name, params in [
        ("blowup-a2-hirzebruch", ()),
        ("wps", (4, 6)),
        ("rugby", (2, 2)),
        ("rugby", (2, 3)),
    ]:
        out = connectify(builtin_example(name, params))
        assert check_connected(out).verdict == ConnectednessReport.CONNECTED
        assert out.irrelevant[-1] == ("z",)
        assert len(out.irrelevant) == len(builtin_example(name, params).irrelevant) + 1


def test_connectify_keeps_inverted():
    out = connectify(builtin_example("b-mu", (3,)))
    assert [v.inverted for v in out.variables] == [True, False]
    assert out.irrelevant == (("x",), ("z",))
    assert check_connected(out).verdict == ConnectednessReport.CONNECTED
    inv = invariants(k0_presentation(out))
    assert inv.invariants() == (3, ()) and inv.status == AbGroupInvariants.EXACT


def _answers(data, alpha):
    report = check_connected(data)
    inv = invariants(k0_presentation(data))
    return (pic(data).invariants(), pic_open(data, data.group.element(alpha)).invariants(),
            report.verdict, report.witness, inv.invariants(), inv.status)


def test_inverted_variable_is_a_single_variable_component():
    # moving a component {x} to "x inverted", plus a component holding x,
    # which V(x) already covers, and back again changes neither the
    # normalized data nor any answer: Pic, Pic of an open set, the
    # degree-zero verdict, K0
    rng = random.Random(20261019)
    moved = 0
    for _ in range(40):
        rank, torsion = rng.choice([(1, ()), (2, ()), (1, (2,)), (1, (3,))])
        G = FgAbelianGroup.canonical(rank, torsion)
        n = rng.randint(2, 4)
        names = [f"x{i}" for i in range(n)]
        degrees = [[rng.randint(-2, 2) for _ in range(rank)] + [rng.randrange(m) for m in torsion]
                   for _ in names]
        singles = rng.sample(names, rng.randint(1, 2))
        rest = [rng.sample(names, rng.randint(2, n)) for _ in range(rng.randint(0, 2))]
        plain = make_stack_data(G, [(x, d, False) for x, d in zip(names, degrees)],
                                [[x] for x in singles] + rest)
        inverted = make_stack_data(
            G, [(x, d, x in singles) for x, d in zip(names, degrees)],
            rest + [rng.sample(names, rng.randint(1, n)) + singles[:1]] * rng.randint(0, 1))
        back = make_stack_data(G, [(v.name, d, False) for v, d in zip(inverted.variables, degrees)],
                               [list(c) for c in inverted.irrelevant])
        assert sorted(inverted.irrelevant) == sorted(plain.irrelevant) == sorted(back.irrelevant)
        alpha = [rng.randint(-3, 3) for _ in range(rank)] + [rng.randrange(m) for m in torsion]
        assert _answers(inverted, alpha) == _answers(plain, alpha) == _answers(back, alpha)
        moved += any(len(c) == 1 for c in inverted.irrelevant)
    assert moved == 40


def test_laurent_ring_degree_zero_witness():
    # k[x^+-1, y] with degrees (1, -1): xy is a nonconstant monomial of degree zero
    data = make_stack_data(FgAbelianGroup.canonical(1), [("x", [1], True), ("y", [-1], False)], [])
    report = check_connected(data)
    assert report.verdict == ConnectednessReport.NOT_CONNECTED
    assert report.witness == (1, 1)


def _connectify_inputs(rng):
    """Every EXAMPLES row, then 300 seeded gradings: free rank and torsion,
    or relations of rugby type or 1-2 random rows; 1-4 variables, some
    inverted, and 0-2 components."""
    params = {"q0 q1 ...": [(4, 6), (2, 3, 5), (1, 1)], "q": [(1,), (3,)], "p q": [(2, 3), (4, 6)], "": [()]}
    for name, (text, *_) in EXAMPLES.items():
        for ps in params[text]:
            yield builtin_example(name, ps)
    for _ in range(300):
        kind = rng.randrange(3)
        if kind == 0:
            G = FgAbelianGroup.canonical(rng.randint(0, 2), rng.choice(((), (2,), (3,), (2, 4))))
        elif kind == 1:
            G = group_from_relations(2, [[rng.randint(1, 6), -rng.randint(1, 6)]])
        else:
            g = rng.randint(1, 3)
            G = group_from_relations(g, [[rng.randint(-4, 4) for _ in range(g)] for _ in range(rng.randint(1, 2))])
        names = [f"x{i}" for i in range(rng.randint(1, 4))]
        variables = [(nm, [rng.randint(-3, 3) for _ in range(G.num_generators)], rng.random() < 0.25)
                     for nm in names]
        comps = [rng.sample(names, rng.randint(1, len(names))) for _ in range(rng.randint(0, 2))]
        yield make_stack_data(G, variables, comps, rng.choice((None, "seeded")))


def test_connectify_matches_the_second_smith_form():
    # the reference runs group_from_relations on the extended relations and
    # sends each degree through user coordinates; connectify writes the
    # same file, and over a group read from relations the same group
    inverted = 0
    for data in _connectify_inputs(random.Random("connectify/reference")):
        got, want = connectify(data), reference_connectify(data)
        assert stackdata_to_json(got) == stackdata_to_json(want), stackdata_to_json(data)
        if not data.group.canonical_presentation:
            assert got.group == want.group
            assert [v.degree for v in got.variables] == [v.degree for v in want.variables]
        inverted += data.has_inverted()
    assert inverted > 100


def test_connectify_fresh_name():
    Z = FgAbelianGroup.canonical(1)
    data = make_stack_data(Z, [("z", [1], False)], [["z"]])
    out = connectify(data)
    assert "z1" in out.variable_names()


def test_builtin_examples():
    wps = builtin_example("wps", (4, 6))
    assert wps.group.invariants() == (1, ())
    assert len(wps.irrelevant) == 1 and len(wps.irrelevant[0]) == 2

    bmu = builtin_example("b-mu", (5,))
    assert bmu.variables[0].inverted
    assert bmu.irrelevant == (("x",),)
    assert bmu.group.user_representative(bmu.variables[0].degree) == (5,)

    rugby = builtin_example("rugby", (2, 3))
    assert rugby.group.invariants() == (1, ())
    rugby22 = builtin_example("rugby", (2, 2))
    assert rugby22.group.invariants() == (1, (2,))

    assert builtin_example("m11").label == "m11"
    assert builtin_example("p1").group.invariants() == (1, ())

    with pytest.raises(StackDataError):
        builtin_example("nope")
    with pytest.raises(StackDataError):
        builtin_example("wps", (0,))
    with pytest.raises(StackDataError):
        builtin_example("rugby", (2,))


def test_builtin_examples_validate_unchanged():
    for name, params in [
        ("wps", (1, 1)),
        ("wps", (4, 6)),
        ("b-mu", (7,)),
        ("blowup-a2-cox", ()),
        ("blowup-a2-hirzebruch", ()),
        ("rugby", (3, 4)),
        ("m11", ()),
        ("p1", ()),
    ]:
        data = builtin_example(name, params)
        again = StackData(data.group, data.variables, data.irrelevant, data.label)
        assert again.irrelevant == data.irrelevant
        assert again.variable_names() == data.variable_names()


def test_json_roundtrip():
    for name, params in [("wps", (4, 6)), ("rugby", (2, 2)), ("b-mu", (3,))]:
        data = builtin_example(name, params)
        obj = stackdata_to_json(data)
        text = json.dumps(obj, sort_keys=True)
        back = stackdata_from_json(json.loads(text))
        assert stackdata_to_json(back) == obj
        assert back.group.invariants() == data.group.invariants()
        for v1, v2 in zip(data.variables, back.variables):
            assert v1.name == v2.name
            assert v1.inverted == v2.inverted
            assert data.group.user_representative(v1.degree) == back.group.user_representative(
                v2.degree
            )


def test_json_label_is_string_or_null():
    obj = dict(stackdata_to_json(builtin_example("wps", (1, 1))), label=None)
    back = stackdata_from_json(json.loads(json.dumps(obj)))
    assert back.label is None and stackdata_to_json(back) == obj
    for bad in (5, ["a"], {"a": 1}, True):
        with pytest.raises(StackDataError, match="label"):
            stackdata_from_json(dict(obj, label=bad))


def test_json_grading_group_generator_limit():
    def load(group_obj):
        return stackdata_from_json({"grading_group": group_obj, "variables": [], "irrelevant": []})

    n = MAX_GRADING_GENERATORS
    assert load({"generators": n, "relations": []}).group.free_rank == n
    assert load({"free_rank": n - 2, "torsion": [2, 4]}).group.num_generators == n
    for group_obj in ({"generators": n + 1, "relations": []},
                      {"free_rank": n - 1, "torsion": [2, 4]},
                      {"free_rank": str(10**40), "torsion": []}):
        with pytest.raises(StackDataError, match="generators"):
            load(group_obj)


def test_json_big_integers_as_strings():
    Z = FgAbelianGroup.canonical(1)
    big = 2**80
    data = make_stack_data(Z, [("x", [big], False)], [["x"]])
    obj = stackdata_to_json(data)
    assert obj["variables"][0]["degree"] == [str(big)]
    back = stackdata_from_json(obj)
    assert back.group.user_representative(back.variables[0].degree) == (big,)


def test_rational_feasibility_against_basic_solutions():
    # the simplex answer must match exhaustive basic-solution enumeration
    import itertools
    import random
    from fractions import Fraction

    from kstacks.stacks import _rational_annihilator_exists

    def solve_square(rows, rhs):
        # Gaussian elimination over Fractions; returns a solution or None
        m = len(rows)
        n = len(rows[0]) if m else 0
        aug = [[Fraction(x) for x in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
        piv_cols = []
        r = 0
        for c in range(n):
            pivot = next((i for i in range(r, m) if aug[i][c] != 0), None)
            if pivot is None:
                continue
            aug[r], aug[pivot] = aug[pivot], aug[r]
            aug[r] = [x / aug[r][c] for x in aug[r]]
            for i in range(m):
                if i != r and aug[i][c] != 0:
                    f = aug[i][c]
                    aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
            piv_cols.append(c)
            r += 1
            if r == m:
                break
        for i in range(r, m):
            if aug[i][n] != 0:
                return None
        sol = [Fraction(0)] * n
        for i, c in enumerate(piv_cols):
            sol[c] = aug[i][n]
        # free columns stay zero; verify
        for row, b in zip(rows, rhs):
            if sum(Fraction(x) * s for x, s in zip(row, sol)) != b:
                return None
        return sol

    def oracle(degree_rows):
        # feasible iff some ≤(r+1)-column basic solution of
        # {A e = 0, sum e = 1} is nonnegative
        ncols = len(degree_rows)
        if ncols == 0:
            return False
        r = len(degree_rows[0])
        full = [[degree_rows[j][i] for j in range(ncols)] for i in range(r)]
        full.append([1] * ncols)
        rhs = [0] * r + [1]
        for k in range(1, min(ncols, r + 1) + 1):
            for cols in itertools.combinations(range(ncols), k):
                sub = [[row[c] for c in cols] for row in full]
                sol = solve_square(sub, rhs)
                if sol is not None and all(x >= 0 for x in sol):
                    return True
        return False

    rng = random.Random(20260809)
    seen = set()
    for _ in range(400):
        n = rng.randint(0, 6)
        r = rng.randint(0, 3)
        degree_rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        verdict = _rational_annihilator_exists(degree_rows)
        assert verdict == oracle(degree_rows), degree_rows
        seen.add((r, verdict))
    # every row count from 0 to 3 meets both verdicts
    assert seen == {(r, v) for r in range(4) for v in (False, True)}


def test_integer_tableau_matches_fraction_simplex():
    # the fraction-free tableau must give the rational tableau's verdict;
    # degenerate inputs repeat, scale or negate columns and zero a row
    import random

    from kstacks.stacks import _rational_annihilator_exists

    from conftest import fraction_annihilator_exists

    rng = random.Random(20261018)
    seen = set()
    for trial in range(5000):
        n, r = rng.randint(0, 7), rng.randint(0, 4)
        cols = [[rng.randint(-4, 4) for _ in range(r)] for _ in range(n)]
        if trial % 2 and n > 1:
            for _ in range(rng.randint(1, n - 1)):
                c = rng.randrange(n)
                cols[rng.randrange(n)] = [rng.choice((-2, -1, 0, 1, 3)) * x for x in cols[c]]
            if r and rng.random() < 0.5:
                row = rng.randrange(r)
                for col in cols:
                    col[row] = 0
        verdict = _rational_annihilator_exists(cols)
        assert verdict == fraction_annihilator_exists(cols), cols
        seen.add((r, trial % 2, verdict))
    assert seen == {(r, d, v) for r in range(5) for d in (0, 1) for v in (False, True)}


def test_json_errors():
    with pytest.raises(StackDataError):
        stackdata_from_json({"grading_group": {}, "variables": []})
    # integer strings are an optional sign and ASCII digits, nothing int() also takes
    for text in ("1_0", "١", " 1", "1 ", "+-1", ""):
        with pytest.raises(StackDataError):
            stackdata_from_json({"grading_group": {"free_rank": 1},
                                 "variables": [{"name": "x", "degree": [text]}]})
        with pytest.raises(StackDataError):
            stackdata_from_json({"grading_group": {"free_rank": text}, "variables": []})
    data = stackdata_from_json({"grading_group": {"free_rank": "+1"},
                                "variables": [{"name": "x", "degree": ["-10"]}]})
    assert data.group.user_representative(data.variables[0].degree) == (-10,)
    with pytest.raises(StackDataError):
        stackdata_from_json([1, 2])
    with pytest.raises(StackDataError):
        stackdata_from_json({"variables": []})
    # a negative generator count names the field, not IntMatrix's column count
    with pytest.raises(StackDataError, match=r"grading_group\.generators must be nonnegative, got -1"):
        stackdata_from_json({"grading_group": {"generators": -1}, "variables": []})
    # a relation row of the wrong length names the field and the count it needs
    for row in ([1, 2, 3], [1]):
        with pytest.raises(StackDataError, match=r"grading_group\.relations needs 2 entries"):
            stackdata_from_json({"grading_group": {"generators": 2, "relations": [[2, -3], row]},
                                 "variables": []})
    # every other malformed field is named as well
    for group, variables, message in (
            ({"free_rank": None}, [], "grading_group.free_rank must be an integer, got NoneType"),
            ({"free_rank": True}, [], "grading_group.free_rank must be an integer, got bool"),
            ({"free_rank": -1}, [], "grading_group.free_rank must be nonnegative, got -1"),
            ({"free_rank": "1_0"}, [], "bad integer '1_0' in grading_group.free_rank"),
            ({"free_rank": 0, "torsion": [0, 2]}, [], "torsion factors must be >= 2 in grading_group.torsion"),
            ({"free_rank": 0, "torsion": [2, 3]}, [],
             "torsion factors must form a divisibility chain in grading_group.torsion"),
            ({"free_rank": 0, "torsion": [2.0]}, [], "grading_group.torsion must be an integer, got float"),
            ({"generators": None}, [], "grading_group.generators must be an integer, got NoneType"),
            ({"generators": 1, "relations": [[False]]}, [],
             "grading_group.relations must be an integer, got bool"),
            ({"free_rank": 1}, [{"name": "x", "degree": [1.5]}], "degree of 'x' must be an integer, got float"),
            ({"free_rank": 1}, [{"name": "x", "degree": ["1 "]}], "bad integer '1 ' in degree of 'x'")):
        with pytest.raises(StackDataError, match=f"^{re.escape(message)}$"):
            stackdata_from_json({"grading_group": group, "variables": variables})


def test_load_refuses_deeply_nested_json(tmp_path):
    # the JSON decoder recurses once per level, so 100,000 nested lists
    # would escape as RecursionError
    path = tmp_path / "deep.json"
    path.write_text('{"grading_group": {"free_rank": 1}, "variables": [], "irrelevant": '
                    + "[" * 100_000 + "]" * 100_000 + "}")
    with pytest.raises(StackDataError, match="the JSON document nests too deeply"):
        load_stackdata(path)
