import json

import pytest

from kstacks.abelian import FgAbelianGroup
from kstacks.stacks import (
    MAX_GRADING_GENERATORS,
    ConnectednessReport,
    StackDataError,
    builtin_example,
    check_connected,
    check_pic_hypotheses,
    connectify,
    make_stack_data,
    stackdata_from_json,
    stackdata_to_json,
    validate,
)


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
    # validate is idempotent
    again = validate(data)
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
        make_stack_data(Z, [("x", [1], True)], [["x"]])
    with pytest.raises(StackDataError):
        make_stack_data(Z, [("x", [1], False)], [[]])


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


def test_connectify_rejects_inverted():
    with pytest.raises(StackDataError):
        connectify(builtin_example("b-mu", (3,)))


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
    assert bmu.irrelevant == ()
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
        again = validate(data)
        assert again.irrelevant == data.irrelevant
        assert again.variable_names() == data.variable_names()


def test_pic_hypotheses():
    assert check_pic_hypotheses(builtin_example("wps", (4, 6))).satisfied
    assert check_pic_hypotheses(builtin_example("b-mu", (5,))).satisfied
    single = builtin_example("wps", (3,))
    report = check_pic_hypotheses(single)
    assert not report.satisfied
    assert not report.depth_ok


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
    agree = 0
    for _ in range(200):
        n = rng.randint(1, 4)
        r = rng.randint(1, 2)
        degree_rows = [[rng.randint(-3, 3) for _ in range(r)] for _ in range(n)]
        assert _rational_annihilator_exists(degree_rows) == oracle(degree_rows)
        agree += 1
    assert agree == 200


def test_json_errors():
    with pytest.raises(StackDataError):
        stackdata_from_json({"grading_group": {}, "variables": []})
    with pytest.raises(StackDataError):
        stackdata_from_json([1, 2])
    with pytest.raises(StackDataError):
        stackdata_from_json({"variables": []})
