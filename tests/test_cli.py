import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import time

import pytest

import kstacks
from kstacks.cli import build_parser, main
from kstacks.exprs import parse_element
from kstacks.grobner import BOX_LIMIT
from kstacks.ktheory import InducedK0Map, k0_presentation
from kstacks.stacks import EXAMPLES, builtin_example, load_stackdata


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def strip_timing(report):
    report = dict(report)
    report.pop("timing_ms", None)
    return report


def test_k0_blowup(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(
        ["k0", "--example", "blowup-a2-hirzebruch", "--invariants", "--json", str(path)],
        capsys,
    )
    assert code == 0
    assert "1 - t^[0,1]" in out
    report = read_report(path)
    assert report["command"] == "k0"
    assert report["invariants"]["rank"] == 2
    assert report["invariants"]["torsion"] == []
    assert report["invariants"]["status"] == "exact"
    assert report["hypothesis_verified"] is True
    # reported generator strings parse back to the computed generators
    data = builtin_example("blowup-a2-hirzebruch")
    pres = k0_presentation(data)
    parsed = [parse_element(s, data.group) for s in report["generators"]]
    assert parsed == list(pres.generators)


def test_k0_cox_refused(capsys):
    code, _, err = run(["k0", "--example", "blowup-a2-cox"], capsys)
    assert code == 2
    assert "hypothesis" in err


def test_k0_cox_override(capsys):
    code, out, _ = run(
        ["k0", "--example", "blowup-a2-cox", "--override-hypothesis"], capsys
    )
    assert code == 0
    assert "WARNING" in out


def test_k0_wps_invariants(capsys):
    code, out, _ = run(["k0", "--example", "wps", "1", "1", "--invariants"], capsys)
    assert code == 0
    assert "Z^2" in out


def test_pic_commands(tmp_path, capsys):
    code, out, _ = run(["pic", "--example", "wps", "4", "6"], capsys)
    assert code == 0 and out == "Pic of wps(4,6): Z\n"

    code, out, _ = run(["pic", "--example", "wps", "4", "6", "--remove-degree", "12"], capsys)
    assert code == 0 and "Z/12" in out

    path = tmp_path / "pic.json"
    code, out, _ = run(["pic", "--example", "b-mu", "7", "--json", str(path)], capsys)
    assert code == 0 and "Z/7" in out
    report = read_report(path)
    assert report["group"] == {"rank": 0, "torsion": [7], "description": "Z/7"}
    assert report["units_degrees"] == [[7]] and report["watermarks"] == []
    assert "certified" not in report and "hypotheses" not in report


def test_eq_command(capsys):
    code, _, _ = run(
        ["eq", "--example", "rugby", "2", "3", "--lhs", "1 - t^3", "--rhs", "(1-t)*(1+t+t^2)"],
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["eq", "--example", "rugby", "2", "3", "--lhs", "t*(1-t^2)", "--rhs", "1-t^2"],
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["eq", "--example", "blowup-a2-hirzebruch", "--lhs", "1-u", "--rhs", "0"], capsys
    )
    assert code == 3
    code, _, err = run(
        ["eq", "--example", "rugby", "2", "3", "--lhs", "1 - w", "--rhs", "0"], capsys
    )
    assert code == 1 and "error" in err


def test_eq_reports_one_reduced_form(tmp_path, capsys):
    # the README's command: two ways of writing one class reduce to one text
    path = tmp_path / "eq.json"
    code, _, _ = run(
        ["eq", "--example", "rugby", "2", "3", "--lhs", "t*(1-t^2)", "--rhs", "1-t^2",
         "--json", str(path)],
        capsys,
    )
    report = read_report(path)
    assert code == 0 and report["equal"] is True
    assert report["lhs_reduced"] == report["rhs_reduced"]


def test_check_connected_exit_codes(capsys):
    code, _, _ = run(["check-connected", "--example", "blowup-a2-hirzebruch"], capsys)
    assert code == 0
    code, out, _ = run(["check-connected", "--example", "blowup-a2-cox"], capsys)
    assert code == 3
    assert "witness" in out


def test_connectify_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "fixed.json"
    code, _, _ = run(
        ["connectify", "--example", "blowup-a2-cox", "-o", str(out_path)], capsys
    )
    assert code == 0
    fixed = load_stackdata(out_path)
    assert fixed.group.invariants() == (2, ())
    # k0 succeeds on the rewritten data without an override
    code, out, _ = run(
        ["k0", "--input", str(out_path), "--invariants"], capsys
    )
    assert code == 0
    assert "Z^2" in out


def test_class_command(tmp_path, capsys):
    path = tmp_path / "class.json"
    code, out, _ = run(
        ["class", "--example", "rugby", "2", "3", "--koszul", "1,0", "--json", str(path)],
        capsys,
    )
    assert code == 0
    report = read_report(path)
    data = builtin_example("rugby", (2, 3))
    got = parse_element(report["class"], data.group)
    t = parse_element("t^[-3]", data.group)
    assert got == 1 - t
    assert report["is_zero"] is False


def test_map_command(capsys):
    code, _, _ = run(
        ["map", "--example", "rugby", "2", "3", "--matrix", "3;2", "--target", "wps", "3", "2"],
        capsys,
    )
    assert code == 0
    code, _, _ = run(
        ["map", "--example", "p1", "--matrix", "2,0", "--target", "rugby", "2", "3"],
        capsys,
    )
    assert code == 0
    # e -> 1, e' -> 1 does not kill the rugby relation: negative verdict
    code, _, _ = run(
        ["map", "--example", "rugby", "2", "3", "--matrix", "1;1", "--target", "p1"],
        capsys,
    )
    assert code == 3
    # wrong shape is an input error
    code, _, _ = run(
        ["map", "--example", "rugby", "2", "3", "--matrix", "3", "--target", "wps", "3", "2"],
        capsys,
    )
    assert code == 1


def test_example_list(capsys):
    code, out, _ = run(["example", "--list"], capsys)
    assert code == 0
    for name in ["wps", "b-mu", "rugby", "m11", "p1", "blowup-a2-cox"]:
        assert name in out


def test_input_errors(capsys):
    code, _, _ = run(["k0"], capsys)
    assert code == 1
    code, _, _ = run(["k0", "--example", "nope"], capsys)
    assert code == 1
    code, _, _ = run(["k0", "--input", "/nonexistent/file.json"], capsys)
    assert code == 1
    code, _, _ = run(["pic", "--example", "wps", "4", "6", "--remove-degree", "1,2"], capsys)
    assert code == 1
    code, _, _ = run(["bogus-command"], capsys)
    assert code == 1


def test_non_ascii_integers_are_input_errors(capsys):
    # int() would read each of these as 10 or 1
    for argv in (["k0", "--example", "wps", "1_0", "2"],
                 ["k0", "--example", "wps", "١", "2"],
                 ["pic", "--example", "wps", "1", "2", "--remove-degree", "1_0"],
                 ["check-connected", "--example", "wps", "1", "2", "--bound", "١"],
                 ["eq", "--example", "p1", "--lhs", "t^[1_0]", "--rhs", "1"]):
        code, out, err = run(argv, capsys)
        assert code == 1 and not out, argv
        assert "Traceback" not in err
    assert run(["k0", "--example", "wps", "+1", "2"], capsys)[0] == 0


def test_power_budget_and_degree_bound_are_input_errors(capsys):
    # a power over the parser's budget, and a monomial of total degree 2^29
    # (too high for the packed Groebner kernels), each exit 1 with a reason
    for argv, reason in ((["eq", "--example", "p1", "--lhs", "(1+t^[1])^4000", "--rhs", "1"], "POWER_BUDGET"),
                         (["eq", "--example", "p1", "--lhs", "t^[536870912]", "--rhs", "1"], "(536870912, 0)"),
                         (["eq", "--example", "p1", "--lhs", "1", "--rhs", "t^[-536870912]"], "(0, 536870912)")):
        code, out, err = run(argv, capsys)
        assert code == 1 and not out, argv
        assert reason in err and "Traceback" not in err, err


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no limit on int-text conversion")
def test_integers_past_the_digit_limit_are_input_errors(capsys):
    # Python refuses to convert ints of more than sys.get_int_max_str_digits()
    # decimal digits to or from text; the messages name the input's size and
    # the limit, not the interpreter setting that moves it, and never echo
    # the digits
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    limit = "4300-digit limit"
    big = "7" * 5000
    cases = [(["eq", "--example", "p1", "--lhs", lhs, "--rhs", "1"], size, bound)
             for lhs, size, bound in (("2^20000", "about 6021 digits", limit),
                                      (big, "5000 digits", limit),
                                      (f"t^[{big}]", "5000 digits", limit),
                                      (f"(t^[1]^{'9' * 4300})^10", "total degree of 14288 bits",
                                       "total degrees must stay below 2^29"))]
    cases += [(argv, "5000 digits", limit) for argv in (
        ["pic", "--example", "wps", "4", "6", "--remove-degree", big],
        ["class", "--example", "rugby", "2", "3", "--koszul", f"1,{big}"],
        ["map", "--example", "rugby", "2", "3", "--matrix", f"3;{big}", "--target", "wps", "3", "2"],
        ["check-connected", "--example", "p1", "--bound", big])]
    try:
        for argv, size, bound in cases:
            code, out, err = run(argv, capsys)
            assert code == 1 and not out, argv[0]
            # an argparse error comes after the command's usage lines
            message = err[err.index("error:"):] if err.startswith("usage:") else err
            assert size in message and bound in message and len(message) < 200, err
            assert "Traceback" not in err and "set_int_max_str_digits" not in err, err
    finally:
        sys.set_int_max_str_digits(old)


def _p1_with_z():
    return {
        "grading_group": {"free_rank": 1, "torsion": []},
        "variables": [
            {"name": "x", "degree": [1], "inverted": False},
            {"name": "y", "degree": [1], "inverted": False},
            {"name": "z", "degree": [1], "inverted": False},
        ],
        "irrelevant": [["x", "y"]],
        "label": "p1-with-z",
    }


def _set(path, value):
    def change(obj):
        *keys, last = path
        for k in keys:
            obj = obj[k]
        obj[last] = value
    return change


def _drop(index, key):
    def change(obj):
        del obj["variables"][index][key]
    return change


def _group(group_obj):
    def change(obj):
        obj.update(grading_group=group_obj, variables=[], irrelevant=[])
    return change


@pytest.mark.parametrize(
    "change",
    [
        _set(["variables", 2, "inverted"], "false"),
        _drop(0, "name"),
        _drop(1, "degree"),
        _set(["grading_group"], 3),
        _set(["variables"], {"x": [1]}),
        _set(["variables", 0], "x"),
        _set(["variables", 0, "degree"], 1),
        _set(["irrelevant"], [["x", "y"], "z"]),
        _set(["irrelevant"], [[["x"]]]),
        _set(["variables", 2, "name"], None),
        _set(["variables", 2, "name"], ["z"]),
        _group({"free_rank": -1, "torsion": []}),
        _group({"generators": -1, "relations": []}),
        _set(["label"], 5),
        _set(["label"], ["a"]),
        _set(["variables", 0, "degree"], ["1_0"]),
        _set(["variables", 0, "degree"], ["١"]),
        _set(["variables", 0, "degree"], [True]),
        _set(["variables", 0, "degree"], [1.5]),
        _group({"free_rank": 1, "torsion": [2, 3]}),
        _group({"free_rank": 1, "torsion": [1]}),
        _group({"generators": 2, "relations": [[1, 2, 3]]}),
    ],
    ids=["inverted-string", "no-name", "no-degree", "group-not-object", "variables-not-list",
         "variable-not-object", "degree-not-list", "component-not-list", "component-entry-not-string",
         "name-null", "name-not-string", "negative-free-rank", "negative-generators",
         "label-number", "label-list", "degree-underscore", "degree-arabic-indic", "degree-bool",
         "degree-float", "torsion-not-a-chain", "torsion-below-two", "relation-wrong-length"],
)
def test_malformed_input_is_input_error(tmp_path, capsys, change):
    obj = _p1_with_z()
    change(obj)
    data_path = tmp_path / "bad.json"
    data_path.write_text(json.dumps(obj))
    for command in ("k0", "pic"):
        code, out, err = run([command, "--input", str(data_path)], capsys)
        assert code == 1 and not out
        assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "group_obj",
    [{"generators": 100000, "relations": []}, {"free_rank": 99999, "torsion": [2]}],
    ids=["generators", "free-rank-and-torsion"],
)
def test_oversized_grading_group_is_rejected_quickly(tmp_path, capsys, group_obj):
    data_path = tmp_path / "big.json"
    data_path.write_text(json.dumps({"grading_group": group_obj, "variables": [], "irrelevant": []}))
    for command in ("k0", "pic"):
        started = time.perf_counter()
        code, out, err = run([command, "--input", str(data_path)], capsys)
        assert time.perf_counter() - started < 1.0
        assert code == 1 and not out
        assert err.startswith("error: ") and "Traceback" not in err


def test_invariants_box_budget_is_reported(tmp_path, capsys):
    # P^1 x B(Z/m) over Z x Z/m has the 2m standard monomials y^a s^c with
    # a < 2 and c < m.  With 2m > BOX_LIMIT the staircase walk stops at the
    # budget: the status is unknown, not an error, and quickly so.
    m = BOX_LIMIT // 2 + 1
    data_path = tmp_path / "p1-bmu.json"
    data_path.write_text(json.dumps({
        "grading_group": {"free_rank": 1, "torsion": [m]},
        "variables": [{"name": x, "degree": [1, 0], "inverted": False} for x in ("x0", "x1")],
        "irrelevant": [["x0", "x1"]],
    }))
    started = time.perf_counter()
    code, out, _ = run(["k0", "--input", str(data_path), "--invariants", "--json", "-"], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert json.loads(out[out.index("\n{\n") + 1:])["invariants"] == {"rank": None, "torsion": [],
                                                                    "status": "unknown"}
    # the walk visits only the staircase, not the box of 151^2 > BOX_LIMIT
    # candidates that holds the 301 standard monomials of wps(150,151)
    assert 151 ** 2 > BOX_LIMIT
    for weights, rank in ((["150", "151"], 301), (["100", "101"], 201)):
        code, out, _ = run(["k0", "--example", "wps", *weights, "--invariants", "--json", "-"], capsys)
        assert code == 0
        assert json.loads(out[out.index("\n{\n") + 1:])["invariants"] == {"rank": rank, "torsion": [],
                                                                        "status": "exact"}


def test_json_to_stdout(capsys):
    code, out, _ = run(["pic", "--example", "b-mu", "3", "--json", "-"], capsys)
    assert code == 0
    start = out.index("{")
    report = json.loads(out[start:])
    assert report["group"]["description"] == "Z/3"


def test_bound_flag_sets_the_witness_search(tmp_path, capsys):
    # degrees 3 and -2: no witness with entries <= 1, found with the default
    data_path = tmp_path / "thin.json"
    data_path.write_text(
        json.dumps(
            {
                "grading_group": {"free_rank": 1, "torsion": []},
                "variables": [
                    {"name": "a", "degree": [3], "inverted": False},
                    {"name": "b", "degree": [-2], "inverted": False},
                ],
                "irrelevant": [],
                "label": "thin",
            }
        )
    )
    argv = ["check-connected", "--input", str(data_path)]
    code, out, _ = run(argv + ["--bound", "1"], capsys)
    assert code == 3 and "unknown" in out
    code, out, _ = run(argv, capsys)
    assert code == 3 and "not_connected" in out
    code, out, _ = run(argv + ["--bound", "3"], capsys)
    assert code == 3 and "not_connected" in out


def test_k0_invariants_cross_check_is_opt_in(capsys):
    argv = ["k0", "--example", "wps", "1", "1", "--invariants", "--json", "-"]
    code, out, _ = run(argv, capsys)
    assert code == 0
    report = json.loads(out[out.index("{"):])
    assert report["invariants"] == {"rank": 2, "torsion": [], "status": "exact"}
    # the Macaulay cross-check is gone: its flag is an unrecognised argument
    code, out, err = run(argv + ["--macaulay-bound", "3"], capsys)
    assert code == 1 and not out
    assert "unrecognized arguments: --macaulay-bound" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["eq", "--example", "wps", "1", "1", "--lhs", "1", "--rhs", "1", "--bound", "-1"],
        ["k0", "--example", "wps", "1", "1", "--bound", "-1"],
        ["check-connected", "--example", "wps", "1", "1", "--bound", "-3"],
    ],
)
def test_negative_bound_flag_is_input_error(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1
    assert "must be non-negative" in err and not out


@pytest.mark.parametrize(
    "argv",
    [
        ["k0", "--example", "blowup-a2-cox"],
        ["eq", "--example", "blowup-a2-cox", "--lhs", "1", "--rhs", "1"],
        ["class", "--example", "blowup-a2-cox", "--koszul", "1"],
        ["map", "--example", "blowup-a2-cox", "--matrix", "1", "--target", "p1"],
    ],
    ids=["k0", "eq", "class", "map"],
)
def test_k0_commands_share_bound_and_override(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == 2 and not out and "refused" in err
    # bound zero is a valid, if small, search
    code, out, _ = run(argv + ["--bound", "0", "--override-hypothesis", "--json", "-"], capsys)
    assert code == 0
    assert json.loads(out[out.index("\n{\n") + 1:])["watermarks"]
    code, out, err = run(argv + ["--override-hypothesis", "--bound", "-1"], capsys)
    assert code == 1 and not out
    assert "argument --bound: must be non-negative" in err


def test_check_connected_takes_bound_but_no_override(capsys):
    argv = ["check-connected", "--example", "wps", "1", "1"]
    code, out, _ = run(argv + ["--bound", "0"], capsys)
    assert code == 0 and "connected" in out
    code, out, err = run(argv + ["--override-hypothesis"], capsys)
    assert code == 1 and not out
    assert "unrecognized arguments: --override-hypothesis" in err


def test_map_pushes_each_source_generator_once(capsys, monkeypatch):
    calls = []
    push = InducedK0Map.push_element

    def counted(self, element):
        calls.append(element)
        return push(self, element)

    monkeypatch.setattr(InducedK0Map, "push_element", counted)
    code, _, _ = run(
        ["map", "--example", "rugby", "2", "3", "--matrix", "3;2", "--target", "wps", "3", "2"],
        capsys,
    )
    assert code == 0
    assert calls == list(k0_presentation(builtin_example("rugby", (2, 3))).generators)


def _readme():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"), encoding="utf-8") as fh:
        return fh.read()


def _readme_commands():
    text = _readme()
    block = text[text.index("## Command line"):]
    block = block[block.index("```") + 3:]
    block = block[:block.index("```")]
    return [shlex.split(line) for line in block.splitlines() if line.startswith("kstacks ")]


def test_readme_commands_match_the_parser():
    parser = build_parser()
    commands = _readme_commands()
    for argv in commands:
        try:
            parser.parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README command rejected by the parser: {shlex.join(argv)}")
    subcommands = next(
        a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    assert set(subcommands) == {argv[1] for argv in commands}


# sha256 of each README command's JSON report without `timing_ms`, and the
# exit code, in README order: any change to an answer, a reduced form or a
# report field moves one of them
README_REPORTS = [
    (0, "dad3be429eb4378ce4679bce41f2b449771ec71ef50d573b590d6efe537b4402"),
    (0, "5a0e3eb88a97551951d21fac33e0f3cb6461619c3a42c6386ea9d3c8c7848dda"),
    (0, "5510cfe6e2423de2f7949899482d1b756257bde69f41999a5f87f104ecc9e7ee"),
    (0, "615fa4c43d0b2a950408f2e71c90cfcbe904c609259d5f0c6efc622bf5472d8e"),
    (0, "907c1823ab8487b073c9f1a264a3e5fdb03ee803779a8dcd7c1e4d371ec3d178"),
    (0, "520c80022032551179d6b4372eecef8ab59fc966e8ede4bbad6332af03d5b34d"),
    (3, "585d44aa6394fc088b8d1bc407039c61ef760a8bd375a3eb778608983ad934f4"),
    (0, "b85ba94a40bb2b8a4eefb9e25fac823990d526f9f20f76ebac625c76e481b8fd"),
    (0, "4763e3553787f347cec2671ef5a3b34f10c51c7235e064264f19302b3bb2fa72"),
    (0, "6c8f1135310ab2a8137fac980abd541bff3db5cf664cf754eaa4f6d90adfd98e"),
    (0, "959406952167b05d91b150c5df755eebbf54facfbd110ed1e42166e2174cd5d4"),
    (0, "117d0c84455c4af24901ae673d3100087a8c6936a22276aba1f8d4d141647541"),
]


def test_pinned_readme_reports(tmp_path, capsys, monkeypatch):
    # the README commands run in order in one directory, so connectify's
    # fixed.json is there for the k0 command after it
    monkeypatch.chdir(tmp_path)
    got = []
    for argv in _readme_commands():
        code, _, _ = run(argv[1:] + ["--json", "report.json"], capsys)
        report = json.dumps(strip_timing(read_report("report.json")), sort_keys=True)
        got.append((code, hashlib.sha256(report.encode()).hexdigest()))
    assert got == README_REPORTS


def test_readme_example_table_matches_the_registry():
    # README's "Built-in examples" table lists the rows of EXAMPLES, in
    # order, with the same parameter text
    text = _readme()
    table = text[text.index("## Built-in examples"):].split("\n\n")[1]
    rows = [
        tuple(cell.strip().strip("`") for cell in line.split("|")[1:3])
        for line in table.splitlines()[2:]
    ]
    assert rows == [(name, row[0]) for name, row in EXAMPLES.items()]


def test_k0_zero_ideal_reports_not_finitely_generated(tmp_path, capsys):
    data_path = tmp_path / "free.json"
    data_path.write_text(
        json.dumps(
            {
                "grading_group": {"free_rank": 1, "torsion": []},
                "variables": [{"name": "x", "degree": [1], "inverted": False}],
                "irrelevant": [],
                "label": "affine-line",
            }
        )
    )
    path = tmp_path / "report.json"
    code, out, _ = run(
        ["k0", "--input", str(data_path), "--invariants", "--json", str(path)], capsys
    )
    assert code == 0
    report = read_report(path)
    assert report["generators"] == []
    assert report["invariants"]["status"] == "not_finitely_generated"
    assert report["invariants"]["rank"] is None


def _subprocess_report(args, path, seed):
    # the child imports the same kstacks as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(kstacks.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=pythonpath)
    proc = subprocess.run(
        [sys.executable, "-m", "kstacks.cli", *args, "--json", str(path)],
        capture_output=True,
        text=True,
        env=env,
    )
    if not path.exists():
        pytest.fail(f"no report written (exit {proc.returncode}):\n{proc.stderr}")
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return proc.returncode, text


@pytest.mark.parametrize(
    "args",
    [
        ["k0", "--example", "blowup-a2-hirzebruch", "--invariants"],
        ["pic", "--example", "wps", "4", "6", "--remove-degree", "12"],
        ["eq", "--example", "rugby", "2", "3", "--lhs", "t*(1-t^2)", "--rhs", "1-t^2"],
        ["check-connected", "--example", "blowup-a2-cox"],
        ["connectify", "--example", "blowup-a2-cox"],
        ["class", "--example", "rugby", "2", "3", "--koszul", "1,0"],
        ["map", "--example", "rugby", "2", "3", "--matrix", "3;2", "--target", "wps", "3", "2"],
        ["map", "--example", "rugby", "2", "3", "--matrix", "1;1", "--target", "p1"],
        ["k0", "--example", "blowup-a2-cox", "--override-hypothesis", "--invariants"],
        ["example", "--list"],
    ],
)
def test_reports_identical_across_hash_seeds(tmp_path, args):
    # different hash seeds exercise set/dict iteration nondeterminism
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    code1, text1 = _subprocess_report(args, p1, "0")
    code2, text2 = _subprocess_report(args, p2, "4242")
    assert code1 == code2
    body1 = strip_timing(json.loads(text1))
    body2 = strip_timing(json.loads(text2))
    assert json.dumps(body1, sort_keys=True) == json.dumps(body2, sort_keys=True)
