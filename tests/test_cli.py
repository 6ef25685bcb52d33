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
    # the degree-zero question is check-connected's alone
    assert "hypothesis_verified" not in report
    # reported generator strings parse back to the computed generators
    data = builtin_example("blowup-a2-hirzebruch")
    pres = k0_presentation(data)
    parsed = [parse_element(s, data.group) for s in report["generators"]]
    assert parsed == list(pres.generators)


def test_k0_cox_refused(capsys):
    # the Cox grading fails the degree-zero test, and k0 answers anyway
    code, out, err = run(["k0", "--example", "blowup-a2-cox", "--invariants", "--json", "-"], capsys)
    assert code == 0 and not err
    report = json.loads(out[out.index("\n{\n") + 1:])
    assert "hypothesis_verified" not in report
    assert report["invariants"] == {"rank": 2, "torsion": [], "status": "exact"}


def test_k0_cox_override(capsys):
    # there is nothing to override: the flag is an unrecognised argument
    code, out, err = run(
        ["k0", "--example", "blowup-a2-cox", "--override-hypothesis"], capsys
    )
    assert code == 1 and not out
    assert "unrecognized arguments: --override-hypothesis" in err


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
    assert report["units_degrees"] == [[7]]
    assert "certified" not in report and "hypotheses" not in report and "watermarks" not in report


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
    for argv, flags in ((["k0", "--example", "wps", "1", "1", "--input", "x.json"], "--example or --input"),
                        (["map", "--example", "rugby", "2", "3", "--matrix", "3;2", "--target", "wps", "3", "2",
                          "--target-input", "x.json"], "--target or --target-input")):
        code, out, err = run(argv, capsys)
        assert code == 1 and not out, argv
        assert f"give either {flags}, not both" in err, err


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


def test_degree_bound_refuses_a_k0_build_not_a_plain_k0(tmp_path, capsys):
    # a component product of degree 2^30 + 1: plain k0 reports it, and the
    # basis that --invariants builds cannot pack it
    data_path = tmp_path / "big.json"
    data_path.write_text(json.dumps({
        "grading_group": {"free_rank": 1, "torsion": []},
        "variables": [{"name": "x", "degree": [2 ** 30]}, {"name": "y", "degree": [1]}],
        "irrelevant": [["x", "y"]],
    }))
    code, out, _ = run(["k0", "--input", str(data_path)], capsys)
    assert code == 0 and "1 - t^[1] - t^[1073741824] + t^[1073741825]" in out
    code, out, err = run(["k0", "--input", str(data_path), "--invariants"], capsys)
    assert code == 1 and not out and "total degrees must stay below 2^29" in err


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
        ["check-connected", "--example", "wps", "1", "1", "--bound", "-1"],
        ["check-connected", "--example", "blowup-a2-cox", "--bound", "-1"],
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
    # the K-group commands answer on data that fails the degree-zero test,
    # and take neither a witness search bound nor an override
    code, out, err = run(argv + ["--json", "-"], capsys)
    assert code == 0 and not err
    report = json.loads(out[out.index("\n{\n") + 1:])
    assert "watermarks" not in report and "connectedness" not in report
    for flag in (["--bound", "0"], ["--override-hypothesis"]):
        code, out, err = run(argv + flag, capsys)
        assert code == 1 and not out
        assert f"unrecognized arguments: {flag[0]}" in err


def test_k0_answers_thin4_without_a_witness_search(tmp_path, capsys):
    # degrees [1]*4 + [-40] in one component: x0^40*y has degree zero, but
    # the witness search walks about 21^5 exponent vectors and finds none
    # below its default bound 20; k0 never starts it
    names = ["x0", "x1", "x2", "x3", "y"]
    data_path = tmp_path / "thin4.json"
    data_path.write_text(json.dumps({
        "grading_group": {"free_rank": 1, "torsion": []},
        "variables": [{"name": nm, "degree": [-40 if nm == "y" else 1], "inverted": False} for nm in names],
        "irrelevant": [names],
    }))
    started = time.perf_counter()
    code, out, _ = run(["k0", "--input", str(data_path), "--invariants", "--json", "-"], capsys)
    assert time.perf_counter() - started < 1.0
    assert code == 0
    report = json.loads(out[out.index("\n{\n") + 1:])
    assert "hypothesis_verified" not in report
    assert report["invariants"] == {"rank": 44, "torsion": [], "status": "exact"}


def _refuse(*args, **kwargs):
    raise AssertionError("this command must not get here")


@pytest.mark.parametrize("example", [["blowup-a2-cox"], ["wps", "2", "3"], ["rugby", "2", "3"], ["b-mu", "7"]])
def test_k0_reads_the_generators_without_a_basis_or_the_degree_zero_test(example, capsys, monkeypatch):
    # the report holds the group and the component products, so plain k0
    # completes no basis and leaves the degree-zero question to check-connected
    data = builtin_example(example[0], example[1:])
    expected = k0_presentation(data).generators
    monkeypatch.setattr("kstacks.ktheory.strong_groebner", _refuse)
    monkeypatch.setattr("kstacks.stacks._rational_annihilator_exists", _refuse)
    code, out, err = run(["k0", "--example", *example, "--json", "-"], capsys)
    assert code == 0 and not err
    report = json.loads(out[out.index("\n{\n") + 1:])
    assert [parse_element(q, data.group) for q in report["generators"]] == list(expected)
    assert "invariants" not in report and "hypothesis_verified" not in report


def test_k0_invariants_never_runs_the_degree_zero_test(capsys, monkeypatch):
    monkeypatch.setattr("kstacks.stacks._rational_annihilator_exists", _refuse)
    code, out, err = run(["k0", "--example", "blowup-a2-cox", "--invariants", "--json", "-"], capsys)
    assert code == 0 and not err
    report = json.loads(out[out.index("\n{\n") + 1:])
    assert report["invariants"] == {"rank": 2, "torsion": [], "status": "exact"}


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eq", "--example", "rugby", "2", "3", "--lhs", "1-w", "--rhs", "0"],
         "error: unknown symbol 'w'; generic inputs must use the t^[...] monomial form\n"),
        (["class", "--example", "rugby", "2", "3", "--koszul", "1,x"], "error: bad integer 'x' in --koszul\n"),
        (["map", "--example", "rugby", "2", "3", "--matrix", "3;x", "--target", "wps", "3", "2"],
         "error: bad integer 'x' in --matrix rows\n"),
        (["map", "--example", "rugby", "2", "3", "--matrix", "3", "--target", "wps", "3", "2"],
         "error: --matrix needs 2 rows (one per source generator)\n"),
    ],
    ids=["eq-lhs", "class-koszul", "map-entry", "map-rows"],
)
def test_arguments_are_parsed_before_the_k0_build(argv, message, capsys, monkeypatch):
    def unexpected(data):
        raise AssertionError("k0_presentation called before the arguments were parsed")

    monkeypatch.setattr("kstacks.cli.k0_presentation", unexpected)
    code, out, err = run(argv, capsys)
    assert (code, out, err) == (1, "", message)


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


@pytest.mark.parametrize("argv", [["--example", "rugby", "2", "3", "--matrix", "3;2", "--target", "wps", "3", "2"],
                                  ["--example", "p1", "--matrix", "2,0", "--target", "rugby", "2", "3"]])
def test_map_completes_only_the_target(argv, capsys, monkeypatch):
    # the source's ideal generators come from its data: the one basis map
    # completes is the target's
    groups = []
    complete = kstacks.ktheory.strong_groebner

    def recorded(gens, presentation):
        groups.append(presentation.group)
        return complete(gens, presentation)

    monkeypatch.setattr("kstacks.ktheory.strong_groebner", recorded)
    code, _, err = run(["map", *argv], capsys)
    target = argv[argv.index("--target") + 1:]
    assert code == 0 and not err
    assert groups == [builtin_example(target[0], target[1:]).group]


def test_map_reads_a_source_past_the_degree_limit(tmp_path, capsys):
    # only the images are packed, so the zero map from the stack of
    # test_degree_bound_refuses_a_k0_build_not_a_plain_k0 answers
    data_path = tmp_path / "big.json"
    data_path.write_text(json.dumps({
        "grading_group": {"free_rank": 1, "torsion": []},
        "variables": [{"name": "x", "degree": [2 ** 30]}, {"name": "y", "degree": [1]}],
        "irrelevant": [["x", "y"]],
    }))
    code, out, err = run(["map", "--input", str(data_path), "--matrix", "0", "--target", "p1", "--json", "-"], capsys)
    assert code == 0 and not err
    report = json.loads(out[out.index("\n{\n") + 1:])
    assert report["ok"] is True
    assert report["generator_images"] == [{"generator": "1 - t^[1] - t^[1073741824] + t^[1073741825]", "image": "0"}]


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
    (0, "9e3ec0e99dc540250ac0a959ff183de04f2061fb1715dfd331354ae63059b750"),
    (0, "ffb9ded7d9b2272c4b8c84753aa4bb4dbfe06876dac6c6c23c600110b8a81a7f"),
    (0, "0c0b50433127915aafd0dbeb298414645be4d3fb3b2aa4a853e9d1ec58ec4ce9"),
    (0, "a1616c8748e0c6b428d9bf5752113f87a19fcdd5ef6a1cfce452dd6f7727203a"),
    (0, "2230ea36ad11d750297e1f71ccf3e34019d13ed13d1156bed3795176e70062d6"),
    (0, "4ea6f899d1046c62e7b2eb3a2163240476e24e08774b8ad2a50073aa5c99c731"),
    (3, "74dc9504fbf650f2d65fe167b4c4d3226ef3003984a367c77b723bcd76d61a76"),
    (0, "5793e4071624a12957f964016f136bcef2cc08d88f000f67f4bc679d9d4a569f"),
    (0, "f9dae17058976918bee900fb8b18504d5705ab8fa38918f5c5ed6c646215f1e7"),
    (0, "6b310da0f6dae12365801b86abcc19dd3f997c454af09c694a0179339d45d68f"),
    (0, "3aefb36e2860c0b8ff899dda52624458c6d7f0d27337789e6aa902638cc81918"),
    (0, "f81ba9ab9d1aebb9eda2cfabb7b55387830c53f700ba9e50bd70aaeb817ade48"),
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


def test_only_eq_binds_the_example_symbols(tmp_path, capsys, monkeypatch):
    # every README command but eq exits as documented without the symbols
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("kstacks.cli.example_symbols", _refuse)
    for argv, (code, _) in zip(_readme_commands(), README_REPORTS):
        if argv[1] != "eq":
            assert run(argv[1:], capsys)[0] == code, shlex.join(argv)


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


def _child(args, **env):
    # the child imports the same kstacks as this process, installed or not
    src = os.path.dirname(os.path.dirname(os.path.abspath(kstacks.__file__)))
    pythonpath = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "kstacks.cli", *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=pythonpath, **env),
    )


def _subprocess_report(args, path, seed):
    proc = _child([*args, "--json", str(path)], PYTHONHASHSEED=seed)
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
        ["k0", "--example", "blowup-a2-cox", "--invariants"],
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


@pytest.mark.parametrize("kind", ["expression", "json"])
def test_deep_nesting_is_an_input_error(tmp_path, kind):
    # nesting past the interpreter's recursion limit is refused like the
    # other input limits: an error line and exit 1, no traceback
    if kind == "expression":
        args = ["eq", "--example", "p1", "--lhs", "(" * 250 + "1" + ")" * 250, "--rhs", "1"]
    else:
        path = tmp_path / "deep.json"
        path.write_text('{"grading_group": {"free_rank": 1}, "variables": [], "irrelevant": '
                        + "[" * 100_000 + "]" * 100_000 + "}")
        args = ["pic", "--input", str(path)]
    proc = _child(args)
    assert proc.returncode == 1 and not proc.stdout
    assert proc.stderr.startswith("error: ") and "nests too deeply" in proc.stderr
    assert "Traceback" not in proc.stderr
