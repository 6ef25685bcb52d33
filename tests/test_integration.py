"""Randomized end-to-end checks across module boundaries."""

import json
import random

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.cli import main as cli_main
from kstacks.grobner import AbGroupInvariants
from kstacks.ktheory import induced_map, invariants, k0_presentation
from kstacks.stacks import (
    ConnectednessReport,
    StackData,
    builtin_example,
    check_connected,
    connectify,
    make_stack_data,
    stackdata_from_json,
    stackdata_to_json,
)


def random_stack_data(rng):
    kind = rng.randrange(3)
    if kind == 0:
        G = FgAbelianGroup.canonical(rng.randint(1, 2))
    elif kind == 1:
        G = FgAbelianGroup.canonical(rng.randint(0, 1), (rng.choice([2, 3, 4]),))
    else:
        G = group_from_relations(2, [[rng.randint(1, 4), -rng.randint(1, 4)]])
    g = G.num_generators
    nvars = rng.randint(1, 4)
    variables = []
    for i in range(nvars):
        vec = [rng.randint(-3, 3) for _ in range(g)]
        variables.append((f"x{i}", vec, False))
    names = [v[0] for v in variables]
    ncomp = rng.randint(0, 2)
    components = []
    for _ in range(ncomp):
        size = rng.randint(1, nvars)
        components.append(rng.sample(names, size))
    return make_stack_data(G, variables, components, "random")


def test_connectify_guarantee_on_random_data():
    rng = random.Random(20260809)
    for _ in range(60):
        data = random_stack_data(rng)
        fixed = connectify(data)
        report = check_connected(fixed)
        assert report.verdict == ConnectednessReport.CONNECTED
        assert fixed.irrelevant[-1] == (fixed.variable_names()[-1],)


def test_validate_idempotent_on_scrambled_components():
    rng = random.Random(7)
    for _ in range(40):
        data = random_stack_data(rng)
        again = StackData(data.group, data.variables, data.irrelevant, data.label)
        assert again.irrelevant == data.irrelevant
        assert again.variable_names() == data.variable_names()


def test_json_roundtrip_preserves_everything_random():
    rng = random.Random(11)
    for _ in range(40):
        data = random_stack_data(rng)
        obj = stackdata_to_json(data)
        back = stackdata_from_json(json.loads(json.dumps(obj)))
        assert stackdata_to_json(back) == obj


def test_torsion_group_through_cli_files(tmp_path, capsys):
    # a presented group with torsion survives the file format and gives the
    # same K-group presentation as the in-process route
    data = builtin_example("rugby", (2, 2))
    path = tmp_path / "rugby22.json"
    path.write_text(json.dumps(stackdata_to_json(data)))
    reloaded = stackdata_from_json(json.loads(path.read_text()))
    a = k0_presentation(data)
    b = k0_presentation(reloaded)
    assert [g.render() for g in a.generators] == [g.render() for g in b.generators]
    ia, ib = invariants(a), invariants(b)
    assert (ia.invariants(), ia.status) == (ib.invariants(), ib.status)

    report_path = tmp_path / "report.json"
    code = cli_main(
        ["k0", "--input", str(path), "--invariants", "--json", str(report_path)]
    )
    capsys.readouterr()
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["invariants"]["status"] == "exact"
    assert report["invariants"]["rank"] == 4


def test_connectified_file_roundtrip_keeps_invariants(tmp_path):
    for name, params, expected_rank in [
        ("blowup-a2-cox", (), 2),
        ("wps", (2, 3), 5),
    ]:
        fixed = connectify(builtin_example(name, params))
        obj = stackdata_to_json(fixed)
        back = stackdata_from_json(json.loads(json.dumps(obj)))
        inv_mem = invariants(k0_presentation(fixed))
        inv_file = invariants(k0_presentation(back))
        assert inv_mem.invariants() == inv_file.invariants() == (expected_rank, ())
        assert inv_mem.status == inv_file.status == AbGroupInvariants.EXACT


def test_induced_map_alternate_presentation_of_same_element():
    # 1 -> pe and 1 -> qe' present the same homomorphism
    for p, q in [(2, 3), (2, 2), (3, 4)]:
        rugby = k0_presentation(builtin_example("rugby", (p, q)))
        p1 = k0_presentation(builtin_example("p1"))
        via_e = induced_map([[p, 0]], p1.data, rugby)
        via_ep = induced_map([[0, q]], p1.data, rugby)
        w = p1.group.element([1])
        from kstacks.groupring import GroupRingElement

        mono = GroupRingElement.monomial(w)
        assert via_e.push_element(mono) == via_ep.push_element(mono)
