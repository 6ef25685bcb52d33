"""Randomized end-to-end checks across module boundaries."""

import json
import random
from math import gcd

from kstacks.abelian import FgAbelianGroup, group_from_relations
from kstacks.cli import main as cli_main
from kstacks.grobner import AbGroupInvariants
from kstacks.ktheory import induced_map, invariants, k0_presentation
from kstacks.picard import pic
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

from conftest import product


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


def _prime_powers(torsion):
    """The elementary divisors of Z/m1 x Z/m2 x ..., sorted."""
    out = []
    for m in torsion:
        p = 2
        while m > 1:
            q = 1
            while m % p == 0:
                m, q = m // p, q * p
            if q > 1:
                out.append(q)
            p += 1
    return sorted(out)


def _kunneth_factors(rng):
    """Built-in examples, then seeded gradings of Z/m or Z x Z/m with 2-3
    variables in one component, some inverted; over Z/m most of these have
    torsion in K0."""
    for name, params in [("p1", ()), ("wps", (2, 3)), ("wps", (4, 6)), ("b-mu", (3,)), ("b-mu", (4,)),
                         ("rugby", (2, 3)), ("rugby", (4, 6)), ("blowup-a2-cox", ()),
                         ("blowup-a2-hirzebruch", ())]:
        yield builtin_example(name, params)
    for _ in range(12):
        m = rng.choice((2, 3, 4, 6))
        G = FgAbelianGroup.canonical(rng.choice((0, 0, 1)), (m,))
        names = [f"x{i}" for i in range(rng.randint(2, 3))]
        variables = [(nm, [rng.randint(1, 2)] * G.free_rank + [rng.randint(1, m - 1)], rng.random() < 0.2)
                     for nm in names]
        yield make_stack_data(G, variables, [names], f"torsion{m}")


def test_product_pic_and_k0_are_kunneth():
    # Pic(X x Y) = Pic X + Pic Y, and K0(X x Y) = Z[Dx + Dy]/(Ix + Iy) is
    # K0 X (x) K0 Y: ranks multiply, Z/a (x) Z = Z/a and Z/a (x) Z/b = Z/gcd(a, b);
    # the K0 side is compared where both factors are exact and the product's rank is at most 16
    rng = random.Random("kunneth")
    factors = []
    for f in _kunneth_factors(rng):
        inv = invariants(k0_presentation(f))
        factors.append((f, inv.invariants() if inv.status == AbGroupInvariants.EXACT else None))
    compared = both_torsion = 0
    for _ in range(60):
        (a, ka), (b, kb) = rng.choice(factors), rng.choice(factors)
        X = product(a, b)
        (ra, ta), (rb, tb) = pic(a).invariants(), pic(b).invariants()
        r, t = pic(X).invariants()
        assert (r, _prime_powers(t)) == (ra + rb, _prime_powers(ta + tb)), (a.label, b.label)
        if ka is None or kb is None or ka[0] * kb[0] > 16:
            continue
        (ra, ta), (rb, tb) = ka, kb
        pres = k0_presentation(X)
        inv = invariants(pres)
        assert inv.status == AbGroupInvariants.EXACT, (a.label, b.label)
        r, t = inv.invariants()
        tensor = list(ta) * rb + list(tb) * ra + [gcd(m, n) for m in ta for n in tb]
        assert (r, _prime_powers(t)) == (ra * rb, _prime_powers(tensor)), (a.label, b.label)
        # the pullbacks along the projections, d -> (d, 0) and d -> (0, d), are induced maps
        ga = a.group.num_generators
        eye = [[int(i == j) for j in range(X.group.num_generators)] for i in range(X.group.num_generators)]
        induced_map(eye[:ga], a, pres)
        induced_map(eye[ga:], b, pres)
        compared += 1
        both_torsion += bool(ta and tb)
    assert compared >= 40 and both_torsion >= 3
