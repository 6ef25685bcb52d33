"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All comparisons are exact; the only tolerances are the documented search
bounds of the honest-status machinery, and every criterion below requires
the exact verdicts.
"""

import itertools
import json
import random
import time

from kstacks.abelian import IntMatrix, smith_normal_form
from kstacks.cli import main as cli_main
from kstacks.exprs import parse_element
from kstacks.groupring import GroupRingElement, one_minus
from kstacks.grobner import (
    AbGroupInvariants,
    PolyPresentation,
    normal_form,
    strong_groebner,
    zmodule_invariants,
)
from kstacks.ktheory import (
    K0Class,
    class_of_intersection,
    class_of_koszul_quotient,
    equal_in_k0,
    induced_map,
    invariants,
    k0_presentation,
)
from kstacks.picard import pic, pic_open
from kstacks.stacks import (
    ConnectednessReport,
    builtin_example,
    check_connected,
    connectify,
    make_stack_data,
)
from kstacks.abelian import FgAbelianGroup

from conftest import (
    brute_force_numerator,
    check_smith_decomposition,
    equal_up_to_unit,
    macaulay_member,
)

RUGBY_PAIRS = [(1, 1), (2, 3), (2, 2), (3, 4)]


def _pass(n, text):
    print(f"ACCEPTANCE {n:02d} PASS: {text}")


def test_criterion_01_blowup_hirzebruch():
    data = builtin_example("blowup-a2-hirzebruch")
    pres = k0_presentation(data)
    G = data.group
    u = GroupRingElement.monomial(G.element([1, 0]))
    v = GroupRingElement.monomial(G.element([0, 1]))
    expected = [1 - v, (1 - u) * (1 - u)]
    assert len(pres.generators) == 2
    matched = set()
    for got in pres.generators:
        for i, want in enumerate(expected):
            if i not in matched and equal_up_to_unit(got, want):
                matched.add(i)
                break
    assert matched == {0, 1}
    inv = invariants(pres)
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT
    _pass(1, "blowup ideal is {1-v, (1-u)^2}; invariants rank 2, no torsion, exact")


def test_criterion_02_cross_presentation_consistency():
    cox = builtin_example("blowup-a2-cox")
    report = check_connected(cox)
    assert report.verdict == ConnectednessReport.NOT_CONNECTED
    w = report.witness
    assert w is not None and any(w) and all(x >= 0 for x in w)
    total = cox.group.zero()
    for wi, v in zip(w, cox.variables):
        total = total + wi * v.degree
    assert total.is_zero()

    fixed = connectify(cox)
    assert check_connected(fixed).verdict == ConnectednessReport.CONNECTED
    inv = invariants(k0_presentation(fixed))
    assert inv.invariants() == (2, ())
    assert inv.status == AbGroupInvariants.EXACT
    _pass(2, "one-coordinate blowup grading: valid witness; rewritten data gives rank 2")


def test_criterion_03_pic_weighted_projective():
    for weights in [(1, 1), (4, 6), (2, 3, 5), (1, 2, 3, 4)]:
        result = pic(builtin_example("wps", weights))
        assert result.invariants() == (1, ())
        assert result.certified
    _pass(3, "Pic of the four weighted projective stacks is Z, certified")


def test_criterion_04_pic_classifying_stacks():
    for q in range(1, 13):
        result = pic(builtin_example("b-mu", (q,)))
        expected = (0, ()) if q == 1 else (0, (q,))
        assert result.invariants() == expected
        assert result.certified
    _pass(4, "Pic of the order-q classifying stacks is Z/q for q = 1..12")


def test_criterion_05_pic_open_moduli():
    data = builtin_example("wps", (4, 6))
    result = pic_open(data, data.group.element([12]))
    assert result.invariants() == (0, (12,))
    _pass(5, "removing the degree-12 point from wps(4,6) leaves Pic = Z/12")


def test_criterion_06_rugby_identities():
    for p, q in RUGBY_PAIRS:
        data = builtin_example("rugby", (p, q))
        G = data.group
        e, ep = G.element([1, 0]), G.element([0, 1])
        # (a) monomial-level identity
        assert GroupRingElement.monomial(p * e) == GroupRingElement.monomial(q * ep)
        pres = k0_presentation(data)
        t = GroupRingElement.monomial(e)
        # (b) telescoping sum of twisted pole classes
        total = GroupRingElement.zero(G)
        for i in range(p):
            total = total + t**i * (1 - t)
        assert equal_in_k0(K0Class(pres, one_minus(p * e)), K0Class(pres, total))
        # (c) twisting the class of a plain point changes nothing
        assert equal_in_k0(
            K0Class(pres, t * one_minus(p * e)), K0Class(pres, one_minus(p * e))
        )
        # (d) the north-pole skyscraper class
        north = class_of_koszul_quotient(pres, [e])
        assert north.representative == 1 - t
    _pass(6, "sphere-orbifold class identities hold for the four (p,q) pairs")


def test_criterion_07_induced_maps():
    for p, q in RUGBY_PAIRS:
        rugby = k0_presentation(builtin_example("rugby", (p, q)))
        wps = k0_presentation(builtin_example("wps", (q, p)))
        phi = induced_map([[q], [p]], rugby, wps)
        assert wps.is_zero_class(phi.push_element(rugby.generators[0]))

        p1 = k0_presentation(builtin_example("p1"))
        psi = induced_map([[p, 0]], p1, rugby)
        w = GroupRingElement.monomial(p1.group.element([1]))
        assert rugby.is_zero_class(psi.push_element((1 - w) * (1 - w)))
    _pass(7, "both induced maps carry the source ideals to zero for all four pairs")


def test_criterion_08_weighted_projective_rank_sweep():
    started = time.time()
    Z = FgAbelianGroup.canonical(1)
    p = PolyPresentation.for_group(Z)

    def t(n):
        return GroupRingElement.monomial(Z.element([n]))

    cache = {}

    def invariants_for(weights):
        key = tuple(sorted(weights))
        if key not in cache:
            f = GroupRingElement.one(Z)
            for w in key:
                f = f * (1 - t(w))
            gb = strong_groebner([f], p)
            cache[key] = zmodule_invariants(gb)
        return cache[key]

    def compositions(n):
        if n == 0:
            yield ()
            return
        for first in range(1, n + 1):
            for rest in compositions(n - first):
                yield (first,) + rest

    checked = 0
    for total in range(1, 13):
        for weights in compositions(total):
            inv = invariants_for(weights)
            assert inv.invariants() == (total, ()), weights
            assert inv.status == AbGroupInvariants.EXACT, weights
            checked += 1
    elapsed = time.time() - started
    assert checked == 4095
    assert elapsed < 30.0, f"sweep took {elapsed:.1f}s"
    _pass(8, f"all {checked} weight tuples with total <= 12 give free rank = total ({elapsed:.1f}s)")


def test_criterion_09a_snf_suite():
    rng = random.Random(20260809)
    for _ in range(200):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        A = IntMatrix([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)])
        check_smith_decomposition(A, smith_normal_form(A))
    _pass(9, "(a) 200 random Smith decompositions verified exactly")


def test_criterion_09b_strong_groebner_suite():
    # five fixed instances: blowup and rugby(2,3) ideals among them
    Z2 = FgAbelianGroup.canonical(2)
    p2 = PolyPresentation.for_group(Z2)
    u = GroupRingElement.monomial(Z2.element([1, 0]))
    v = GroupRingElement.monomial(Z2.element([0, 1]))
    blowup_gens = [1 - v, (1 - u) * (1 - u)]
    gb_blowup = strong_groebner(blowup_gens, p2)

    rugby = builtin_example("rugby", (2, 3))
    G = rugby.group
    pr = PolyPresentation.for_group(G)
    e, ep = G.element([1, 0]), G.element([0, 1])
    rugby_gens = [one_minus(e) * one_minus(ep)]
    gb_rugby = strong_groebner(rugby_gens, pr)

    Z = FgAbelianGroup.canonical(1)
    pz = PolyPresentation.for_group(Z)
    w = GroupRingElement.monomial(Z.element([1]))
    gcd_gens = [2 * (1 - w), 3 * (1 - w)]
    gb_gcd = strong_groebner(gcd_gens, pz)

    t = GroupRingElement.monomial(e)
    uinv = GroupRingElement.monomial(Z2.element([-1, 0]))
    instances = [
        (1 - u, blowup_gens, gb_blowup),
        ((1 - u) * (1 - u) * uinv * (1 - v), blowup_gens, gb_blowup),
        (t * one_minus(2 * e) - one_minus(2 * e), rugby_gens, gb_rugby),
        (one_minus(e), rugby_gens, gb_rugby),
        (1 - w, gcd_gens, gb_gcd),
    ]
    memberships = []
    for f, gens, gb in instances:
        nf = normal_form(f, gb)
        assert normal_form(nf, gb) == nf
        # f - nf lies in the ideal: certified by the truncated lattice
        assert macaulay_member(f - nf, gens, 16)
        nf_zero = nf.is_zero()
        assert nf_zero == macaulay_member(f, gens, 16)
        memberships.append(nf_zero)
    assert memberships == [False, True, True, False, True]
    _pass(9, "(b) normal-form idempotence, soundness, and membership agreement on 5 instances")


def test_criterion_09c_inclusion_exclusion_suite():
    checked = 0
    for nvars in (1, 2, 3):
        for degs in itertools.product(range(-2, 3), repeat=nvars):
            if not (all(d > 0 for d in degs) or all(d < 0 for d in degs)):
                continue  # the counting oracle needs finite components
            functional = 1 if degs[0] > 0 else -1
            Z = FgAbelianGroup.canonical(1)
            names = [f"v{i}" for i in range(nvars)]
            data = make_stack_data(
                Z, [(nm, [d], False) for nm, d in zip(names, degs)], [names]
            )
            pres = k0_presentation(data)
            subsets = []
            for r in range(1, nvars + 1):
                subsets.extend(itertools.combinations(names, r))
            configs = [[s] for s in subsets]
            configs += [[a, b] for i, a in enumerate(subsets) for b in subsets[i + 1:]]
            for comps in configs:
                cls = class_of_intersection(pres, comps)
                got = {
                    key[0]: c
                    for key, c in cls.representative.terms.items()
                    if functional * key[0] <= 8
                }
                index_comps = [[names.index(nm) for nm in comp] for comp in comps]
                want = brute_force_numerator(list(degs), index_comps, functional, 8)
                assert got == want, (degs, comps)
                checked += 1
    assert checked >= 400
    _pass(9, f"(c) {checked} inclusion-exclusion classes match the counting oracle")


CRITERION_10_COMMANDS = [
    ["k0", "--example", "blowup-a2-hirzebruch", "--invariants"],
    ["k0", "--example", "wps", "1", "1", "--invariants"],
    ["pic", "--example", "wps", "4", "6"],
    ["pic", "--example", "wps", "4", "6", "--remove-degree", "12"],
    ["pic", "--example", "b-mu", "7"],
    ["eq", "--example", "rugby", "2", "3", "--lhs", "t*(1-t^2)", "--rhs", "1-t^2"],
    ["check-connected", "--example", "blowup-a2-cox"],
    ["connectify", "--example", "blowup-a2-cox"],
    ["class", "--example", "rugby", "2", "3", "--koszul", "1,0"],
    ["map", "--example", "rugby", "2", "3", "--matrix", "3;2", "--target", "wps", "3", "2"],
]


def test_criterion_10_determinism(tmp_path, capsys):
    for args in CRITERION_10_COMMANDS:
        payloads = []
        for run in range(2):
            path = tmp_path / f"report_{run}.json"
            code = cli_main([*args, "--json", str(path)])
            capsys.readouterr()
            with open(path, "r", encoding="utf-8") as fh:
                report = json.load(fh)
            report.pop("timing_ms", None)
            payloads.append(json.dumps(report, sort_keys=True))
            assert code in (0, 3)
        assert payloads[0] == payloads[1], args
    with capsys.disabled():
        _pass(10, "repeated runs of every report are byte-identical up to timing")
