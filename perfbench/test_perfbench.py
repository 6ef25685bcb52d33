"""Quick tests of the benchmark itself, in a smoke size.

    PYTHONPATH=src python -m pytest -q perfbench

They check BENCHMARK.json against the metric names and units the runner
emits, the schema of the result line, the independent oracles, and that a
deliberately wrong expected answer shows up in ``failed`` and
``failed_ratio``.  Runs are cut to a few operations and one round.
"""

from __future__ import annotations

import json
import os
import re
import sys

import pytest

import run
import spans
import workloads

if run.SRC not in sys.path:
    sys.path.insert(0, run.SRC)

import kstacks  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _is_kstacks(name):
    return name == "kstacks" or name.startswith("kstacks.")


@pytest.fixture
def isolated(monkeypatch, tmp_path):
    """run.main re-imports kstacks; put the session's modules back after it,
    and keep its output files in a temporary directory."""
    saved = {n: m for n, m in sys.modules.items() if _is_kstacks(n)}
    monkeypatch.setattr(run, "OUT", str(tmp_path))
    monkeypatch.setattr(run, "MIN_SAMPLES", 1)
    yield tmp_path
    for n in [n for n in sys.modules if _is_kstacks(n)]:
        del sys.modules[n]
    sys.modules.update(saved)


def _small(pick):
    """Replace workloads.make by one that keeps only the ops ``pick`` selects."""
    real = workloads.make

    def make(workload, ks, seed, root):
        wl = real(workload, ks, seed, root)
        wl.ops = pick(wl.ops, ks)
        return wl

    return make


def _main(capsys, *argv):
    assert run.main(list(argv)) == 0
    out = capsys.readouterr().out.strip().splitlines()
    return out, json.loads(out[-1])


def test_benchmark_json_matches_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["paths"] == ["perfbench"]
    assert 1 <= bench["run_seconds"] <= 60
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in bench["workloads"])
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    assert {n: m["unit"] for n, m in e2e.items()} == run.END_TO_END
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in e2e.values())
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values())
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    assert layer == run.per_layer_units()
    assert all(set(m) == {"name", "unit", "better"} for m in bench["per_layer"])
    names = list(e2e) + list(layer)
    assert len(names) == len(set(names)) and all(NAME.match(n) for n in names)
    assert all(UNIT.match(u) for u in list(run.END_TO_END.values()) + list(layer.values()))


def test_result_line_schema_and_traced_run(isolated, monkeypatch, capsys):
    monkeypatch.setattr(workloads, "make", _small(lambda ops, ks: ops[:6]))
    lines, result = _main(capsys, "--workload", "classes", "--seed", "3", "--seconds", "0")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 6
    assert {n: m["unit"] for n, m in result["metrics"].items()} == run.END_TO_END
    assert all(set(m) == {"value", "unit"} and m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("inputs=sha256:") for line in lines)

    lines, result = _main(capsys, "--workload", "classes", "--seed", "3", "--seconds", "0", "--trace", "1")
    metrics = result["metrics"]
    assert {n: m["unit"] for n, m in metrics.items()} == run.per_layer_units()
    assert metrics["ktheory.k0_presentation.calls"]["value"] == 1
    assert metrics["grobner.strong_groebner.calls"]["value"] == 1
    assert metrics["grobner.normal_form.calls"]["value"] == 5
    assert 0 < metrics["grobner.strong_groebner.self_ms"]["value"] <= metrics["ktheory.k0_presentation.ms"]["value"]
    assert os.path.isfile(os.path.join(isolated, "spans", "classes-seed3.jsonl"))


def test_wrong_answer_raises_failed_ratio(isolated, monkeypatch, capsys):
    def flip_one(ops, ks):
        # the first query asks for an equal pair; expecting "not equal" is wrong
        build, query = ops[0], ops[1]
        data = ks.builtin_example("wps", [1, 2])
        slot = {}
        wrong = workloads._query_op(ks, data, slot, "1", "1 + (1 - t^[1])*(1 - t^[2])", False)
        return [build, query, workloads.Op("build", "build", workloads._build_op(ks, data, slot)),
                workloads.Op("answer", "flipped", wrong)]

    monkeypatch.setattr(workloads, "make", _small(flip_one))
    lines, result = _main(capsys, "--workload", "classes", "--seed", "1", "--seconds", "0")
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 4
    assert "failed_ratio = 0.25 ratio" in lines
    assert any("wrong: flipped" in line for line in lines)


def test_unknown_verdict_counts_in_failed_ratio_only(isolated, monkeypatch, capsys):
    # thin1 (degrees 1, -40): the witness x0^40*y is beyond the search bound
    monkeypatch.setattr(workloads, "make", _small(lambda ops, ks: ops[:4]))
    lines, result = _main(capsys, "--workload", "hypotheses", "--seed", "1", "--seconds", "0")
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 4
    assert "failed_ratio = 0.25 ratio" in lines


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_follow_the_seed(name, tmp_path):
    first = workloads.make(name, kstacks, 5, str(tmp_path))
    again = workloads.make(name, kstacks, 5, str(tmp_path))
    other = workloads.make(name, kstacks, 6, str(tmp_path))
    assert first.input_hash() == again.input_hash() != other.input_hash()
    assert len(first.ops) == len(other.ops)


@pytest.mark.parametrize("name,pick", [
    ("classes", lambda ops: ops[:12]),
    ("invariants", lambda ops: ops[-3:]),
    ("hypotheses", lambda ops: ops[12:24] + ops[-11:]),
    ("cli", lambda ops: [op for op in ops if "b-mu" in op.label or "--list" in op.label]),
])
def test_smoke_round_answers_are_correct(name, pick):
    wl = workloads.make(name, kstacks, 2, run.ROOT)
    phase = run.Phase()
    wl.ops = pick(wl.ops)
    run.run_round(wl, phase, spans.NullRecorder())
    assert phase.outcomes == {workloads.OK: len(wl.ops)}, (phase.bad, phase.tracebacks)


def test_planted_witness_is_the_smallest():
    rng = workloads.random.Random(0)
    degrees = workloads._planted(rng, 2, (3,), 4, 6)
    assert workloads.is_degree_zero(degrees, (3,), (5, 0, 0, 1))
    # every exponent vector of total at most 6 other than x0^5*x3 fails
    for total in range(1, 7):
        for e in workloads.combinations(range(total + 3), 3):
            parts = [b - a - 1 for a, b in zip((-1,) + e, e + (total + 3,))]
            assert workloads.is_degree_zero(degrees, (3,), parts) == (parts == [5, 0, 0, 1])


def test_host_factor_scales_by_the_reference_kernel():
    host = run.HostSpeed()  # one sample at the start
    host.tick()  # nothing is due yet
    host.last -= 3.5 * run.REFERENCE_EVERY_S
    host.tick()  # one sample per REFERENCE_EVERY_S gone
    host.tick()
    assert len(host.samples) == 4 and min(host.samples) > 0
    host.samples = [run.REFERENCE_S / 2, run.REFERENCE_S / 2]
    assert host.factor() == 2.0


def test_oracles():
    assert workloads.group_invariants(1, [[12]]) == (0, (12,))
    assert workloads.group_invariants(2, [[2, 0], [0, 3]]) == (0, (6,))
    assert workloads.group_invariants(2, [[4, -6]]) == (1, (2,))
    assert workloads.group_invariants(3, [[2, 4, 0], [0, 0, 0]]) == (2, (2,))
    assert workloads.group_invariants(1, []) == (1, ())
    assert workloads.is_degree_zero([[1], [-1], [1]], (), (0, 1, 1))
    assert not workloads.is_degree_zero([[1], [-1], [1]], (), (0, 0, 0))
    assert workloads.is_degree_zero([[2, 1], [-2, 1]], (2,), (1, 1))
    assert not workloads.is_degree_zero([[2, 1], [-2, 0]], (2,), (1, 1))


def test_tracer_wraps_every_binding_and_restores_it():
    tracer = spans.Tracer()
    original = kstacks.ktheory.strong_groebner
    with tracer.installed(kstacks):
        assert kstacks.ktheory.strong_groebner is not original
        assert kstacks.picard.quotient_by_subgroup is kstacks.abelian.quotient_by_subgroup
        kstacks.k0_presentation(kstacks.builtin_example("wps", [1, 2]))
    assert kstacks.ktheory.strong_groebner is original
    by_name = {s[3]: s for s in tracer.spans}
    root, child = by_name["ktheory.k0_presentation"], by_name["grobner.strong_groebner"]
    assert root[1] is None and child[1] == root[0]
    totals = tracer.layer_totals()
    assert totals["grobner.strong_groebner"][2] == 1
    assert 0 <= totals["ktheory.k0_presentation"][1] < totals["ktheory.k0_presentation"][0]
