"""Outside-in benchmark of kstacks: one workload, one seed, one result line.

    python3 perfbench/run.py --workload classes --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): ``classes`` (K0 builds plus class-equality
queries), ``invariants`` (what ``k0 --invariants`` does), ``hypotheses``
(degree-zero check, connectify, Pic) and ``cli`` (the README's commands, one
fresh process each).  Each is a closed loop with one client: a round runs the
workload's fixed operation list once, and rounds repeat until ``--seconds``
is used up and at least 100 answers (and, where there are builds, 100
builds) have been timed, so that a p90 has ten samples beyond it.

A shared host changes speed by 30-75% for seconds to minutes at a time,
longer than a run, so no statistic of the run's own timings is steady
from run to run.  The untraced run therefore also times a fixed reference
kernel (``reference_kernel``, stdlib only, no kstacks code) every
quarter second, and scales the end-to-end timings by the host factor
``REFERENCE_S`` / mean kernel time: they read as on a host that runs the
kernel in ``REFERENCE_S``.  The raw timings and the factor are printed and
kept in the full result.  ``wall_s`` is the mean round time; an answer's
latency is the mean of its repeats, and ``answer_ms.p50``/``p90`` are
percentiles over the workload's answers of those means.

With ``--trace 0`` the result holds the end-to-end metrics.  With
``--trace 1`` untraced rounds alternate with rounds that have the span
recorder of spans.py installed; the result holds the per-layer metrics (per
traced round) and the tracing overhead.  Human-readable lines come
first; the last line of standard output is the JSON result.  Full results
and the spans go under ``.perfbench/`` in the repository root.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext

import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
MIN_SAMPLES = 100
# the reference kernel's time on the reference host: about its median time
# on the 2-vCPU host of BASELINE.json, so that timings there change little
REFERENCE_S = 0.006
REFERENCE_EVERY_S = 0.25
HARD_LIMIT_S = 140  # the sample floor never keeps a run going past this
ERROR = "error"

END_TO_END = {
    "wall_s": "s",
    "answer_ms.p50": "ms",
    "answer_ms.p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units():
    units = {}
    for name in spans.TRACED:
        units.update({f"{name}.ms": "ms", f"{name}.self_ms": "ms", f"{name}.calls": "count"})
    units.update({f"stacks.check_connected.{v}": "count" for v in spans.VERDICTS})
    units.update({
        "grobner.basis_elements": "count",
        "grobner.invariants.exact_ratio": "ratio",
        "cli.in_process_ms": "ms",
        "cli.startup_ms": "ms",
        "build_ms.p50": "ms",
        "build_ms.p90": "ms",
        "build.samples": "count",
        "answer.samples": "count",
        "failed_ratio": "ratio",
        "trace.wall_s": "s",
        "trace.overhead_s": "s",
        "trace.spans": "count",
    })
    return units


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n):
    """90, or with fewer than 100 samples the highest percentile that still
    has at least ten samples beyond it."""
    if n >= MIN_SAMPLES:
        return 90
    return max(0, math.floor(100 * (n - 10) / n)) if n else 0


def latencies(phase, ops, kind):
    """Mean latency of each operation of ``kind`` over the phase's rounds."""
    return [statistics.fmean(phase.op_ms[i]) for i, op in enumerate(ops) if op.kind == kind]


def percentiles(phase, ops, kind):
    """(p50, tail, tail percentile) over the operations of ``kind``, each
    taken at its mean latency; the tail percentile follows the number of
    latencies timed, every repeat counting."""
    means = latencies(phase, ops, kind)
    n = len(phase.builds_ms if kind == "build" else phase.answers_ms)
    tail = tail_percentile(n)
    return percentile(means, 50), percentile(means, tail), tail


def reference_kernel():
    """Fixed stdlib-only work like the inner loops of kstacks: tuple-keyed
    dict updates, integer arithmetic and a sort.  It runs no kstacks code,
    so a change to kstacks leaves its time alone."""
    terms = {}
    for i in range(9000):
        key = (i % 37, i % 11, i % 7)
        terms[key] = terms.get(key, 0) + i * i
    return len(sorted(terms.items()))


class HostSpeed:
    """Times the reference kernel once at the start and then between
    operations, once for every REFERENCE_EVERY_S gone since it last did (at
    most 8 times in a row), so that its samples spread evenly over the run's
    time.  A warm-up call comes first: it warms the caches the operation
    before it left cold."""

    def __init__(self):
        self.samples = []  # kernel seconds
        self._take(1)

    def tick(self):
        due = int(min(8.0, (time.perf_counter() - self.last) / REFERENCE_EVERY_S))
        if due:
            self._take(due)

    def _take(self, count):
        reference_kernel()
        for _ in range(count):
            t0 = time.perf_counter()
            reference_kernel()
            self.last = time.perf_counter()
            self.samples.append(self.last - t0)

    def factor(self):
        """REFERENCE_S over the mean kernel time of the run."""
        return REFERENCE_S / statistics.fmean(self.samples)


class Phase:
    """Outcomes and timings of the rounds run with one recorder."""

    def __init__(self):
        self.rounds = []
        self.op_ms = defaultdict(list)  # operation index -> latencies
        self.answers_ms = []
        self.builds_ms = []
        self.outcomes = Counter()
        self.bad = Counter()  # labels of operations that were not OK
        self.tracebacks = []

    def enough(self):
        return len(self.answers_ms) >= MIN_SAMPLES and (
            not self.builds_ms or len(self.builds_ms) >= MIN_SAMPLES)


def run_round(wl, phase, rec, tracer=None, host=None):
    """Run the operation list once.  The round time is the sum of the
    operation times, so the reference kernel between them is left out."""
    clock = time.perf_counter
    round_ms = 0.0
    for i, op in enumerate(wl.ops):
        if tracer is not None:
            tracer.op_id = len(phase.rounds) * len(wl.ops) + i
            sid = tracer.start(f"op.{op.kind}")
        t0 = clock()
        try:
            outcome = op.run(rec)
        except Exception:
            outcome = ERROR
            if len(phase.tracebacks) < 3:
                phase.tracebacks.append(f"{op.label}\n{traceback.format_exc()}")
        finally:
            dt_ms = (clock() - t0) * 1000.0
            if tracer is not None:
                tracer.finish(sid)
        round_ms += dt_ms
        phase.op_ms[i].append(dt_ms)
        (phase.builds_ms if op.kind == "build" else phase.answers_ms).append(dt_ms)
        phase.outcomes[outcome] += 1
        if outcome != workloads.OK:
            phase.bad[f"{outcome}: {op.label}"] += 1
        if host is not None:
            host.tick()
    phase.rounds.append(round_ms / 1000.0)


def run_rounds(wl, seconds, lanes, between):
    """Run one round per lane, lanes in alternation, until ``seconds`` are
    used (a cycle that would end past them is not started) and the first
    lane has met the sample floor.  A lane is (phase, recorder, tracer,
    context factory, host speed or None); alternating puts traced and
    untraced rounds under the same machine load.  ``between`` runs after
    every cycle."""
    start = time.perf_counter()
    while True:
        for phase, rec, tracer, context, host in lanes:
            with context():
                run_round(wl, phase, rec, tracer, host)
        between()
        elapsed = time.perf_counter() - start
        next_end = elapsed + sum(statistics.median(lane[0].rounds) for lane in lanes)
        if next_end > HARD_LIMIT_S or (next_end > seconds and lanes[0][0].enough()):
            return


def _kstacks_modules():
    return {n: m for n, m in sys.modules.items() if n == "kstacks" or n.startswith("kstacks.")}


class Setup:
    """Import kstacks afresh and generate the inputs, timed as setup_s.

    The first set-up is the one the run uses.  ``again`` repeats it between
    rounds, so that setup_s is a median over the whole run, and then puts
    the first set-up's modules back, which the operations and the tracer
    use."""

    def __init__(self, name, seed):
        self.name, self.seed = name, seed
        self.times, self.hashes = [], set()
        self.ks, self.wl = self._timed()
        self.modules = _kstacks_modules()

    def _timed(self):
        for mod in _kstacks_modules():
            del sys.modules[mod]
        t0 = time.perf_counter()
        ks = importlib.import_module("kstacks")
        wl = workloads.make(self.name, ks, self.seed, ROOT)
        self.times.append(time.perf_counter() - t0)
        self.hashes.add(wl.input_hash())
        return ks, wl

    def again(self):
        self._timed()
        for mod in _kstacks_modules():
            del sys.modules[mod]
        sys.modules.update(self.modules)


def git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def failed_ratio(phases, attempted):
    bad = sum(p.outcomes[o] for p in phases for o in (ERROR, workloads.WRONG, workloads.UNKNOWN))
    return bad / attempted


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "kstacks", "__init__.py")):
        print(f"error: no kstacks sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    setup = Setup(args.workload, args.seed)
    ks, wl = setup.ks, setup.wl
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "inputs": wl.input_hash(),
        "operations_per_round": len(wl.ops),
        "notes": wl.notes,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "machine": f"{platform.node()} {platform.machine()}",
        "platform": platform.platform(),
        "commit": git_commit(),
    }
    lines = [f"{k}={v}" for k, v in meta.items()]
    results = {"meta": meta}

    if args.trace == 0:
        phase, host = Phase(), HostSpeed()
        run_rounds(wl, args.seconds, [(phase, spans.NullRecorder(), None, nullcontext, host)], setup.again)
        phases = [phase]
        who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
        n = len(phase.answers_ms)
        p50, p_tail, tail = percentiles(phase, wl.ops, "answer")
        raw = {
            "wall_s": statistics.fmean(phase.rounds),
            "answer_ms.p50": p50,
            "answer_ms.p90": p_tail,
            "setup_s": statistics.median(setup.times),
        }
        factor = host.factor()
        metrics = {name: value * factor for name, value in raw.items()}
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024.0
        results["host"] = {"reference_s": REFERENCE_S, "factor": factor, "kernel_s": host.samples,
                           "raw": raw}
        lines.append(f"host_factor = {factor:.6g} ratio (reference kernel {1000 * statistics.fmean(host.samples):.4g} ms "
                     f"on average over {len(host.samples)} samples, against {1000 * REFERENCE_S:g} ms); "
                     "the timings below are scaled by it")
        lines.extend(f"{name}.raw = {value:.6g} {END_TO_END[name]}" for name, value in raw.items())
        samples = {"wall_s": len(phase.rounds), "answer_ms.p50": n, "answer_ms.p90": n,
                   "setup_s": len(setup.times), "peak_rss_mb": 1}
        units = END_TO_END
        notes = {"answer_ms.p90": f"p{tail}"} if tail != 90 else {}
        # build latency and failures are printed for every workload; they are
        # not in the result line because they are zero on some workloads
        extra = {"failed_ratio": (failed_ratio(phases, sum(phase.outcomes.values())), "ratio")}
        if phase.builds_ms:
            nb = len(phase.builds_ms)
            b50, b_tail, tail_b = percentiles(phase, wl.ops, "build")
            extra["build_ms.p50"] = (b50 * factor, f"ms (n={nb})")
            extra["build_ms.p90"] = (b_tail * factor, f"ms (n={nb}, p{tail_b})")
    else:
        plain, traced, tracer = Phase(), Phase(), spans.Tracer()
        run_rounds(wl, args.seconds, [(plain, spans.NullRecorder(), None, nullcontext, None),
                                      (traced, tracer, tracer, lambda: tracer.installed(ks), None)],
                   setup.again)
        phases = [plain, traced]
        metrics, units = per_layer(tracer, wl.ops, plain, traced), per_layer_units()
        samples = {"trace.wall_s": len(traced.rounds), "build_ms.p50": len(plain.builds_ms),
                   "build_ms.p90": len(plain.builds_ms)}
        notes, extra = {}, {}
        os.makedirs(os.path.join(OUT, "spans"), exist_ok=True)
        span_path = os.path.join(OUT, "spans", f"{args.workload}-seed{args.seed}.jsonl")
        tracer.write(span_path)
        lines.append(f"spans={os.path.relpath(span_path, ROOT)} ({len(tracer.spans)} spans)")
    if len(setup.hashes) != 1:
        print("error: input generation is not deterministic", file=sys.stderr)
        return 2

    attempted = sum(sum(p.outcomes.values()) for p in phases)
    wrong = sum(p.outcomes[workloads.WRONG] for p in phases)
    errors = sum(p.outcomes[ERROR] for p in phases)
    unknown = sum(p.outcomes[workloads.UNKNOWN] for p in phases)
    for name, value in metrics.items():
        count = f" (n={samples[name]})" if name in samples else ""
        note = f" [{notes[name]}]" if name in notes else ""
        lines.append(f"{name} = {value:.6g} {units[name]}{count}{note}")
    for name, (value, unit) in extra.items():
        lines.append(f"{name} = {value:.6g} {unit}")
    lines.append(f"operations: {attempted} attempted, {wrong} wrong, {errors} raised, {unknown} unknown")
    for label, count in sorted(sum((p.bad for p in phases), Counter()).items()):
        lines.append(f"  {label} x{count}")
    for tb in (tb for p in phases for tb in p.tracebacks):
        print(tb, file=sys.stderr)

    results.update({
        "metrics": {k: {"value": v, "unit": units[k], "samples": samples.get(k)} for k, v in metrics.items()},
        "extra": {k: {"value": v, "unit": u} for k, (v, u) in extra.items()},
        "outcomes": {"attempted": attempted, "wrong": wrong, "raised": errors, "unknown": unknown,
                     "not_ok": dict(sum((p.bad for p in phases), Counter()))},
        "round_walls_s": [p.rounds for p in phases],
        "operation_ms": [[[op.label, p.op_ms[i]] for i, op in enumerate(wl.ops)] for p in phases],
        "setup_s": setup.times,
    })
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2)
    lines.append(f"results={os.path.relpath(path, ROOT)}")

    print("\n".join(lines))
    # an unknown verdict is an honest answer, so the result line counts it in
    # failed_ratio above but not in `failed`, which holds errors and wrong answers
    print(json.dumps({
        "correct": wrong == 0 and errors == 0,
        "attempted": attempted,
        "failed": wrong + errors,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def per_layer(tracer, ops, plain, traced):
    """Per-layer metrics, per traced round; latencies and failures come from
    the untraced rounds of the same run."""
    rounds = len(traced.rounds)
    totals = tracer.layer_totals()
    out = {}
    for name in spans.TRACED:
        incl, self_ns, calls = totals.get(name, (0, 0, 0))
        out[f"{name}.ms"] = incl / 1e6 / rounds
        out[f"{name}.self_ms"] = self_ns / 1e6 / rounds
        out[f"{name}.calls"] = calls / rounds
    counts = tracer.counts
    for v in spans.VERDICTS:
        out[f"stacks.check_connected.{v}"] = counts[f"stacks.check_connected.{v}"] / rounds
    out["grobner.basis_elements"] = counts["grobner.basis_elements"] / rounds
    inv_calls = totals.get("grobner.zmodule_invariants", (0, 0, 0))[2]
    out["grobner.invariants.exact_ratio"] = counts["grobner.invariants.exact"] / inv_calls if inv_calls else 0.0
    out["cli.in_process_ms"] = counts["cli.in_process_ms"] / rounds
    out["cli.startup_ms"] = counts["cli.startup_ms"] / rounds
    builds = plain.builds_ms
    out["build_ms.p50"], out["build_ms.p90"], _ = percentiles(plain, ops, "build") if builds else (0.0, 0.0, 0)
    out["build.samples"] = len(builds)
    out["answer.samples"] = len(plain.answers_ms)
    out["failed_ratio"] = failed_ratio([plain], sum(plain.outcomes.values()))
    out["trace.wall_s"] = statistics.fmean(traced.rounds)
    out["trace.overhead_s"] = statistics.fmean(traced.rounds) - statistics.fmean(plain.rounds)
    out["trace.spans"] = len(tracer.spans) / rounds
    return out


if __name__ == "__main__":
    sys.exit(main())
