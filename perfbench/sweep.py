"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/sweep.py --seeds 1 2 3 4 5 6 7 8 9 10
    python3 perfbench/sweep.py --workloads cli --seeds 1 2 --trace 1

Runs ``run.py`` once per workload and seed, one process at a time, with the
run length of BENCHMARK.json unless ``--seconds`` is given.  For each
workload it prints every metric by name and unit with the median, the
quartiles and the spread (Q3 - Q1) / median over the seeds, the spread as a
share of the metric's bound, and whether every answer was correct.  On
traced runs it also prints the layers with the largest self time, as shares
of the traced round.  ``--baseline PATH`` stores the summary as JSON under
"trace0" or "trace1", keeping what the file already holds for the other.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


PRINTED_ONLY = ("failed_ratio", "build_ms.p50", "build_ms.p90", "host_factor", "wall_s.raw",
                "answer_ms.p50.raw", "answer_ms.p90.raw", "setup_s.raw")


def run_once(workload, seed, seconds, trace):
    """The result line, with the metrics run.py prints but keeps out of it
    (failed_ratio, build latency, the host factor and the unscaled timings)
    added as (value, unit)."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        name, _, rest = line.partition(" = ")
        if name in PRINTED_ONLY and name not in result["metrics"]:
            value, unit = rest.split()[:2]
            result["metrics"][name] = {"value": float(value), "unit": unit}
    return result


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / abs(median) if median else 0.0, "values": values}


def dominant_layers(metrics, top=3):
    """Largest self times as shares of the traced round."""
    round_ms = metrics["trace.wall_s"] * 1000.0
    shares = {name[:-len(".self_ms")]: v / round_ms for name, v in metrics.items()
              if name.endswith(".self_ms")}
    for name in ("cli.startup_ms", "cli.in_process_ms"):
        shares[name] = metrics[name] / round_ms
    return sorted(shares.items(), key=lambda kv: -kv[1])[:top]


def main(argv=None):
    bench = load_benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[1])
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--baseline", metavar="PATH", help="write the summary here as JSON")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        correct = all(r["correct"] for r in runs)
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"== {workload}: seeds {args.seeds}, trace {args.trace}, correct={correct}, "
              f"{failed} of {attempted} operations failed", flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            if not all(name in r["metrics"] for r in runs):
                continue
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            metrics[name] = s
            bound = bounds.get(name) if args.trace == 0 else None
            vs_bound = f"  spread/bound {s['spread'] / bound:.2f}" if bound else ""
            print(f"  {name:<36} {s['median']:>12.6g} {s['unit']:<6} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}{vs_bound}", flush=True)
        entry = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
        if args.trace == 1:
            medians = {name: s["median"] for name, s in metrics.items()}
            entry["dominant_self_time"] = dominant_layers(medians)
            print("  largest self time per traced round: " + ", ".join(
                f"{name} {share:.1%}" for name, share in entry["dominant_self_time"]))
        summary[workload] = entry

    if args.baseline:
        out = {}
        if os.path.exists(args.baseline):
            with open(args.baseline, encoding="utf-8") as fh:
                out = json.load(fh)
        out["machine"] = {"python": platform.python_version(), "nproc": os.cpu_count(),
                          "machine": f"{platform.node()} {platform.machine()}",
                          "platform": platform.platform(), "commit": run.git_commit()}
        out[f"trace{args.trace}"] = {"seeds": args.seeds, "seconds": args.seconds, "workloads": summary}
        with open(args.baseline, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
