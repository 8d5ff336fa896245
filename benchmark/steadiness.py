#!/usr/bin/env python3
"""Steadiness check for the repository benchmark.

Runs every workload of BENCHMARK.json once per seed, at its run_seconds, in
two sets of runs, and prints, as a markdown table, each end-to-end metric's
spread in each set (the distance between the first and third quartile, as
statistics.quantiles(values, n=4) gives them, as a share of the median) and
how far the second set's median moved from the first's. The two sets are
interleaved run by run, never run back to back, so a host that drifts over
minutes moves both sets alike. It exits 1 if a spread or a median shift
exceeds the metric's bound, or if a run reports a failed check. Run it from
the repository root:

    python3 benchmark/steadiness.py --seeds 10
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "benchmark/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=900)
    return json.loads(out.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10, help="runs per workload and set, seeds 1..N")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]

    runs = {w: ([], []) for w in workloads}
    for seed in range(1, args.seeds + 1):
        order = (0, 1) if seed % 2 == 1 else (1, 0)
        for s in order:
            for w in workloads:
                res = run_once(w, seed, seconds)
                if not res["correct"] or res["failed"]:
                    print(f"{w} seed {seed}: incorrect result {res}", file=sys.stderr)
                    sys.exit(1)
                runs[w][s].append(res["metrics"])
                print(f"set {s + 1} {w} seed {seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())), file=sys.stderr)

    def cell(s):
        return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"

    print("| Workload | Metric | Bound | Set 1 median [Q1, Q3] | Set 1 spread "
          "| Set 2 median [Q1, Q3] | Set 2 spread | Median shift |")
    print("|---|---|---|---|---|---|---|---|")
    ok = True
    for w in workloads:
        for name, bound in bounds.items():
            a, b = (summarize([m[name]["value"] for m in rs]) for rs in runs[w])
            shift = b["median"] / a["median"] - 1
            if abs(shift) > bound or a["spread"] > bound or b["spread"] > bound:
                ok = False
            print(f"| {w} | `{name}` | {bound:.2f} | {cell(a)} | {a['spread']:.3f} "
                  f"| {cell(b)} | {b['spread']:.3f} | {shift:+.3f} |")
    print("within bounds" if ok else "OUT OF BOUNDS")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
