#!/usr/bin/env python3
"""Steadiness check: runs each workload n times per set, each run with
another seed, and prints per end-to-end metric the median and spread of
every set and the shift of each later set's median against the first.

    python3 perfbench/steady.py --workload all --runs 10 --seed0 100 --sets 2

Run from the repository root. The sets run one after the other, every
workload in turn within a set, and each set uses seeds seed0 .. seed0 +
runs - 1. Spread is (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A steady benchmark keeps every
spread below a third of the metric's bound in BENCHMARK.json, and every
shift of a median in the worse direction within the bound; metrics that
miss either are flagged. The failed share (failed / attempted) of each
set is printed too; it must be the same in every set. The output is
Markdown, as recorded in perfbench/README.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        sys.stderr.write(out.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(lines[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else float("inf")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = ap.parse_args()
    names = [w["name"] for w in bench["workloads"]]
    workloads = names if args.workload == "all" else args.workload.split(",")
    metrics = bench["end_to_end"]
    seeds = range(args.seed0, args.seed0 + args.runs)
    # results[workload][set] = list of result objects
    results = {w: [] for w in workloads}
    for k in range(args.sets):
        for w in workloads:
            runs = []
            for seed in seeds:
                runs.append(run_once(w, seed, args.seconds))
                print(f"set {k + 1} {w} seed {seed} done", file=sys.stderr, flush=True)
            results[w].append(runs)

    labels = [chr(ord("A") + k) for k in range(args.sets)]
    print(f"{args.sets} set(s) of {args.runs} runs of {args.seconds} s, "
          f"seeds {seeds[0]}-{seeds[-1]}, spread = (Q3 - Q1) / median\n")
    for w in workloads:
        head = ["metric"]
        for label in labels:
            head += [f"set {label} median", f"set {label} spread"]
        head += [f"{label} vs A" for label in labels[1:]] + ["bound", ""]
        print(f"{w}:")
        print("| " + " | ".join(head) + " |")
        print("|" + "---|" * len(head))
        for m in metrics:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            row, flags = [f"`{name}`"], []
            medians = []
            for runs in results[w]:
                med, sp = spread([r["metrics"][name]["value"] for r in runs])
                medians.append(med)
                row += [f"{med:.4g}", f"{sp:.3f}"]
                if sp >= bound / 3:
                    flags.append("spread above bound/3")
            for med in medians[1:]:
                shift = (med - medians[0]) / medians[0] if medians[0] else 0.0
                worse = shift > 0 if lower else shift < 0
                row.append(f"{shift:+.3f} ({'worse' if worse and shift else 'better'})")
                if worse and abs(shift) > bound:
                    flags.append("shift beyond bound")
            row += [str(bound), ", ".join(sorted(set(flags)))]
            print("| " + " | ".join(row) + " |")
        for label, runs in zip(labels, results[w]):
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            correct = all(r["correct"] for r in runs)
            print(f"set {label}: {len(runs)} runs, attempted {attempted}, failed {failed}, "
                  f"correct {correct}")
        print()
        sys.stdout.flush()


if __name__ == "__main__":
    main()
