#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

    python3 perfbench/steady.py [--runs 10]

Runs every workload of BENCHMARK.json --runs times with seeds 1..N (set
A), then again with seeds N+1..2N (set B), each run as BENCHMARK.json's
command does it. For every end-to-end metric x workload it reports each
set's median and spread (inter-quartile distance over the median) and
how much worse B's median is than A's, and checks them against the
metric's bound: each spread within the bound and B's median within the
bound of A's, better or worse. It also checks that the
simulated-output fingerprint is the same in every run of a workload.
Exit status 1 when anything disagrees. Run from the checkout root.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


def one_run(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n"
                         f"{proc.stderr[-2000:]}")
    info = next((json.loads(line.split(" ", 1)[1]) for line in lines
                 if line.startswith("perfbench-info ")), {})
    return json.loads(lines[-1]), info.get("fingerprint")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--runs", type=int, default=10)
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]

    results = {}
    for workload in workloads:
        for set_name, first in (("A", 1), ("B", args.runs + 1)):
            for seed in range(first, first + args.runs):
                result, fp = one_run(spec, workload, seed)
                results.setdefault((workload, set_name), []).append((seed, result, fp))
                print(f"{workload} set {set_name} seed {seed}: correct={result['correct']} "
                      f"fingerprint={fp}", file=sys.stderr, flush=True)

    ok = True
    print(f"{'workload':13s} {'metric':14s} {'median A':>11s} {'median B':>11s} "
          f"{'spread A':>8s} {'spread B':>8s} {'B worse':>8s} {'bound':>6s}  verdict")
    for workload in workloads:
        runs = results[(workload, "A")] + results[(workload, "B")]
        fps = {fp for _, _, fp in runs}
        if len(fps) != 1 or not all(r["correct"] for _, r, _ in runs):
            ok = False
            print(f"{workload}: fingerprints {sorted(map(str, fps))}, "
                  f"all correct: {all(r['correct'] for _, r, _ in runs)}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for _, r, _ in results[(workload, "A")]]
            b = [r["metrics"][name]["value"] for _, r, _ in results[(workload, "B")]]
            good, d = stats.check_pair(a, b, metric["bound"], metric["better"])
            ok = ok and good
            print(f"{workload:13s} {name:14s} {d['median_first']:11.5g} "
                  f"{d['median_second']:11.5g} {d['spread_first']:8.4f} "
                  f"{d['spread_second']:8.4f} {d['worse_by']:8.4f} {d['bound']:6.2f}  "
                  f"{'ok' if good else 'DISAGREE'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
