#!/usr/bin/env python3
"""Run the working tree against a base revision on the benchmark and judge it.

    tools/perf_pair.py BASE_REV [--workload W ...] [--claim METRIC:WORKLOAD]

The base side is BASE_REV, extracted with `git archive` into
.bench_build/perf_pair/<sha>/ and kept there, so it builds once. The
change side is the working tree as it stands, uncommitted edits
included. Each workload (default: every one in BENCHMARK.json) runs
ten pairs of BENCHMARK.json's command for its run_seconds with
--trace 0, each side from its own tree. Pair i uses seed i on both
sides, and the side that runs first alternates.

Every run must be correct, and both sides must print the same
fingerprint; otherwise the simulated output differs, which is a failure
unless the change is meant to move output. For each end-to-end metric
the report gives both medians and spreads, the pairs the change won
(ties count for neither side) and a verdict:

  worse       the change's median is worse than the base's by more than
              the metric's bound
  unresolved  either side's spread exceeds the bound, and not every
              change run beats every base run
  ok          neither

A claimed gain is shown when the change wins at least nine tenths of
the pairs and its median is better than the base's by more than the
base's inter-quartile distance. The exit status is nonzero on any `worse`, a failed or lower
ok_frac, differing output, or a claim not shown.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import stats  # noqa: E402

BASES = os.path.join(ROOT, ".bench_build", "perf_pair")
PAIRS = 10


def better_than(a, b, better):
    return a > b if better == "higher" else a < b


def judge(end_to_end, base, change, claims=()):
    """The verdict on one workload's pairs: (rows, failures).

    `base` and `change` are lists of run records, pair i at index i, each
    {"correct": bool, "fingerprint": str, "metrics": {name: value}};
    `end_to_end` is BENCHMARK.json's list and `claims` names the metrics
    claimed to gain."""
    failures = []
    for side, runs in (("base", base), ("change", change)):
        bad = sum(1 for r in runs if not r["correct"])
        if bad:
            failures.append(f"{bad} {side} run(s) not correct")
    fps = [sorted({r["fingerprint"] for r in runs}) for runs in (base, change)]
    if fps[0] != fps[1]:
        failures.append(f"simulated output differs: base fingerprint {', '.join(fps[0])}, "
                        f"change fingerprint {', '.join(fps[1])}")
    rows = []
    for m in end_to_end:
        name, better, bound = m["name"], m["better"], m["bound"]
        b = [r["metrics"][name] for r in base]
        c = [r["metrics"][name] for r in change]
        mb, mc = stats.median(b), stats.median(c)
        worse_by = stats.worsening(mb, mc, better)
        spreads = stats.spread(b), stats.spread(c)
        wins = sum(1 for x, y in zip(c, b) if better_than(x, y, better))
        all_better = all(better_than(x, y, better) for x in c for y in b)
        if worse_by > bound:
            verdict = "worse"
        elif max(spreads) > bound and not all_better:
            verdict = "unresolved"
        else:
            verdict = "ok"
        if verdict == "worse":
            failures.append(f"{name} worse by {worse_by:.1%} (bound {bound:.0%})")
        if name == "ok_frac" and sum(c) < sum(b):
            failures.append("ok_frac lower than the base's")
        if name in claims:
            q1, _, q3 = stats.quartiles(b)
            gap = mc - mb if better == "higher" else mb - mc
            shown = wins * 10 >= 9 * len(b) and gap > q3 - q1
            verdict += ", gain shown" if shown else ", gain not shown"
            if not shown:
                failures.append(f"claimed gain in {name} not shown")
        rows.append((name, mb, spreads[0], mc, spreads[1], worse_by, wins, verdict))
    return rows, failures


def base_tree(rev):
    """The base revision's files, extracted once under .bench_build/perf_pair/."""
    sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--verify", rev + "^{commit}"],
                         capture_output=True, text=True)
    if sha.returncode != 0:
        raise SystemExit(f"perf_pair: not a commit: {rev}")
    path = os.path.join(BASES, sha.stdout.strip())
    if not os.path.isdir(path):
        partial = path + ".partial"
        shutil.rmtree(partial, ignore_errors=True)
        os.makedirs(partial)
        archive = subprocess.run(["git", "-C", ROOT, "archive", sha.stdout.strip()],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", partial], input=archive, check=True)
        os.rename(partial, path)
    return path


def run_once(tree, command, workload, seed, seconds):
    cmd = command + ["--workload", workload, "--seed", str(seed),
                     "--seconds", str(seconds), "--trace", "0"]
    # The base tree sits inside this checkout: stop git from finding it,
    # so the base builds and reports as the non-git tree it is.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=BASES)
    p = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True)
    lines = p.stdout.splitlines()
    try:
        info = json.loads(next(l for l in lines if l.startswith("perfbench-info "))
                          .split(" ", 1)[1])
        out = json.loads(lines[-1])
    except (StopIteration, IndexError, ValueError):
        sys.stderr.write(p.stderr[-4000:])
        raise SystemExit(f"perf_pair: {' '.join(cmd)} in {tree} exited {p.returncode} "
                         "without a result")
    return {"correct": out["correct"], "fingerprint": info["fingerprint"],
            "metrics": {k: v["value"] for k, v in out["metrics"].items()}}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    known = [w["name"] for w in bench["workloads"]]
    metrics = [m["name"] for m in bench["end_to_end"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_rev")
    ap.add_argument("--workload", action="append", choices=known)
    ap.add_argument("--claim", action="append", default=[], metavar="METRIC:WORKLOAD")
    args = ap.parse_args()
    claims = [c.partition(":")[::2] for c in args.claim]
    for m, w in claims:
        if m not in metrics or w not in known:
            ap.error(f"--claim wants METRIC:WORKLOAD from {', '.join(metrics)} : "
                     f"{', '.join(known)}")

    trees = {"base": base_tree(args.base_rev), "change": ROOT}
    failed = False
    for w in args.workload or known:
        runs = {"base": [], "change": []}
        for i in range(1, PAIRS + 1):
            for side in ("base", "change") if i % 2 else ("change", "base"):
                r = run_once(trees[side], bench["command"], w, i, bench["run_seconds"])
                runs[side].append(r)
                print(f"perf_pair: {w} pair {i} {side}: ops_per_s "
                      f"{r['metrics']['ops_per_s']:.3f}", file=sys.stderr, flush=True)
        rows, failures = judge(bench["end_to_end"], runs["base"], runs["change"],
                               {m for m, cw in claims if cw == w})
        print(f"\n{w}: {PAIRS} pairs, base {args.base_rev} vs working tree")
        print(f"{'metric':14} {'base':>10} {'spread':>7} {'change':>10} {'spread':>7} "
              f"{'worse_by':>8} {'wins':>5}  verdict")
        for name, mb, sb, mc, sc, worse_by, wins, verdict in rows:
            print(f"{name:14} {mb:10.4g} {sb:7.1%} {mc:10.4g} {sc:7.1%} "
                  f"{worse_by:8.1%} {wins:>2}/{PAIRS}  {verdict}")
        print(f"fingerprint: base {runs['base'][0]['fingerprint']}, "
              f"change {runs['change'][0]['fingerprint']}")
        for msg in failures:
            print(f"FAIL {w}: {msg}")
        failed = failed or bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
