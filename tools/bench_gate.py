#!/usr/bin/env python3
"""Paired perf gate: a bench binary against a base revision's.

    tools/bench_gate.py BASE_REV CHANGE_BENCH

CHANGE_BENCH is any bench binary whose --json output lists
benches[].events_per_sec (bench_engine, bench_collective,
bench_adaptive). Its basename names everything else: the CMake target
the base side builds, and results/BENCH_<suite>.baseline.json, where
<suite> is the basename without its "bench_" prefix.

The base side is BASE_REV's build of that target (Release, that target
only) in BASE_REV's tree as tools/perf_pair.py extracts it. Base and
change runs alternate for 7 pairs, the side that runs first
alternating too. For each bench the gate takes the change/base ratio
of events_per_sec within each pair and fails (exit 1) when the median
ratio is below 0.75. Pairing cancels the host-load drift that makes a
single run against a recorded number flaky. A bench that only one side
runs gets a row and no verdict.

BASE_REV has no default: a gate against "the previous commit" lets a
slowdown spread over several commits pass. tools/check.sh passes the
commit that last recorded the suite's baseline file, so every run is
held against the same anchor until the baseline is re-recorded. That
file's numbers are printed as a reference column; they never decide
the verdict.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perf_pair  # noqa: E402
import stats  # noqa: E402  (perfbench/, on the path perf_pair set up)

ROOT = perf_pair.ROOT
PAIRS = 7
TOLERANCE = 0.25  # allowed fractional slowdown of the median paired ratio


def judge(base, change):
    """(rows, failures) for pairs of runs, each {bench: events_per_sec}.

    A row is (bench, base median, change median, median ratio, verdict).
    A bench missing from some run of one side, or never positive on the
    base side, gets a row with no ratio; it is reported, never a failure."""
    in_base = set.intersection(*map(set, base)) if base else set()
    in_change = set.intersection(*map(set, change)) if change else set()
    rows, failures = [], []
    for name in sorted(in_base | in_change):
        b = stats.median([r[name] for r in base]) if name in in_base else None
        c = stats.median([r[name] for r in change]) if name in in_change else None
        if c is None:
            rows.append((name, b, None, None, "missing from change"))
            continue
        if b is None:
            rows.append((name, None, c, None, "new (no base)"))
            continue
        ratios = [rc[name] / rb[name] for rb, rc in zip(base, change) if rb[name] > 0]
        if not ratios:
            rows.append((name, b, c, None, "base not positive"))
            continue
        ratio = stats.median(ratios)
        ok = ratio >= 1.0 - TOLERANCE
        rows.append((name, b, c, ratio, "ok" if ok else "REGRESSED"))
        if not ok:
            failures.append(f"{name} ({ratio:.2f}x)")
    return rows, failures


def cell(v, width, digits=0):
    """v right-aligned in width columns, or '-' when there is no number."""
    return f"{v:{width}.{digits}f}" if isinstance(v, (int, float)) else f"{'-':>{width}}"


def baseline_of(binary):
    """results/BENCH_<suite>.baseline.json for a bench binary's path."""
    suite = os.path.basename(binary).removeprefix("bench_")
    return os.path.join(ROOT, "results", f"BENCH_{suite}.baseline.json")


def build_base(tree, target):
    build = os.path.join(tree, "build-bench-gate")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=perf_pair.BASES)
    for cmd in (["cmake", "-S", tree, "-B", build, "-DCMAKE_BUILD_TYPE=Release"],
                ["cmake", "--build", build, "--target", target, "-j", str(os.cpu_count())]):
        p = subprocess.run(cmd, env=env, capture_output=True, text=True)
        if p.returncode != 0:
            sys.stderr.write(p.stdout[-4000:] + p.stderr[-4000:])
            raise SystemExit(f"bench_gate: {' '.join(cmd)} failed")
    return os.path.join(build, "bench", target)


def events_per_sec(path):
    with open(path) as f:
        return {b["name"]: b["events_per_sec"] for b in json.load(f)["benches"]}


def run_once(binary, scratch):
    out = os.path.join(scratch, "run.json")
    subprocess.run([binary, "--json", out], check=True, stdout=subprocess.DEVNULL)
    return events_per_sec(out)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", metavar="BASE_REV", help="the revision to gate against")
    ap.add_argument("change", help="the bench binary under test")
    args = ap.parse_args()
    base_bin = build_base(perf_pair.base_tree(args.base), os.path.basename(args.change))

    binaries = {"base": base_bin, "change": args.change}
    runs = {"base": [], "change": []}
    with tempfile.TemporaryDirectory() as scratch:
        for i in range(PAIRS):
            for side in ("base", "change") if i % 2 == 0 else ("change", "base"):
                runs[side].append(run_once(binaries[side], scratch))
    rows, failures = judge(runs["base"], runs["change"])
    baseline = baseline_of(args.change)
    reference = events_per_sec(baseline) if os.path.exists(baseline) else {}

    w = max([len(r[0]) for r in rows] + [5])
    print(f"{PAIRS} pairs, base {args.base} vs {args.change}")
    print(f"{'bench':{w}}  {'base ev/s':>12}  {'change ev/s':>12}  {'ratio':>6}  "
          f"{'baseline ev/s':>13}  verdict")
    for name, b, c, ratio, verdict in rows:
        print(f"{name:{w}}  {cell(b, 12)}  {cell(c, 12)}  {cell(ratio, 6, 3)}  "
              f"{cell(reference.get(name), 13)}  {verdict}")
    if not any(r[3] is not None for r in rows):
        print("bench_gate: no bench ran on both sides", file=sys.stderr)
        return 1
    if failures:
        print(f"FAIL: {', '.join(failures)}: median change/base ratio below "
              f"{1.0 - TOLERANCE:.2f}", file=sys.stderr)
        return 1
    print(f"all benches within {TOLERANCE:.0%} of base (median paired ratio)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
