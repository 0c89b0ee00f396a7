#!/usr/bin/env python3
"""Compare a bench_engine JSON result against a tracked baseline.

Matches benches by name and fails (exit 1) only if a bench's
events_per_sec regressed by more than the tolerance fraction versus a
baseline value that actually exists. Everything else — a bench present
on only one side, a record without the metric, a zero baseline — is
reported ("new (unpinned)", "missing", ...) but is never a failure, so
adding a microbench or an extra JSON field cannot break the gate
retroactively. Unreadable or malformed input files exit nonzero with a
message naming the file, never a bare traceback.

Usage:
  tools/bench_compare.py BASELINE.json CURRENT.json [--tolerance 0.25]

The default tolerance is deliberately loose (25%): the gate exists to
catch "tracing-off suddenly costs something" class regressions, not to
flake on machine noise.
"""

import argparse
import json
import sys

METRIC = "events_per_sec"


def load_benches(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise SystemExit(f"bench_compare: cannot read {path}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise SystemExit(f"bench_compare: {path} is not valid JSON: {e}")
    benches = doc.get("benches")
    if not isinstance(benches, list):
        raise SystemExit(
            f"bench_compare: {path} has no 'benches' list — is it a bench_engine result?")
    out = {}
    for b in benches:
        if isinstance(b, dict) and "name" in b:
            out[b["name"]] = b
    return out


def metric(record):
    """The compared metric, or None when the record does not carry it
    (an older baseline, a renamed field): absence is not a regression."""
    v = record.get(METRIC) if record is not None else None
    return v if isinstance(v, (int, float)) else None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--tolerance", type=float, default=0.25,
                    help="allowed fractional slowdown in events_per_sec (default 0.25)")
    args = ap.parse_args()

    base = load_benches(args.baseline)
    cur = load_benches(args.current)

    rows = []
    failed = []
    for name in sorted(set(base) | set(cur)):
        b = metric(base.get(name))
        c = metric(cur.get(name))
        if name not in cur:
            rows.append((name, b, None, None, "missing from current"))
            continue
        if c is None:
            rows.append((name, b, None, None, f"current lacks {METRIC}"))
            continue
        if name not in base or b is None:
            # Nothing to hold it against: report, never fail.
            rows.append((name, None, c, None, "new (unpinned)"))
            continue
        if b <= 0:
            rows.append((name, b, c, None, "baseline not positive (unpinned)"))
            continue
        ratio = c / b
        ok = ratio >= 1.0 - args.tolerance
        rows.append((name, b, c, ratio, "ok" if ok else "REGRESSED"))
        if not ok:
            failed.append(f"{name} ({ratio:.2f}x)")

    w = max(len(r[0]) for r in rows) if rows else 4
    print(f"{'bench':{w}}  {'base ev/s':>12}  {'cur ev/s':>12}  {'ratio':>6}  verdict")
    for name, b, c, ratio, verdict in rows:
        bs = f"{b:12.0f}" if b is not None else f"{'-':>12}"
        cs = f"{c:12.0f}" if c is not None else f"{'-':>12}"
        rs = f"{ratio:6.3f}" if ratio is not None else f"{'-':>6}"
        print(f"{name:{w}}  {bs}  {cs}  {rs}  {verdict}")

    if failed:
        print(f"FAIL: {', '.join(failed)} slower than baseline by more than "
              f"{args.tolerance:.0%}", file=sys.stderr)
        return 1
    print(f"all matched benches within {args.tolerance:.0%} of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
