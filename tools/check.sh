#!/usr/bin/env bash
# Full local CI gate: Python unit tests, sanitizer build + release build,
# both test suites, a TSan pass over the campaign engine, perf and
# paper-claim gates, a table of byte-identity diffs, and doc lints.
# Usage: tools/check.sh [jobs]
#
#   build-asan/     Debug + ASan/UBSan (catches lifetime bugs in the
#                   zero-allocation hot path, where objects are recycled
#                   through pools instead of malloc/free)
#   build-release/  -O3 NDEBUG with -Werror, the configuration benchmarks
#                   run in
#   build-tsan/     ALB_SANITIZE=thread; runs test_campaign, the suite
#                   that exercises the worker pool and the logger from
#                   concurrent threads
#
# All trees are configured out-of-source and are .gitignore'd.

set -euo pipefail
cd "$(dirname "$0")/.."

JOBS="${1:-$(nproc)}"

echo "=== python unit tests: benchmark statistics + perf_pair and bench-gate verdicts ==="
python3 -m unittest discover -s perfbench -p 'test_*.py'
python3 tools/test_perf_pair.py
python3 tools/test_bench_gate.py

echo "=== configure + build: Debug + ASan/UBSan ==="
cmake -B build-asan -S . \
  -DCMAKE_BUILD_TYPE=Debug \
  -DALB_SANITIZE=ON > /dev/null
cmake --build build-asan -j "$JOBS"

echo "=== ctest: sanitizer build ==="
ctest --test-dir build-asan --output-on-failure -j "$JOBS"

echo "=== configure + build: Release (warnings are errors) ==="
cmake -B build-release -S . -DCMAKE_BUILD_TYPE=Release -DALB_WERROR=ON > /dev/null
cmake --build build-release -j "$JOBS"

echo "=== ctest: release build ==="
ctest --test-dir build-release --output-on-failure -j "$JOBS"

echo "=== configure + build: TSan (campaign engine) ==="
cmake -B build-tsan -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DALB_SANITIZE=thread > /dev/null
cmake --build build-tsan --target test_campaign -j "$JOBS"

echo "=== TSan: campaign tests ==="
./build-tsan/tests/test_campaign

echo "=== bench smoke ==="
./build-release/bench/bench_engine --smoke --json build-release/BENCH_engine.smoke.json
./build-release/bench/bench_campaign --quick --json build-release/BENCH_campaign.smoke.json

# bench_gate BENCH: full (non-smoke) runs of this tree's bench binary
# alternate with the base revision's, and the median per-pair ratio of
# each events_per_sec must stay within 25%. The base is the commit that
# last recorded results/BENCH_<suite>.baseline.json (BASE_REV
# overrides), a fixed anchor: a slowdown spread over several commits
# adds up against it until the baseline is deliberately re-recorded.
# Pairing cancels host-load drift, which alone moved single runs
# against the recorded numbers to 0.69-0.77x on a 4-core host; those
# numbers are printed for reference only.
bench_gate() {
  local bench="$1" base
  base="${BASE_REV:-$(git log -1 --format=%H -- "results/BENCH_${bench#bench_}.baseline.json")}"
  : "${base:?no commit records the $bench baseline; set BASE_REV}"
  python3 tools/bench_gate.py "$base" "build-release/bench/$bench"
}

echo "=== perf gate: bench_engine, paired against the baseline revision ==="
# bench_engine links the instrumented engine with no collector active,
# so this gate is also the host-telemetry overhead gate.
bench_gate bench_engine

echo "=== observability smoke: traced run + artifact validation ==="
./build-release/tools/alb-trace --app ASP --clusters 2 --per 4 \
  --trace-out build-release/alb-trace.smoke.json \
  --metrics-out build-release/alb-trace.smoke.csv \
  --metrics-json build-release/alb-trace.smoke.metrics.json
python3 - <<'EOF'
import json
trace = json.load(open("build-release/alb-trace.smoke.json"))
assert trace["traceEvents"], "empty traceEvents"
assert trace["otherData"]["recorded"] > 0, "nothing recorded"
phases = {e["ph"] for e in trace["traceEvents"]}
assert {"b", "e", "i"} <= phases, f"missing event phases: {phases}"
metrics = json.load(open("build-release/alb-trace.smoke.metrics.json"))
assert metrics["counters"]["net/wan.table.bcast.msgs"] > 0, "no WAN broadcast traffic"
print(f"trace OK: {len(trace['traceEvents'])} events; "
      f"{len(metrics['counters'])} counters")
EOF

echo "=== causal analysis: critical path + what-if gates ==="
# The §4 story as an executable assertion: the per-cluster-queue TSP
# optimization must shrink the critical path's WAN share.
CP_ARGS=(--app TSP --clusters 4 --per 15 --csv --critical-path)
./build-release/tools/alb-trace "${CP_ARGS[@]}" > build-release/alb-trace.cp.orig.csv
./build-release/tools/alb-trace "${CP_ARGS[@]}" --opt > build-release/alb-trace.cp.opt.csv
python3 - <<'EOF'
import re
def wan_share(path):
    for line in open(path):
        m = re.search(r"cp_wan_share_pct=([0-9.]+)", line)
        if m:
            return float(m.group(1))
    raise SystemExit(f"{path}: no cp_wan_share_pct line")
orig = wan_share("build-release/alb-trace.cp.orig.csv")
opt = wan_share("build-release/alb-trace.cp.opt.csv")
assert opt < orig, f"optimized TSP WAN share did not drop: {orig} -> {opt}"
print(f"critical-path WAN share: orig {orig}% -> opt {opt}% OK")
EOF

echo "=== wide-area collectives: RA traffic floor ==="
# Tree dissemination + gateway combining must cut RA's WAN wire RPC
# count at the paper geometry (floor: at least 25% fewer than flat).
COLL_ARGS=(--app RA --clusters 4 --per 16 --csv)
./build-release/tools/alb-trace "${COLL_ARGS[@]}" \
  --metrics-json build-release/alb-trace.ra.flat.json > /dev/null
./build-release/tools/alb-trace "${COLL_ARGS[@]}" --coll tree \
  --metrics-json build-release/alb-trace.ra.tree.json > /dev/null
python3 - <<'EOF'
import json
flat = json.load(open("build-release/alb-trace.ra.flat.json"))["counters"]
tree = json.load(open("build-release/alb-trace.ra.tree.json"))["counters"]
f, t = flat["net/wan.table.rpc.msgs"], tree["net/wan.table.rpc.msgs"]
assert f > 0, "flat RA run crossed no WAN RPCs"
assert t < 0.75 * f, f"tree did not cut RA WAN RPCs by >=25%: {f} -> {t}"
assert tree["net/wan.combined.flushes"] > 0, "tree RA run never combined"
print(f"RA 4x16 WAN wire RPCs: flat {f:.0f} -> tree {t:.0f} OK")
EOF

echo "=== perf gate: bench_collective, paired against the baseline revision ==="
bench_gate bench_collective

echo "=== perf gate: bench_adaptive, paired against the baseline revision ==="
# Full (paper-geometry) runs: a failed three-arm verdict exits nonzero
# and fails the gate too.
bench_gate bench_adaptive

echo "=== scenario DSL: every shipped .scn parses ==="
# Typed errors abort here; the absolute goldens pinning scenario-loaded
# configs to the historical hand-built ones run as test_scenario in both
# ctest passes above.
./build-release/tools/alb-serve --validate scenarios

echo "=== determinism matrix: byte-identical outputs ==="
# det_diff LABEL CMD_A... -- CMD_B...
# Runs both commands (stdout to build-release/det.LABEL.{a,b} minus
# "wrote <path>" lines, stderr to .a.err/.b.err) and fails unless the
# two stdouts are byte-identical. A command's own nonzero exit fails the
# gate too: the benches verdict their paper claims that way.
det_side() {
  local out="$1"; shift
  if ! "$@" 2> "$out.err" | { grep -v '^wrote ' || true; } > "$out"; then
    cat "$out.err" >&2
    echo "command failed: $*" >&2
    exit 1
  fi
}
det_diff() {
  local label="$1"; shift
  local -a cmd_a=()
  while [ "$1" != "--" ]; do cmd_a+=("$1"); shift; done
  shift
  local out="build-release/det.$label"
  det_side "$out.a" "${cmd_a[@]}"
  det_side "$out.b" "$@"
  if ! diff "$out.a" "$out.b" > /dev/null; then
    echo "$label: outputs differ"
    diff "$out.a" "$out.b" | head -20
    exit 1
  fi
  echo "identical: $label"
}

T=./build-release/tools/alb-trace
S=./build-release/tools/alb-serve
B=./build-release/bench
R=build-release

# Campaign parallelism: --jobs 4 must equal --jobs 1. The CSVs carry
# only simulated numbers; the causal and resilience JSONs do too (the
# collective and adaptive JSONs add wall-clock throughput).
for b in bench_fig_water bench_fig15; do
  det_diff "$b.jobs" "$B/$b" --quick --csv --jobs 1 -- "$B/$b" --quick --csv --jobs 4
done
for b in causal resilience collective adaptive; do
  det_diff "bench_$b.jobs" "$B/bench_$b" --quick --csv --jobs 1 --json "$R/BENCH_$b.j1.json" \
                        -- "$B/bench_$b" --quick --csv --jobs 4 --json "$R/BENCH_$b.j4.json"
done
for b in causal resilience; do
  det_diff "BENCH_$b.json" cat "$R/BENCH_$b.j1.json" -- cat "$R/BENCH_$b.j4.json"
done

# Run twice: the same (seed, plan, flags) reproduces every table, clean
# and faulted, in every wide-area mode.
TWICE_ROWS=(
  "faults:--app TSP --clusters 2 --per 2 --csv --faults"
  "clean:--app TSP --clusters 2 --per 2 --csv"
  "tree-faults:--app ASP --clusters 4 --per 2 --csv --coll tree --wan-streams 2 --faults"
  "adapt:--app ASP --clusters 4 --per 2 --csv --adapt"
  "adapt-faults:--app ASP --clusters 4 --per 2 --csv --adapt --faults"
  "hetero3:--scenario hetero3 --app ASP --csv"
  "ra-wrapped:--app RA --clusters 4 --per 4 --csv --critical-path --what-if std --capacity 20000"
  "water-opt-faults:--app Water --clusters 4 --per 4 --opt --csv --faults"
  "tsp-adapt:--app TSP --clusters 4 --per 4 --csv --adapt"
)
for row in "${TWICE_ROWS[@]}"; do
  read -r -a args <<< "${row#*:}"
  det_diff "trace.${row%%:*}" "$T" "${args[@]}" -- "$T" "${args[@]}"
done
# The rows above must not compare two runs that never exercised their
# feature: the faulted TSP run retries, the faulted optimized Water run
# times out RPCs made by its cluster cache and reducer (the blocking
# RPC path), the adaptive ASP run arms its sequencer migration, the
# adaptive TSP run splits its central job queue, and the RA causal
# run's ring wraps, so normalization drops orphan Ends.
grep -q '^retries,' "$R/det.trace.faults.a" \
  || { echo "fault counter table missing from --faults output"; exit 1; }
if grep -q '^retries,0$' "$R/det.trace.faults.a"; then
  echo "faulted TSP run saw no retries — injection is not reaching the RPC path"; exit 1
fi
grep -q '^rpc timeouts,[1-9]' "$R/det.trace.water-opt-faults.a" \
  || { echo "faulted Water --opt run timed out no RPC — the blocking retry loop did not run"; exit 1; }
grep -q '^sequencer arms,[1-9]' "$R/det.trace.adapt-faults.a" \
  || { echo "adaptive ASP smoke armed no sequencer migration"; exit 1; }
grep -q '^queue splits,[1-9]' "$R/det.trace.tsp-adapt.a" \
  || { echo "adaptive TSP run split no job queue — the split path did not run"; exit 1; }
grep -q 'cp_orphan_ends=[1-9]' "$R/det.trace.ra-wrapped.a" \
  || { echo "wrapped RA causal run dropped no orphan Ends — the ring did not wrap"; exit 1; }

# The result cache, end to end: the sweep-demo grid is the same bytes
# fresh at any --jobs value; a warm repeat is answered entirely from the
# cache; a damaged entry is re-simulated (one miss) and served again.
printf 'sweep-demo\ndas app=ASP clusters=2 per=2\n' > "$R/scn.requests"
rm -rf "$R/scn-cache"
SERVE=("$S" --requests "$R/scn.requests")
det_diff serve.jobs "${SERVE[@]}" --cache-dir "$R/scn-cache" --jobs 4 -- "${SERVE[@]}" --jobs 1
det_diff serve.warm cat "$R/det.serve.jobs.a" -- "${SERVE[@]}" --cache-dir "$R/scn-cache" --jobs 4
grep -q ' misses=0 ' "$R/det.serve.warm.b.err" \
  || { echo "alb-serve: warm-cache pass re-simulated something:"; cat "$R/det.serve.warm.b.err"; exit 1; }
grep -q ' hits=[1-9]' "$R/det.serve.warm.b.err" \
  || { echo "alb-serve: warm-cache pass reported no hits"; exit 1; }
damaged=$(find "$R/scn-cache" -name '*.albres' | sort | head -1)
head -c 100 "$damaged" > "$damaged.cut" && mv "$damaged.cut" "$damaged"
det_diff serve.damaged cat "$R/det.serve.jobs.a" -- "${SERVE[@]}" --cache-dir "$R/scn-cache" --jobs 4
grep -q ' misses=1 stores=1 ' "$R/det.serve.damaged.b.err" \
  || { echo "alb-serve: damaged entry was not re-simulated once:"; cat "$R/det.serve.damaged.b.err"; exit 1; }
det_diff serve.repaired cat "$R/det.serve.jobs.a" -- "${SERVE[@]}" --cache-dir "$R/scn-cache" --jobs 4
grep -q ' misses=0 ' "$R/det.serve.repaired.b.err" \
  || { echo "alb-serve: re-simulated entry was not stored"; exit 1; }

# The host-telemetry firewall, end to end: the same run with every
# telemetry sink armed (fast heartbeat, Chrome trace, JSON snapshot)
# must produce byte-identical stdout. docs/OBSERVABILITY.md, "Host
# telemetry"; the unit-level pin is tests/telemetry/firewall_test.cpp.
TRACE_TEL=(--progress=0.05 --progress-out "$R/alb-trace.heartbeat.jsonl"
  --telemetry-out "$R/alb-trace.host.trace.json" --telemetry-json "$R/alb-trace.host.json")
SERVE_TEL=(--progress=0.05 --progress-out "$R/alb-serve.heartbeat.jsonl"
  --telemetry-out "$R/alb-serve.host.trace.json" --telemetry-json "$R/alb-serve.host.json")
det_diff telemetry.trace "$T" --app ASP --clusters 2 --per 4 --csv \
                      -- "$T" --app ASP --clusters 2 --per 4 --csv "${TRACE_TEL[@]}"
det_diff telemetry.serve cat "$R/det.serve.jobs.a" -- "${SERVE[@]}" --jobs 4 "${SERVE_TEL[@]}"
grep -q ' hit_ms_p50=' "$R/det.telemetry.serve.b.err" \
  || { echo "alb-serve: summary lacks hit-latency percentiles"; exit 1; }
grep -q 'pool: workers=' "$R/det.telemetry.serve.b.err" \
  || { echo "alb-serve: summary lacks the pool table"; exit 1; }
python3 - <<'EOF'
import json

HEARTBEAT_KEYS = {"type", "job", "seq", "wall_s", "jobs_total", "jobs_done",
                  "workers", "workers_busy", "worker_state", "jobs_per_min",
                  "eta_s", "cache_hits", "cache_misses", "spans",
                  "spans_dropped", "rss_kb", "final"}
for tool in ("alb-trace", "alb-serve"):
    records = []
    with open(f"build-release/{tool}.heartbeat.jsonl") as f:
        for line in f:
            if line.strip():
                records.append(json.loads(line))
    assert records, f"{tool}: no heartbeat records"
    for r in records:
        missing = HEARTBEAT_KEYS - r.keys()
        assert not missing, f"{tool}: heartbeat lacks {missing}"
        assert r["type"] == "heartbeat"
    assert records[-1]["final"] is True, f"{tool}: no final heartbeat"

    host = json.load(open(f"build-release/{tool}.host.trace.json"))
    events = host["traceEvents"]
    assert host["otherData"]["clock"] == "wall", f"{tool}: host trace not wall-clock"
    names = {e["args"]["name"] for e in events if e["ph"] == "M" and e["name"] == "thread_name"}
    spans = [e for e in events if e["ph"] == "X"]
    assert spans, f"{tool}: host trace has no spans"
    assert all(e["dur"] >= 0 for e in spans), f"{tool}: negative span duration"

    snap = json.load(open(f"build-release/{tool}.host.json"))
    for key in ("wall_s", "pool", "cache", "threads", "spans"):
        assert key in snap, f"{tool}: snapshot lacks {key}"
    assert len(snap["threads"]) == len(names), f"{tool}: track/thread count mismatch"

# The serve run sharded over workers: per-thread tracks and the
# documented span names must be present.
serve = json.load(open("build-release/alb-serve.host.trace.json"))
names = {e["args"]["name"] for e in serve["traceEvents"]
         if e["ph"] == "M" and e["name"] == "thread_name"}
spans = {e["name"] for e in serve["traceEvents"] if e["ph"] == "X"}
assert "serve-main" in names, f"missing serve-main track: {names}"
assert any(n.startswith("campaign-worker-") for n in names), f"no worker tracks: {names}"
assert {"serve.parse", "serve.resolve", "serve.simulate", "serve.output",
        "campaign.job"} <= spans, f"missing documented spans: {spans}"
print(f"telemetry artifacts OK: {len(names)} serve tracks, {len(spans)} span kinds")
EOF

echo "=== lint: no orphan headers ==="
# Every header under src/ must be included by some file under src/,
# tools/, bench/, perfbench/ or examples/ other than its own .cpp. A
# header that only tests include is code nothing runs: delete it with
# its tests.
python3 - <<'EOF'
import pathlib, re, sys

inc = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.M)
users = {}
for root in ("src", "tools", "bench", "perfbench", "examples"):
    for f in pathlib.Path(root).rglob("*"):
        if f.suffix not in (".hpp", ".cpp", ".h", ".cc"):
            continue
        for target in inc.findall(f.read_text()):
            users.setdefault(target, set()).add(f)

orphans = []
for h in sorted(pathlib.Path("src").rglob("*.hpp")):
    name = h.relative_to("src").as_posix()
    if not users.get(name, set()) - {h.with_suffix(".cpp")}:
        orphans.append(name)
for name in orphans:
    print(f"orphan header: src/{name} (only its own .cpp or the tests include it)")
if orphans:
    sys.exit(1)
print("orphan-header lint OK")
EOF

echo "=== docs: metric catalogue coverage ==="
# Every sim/net/orca metric name the source publishes must appear in the
# OBSERVABILITY.md catalogue (directly, via a `<kind>` template, or
# under a documented `.*` family) — undocumented counters fail CI.
python3 - <<'EOF'
import pathlib, re, sys

# Metric names the source publishes: string literals shaped like
# <scope>/<word>... with scope sim|net|orca|campaign. Include paths
# share the shape, so anything ending in a source-file suffix is
# skipped. tools/ is scanned too: alb-serve publishes campaign/serve.*.
lit = re.compile(r'"((?:sim|net|orca|campaign)/[A-Za-z0-9_.]*)"')
published = set()
files = list(pathlib.Path("src").rglob("*.?pp")) + list(pathlib.Path("tools").glob("*.?pp"))
for f in files:
    for m in lit.finditer(f.read_text()):
        n = m.group(1)
        if n.endswith((".hpp", ".cpp", ".h", ".inc")):
            continue
        published.add(n)

doc = pathlib.Path("docs/OBSERVABILITY.md").read_text()
exact, families = set(), []
token = re.compile(r'`([^`]+)`')
name_like = re.compile(r'(?:sim|net|orca|campaign)/[A-Za-z0-9_.<>*]+$')
for line in doc.splitlines():
    last = None
    for t in token.findall(line):
        if t.startswith(".") and last:  # `.bytes` shorthand continuation
            t = last.rsplit(".", 1)[0] + t
        if not name_like.match(t):
            continue
        last = t
        if t.endswith(".*"):
            families.append(t[:-1])     # documented family, e.g. net/fault.
        else:
            exact.add(t)
templates = [re.compile(re.escape(t).replace(re.escape("<kind>"), r"[a-z_-]+") + "$")
             for t in exact if "<" in t]

missing = []
for n in sorted(published):
    if n in exact:
        continue
    if n.endswith("."):                 # concatenation prefix of a templated name
        if any(t.startswith(n) for t in exact if "<" in t):
            continue
    if any(t.match(n) for t in templates):
        continue
    if any(n.startswith(f) for f in families):
        continue
    missing.append(n)

if missing:
    for n in missing:
        print(f"undocumented metric: {n} — add it to docs/OBSERVABILITY.md")
    sys.exit(1)
print(f"doc coverage OK: {len(published)} published names covered by the catalogue")

# Host-telemetry catalogues: every ScopedSpan name literal and every
# kCounterNames entry must appear in the OBSERVABILITY.md "Host
# telemetry" tables — span/counter names are stable identifiers the
# heartbeat/trace consumers match on.
span_lit = re.compile(r'ScopedSpan\s+\w+\s*\(\s*"([^"]+)"|ScopedSpan\s*\(\s*"([^"]+)"')
spans = set()
for f in files:
    for m in span_lit.finditer(f.read_text()):
        spans.add(m.group(1) or m.group(2))
counters = set(re.findall(r'"([a-z_]+)"', re.search(
    r'kCounterNames\[kNumCounters\]\s*=\s*\{([^}]*)\}',
    pathlib.Path("src/telemetry/telemetry.cpp").read_text()).group(1)))
# Line by line like the catalogue scan above: code fences leave an odd
# backtick count, which would desynchronize pairing across the document.
doc_tokens = {t for line in doc.splitlines() for t in token.findall(line)}
undocd = sorted(n for n in spans | counters if n not in doc_tokens)
if undocd:
    for n in undocd:
        print(f"undocumented telemetry name: {n} — add it to the Host telemetry tables")
    sys.exit(1)
print(f"telemetry doc coverage OK: {len(spans)} spans, {len(counters)} counters")
EOF

echo "=== docs: no dead relative links ==="
fail=0
for doc in README.md DESIGN.md EXPERIMENTS.md docs/*.md; do
  dir=$(dirname "$doc")
  # Extract relative markdown link targets (skip fenced code blocks,
  # which contain lambda syntax that looks like links, URLs and #anchors).
  for target in $(sed '/^```/,/^```/d' "$doc" \
                  | grep -o '](\([^)#]*\))' | sed 's/](\(.*\))/\1/' \
                  | grep -v '^[a-z]*://' || true); do
    if [ ! -e "$dir/$target" ]; then
      echo "dead link in $doc: $target"
      fail=1
    fi
  done
done
[ "$fail" -eq 0 ] || { echo "dead relative links found"; exit 1; }

echo "=== all checks passed ==="
