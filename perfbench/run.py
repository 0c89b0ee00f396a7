#!/usr/bin/env python3
"""perfbench: the end-to-end and per-layer benchmark of the simulator.

    python3 perfbench/run.py --workload figure_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and
builds the simulator, the runner and alb-serve (Release) under
.bench_build/; later runs only check that the build is current.

The workload's inputs are generated here from --seed and handed to the
runner as a plan; the runner times every operation and this script
turns the raw measurements into metrics, checks every output, and prints
one JSON object as the last line of stdout. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones. perfbench/README.md
describes the workloads and the metric catalogue.
"""

import argparse
import hashlib
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
START = time.monotonic()
DEADLINE_S = 170

APPS = ["Water", "TSP", "ASP", "ATPG", "IDA*", "RA", "ACP", "SOR"]
SHIPPED = ["das", "faults-preset", "hetero3", "internet", "sensitivity",
           "slow-wan", "sweep-demo"]
# Instance seed of every simulated app in figure_sweep and wan_sim: the
# figure suite's canonical instance. Per-instance cost varies far more
# than any change a run should detect (TSP's reference took 0.15-3.1 s
# over seeds 1-5), so --seed drives submission order instead.
INSTANCE_SEED = 42
# Every serve_mix batch holds 256 request lines, one of them a fresh-seed
# request: each batch then stores one result beside its reads, so a
# change to the store path moves op_ms_p50 and not only the tail. With
# 256 lines the hits still take about 30 ms of a median batch of about
# 80 ms; the rest is the one simulation (see perfbench/README.md).
SERVE_LINES_PER_BATCH = 256
# (app, opt) of the fresh-seed requests: the apps that stay cheap at 2x2.
SERVE_FRESH = [("ACP", 1), ("SOR", 0), ("Water", 0)]
SERVE_HIT_APPS = ["Water", "IDA*"]


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def remaining():
    return DEADLINE_S - (time.monotonic() - START)


# ------------------------------------------------------------------ build

def build():
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")):
        raise BenchError("run from the root of a source checkout "
                         "(no CMakeLists.txt and src/ here)")
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    cmake_dir = os.path.join(BUILD, "cmake")
    jobs = str(nproc())
    with open(logpath, "w") as logf:
        def step(cmd):
            return run_child(cmd, remaining() + 730, stdout=logf, stderr=subprocess.STDOUT)

        configure = ["cmake", "-S", ".", "-B", cmake_dir,
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DCMAKE_PROJECT_INCLUDE=" + os.path.join(HERE, "perfbench.cmake")]
        build_cmd = ["cmake", "--build", cmake_dir, "-j", jobs,
                     "--target", "perfbench-runner", "alb-serve"]
        configured = os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt"))
        # A build tree configured for other sources may lack a target:
        # configure again and retry once.
        if not configured or step(build_cmd) != 0:
            if step(configure) != 0:
                shutil.rmtree(cmake_dir, ignore_errors=True)
                raise BenchError(f"cmake configure failed; see {logpath}")
            if step(build_cmd) != 0:
                raise BenchError(f"build failed; see {logpath}")
    global START
    START = time.monotonic()  # the build is not part of the run's budget
    return (os.path.join(cmake_dir, "perfbench-runner"),
            os.path.join(cmake_dir, "tools", "alb-serve"))


def run_child(cmd, timeout, **kwargs):
    """Runs cmd to completion; on timeout it is killed and waited for."""
    return subprocess.run(cmd, timeout=max(1, timeout), **kwargs).returncode


def read_text(path):
    with open(path) as f:
        return f.read()


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def git_rev():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def source_hash():
    """Content hash of the sources the benchmark builds and loads."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools", "scenarios"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


# ----------------------------------------------------------------- inputs

def sweep_points():
    """The (clusters, cpus) points of bench_campaign --quick, in order."""
    pts = []
    for clusters in (1, 2, 4):
        for cpus in (1, 8, 16, 32, 60):
            if cpus % clusters:
                continue
            per = cpus // clusters
            if per < 1 or (clusters > 1 and per < 2):
                continue
            if clusters == 1 and cpus == 1:
                pts.append((1, 1))
                continue
            if cpus != 60 and not (clusters == 1 and cpus == 16):
                continue
            pts.append((clusters, cpus))
    return pts


def job_line(jid, app, clusters, per, opt, seed, arm):
    return f"job {jid} {app} {clusters} {per} {int(opt)} {seed} {arm}"


def shuffled_rounds(rng, ids, count=16):
    out = []
    for _ in range(count):
        order = list(ids)
        rng.shuffle(order)
        out.append("round " + " ".join(order))
    return out


def rotated_rounds(rng, ids, count=16):
    """Each round submits the list in its own order, rotated to start at
    a seeded position, so apps keep sharing the pool with themselves as
    in the figure benches."""
    out = []
    for _ in range(count):
        k = rng.randrange(len(ids))
        out.append("round " + " ".join(ids[k:] + ids[:k]))
    return out


def plan_figure_sweep(rng):
    lines, ids = [], []
    for app in APPS:
        for opt in (False, True):
            for clusters, cpus in sweep_points():
                per = cpus // clusters
                jid = f"{app}/{'opt' if opt else 'orig'}/{clusters}x{per}"
                lines.append(job_line(jid, app, clusters, per, opt, INSTANCE_SEED, "plain"))
                ids.append(jid)
    return lines + rotated_rounds(rng, ids) + ["scenario das"], {}


def plan_wan_sim(rng):
    arms = [("orig", False, "plain"), ("opt", True, "plain"), ("tree", False, "tree"),
            ("adapt", False, "adapt"), ("causal", False, "causal")]
    lines, ids = [], []
    for app in ("ACP", "RA", "IDA*"):
        for clusters, per in ((4, 16), (8, 32)):
            for name, opt, arm in arms:
                jid = f"{app}/{name}/{clusters}x{per}"
                lines.append(job_line(jid, app, clusters, per, opt, INSTANCE_SEED, arm))
                ids.append(jid)
    return lines + shuffled_rounds(rng, ids) + ["scenario das"], {}


def plan_serve_mix(rng, seconds, workdir):
    hits = [f"{scn} app={app}" for scn in SHIPPED for app in SERVE_HIT_APPS]
    fill = os.path.join(workdir, "fill.req")
    with open(fill, "w") as f:
        f.write("".join(h + "\n" for h in hits))
    lines = [f"fill {fill}"]
    lines += [f"hit {scn} {app}" for scn in SHIPPED for app in SERVE_HIT_APPS]
    lines += [f"scenario {scn}" for scn in SHIPPED]
    # Enough batches for batches of 20 ms (each takes 40 ms or more); the
    # runner stops at --seconds.
    nbatches = int(seconds * 50) + 1
    fresh_seeds = rng.sample(range(10**6, 10**9), nbatches)
    kinds = []
    while len(kinds) < nbatches:
        triple = list(SERVE_FRESH)
        rng.shuffle(triple)
        kinds += triple
    batches = {}
    for b in range(nbatches):
        reqs = [rng.choice(hits) for _ in range(SERVE_LINES_PER_BATCH)]
        app, opt = kinds[b]
        reqs[rng.randrange(len(reqs))] = (
            f"das clusters=2 per=2 app={app} opt={opt} seed={fresh_seeds[b]}")
        path = os.path.join(workdir, f"batch{b}.req")
        with open(path, "w") as f:
            f.write("".join(r + "\n" for r in reqs))
        batches[b] = reqs
        lines.append(f"batch {path}")
    return lines, {"batches": batches, "hits": hits}


# ------------------------------------------------------------ measurement

def execute_plan(runner, serve, workload, seed, seconds, trace, workdir):
    rng = random.Random(f"{workload}:{seed}")
    copies = 1
    if workload == "figure_sweep":
        body, extra = plan_figure_sweep(rng)
        workers, reps = nproc(), 3
    elif workload == "wan_sim":
        body, extra = plan_wan_sim(rng)
        # One copy of its references is 0.1 s of kernels, too short to
        # time steadily on a noisy host: each repetition computes several
        # copies on the pool, and setup_s is the median repetition.
        workers, reps, copies = nproc(), 7, 8
    else:
        body, extra = plan_serve_mix(rng, seconds, workdir)
        workers, reps = nproc(), 3
    plan = [f"workload {workload}", f"workers {workers}", f"setup_reps {reps}",
            f"setup_copies {copies}", f"seconds {seconds}", f"trace {int(trace)}", f"kernel_seed {INSTANCE_SEED}",
            f"workdir {workdir}", f"serve {serve}"] + body
    plan_path = os.path.join(workdir, "plan.txt")
    with open(plan_path, "w") as f:
        f.write("\n".join(plan) + "\n")
    out_path = os.path.join(workdir, "runner.json")
    rc = run_child([runner, "run", plan_path, out_path], remaining(), stdout=sys.stderr)
    if rc != 0:
        raise BenchError(f"runner failed with exit code {rc}")
    with open(out_path) as f:
        return json.load(f), extra


def reference_checksums(runner, wanted, workdir):
    """{(app, seed): (checksum, ms)} from the runner's reference mode."""
    if not wanted:
        return {}
    req = os.path.join(workdir, "references.txt")
    with open(req, "w") as f:
        f.write("".join(f"{a} {s}\n" for a, s in sorted(wanted)))
    out = os.path.join(workdir, "references.json")
    if run_child([runner, "reference", req, out], remaining(), stdout=sys.stderr) != 0:
        raise BenchError("runner reference mode failed")
    with open(out) as f:
        return {(r["app"], r["seed"]): (r["checksum"], r["ms"]) for r in json.load(f)}


LINE_RE = re.compile(r"^scenario=(\S+) run=(.*) app=(\S+) key=(\S+) elapsed_s=(\S+) "
                     r"checksum=(\d+) trace_hash=(\d+) events=(\d+) status=(\S+)$")
STDERR_RE = re.compile(r"hits=(\d+) misses=(\d+)")
MISS_RE = re.compile(r"miss_ms_p50=(\S+)")


def parse_serve_line(line):
    m = LINE_RE.match(line)
    if not m:
        raise BenchError(f"unparseable alb-serve line: {line!r}")
    scn, label, app, _key, elapsed, checksum, trace_hash, events, status = m.groups()
    return {"scenario": scn, "label": label, "app": app, "elapsed_s": elapsed,
            "checksum": int(checksum), "trace_hash": int(trace_hash),
            "events": int(events), "status": status}


def serve_line_tuple(line):
    """The simulated output of one alb-serve answer line. The cache key
    is left out: it hashes the configure-time git revision, not the
    simulation."""
    d = parse_serve_line(line)
    return tuple(d[k] for k in ("scenario", "label", "app", "elapsed_s", "checksum",
                                "trace_hash", "events", "status"))


def run_seed(label):
    m = re.search(r"seed=(\d+)", label)
    return int(m.group(1)) if m else INSTANCE_SEED


def verify_serve(runner, out, extra, workdir):
    """Checks every alb-serve answer; returns per-batch facts."""
    hits = extra["hits"]
    fills = [read_text(os.path.join(workdir, f"fill{r}.out"))
             for r in range(len(out["setup_s"]))]
    if any(f != fills[-1] for f in fills):
        raise BenchError("cache fills of the set-up repetitions differ")
    by_req = {}
    fill_lines = fills[-1].splitlines()
    for line in fill_lines:
        d = parse_serve_line(line)
        by_req.setdefault(f"{d['scenario']} app={d['app']}", []).append(line)
    if sorted(by_req) != sorted(hits):
        raise BenchError("cache fill did not answer every hit-set request")

    batches = []
    fresh = []
    for b in out["batches"]:
        reqs = extra["batches"][b["batch"]]
        lines = read_text(b["out"]).splitlines()
        err = read_text(b["err"])
        facts = {"lines": len(reqs), "ok": b["exit"] == 0, "fresh": [], "why": ""}
        m = STDERR_RE.search(err)
        facts["hits"], facts["misses"] = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
        mm = MISS_RE.search(err)
        facts["miss_ms"] = float(mm.group(1)) if mm else 0.0
        pos = 0
        for req in reqs:
            if req in by_req:
                want = by_req[req]
                if lines[pos:pos + len(want)] != want:
                    facts["ok"] = False
                    facts["why"] = f"hit for '{req}' differs from its first simulation"
                pos += len(want)
            else:
                if pos >= len(lines):
                    facts["ok"] = False
                    facts["why"] = "missing output line"
                    break
                d = parse_serve_line(lines[pos])
                seed = int(req.rsplit("seed=", 1)[1])
                facts["fresh"].append((d["app"], seed, d))
                fresh.append((d["app"], seed))
                pos += 1
        if pos != len(lines):
            facts["ok"] = False
            facts["why"] = facts["why"] or "unexpected number of output lines"
        batches.append(facts)

    fill_wanted = set()
    for line in fill_lines:
        d = parse_serve_line(line)
        fill_wanted.add((d["app"], run_seed(d["label"])))
    refs = reference_checksums(runner, fill_wanted | set(fresh), workdir)
    for line in fill_lines:
        d = parse_serve_line(line)
        if d["status"] != "ok" or d["checksum"] != refs[(d["app"], run_seed(d["label"]))][0]:
            raise BenchError(f"cache fill answer is wrong: {line}")
    for facts in batches:
        for app, seed, d in facts["fresh"]:
            if d["status"] != "ok" or d["checksum"] != refs[(app, seed)][0]:
                facts["ok"] = False
                facts["why"] = f"fresh {app} seed={seed} differs from the reference"
    return batches, refs, fill_lines


def in_window(item, window):
    return window["start"] <= item["start"] and item["end"] <= window["end"] + 1e-9


def result_tuple(r):
    return [r[k] for k in ("elapsed", "events", "trace_hash", "checksum", "lan_msgs",
                           "wan_msgs", "wan_bytes", "wan_combined_flushes")]


def fingerprint(items):
    h = hashlib.sha256()
    for item in sorted(items):
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def end_to_end(workload, out, batches, window):
    """(metrics, attempted, failed, samples) of one measured window."""
    wall = window["end"] - window["start"]
    if workload == "serve_mix":
        runs = [(b, f) for b, f in zip(out["batches"], batches) if in_window(b, window)]
        lat = [(b["end"] - b["start"]) * 1e3 for b, _ in runs]
        attempted = sum(f["lines"] for _, f in runs)
        failed = sum(f["lines"] for _, f in runs if not f["ok"])
    else:
        ops = [o for o in out["ops"] if in_window(o, window)]
        lat = [(o["end"] - o["start"]) * 1e3 for o in ops]
        attempted = len(ops)
        failed = sum(1 for o in ops if not o["ok"])
    if not lat:
        raise BenchError("the measured window completed no operation")
    tail_ms, tail_pct = stats.tail(lat)
    metrics = {
        "ops_per_s": ((attempted - failed) / wall, "1/s"),
        "op_ms_p50": (stats.median(lat), "ms"),
        "op_ms_tail": (tail_ms, "ms"),
        "cpu_ms_per_op": (window["cpu_s"] * 1e3 / attempted, "ms"),
        "setup_s": (stats.median(out["setup_s"]), "s"),
        "peak_rss_mb": (max(out["rss_kb_self"], out["rss_kb_children"]) / 1024.0, "MB"),
        "ok_frac": (1.0 - failed / attempted, "frac"),
    }
    samples = {"latency_samples": len(lat), "tail_percentile": round(tail_pct, 2),
               "work_units": attempted, "window_s": wall}
    return metrics, attempted, failed, samples


# ---------------------------------------------------------- per layer

def span_durations(spans, name):
    return [(s["end"] - s["start"]) * 1e3 for s in spans if s["name"] == name and s["end"] >= 0]


def covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_shares(spans):
    """Each layer's self time over the total. A span's self time is its
    duration minus the part of it that its children cover; children run
    in parallel under a pool, so the part is a union, not a sum."""
    children = [[] for _ in spans]
    for s in spans:
        if s["parent"] >= 0 and s["end"] >= 0:
            children[s["parent"]].append((s["start"], s["end"]))
    self_by_layer = {}
    for i, s in enumerate(spans):
        if s["end"] < 0:
            continue
        self_t = max(0.0, (s["end"] - s["start"]) - covered(children[i]))
        self_by_layer[s["layer"]] = self_by_layer.get(s["layer"], 0.0) + self_t
    total = sum(self_by_layer.values()) or 1.0
    return {k: v / total for k, v in self_by_layer.items()}


def mean(values):
    return sum(values) / len(values) if values else 0.0


def per_layer(workload, out, batches, refs, workdir, e2e_untraced, e2e_traced):
    traced_w = out["windows"][-1]
    spans = out["spans"]
    probe = out["probe"]
    m = {}

    kernel = {}
    for k in out["kernels"]:
        kernel.setdefault(k["app"], []).append(k["ms"])
    kernel = {a: stats.median(v) for a, v in kernel.items()}
    for app in APPS:
        m[f"apps.kernel_ms.{app.rstrip('*')}"] = (kernel[app], "ms")

    if workload == "serve_mix":
        runs = [(b, f) for b, f in zip(out["batches"], batches) if in_window(b, traced_w)]
        wall_ms = sum((b["end"] - b["start"]) * 1e3 for b, _ in runs)
        fresh = [(f["miss_ms"], refs[(app, seed)][1], d["events"])
                 for _, f in runs for app, seed, d in f["fresh"]]
        kernel_ms = sum(k for _, k, _ in fresh)
        residual = [sim - k for sim, k, _ in fresh]
        events = [e for _, _, e in fresh]
        results = probe["hit_results"]
    else:
        ops = [o for o in out["ops"] if in_window(o, traced_w)]
        wall = [(o["end"] - o["start"]) * 1e3 for o in ops]
        wall_ms = sum(wall)
        kernel_ms = sum(kernel[o["app"]] for o in ops)
        residual = [w - kernel[o["app"]] for w, o in zip(wall, ops)]
        events = [o["result"]["events"] for o in ops]
        results = [o["result"] for o in ops]
    m["apps.kernel_share"] = (kernel_ms / wall_ms if wall_ms else 0.0, "frac")
    m["sim.residual_ms"] = (mean(residual), "ms")
    m["sim.events"] = (mean(events), "count")
    residual_s = sum(residual) / 1e3
    m["sim.events_per_residual_s"] = (sum(events) / residual_s if residual_s > 0 else 0.0, "1/s")
    for key, name in (("lan_msgs", "net.lan_msgs"), ("wan_msgs", "net.wan_msgs"),
                      ("wan_bytes", "net.wan_bytes"),
                      ("wan_combined_flushes", "net.wan_combined_flushes"),
                      ("rpc_calls", "orca.rpc_calls"), ("bcast_applied", "orca.bcast_applied"),
                      ("seq_issued", "orca.seq_issued"), ("barrier_rounds", "orca.barrier_rounds"),
                      ("adapt_actions", "orca.adapt_actions")):
        m[name] = (mean([r[key] for r in results]), "count")

    if workload == "wan_sim":
        sim_run = {s["op"]: (s["end"] - s["start"]) * 1e3 for s in spans
                   if s["name"] == "sim.run" and s["op"] >= 0 and s["end"] >= 0}
        traced_ops = [(i, o) for i, o in enumerate(out["ops"]) if in_window(o, traced_w)]
        causal = [(sim_run[i], o) for i, o in traced_ops if o["arm"] == "causal"]
        orig = [(o["end"] - o["start"]) * 1e3 for _, o in traced_ops
                if o["arm"] == "plain" and not o["opt"]]
        ratio = mean([ms for ms, _ in causal]) / mean(orig) if causal and orig else 0.0
        recorded = mean([o["trace_recorded"] for _, o in causal])
        dropped = mean([o["trace_dropped"] for _, o in causal])
    else:
        c = probe["causal"]
        ratio = stats.median(c["traced_ms"]) / stats.median(c["plain_ms"])
        recorded, dropped = c["recorded"], c["dropped"]
    m["trace.overhead_ratio"] = (ratio, "ratio")
    m["trace.events_recorded"] = (recorded, "count")
    m["trace.events_dropped"] = (dropped, "count")
    for name in ("build_dag", "critical_path", "what_if"):
        m[f"causal.{name}_ms"] = (stats.median(span_durations(spans, "causal." + name)), "ms")

    if workload == "figure_sweep":
        rs = [r for r in out["rounds"] if r["traced"]]
        workers_wall = sum(r["workers"] * r["wall_s"] for r in rs)
        busy = sum(r["busy_s"] for r in rs)
        util, idle = busy / workers_wall, (workers_wall - busy) / len(rs)
        job_p50 = stats.median([(o["end"] - o["start"]) * 1e3 for o in out["ops"]
                                if in_window(o, traced_w)])
    elif workload == "serve_mix":
        err = read_text(os.path.join(workdir, f"fill{len(out['setup_s']) - 1}.err"))
        pool = dict(re.findall(r"(\w+)=(\S+)", err.splitlines()[-1]))
        util = float(pool["utilization"])
        pool_wall = float(pool["jobs_run"]) / float(pool["jobs_per_sec"])
        idle = int(pool["workers"]) * pool_wall * (1.0 - util)
        job_p50 = float(pool["job_s_p50"]) * 1e3
    else:
        sp = out["setup_pool"]
        util = sp["busy_s"] / (sp["workers"] * sp["wall_s"])
        idle = sp["workers"] * sp["wall_s"] - sp["busy_s"]
        job_p50 = stats.median([k["ms"] for k in out["kernels"]])
    m["campaign.pool.utilization"] = (util, "frac")
    m["campaign.pool.idle_s"] = (idle, "s")
    m["campaign.pool.job_ms_p50"] = (job_p50, "ms")

    cache = probe["cache"]
    for name in ("key_us", "hit_us", "miss_us", "store_us", "parse_us", "serialize_us"):
        m[f"campaign.cache.{name}"] = (stats.median(cache[name]), "us")
    if workload == "serve_mix":
        hit = sum(f["hits"] for b, f in zip(out["batches"], batches) if in_window(b, traced_w))
        miss = sum(f["misses"] for b, f in zip(out["batches"], batches) if in_window(b, traced_w))
        hit_ratio = hit / (hit + miss) if hit + miss else 0.0
    else:
        # No cache in the workload: the probe's own lookups, one hit and
        # one miss per entry, so 0.5 unless a lookup misbehaves.
        hit_ratio = cache["hits"] / (cache["hits"] + cache["misses"])
    m["campaign.cache.hit_ratio"] = (hit_ratio, "frac")
    m["campaign.cache.entry_bytes"] = (stats.median(cache["entry_bytes"]), "B")
    m["scenario.load_us"] = (stats.median(probe["scenario"]["load_us"]), "us")
    m["serve.startup_ms"] = (stats.median(probe["serve"]["startup_ms"]), "ms")

    shares = self_shares(spans)
    for layer in ("bench", "campaign", "apps", "sim", "causal", "cache", "scenario", "serve"):
        m[f"self_share.{layer}"] = (shares.get(layer, 0.0), "frac")
    base = e2e_untraced["op_ms_p50"][0]
    m["bench.span_overhead_frac"] = (e2e_traced["op_ms_p50"][0] / base - 1.0, "frac")
    return m


# ------------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    ap.add_argument("--workload", required=True,
                    choices=["figure_sweep", "wan_sim", "serve_mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    runner, serve = build()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(BUILD, "work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    os.environ["ALB_SCENARIO_DIR"] = os.path.abspath("scenarios")

    out, extra = execute_plan(runner, serve, args.workload, args.seed, args.seconds,
                            args.trace, workdir)
    batches, refs, fill_lines = [], {}, []
    if args.workload == "serve_mix":
        batches, refs, fill_lines = verify_serve(runner, out, extra, workdir)
        simulated = [serve_line_tuple(line) for line in fill_lines]
    else:
        firsts = {}
        for op in out["ops"]:
            r = result_tuple(op["result"])
            if firsts.setdefault(op["job"], r) != r:
                op["ok"] = False
                op["why"] = "result differs from the same job's earlier run"
        simulated = [(job,) + tuple(r) for job, r in firsts.items()]
    for op in out["ops"]:
        if not op["ok"]:
            log(f"FAILED {op['job']}: {op['why']}")
    for b, f in zip(out["batches"], batches):
        if not f["ok"]:
            log(f"FAILED batch {b['batch']}: {f['why'] or 'alb-serve exit ' + str(b['exit'])}")

    windows = out["windows"]
    e2e, attempted, failed, samples = end_to_end(args.workload, out, batches, windows[0])
    if args.trace:
        e2e_traced = end_to_end(args.workload, out, batches, windows[1])
        attempted += e2e_traced[1]
        failed += e2e_traced[2]
        metrics = per_layer(args.workload, out, batches, refs, workdir, e2e, e2e_traced[0])
    else:
        metrics = e2e

    for name, (value, _unit) in metrics.items():
        if not math.isfinite(value):
            raise BenchError(f"metric {name} is not finite")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "samples": samples,
        "fingerprint": fingerprint(simulated),
        "nproc": nproc(), "hardware_concurrency": out["hardware_concurrency"],
        "build_type": out["build_type"], "compiler": out["compiler"],
        "git_rev": git_rev(), "source_hash": source_hash(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(record, f, indent=1)
    if args.trace:
        with open(os.path.join(results, tag + "-spans.json"), "w") as f:
            json.dump(out["spans"], f)
    shutil.rmtree(workdir, ignore_errors=True)

    info = {k: record[k] for k in ("workload", "seed", "samples", "fingerprint", "nproc",
                                   "hardware_concurrency", "build_type", "compiler",
                                   "git_rev", "source_hash")}
    print("perfbench-info " + json.dumps(info))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.TimeoutExpired, OSError, KeyError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(2)
