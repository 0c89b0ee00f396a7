#!/usr/bin/env python3
"""Regenerates every published measured number from a Release build.

Usage: tools/publish_results.py BUILD_DIR

Writes each paper bench's --csv output to results/paper/<bench>.csv,
regenerates results/BENCH_causal.json and results/BENCH_resilience.json
with their bench's --json, and rewrites every generated block of
EXPERIMENTS.md from those files. A block is the text between
`<!-- generated: FILE -->` and `<!-- end generated -->`; it shows FILE
verbatim. Every bench runs at its default --jobs, whose output is
byte-identical at any value, so a second run changes nothing.
tools/check.sh runs this on a scratch copy and fails on any diff.
"""

import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
APPS = ["water", "tsp", "asp", "atpg", "ida", "ra", "acp", "sor"]
CSV_BENCHES = (["bench_fig15", "bench_fig16"] + [f"bench_fig_{a}" for a in APPS]
               + ["bench_sensitivity", "bench_table1", "bench_table2", "bench_table4_5",
                  "bench_validation", "bench_ablation", "bench_breakdown"])
JSON_SUITES = ["causal", "resilience"]
BLOCK = re.compile(r"(<!-- generated: (\S+) -->\n).*?(<!-- end generated -->)", re.S)


def render(doc, files):
    """Refills each generated block of `doc` from `files` (name -> text)."""
    def fill(m):
        if m.group(2) not in files:
            raise SystemExit(f"EXPERIMENTS.md cites {m.group(2)}, which this script does not write")
        return f"{m.group(1)}```\n{files[m.group(2)]}```\n{m.group(3)}"
    return BLOCK.sub(fill, doc)


def main(build_dir):
    bench = Path(build_dir).resolve() / "bench"
    shutil.rmtree(ROOT / "results/paper", ignore_errors=True)
    (ROOT / "results/paper").mkdir()
    files = {}
    for b in CSV_BENCHES:
        name = f"results/paper/{b}.csv"
        files[name] = subprocess.run(
            [bench / b, "--csv"], check=True, capture_output=True, text=True).stdout
        (ROOT / name).write_text(files[name])
    for suite in JSON_SUITES:
        name = f"results/BENCH_{suite}.json"
        subprocess.run([bench / f"bench_{suite}", "--json", ROOT / name], check=True,
                       stdout=subprocess.DEVNULL)
        files[name] = (ROOT / name).read_text()
    doc = ROOT / "EXPERIMENTS.md"
    doc.write_text(render(doc.read_text(), files))


if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        raise SystemExit(__doc__)
    main(sys.argv[1])
