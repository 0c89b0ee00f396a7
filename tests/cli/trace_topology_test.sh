#!/usr/bin/env bash
# alb-trace's causal analysis must see the topology the run simulated.
# Water at 4x4 differs from the default scenario's 4x15 geometry; when
# the analysis builds its DAG from the scenario's 4x15 layout instead,
# gateways are mistaken for compute nodes and the whole critical path
# reads as app/idle. Each app's critical path is mostly compute and
# communication, so app/idle >= 50% flags the wrong topology. The
# wan-bw-x8 projection must also land within 5% of its --validate
# re-simulation.
#
# Usage: trace_topology_test.sh <alb-trace>
set -u
trace=$1
out=$(mktemp)
trap 'rm -f "$out"' EXIT

if ! "$trace" --app Water --clusters 4 --per 4 --critical-path --what-if wan-bw-x8 --validate \
    --csv > "$out"; then
  echo "FAIL alb-trace exited nonzero"
  exit 1
fi

# share_pct of app/idle in the "critical path by blame" table (0 when absent).
idle=$(awk -F, '/^# critical path by blame/ {t = 1; next} /^#/ {t = 0}
                t && $1 == "app/idle" {print $3}' "$out")
idle=${idle:-0}
# err_pct of the wan-bw-x8 row in the what-if table.
err=$(awk -F, '/^# what-if projections/ {t = 1; next} t && $1 == "wan-bw-x8" {print $6}' "$out")

failed=0
if awk -v v="$idle" 'BEGIN {exit !(v < 50)}'; then
  echo "ok   Water 4x4 app/idle share ${idle}% < 50%"
else
  echo "FAIL Water 4x4 app/idle share ${idle}% >= 50%: the causal DAG used the wrong topology"
  failed=1
fi
if [ -n "$err" ] && awk -v v="$err" 'BEGIN {exit !(v < 5 && v > -5)}'; then
  echo "ok   Water 4x4 wan-bw-x8 projection error ${err}% within 5%"
else
  echo "FAIL Water 4x4 wan-bw-x8 projection error '${err}'% not within 5%"
  failed=1
fi
exit $failed
