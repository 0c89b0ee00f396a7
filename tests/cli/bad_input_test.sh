#!/usr/bin/env bash
# Bad override values on alb-trace's command line and on alb-serve's
# request lines are rejected up front by the scenario vocabulary: each
# exits with status 2 (not a signal, not 0, not a failed simulation)
# and one diagnostic line on stderr. A scenario directory holding an
# unknown app fails `alb-serve --validate`.
#
# Usage: bad_input_test.sh <alb-trace> <alb-serve>
set -u
trace=$1
serve=$2
dir=$(mktemp -d)
trap 'rm -rf "$dir"' EXIT
failed=0

# expect_usage_error <label> <stdin text> <command...>
expect_usage_error() {
  local label=$1 input=$2
  shift 2
  printf '%s\n' "$input" | "$@" > "$dir/out" 2> "$dir/err"
  local rc=$? lines
  lines=$(wc -l < "$dir/err")
  if [ "$rc" -eq 2 ] && [ "$lines" -eq 1 ]; then
    echo "ok   $label: $(cat "$dir/err")"
  else
    echo "FAIL $label: exit $rc, $lines stderr lines, expected exit 2 and one line"
    cat "$dir/err"
    failed=1
  fi
}

for args in "--clusters 0" "--per 0" "--per -1" "--seed -1" "--capacity -1" \
            "--scenario hetero3 --clusters 2"; do
  read -r -a argv <<< "$args"
  expect_usage_error "alb-trace $args" "" "$trace" "${argv[@]}"
done
for request in "hetero3 app=ASP clusters=2" "das app=Bogus" "das wan_streams=65"; do
  expect_usage_error "alb-serve '$request'" "$request" "$serve"
done

mkdir "$dir/scn"
printf '[flags]\napp = Bogus\n' > "$dir/scn/bogus.scn"
"$serve" --validate "$dir/scn" > /dev/null 2> "$dir/err"
rc=$?
if [ "$rc" -eq 1 ]; then
  echo "ok   alb-serve --validate: $(cat "$dir/err")"
else
  echo "FAIL alb-serve --validate accepted an unknown app (exit $rc)"
  failed=1
fi
exit $failed
