#!/bin/sh
# Run the benchmark on two checkouts in ten alternating pairs per workload
# and collect the result lines for `lopc_bench.exe compare`:
#
#   sh perfbench/pairs.sh A_DIR B_DIR OUT_DIR
#
# Pair i runs seed i on both sides, A first when i is odd and B first when
# it is even. Lines go to OUT_DIR/A.jsonl and OUT_DIR/B.jsonl, each with a
# "workload" key added. Both checkouts must hold the same perfbench/.
set -eu
a=$(cd "$1" && pwd)
b=$(cd "$2" && pwd)
mkdir -p "$3"
out=$(cd "$3" && pwd)
pairs=10
workloads=$(cd "$b" && sh perfbench/run.sh --list | sed -n 's/^workload //p')
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$b/BENCHMARK.json")

run() { # DIR SIDE WORKLOAD SEED
  line=$(cd "$1" && sh perfbench/run.sh --workload "$3" --seed "$4" \
    --seconds "$seconds" --trace 0 | tail -n 1)
  printf '{"workload": "%s", %s\n' "$3" "${line#\{}" >>"$out/$2.jsonl"
}

for w in $workloads; do
  i=1
  while [ "$i" -le "$pairs" ]; do
    if [ $((i % 2)) -eq 1 ]; then
      run "$a" A "$w" "$i"
      run "$b" B "$w" "$i"
    else
      run "$b" B "$w" "$i"
      run "$a" A "$w" "$i"
    fi
    i=$((i + 1))
  done
done
