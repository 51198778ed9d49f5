#!/bin/sh
# Build the benchmark, plus the .cmt typed trees the lint-tree workload
# reads, and run it from the repository root:
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Build output goes to stderr; the result is the last line of stdout.
set -eu
cd "$(dirname "$0")/.."
dune build --root . @check ./perfbench/lopc_bench.exe 1>&2
exec ./_build/default/perfbench/lopc_bench.exe "$@"
