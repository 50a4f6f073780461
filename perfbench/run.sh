#!/usr/bin/env bash
# Build the benchmark from source and run it with the given arguments.
# Build output goes to stderr, so the result stays the last line of
# stdout. Run from the repository root (or anywhere: it changes there).
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . ./perfbench/src/main.exe 1>&2
# The set-up clock starts here, the moment the binary is exec'd.
PERFBENCH_EXEC_T0=$EPOCHREALTIME exec ./_build/default/perfbench/src/main.exe "$@"
