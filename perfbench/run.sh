#!/bin/sh
# Build the benchmark and the fastsc daemon from source, then run the
# benchmark with the given arguments:
#   sh perfbench/run.sh --workload W --seed N --seconds S --trace 0|1
# Run from the repository root.  The build uses no shared dune cache, so a
# run reads and writes only inside the checkout.
set -e
cd "$(dirname "$0")/.."
DUNE_CACHE=disabled dune build --root . --display quiet \
  perfbench/main.exe bin/fastsc.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
