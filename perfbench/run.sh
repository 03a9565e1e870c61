#!/bin/sh
# Build the VirtualWire benchmark from source and run it:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of a checkout. Build output goes to standard error;
# standard output carries the benchmark's context line and, last, its
# result line. A failed build exits non-zero without a result.
set -e
cd "$(dirname "$0")/.."
if ! command -v dune >/dev/null 2>&1; then
  for d in "$HOME"/.opam/*/bin; do
    if [ -x "$d/dune" ]; then PATH="$d:$PATH"; break; fi
  done
fi
# keep every build product inside the checkout
DUNE_CACHE=disabled dune build --root . ./perfbench/vwbench.exe 1>&2
exec ./_build/default/perfbench/vwbench.exe "$@"
