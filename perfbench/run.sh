#!/bin/sh
# Build the benchmark from source in this checkout, then run it:
#
#   sh perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run from the root of the checkout.  Build messages go to stderr, so the
# last line of stdout is the result.  The dune cache is disabled and the
# compiler's temporary files go under _build, so the build writes nothing
# outside the checkout.
set -e
mkdir -p _build/tmp
TMPDIR="$PWD/_build/tmp" dune build --root . --cache=disabled --display=quiet perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe "$@"
