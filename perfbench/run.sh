#!/bin/sh
# Build dpkit and the benchmark from the source tree this script sits in,
# then run the benchmark from the tree's root with the given arguments:
#   sh perfbench/run.sh --workload hot --seed 1 --seconds 20 --trace 0
# Exits 2 without a result when the tree holds no dpkit sources.
here=$(cd "$(dirname "$0")" && pwd) || exit 2
root=$(dirname "$here")
cd "$root" || exit 2
if [ ! -f dune-project ] || [ ! -f bin/dpkit.ml ] || [ ! -d lib ]; then
  echo "perfbench: no dpkit source tree at $root" >&2
  exit 2
fi
# the build stays inside the tree: no shared dune cache
DUNE_CACHE=disabled dune build --root . ./bin/dpkit.exe ./perfbench/main.exe >&2 || exit 3
exec ./_build/default/perfbench/main.exe "$@"
