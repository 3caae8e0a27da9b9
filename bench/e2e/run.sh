#!/usr/bin/env bash
# Build varsim and the end-to-end benchmark from source, then run it.
#
#   bash bench/e2e/run.sh --workload corpus-cold --seed 1 --seconds 15 --trace 0
#
# Every argument goes to e2e.exe (see bench/e2e/README.md).  Build output
# goes to stderr: the last line on stdout is the run's JSON result.
set -euo pipefail
cd "$(dirname "$0")/../.."
# keep the build and the engine's `git describe` inside this checkout:
# no shared dune cache, no repository discovery above it
export DUNE_CACHE=disabled
export GIT_CEILING_DIRECTORIES="$(dirname "$PWD")"
dune build --root . ./bench/e2e/e2e.exe ./bin/varsim.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
