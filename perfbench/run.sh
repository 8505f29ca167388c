#!/bin/sh
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#	sh perfbench/run.sh --workload predict-ultrix --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache and the span dump of a traced run all
# live under .bench_build, so the run writes nothing outside the
# checkout. The build uses the installed Go toolchain only.
set -eu
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans.json" "$@"
