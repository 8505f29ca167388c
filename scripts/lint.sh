#!/bin/sh
# Static analysis gate: the project-specific Go analyzers (vet-tracer)
# and the instrumentation verifier (lint -pass static) over every Table-1
# workload under every runtime kind. Run from the repo root (or via
# `make lint`); scripts/check.sh runs this unless SKIP_LINT=1.
set -eu
cd "$(dirname "$0")/.."

echo "== vet-tracer (lockheld, telemetryname, spanbalance, nilness, unusedwrite) =="
go run ./cmd/vet-tracer ./internal ./cmd ./tools

echo "== staticcheck (if installed) =="
if command -v staticcheck >/dev/null 2>&1; then
	staticcheck ./...
else
	echo "staticcheck: not installed, skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"
fi

echo "== lint -pass static (instrumentation invariants, all workloads x runtime kinds) =="
go run ./cmd/lint -q -pass static

echo "lint gate: OK"
