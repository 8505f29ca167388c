#!/bin/sh
# Tier-1 gate: formatting, vet, build, tests. Everything must pass
# before a change lands. Run from the repo root (or via `make check`).
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt: needs formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./... =="
go vet ./...

echo "== go build ./... =="
go build ./...

# perfbench is a nested module, so the root ./... skips it; building it
# here catches an exported API change that breaks the benchmark.
echo "== perfbench: go vet + go build (nested module) =="
(cd perfbench && go vet ./... && go build -o /dev/null ./...)

# The bench smoke: every op's exit status, trace conformance and pinned
# counts, so a change that breaks one fails here rather than only in a
# bench run. Writes no files.
echo "== perfbench: go test -short (nested module) =="
(cd perfbench && go test -short -count=1 .)

echo "== go test ./... =="
go test ./...

echo "== go test -race (cpu core incl. superblock tier, kernel epoch ring, experiment runner, telemetry, obs, rewriter, verifiers) =="
go test -race ./internal/cpu/ ./internal/kernel/ ./internal/experiment/ ./internal/telemetry/ ./internal/obs/ ./internal/epoxie/ ./internal/verify/ ./internal/tracecheck/ ./internal/dataflow/

echo "== differential oracle (reference vs default engine, traced + untraced boots, uncached) =="
go test -run '^TestWorkloadDifferentialOracle$' -count=1 .

echo "== obs smoke (traced sed boot: span nesting + folded guest-PC profile) =="
go test -run '^TestObsSmoke$' -count=1 .

echo "== lint -pass trace (trace conformance, all workloads x OS personalities) =="
go run ./cmd/lint -q -pass trace

echo "== lint -pass trace -compress (same corpus over the compressed epoch-ring drain) =="
go run ./cmd/lint -q -pass trace -compress

echo "== lint -pass guest (whole-binary value-fact lints, all workloads x runtime kinds) =="
go run ./cmd/lint -q -pass guest

echo "== fuzz smoke (10s each) =="
go test -run='^$' -fuzz=FuzzDisasm -fuzztime=10s ./internal/isa/
go test -run='^$' -fuzz='^FuzzRAM$' -fuzztime=10s ./internal/mem/
go test -run='^$' -fuzz='^FuzzParse$' -fuzztime=10s ./internal/trace/
go test -run='^$' -fuzz='^FuzzParseSink$' -fuzztime=10s ./internal/trace/
go test -run='^$' -fuzz='^FuzzSideTable$' -fuzztime=10s ./internal/trace/
go test -run='^$' -fuzz=FuzzStreamCodec -fuzztime=10s ./internal/trace/
go test -run='^$' -fuzz=FuzzConformance -fuzztime=10s ./internal/tracecheck/
go test -run='^$' -fuzz=FuzzExecEquivalence -fuzztime=10s ./internal/cpu/
go test -run='^$' -fuzz='^FuzzSoftTLB$' -fuzztime=10s ./internal/cpu/
go test -run='^$' -fuzz='^FuzzTimingFetchRun$' -fuzztime=10s ./internal/memsys/
go test -run='^$' -fuzz=FuzzLiveness -fuzztime=10s ./internal/dataflow/
go test -run='^$' -fuzz=FuzzAbsInt -fuzztime=10s ./internal/dataflow/

echo "== superblock dispatch benchmark (one iteration, so it keeps building and running) =="
go test -run='^$' -bench='^BenchmarkSuperblockDispatch$' -benchtime=1x ./internal/cpu/

if [ "${SKIP_LINT:-0}" != "1" ]; then
	./scripts/lint.sh
fi

echo "tier-1 gate: OK"
