GO ?= go

.PHONY: check lint tracelint guestlint fmt vet build test bench

# check is the tier-1 gate: formatting, vet, build, the full test
# suite, fuzz smoke, and the lint gate. CI and pre-commit should run
# exactly this. The lint prerequisite runs first; SKIP_LINT keeps
# check.sh from running it a second time.
check: lint
	SKIP_LINT=1 ./scripts/check.sh

# lint runs the project analyzers (cmd/vet-tracer) and the static
# instrumentation verifier (cmd/lint -pass static) over every workload.
lint:
	./scripts/lint.sh

# guestlint runs the whole-binary value-fact lints (unreachable
# blocks, jumps into block interiors, stack balance at returns, wild
# stores) over every workload under every runtime kind.
guestlint:
	$(GO) run ./cmd/lint -pass guest

# tracelint boots every workload under both OS personalities in the
# simulator and checks the whole-system trace streams for conformance
# against the instrumented images' control flow graphs.
tracelint:
	$(GO) run ./cmd/lint -pass trace

fmt:
	gofmt -l .

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# bench times the paper's prediction pipeline end to end (the
# workloads BENCHMARK.json declares); the paper's numbers themselves
# come from go run ./cmd/experiments.
bench:
	sh perfbench/run.sh
