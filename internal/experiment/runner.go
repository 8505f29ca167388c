package experiment

// The run orchestrator. The paper's evaluation asks for the same
// simulations over and over — Table 2 and Table 3 share all of their
// runs, the dilation study repeats Table 1's measurements, the error
// anatomy re-runs Table 2's outliers — and a full simulated run takes
// seconds. The Runner makes the suite cost exactly one simulation per
// unique (kind, workload, Config) configuration: results are
// memoized behind singleflight deduplication (the first submitter owns
// the run, later submitters wait for it), and distinct runs execute on
// a bounded worker pool.
//
// Concurrency audit (what makes parallel runs safe):
//
//   - Build products (*obj.Executable, *userland.Program) are shared
//     across concurrently booted Systems strictly read-only: kernel.Boot
//     and machine.LoadKernel copy text/data into the per-machine RAM and
//     never write back into the image; trace.NewSideTable takes
//     pointers into the shared Blocks slices but only reads them. The
//     build caches below (experiment.go) publish each product through a
//     per-entry sync.Once, and the cache lock is never held across a
//     build, so distinct images build in parallel.
//   - Everything mutable during a run — machine, CPU, RAM, devices,
//     kernel state, parser, memory-system simulators — is created per
//     run inside the worker goroutine and never escapes it.
//   - telemetry.Registry is safe for concurrent use (atomic handles,
//     locked registration/snapshot); the Runner still gives each run
//     its own registry, labeled with a run-id dimension (id=<RunKey>),
//     so series from different runs stay distinct when snapshots are
//     merged. The Runner's own counters are atomics, safe to sample
//     from any goroutine.
//   - Results are published by closing the entry's done channel after
//     the last write, which orders them before any waiter's read.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"systrace/internal/obs"
	"systrace/internal/telemetry"
	"systrace/internal/workload"
)

// RunKind distinguishes the memoized simulation types.
type RunKind uint8

const (
	// RunMeasure is a direct measurement of the uninstrumented system.
	RunMeasure RunKind = iota
	// RunPredict is a traced run plus trace-driven prediction.
	RunPredict
)

func (k RunKind) String() string {
	if k == RunMeasure {
		return "measure"
	}
	return "predict"
}

// RunKey identifies one unique simulation: the run kind, the workload,
// and the whole run Config, so variants that differ only in flow mode,
// engine, drain or buffer size never share a result. The pixie
// count-mode runs behind Predict's arithmetic-stall term are memoized
// separately, per workload, in the package build caches.
type RunKey struct {
	Kind   RunKind
	Spec   string
	Config Config
}

func (k RunKey) String() string {
	return fmt.Sprintf("%v:%s:%v", k.Kind, k.Spec, k.Config)
}

// runCall is one singleflight entry. The owning worker fills the
// result fields and then closes done; waiters block on done.
type runCall struct {
	done chan struct{}
	meas *Measured
	pred *Predicted
	snap telemetry.Snapshot
	err  error
}

// Stats summarizes a Runner's activity.
type Stats struct {
	Requested uint64 // runs submitted (including duplicates)
	Executed  uint64 // unique simulations actually performed
	Workers   int
}

// Deduplicated returns the submissions served without a simulation.
func (s Stats) Deduplicated() uint64 { return s.Requested - s.Executed }

// Runner executes Measure/Predict runs on a bounded worker pool with
// per-key memoization. The zero value is not usable; use NewRunner.
// All methods are safe for concurrent use.
type Runner struct {
	workers int

	sem chan struct{}

	mu    sync.Mutex
	calls map[RunKey]*runCall

	requested atomic.Uint64
	executed  atomic.Uint64
}

// NewRunner returns a Runner executing at most workers simulations
// concurrently; workers <= 0 means GOMAXPROCS.
func NewRunner(workers int) *Runner {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Runner{
		workers: workers,
		sem:     make(chan struct{}, workers),
		calls:   map[RunKey]*runCall{},
	}
}

// Stats returns the Runner's submission counters. Safe to call while
// runs are in flight.
func (r *Runner) Stats() Stats {
	return Stats{
		Requested: r.requested.Load(),
		Executed:  r.executed.Load(),
		Workers:   r.workers,
	}
}

// RegisterMetrics exposes the Runner's counters on reg: requested and
// executed runs, from which the memoization rate follows. The counters
// are atomics, so sampling is safe while runs are in flight.
func (r *Runner) RegisterMetrics(reg *telemetry.Registry, labels ...telemetry.Label) {
	if reg == nil {
		return
	}
	reg.Sample("runner_runs_requested_total",
		"simulation runs submitted to the orchestrator, duplicates included",
		func() uint64 { return r.requested.Load() }, labels...)
	reg.Sample("runner_runs_executed_total",
		"unique simulations performed (everything else was memoized)",
		func() uint64 { return r.executed.Load() }, labels...)
}

// Snapshots returns the telemetry snapshot of every completed run, by
// key. Snapshots of runs still in flight are not included.
func (r *Runner) Snapshots() map[RunKey]telemetry.Snapshot {
	r.mu.Lock()
	calls := make(map[RunKey]*runCall, len(r.calls))
	for k, c := range r.calls {
		calls[k] = c
	}
	r.mu.Unlock()
	out := map[RunKey]telemetry.Snapshot{}
	for k, c := range calls {
		select {
		case <-c.done:
			if len(c.snap.Metrics) > 0 {
				out[k] = c.snap
			}
		default:
		}
	}
	return out
}

// submit returns the entry for key, starting its run if this is the
// first submission.
func (r *Runner) submit(key RunKey, spec workload.Spec) *runCall {
	r.requested.Add(1)
	r.mu.Lock()
	if c, ok := r.calls[key]; ok {
		r.mu.Unlock()
		return c
	}
	c := &runCall{done: make(chan struct{})}
	r.calls[key] = c
	r.mu.Unlock()
	go r.execute(key, spec, c)
	return c
}

// execute performs one unique run on a worker slot.
func (r *Runner) execute(key RunKey, spec workload.Spec, c *runCall) {
	r.sem <- struct{}{}
	// Opened after the worker slot is acquired so the span measures
	// the run, not time queued behind the semaphore; measure_run /
	// predict_run and the machine phases nest under it (same
	// goroutine), keeping each parallel job's sub-spans attached to
	// its own job in the timeline.
	sp := obs.BeginDetail("runner_job", key.String())
	defer func() {
		sp.End()
		<-r.sem
		close(c.done)
	}()
	r.executed.Add(1)
	reg := telemetry.New()
	id := telemetry.L("id", key.String())
	switch key.Kind {
	case RunMeasure:
		c.meas, c.err = measure(spec, key.Config, reg, id)
	case RunPredict:
		c.pred, c.err = predict(spec, key.Config, reg, id)
	}
	c.snap = reg.Snapshot()
}

// StartMeasure submits a measurement without waiting for it. Use it to
// warm the pool with a table's whole run set before collecting.
func (r *Runner) StartMeasure(spec workload.Spec, c Config) {
	r.submit(RunKey{RunMeasure, spec.Name, c}, spec)
}

// StartPredict submits a prediction without waiting for it.
func (r *Runner) StartPredict(spec workload.Spec, c Config) {
	r.submit(RunKey{RunPredict, spec.Name, c}, spec)
}

// Measure returns the memoized direct measurement for the
// configuration, running it if needed. The result is shared: callers
// must treat it (including Timing) as read-only.
func (r *Runner) Measure(spec workload.Spec, c Config) (*Measured, error) {
	k := r.submit(RunKey{RunMeasure, spec.Name, c}, spec)
	<-k.done
	return k.meas, k.err
}

// Predict returns the memoized trace-driven prediction for the
// configuration, running it if needed. The result is shared: callers
// must treat it (including Sim and Parser) as read-only.
func (r *Runner) Predict(spec workload.Spec, c Config) (*Predicted, error) {
	k := r.submit(RunKey{RunPredict, spec.Name, c}, spec)
	<-k.done
	return k.pred, k.err
}
