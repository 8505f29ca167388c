package experiment_test

import (
	"reflect"
	"sync"
	"testing"

	"systrace/internal/epoxie"
	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/memsys"
	"systrace/internal/telemetry"
)

// TestRunnerParallelMatchesSequential guards the concurrency audit:
// Measure and Predict for two workloads, issued from parallel
// goroutines through one Runner, must produce exactly the results the
// sequential direct path does.
func TestRunnerParallelMatchesSequential(t *testing.T) {
	specs := specsFor(t, "sed", "lisp")

	type key struct {
		name string
		kind experiment.RunKind
	}
	seqMeas := map[key]*experiment.Measured{}
	seqPred := map[key]*experiment.Predicted{}
	for _, s := range specs {
		meas, err := experiment.Measure(s, kernel.Ultrix, 1)
		if err != nil {
			t.Fatal(err)
		}
		seqMeas[key{s.Name, experiment.RunMeasure}] = meas
		pred, err := experiment.Predict(s, kernel.Ultrix, 2)
		if err != nil {
			t.Fatal(err)
		}
		seqPred[key{s.Name, experiment.RunPredict}] = pred
	}

	r := experiment.NewRunner(4)
	var wg sync.WaitGroup
	var mu sync.Mutex
	parMeas := map[key]*experiment.Measured{}
	parPred := map[key]*experiment.Predicted{}
	errs := make(chan error, 4*len(specs))
	for _, s := range specs {
		s := s
		// Two goroutines per kind so the singleflight dedup path is
		// exercised too, not just distinct keys.
		for i := 0; i < 2; i++ {
			wg.Add(2)
			go func() {
				defer wg.Done()
				meas, err := r.Measure(s, experiment.Config{Flavor: kernel.Ultrix, Seed: 1})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				parMeas[key{s.Name, experiment.RunMeasure}] = meas
				mu.Unlock()
			}()
			go func() {
				defer wg.Done()
				pred, err := r.Predict(s, experiment.Config{Flavor: kernel.Ultrix, Seed: 2})
				if err != nil {
					errs <- err
					return
				}
				mu.Lock()
				parPred[key{s.Name, experiment.RunPredict}] = pred
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for _, s := range specs {
		sm := seqMeas[key{s.Name, experiment.RunMeasure}]
		pm := parMeas[key{s.Name, experiment.RunMeasure}]
		if sm.Result != pm.Result || sm.Seconds != pm.Seconds ||
			sm.Instr != pm.Instr || sm.UTLBMisses != pm.UTLBMisses ||
			!reflect.DeepEqual(timingCounts(sm.Timing), timingCounts(pm.Timing)) {
			t.Errorf("%s: parallel Measure diverged from sequential:\nseq %+v %+v\npar %+v %+v",
				s.Name, sm, timingCounts(sm.Timing), pm, timingCounts(pm.Timing))
		}
		sp := seqPred[key{s.Name, experiment.RunPredict}]
		pp := parPred[key{s.Name, experiment.RunPredict}]
		if sp.Result != pp.Result || sp.Seconds != pp.Seconds ||
			sp.TracedInstr != pp.TracedInstr || sp.TraceWords != pp.TraceWords ||
			sp.UTLBMisses != pp.UTLBMisses || sp.Events != pp.Events {
			t.Errorf("%s: parallel Predict diverged from sequential", s.Name)
		}
	}

	if s := r.Stats(); s.Executed != uint64(2*len(specs)) {
		t.Errorf("Executed = %d, want %d (one per unique key)", s.Executed, 2*len(specs))
	} else if s.Requested != uint64(4*len(specs)) {
		t.Errorf("Requested = %d, want %d", s.Requested, 4*len(specs))
	}
}

// timingCounts is everything a Timing model counted: its caches' and
// write buffer's state and every instruction and stall counter. It
// leaves out the telemetry handle, which only the Runner's runs
// register.
func timingCounts(tm *memsys.Timing) any {
	return struct {
		IC, DC                            memsys.Cache
		WB                                memsys.WriteBuffer
		Instr, Stalls                     uint64
		IStall, DStall, WBStall, Uncached uint64
		FPStall, FPOverlap, ExcStall      uint64
		KInstr, UInstr, KStall, UStall    uint64
	}{
		*tm.IC, *tm.DC, *tm.WB, tm.Instructions(), tm.StallCycles(),
		tm.ICacheStalls, tm.DCacheStalls, tm.WBStalls, tm.UncachedStalls,
		tm.FPStalls, tm.FPOverlapped, tm.ExcStalls,
		tm.KernelInstr, tm.UserInstr, tm.KernelStalls, tm.UserStalls,
	}
}

// TestRunnerExactlyOnce checks the suite-level dedup claim: Table2 and
// Table3 share their entire run set, so running both on one Runner
// simulates each configuration exactly once, visible in both Stats and
// the registered telemetry counters.
func TestRunnerExactlyOnce(t *testing.T) {
	specs := specsFor(t, "sed")
	r := experiment.NewRunner(2)
	reg := telemetry.New()
	r.RegisterMetrics(reg)

	if _, err := r.Table2(specs); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Table3(specs); err != nil {
		t.Fatal(err)
	}

	s := r.Stats()
	// 1 spec x 2 flavors x (measure + predict) = 4 unique runs; each
	// table submits the set twice (prefetch, then collect), so 16
	// requests resolve to 4 simulations.
	if s.Executed != 4 {
		t.Errorf("Executed = %d, want 4", s.Executed)
	}
	if s.Requested != 16 {
		t.Errorf("Requested = %d, want 16", s.Requested)
	}
	snap := reg.Snapshot()
	if m, ok := snap.Get("runner_runs_executed_total"); !ok || m.Value != 4 {
		t.Errorf("runner_runs_executed_total = %v (ok=%v), want 4", m.Value, ok)
	}
	if m, ok := snap.Get("runner_runs_requested_total"); !ok || m.Value != 16 {
		t.Errorf("runner_runs_requested_total = %v (ok=%v), want 16", m.Value, ok)
	}
}

// TestRunnerRunTelemetry checks the per-run registry labeling: each
// unique run gets its own snapshot, keyed and labeled by run id.
func TestRunnerRunTelemetry(t *testing.T) {
	specs := specsFor(t, "sed")
	r := experiment.NewRunner(2)
	if _, err := r.Measure(specs[0], experiment.Config{Flavor: kernel.Ultrix, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Predict(specs[0], experiment.Config{Flavor: kernel.Ultrix, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	snaps := r.Snapshots()
	if len(snaps) != 2 {
		t.Fatalf("got %d run snapshots, want 2", len(snaps))
	}
	for key, snap := range snaps {
		if len(snap.Metrics) == 0 {
			t.Errorf("run %v: empty snapshot", key)
			continue
		}
		found := false
		for _, m := range snap.Metrics {
			if m.Labels["id"] == key.String() {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("run %v: no series labeled id=%q", key, key.String())
		}
	}
}

// TestFormatTableDoesNotMutateHeader is the regression test for the
// dash-rule bug: FormatTable used to overwrite the caller's header
// slice in place.
func TestFormatTableDoesNotMutateHeader(t *testing.T) {
	header := []string{"workload", "sec"}
	want := []string{"workload", "sec"}
	out := experiment.FormatTable(header, [][]string{{"sed", "0.1234"}})
	if !reflect.DeepEqual(header, want) {
		t.Errorf("FormatTable mutated header: %q", header)
	}
	if out == "" {
		t.Error("empty table output")
	}
}

// TestPageMappingVarianceMeanFraction pins the SystemFraction fix: the
// reported fraction must be the mean across seeds, not the last one.
func TestPageMappingVarianceMeanFraction(t *testing.T) {
	specs := specsFor(t, "sed")
	r := experiment.NewRunner(2)
	seeds := []uint32{3, 17}
	res, err := r.PageMappingVariance(specs[0], seeds)
	if err != nil {
		t.Fatal(err)
	}
	var want float64
	for _, seed := range seeds {
		meas, err := r.Measure(specs[0], experiment.Config{Flavor: kernel.Mach, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		want += float64(meas.Timing.KernelInstr) /
			float64(meas.Timing.KernelInstr+meas.Timing.UserInstr)
	}
	want /= float64(len(seeds))
	if res.SystemFraction != want {
		t.Errorf("SystemFraction = %v, want mean %v", res.SystemFraction, want)
	}
	if res.SystemFraction <= 0 || res.SystemFraction >= 1 {
		t.Errorf("SystemFraction = %v out of (0, 1)", res.SystemFraction)
	}
}

// TestRunnerConfigsNeverAlias checks that the whole Config is the memo
// key: predictions that differ only in flow mode, engine, drain or
// buffer size are each simulated, under distinct run ids, and the
// drain variant really ran its own drain.
func TestRunnerConfigsNeverAlias(t *testing.T) {
	sed := specsFor(t, "sed")[0]
	base := experiment.Config{Flavor: kernel.Ultrix, Seed: 2}
	variants := []experiment.Config{base, base, base, base, base}
	variants[1].Flow = epoxie.FlowOff
	variants[2].Engine = kernel.EngineReference
	variants[3].Stream = kernel.DefaultStream()
	variants[4].BufBytes = 1 << 20

	r := experiment.NewRunner(2)
	for _, c := range variants {
		r.StartPredict(sed, c)
	}
	ids := map[string]bool{}
	preds := make([]*experiment.Predicted, len(variants))
	for i, c := range variants {
		p, err := r.Predict(sed, c)
		if err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		preds[i] = p
		ids[experiment.RunKey{Kind: experiment.RunPredict, Spec: sed.Name, Config: c}.String()] = true
	}
	if s := r.Stats(); s.Executed != uint64(len(variants)) {
		t.Errorf("Executed = %d, want %d (one per config)", s.Executed, len(variants))
	}
	if len(ids) != len(variants) {
		t.Errorf("%d distinct run ids for %d configs: %v", len(ids), len(variants), ids)
	}
	if preds[0].OverlapCycles != 0 {
		t.Errorf("two-phase run overlapped %d analysis cycles", preds[0].OverlapCycles)
	}
	if preds[3].OverlapCycles == 0 {
		t.Error("streaming run overlapped no analysis cycles: it shared the two-phase result")
	}
	for i, p := range preds[1:] {
		if p.Result != preds[0].Result {
			t.Errorf("%v: result %d, want %d", variants[i+1], p.Result, preds[0].Result)
		}
	}
}
