package systrace_test

// End-to-end smoke test of the observability layer: one traced sed
// boot with the guest-PC sampler attached must leave a well-nested
// phase-span timeline (system_boot, then machine_run with the
// trace_drain doorbell spans inside it) and a non-empty folded
// profile that attributes samples to kernel functions; and a sed
// prediction, on the two-phase and on the compressed streaming drain,
// must split each trace_analysis span, on the drain's consumer, into
// its layers. This is the
// check scripts/check.sh runs as its obs smoke step.

import (
	"bytes"
	"strings"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/obj"
	obspkg "systrace/internal/obs"
	"systrace/internal/workload"
)

func TestObsSmoke(t *testing.T) {
	obspkg.Reset()
	spec, ok := workload.ByName("sed")
	if !ok {
		t.Fatal("no sed workload")
	}
	prof := obspkg.NewProfile()
	sys, _, err := experiment.Boot(spec, kernel.Ultrix, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	sys.M.CPU.SetProfiler(4096, prof.Hit)
	if err := sys.Run(experiment.RunBudget); err != nil {
		t.Fatal(err)
	}

	tl := obspkg.Timeline()
	byName := map[string][]obspkg.SpanInfo{}
	for _, s := range tl {
		byName[s.Name] = append(byName[s.Name], s)
	}
	for _, name := range []string{"system_boot", "machine_run", "trace_drain"} {
		if len(byName[name]) == 0 {
			t.Fatalf("no %s span in timeline (%d spans total)", name, len(tl))
		}
	}
	boot := byName["system_boot"][0]
	run := byName["machine_run"][0]
	if boot.Open() || run.Open() {
		t.Fatalf("boot/run spans left open: %+v %+v", boot, run)
	}
	if boot.EndNs > run.StartNs {
		t.Errorf("system_boot [%d,%d] should close before machine_run starts at %d",
			boot.StartNs, boot.EndNs, run.StartNs)
	}
	// Every trace-drain analysis phase happens inside the machine run,
	// on the run's goroutine, directly nested under its span.
	if sys.Doorbells == 0 {
		t.Fatal("traced sed boot rang no doorbells")
	}
	for _, d := range byName["trace_drain"] {
		if d.Parent != run.ID {
			t.Errorf("trace_drain span %d has parent %d, want machine_run %d", d.ID, d.Parent, run.ID)
		}
		if d.GID != run.GID {
			t.Errorf("trace_drain span %d on goroutine %d, machine_run on %d", d.ID, d.GID, run.GID)
		}
		if d.Depth != run.Depth+1 {
			t.Errorf("trace_drain span %d at depth %d, want %d", d.ID, d.Depth, run.Depth+1)
		}
		if d.Open() || d.StartNs < run.StartNs || d.EndNs > run.EndNs {
			t.Errorf("trace_drain span %d [%d,%d] not inside machine_run [%d,%d]",
				d.ID, d.StartNs, d.EndNs, run.StartNs, run.EndNs)
		}
	}

	if prof.Len() == 0 {
		t.Fatal("profiler took no samples")
	}
	procs := map[uint32]*obj.Executable{}
	for i, bp := range sys.Procs {
		procs[uint32(i+1)] = bp.Exe
	}
	var folded bytes.Buffer
	prof.WriteFolded(&folded, obspkg.NewImageResolver(sys.Kernel, procs))
	out := folded.String()
	if out == "" {
		t.Fatal("folded profile is empty")
	}
	if !strings.Contains(out, "kernel;") {
		t.Errorf("folded profile attributes nothing to the kernel:\n%.500s", out)
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("folded line %q is not \"stack value\"", line)
		}
	}

	checkAnalysisSpans(t, spec)
}

// checkAnalysisSpans runs sed predictions and checks that every
// trace_analysis span sits in the drain consumer's per-delivery span,
// stream_consume on both drains, and holds exactly the analysis layers
// as direct children on its goroutine: tracecheck and parse_simulate.
// On the compressed stream the consumer decodes each epoch once,
// before the analysis: one stream_decode directly nested in every
// stream_consume. The two-phase drain decodes nothing, and it ships
// each fill's settled prefix before the doorbell drains the tail, so
// it delivers more chunks than it rings doorbells.
func checkAnalysisSpans(t *testing.T, spec workload.Spec) {
	t.Helper()
	children := []string{"tracecheck", "parse_simulate"}
	for _, tc := range []struct {
		name       string
		compressed bool
		run        func() (*experiment.Predicted, error)
	}{
		{"two-phase", false,
			func() (*experiment.Predicted, error) { return experiment.Predict(spec, kernel.Ultrix, 1) }},
		{"compressed-stream", true,
			func() (*experiment.Predicted, error) {
				return experiment.PredictStream(spec, kernel.Ultrix, 1, 0, kernel.DefaultStream())
			}},
	} {
		obspkg.Reset()
		pred, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		byID := map[uint64]obspkg.SpanInfo{}
		kids := map[uint64]map[string]int{}
		var analyses []obspkg.SpanInfo
		for _, s := range obspkg.Timeline() {
			byID[s.ID] = s
			if s.Name == "trace_analysis" {
				analyses = append(analyses, s)
			}
		}
		var consumes []obspkg.SpanInfo
		for _, s := range byID {
			if s.Name == "stream_consume" {
				consumes = append(consumes, s)
			}
			if p, ok := byID[s.Parent]; ok && (p.Name == "trace_analysis" || p.Name == "stream_consume") {
				if s.GID != p.GID || s.Depth != p.Depth+1 || s.Open() ||
					s.StartNs < p.StartNs || s.EndNs > p.EndNs {
					t.Errorf("%s: %s span %d not nested in %s %d", tc.name, s.Name, s.ID, p.Name, p.ID)
				}
				if kids[p.ID] == nil {
					kids[p.ID] = map[string]int{}
				}
				kids[p.ID][s.Name]++
			}
		}
		wantDecodes := 0
		if tc.compressed {
			wantDecodes = 1
			if uint64(len(consumes)) != pred.Stream.Epochs {
				t.Errorf("%s: %d stream_consume spans for %d epochs", tc.name, len(consumes), pred.Stream.Epochs)
			}
		} else if uint64(len(consumes)) <= pred.ModeSwitches {
			t.Errorf("%s: %d stream_consume spans for %d doorbells: no settled prefix was shipped",
				tc.name, len(consumes), pred.ModeSwitches)
		}
		for _, c := range consumes {
			if kids[c.ID]["stream_decode"] != wantDecodes {
				t.Errorf("%s: stream_consume %d has %d stream_decode children, want %d (children %v)",
					tc.name, c.ID, kids[c.ID]["stream_decode"], wantDecodes, kids[c.ID])
			}
		}
		if len(analyses) == 0 {
			t.Fatalf("%s: no trace_analysis span", tc.name)
		}
		for _, a := range analyses {
			if p, ok := byID[a.Parent]; !ok || p.Name != "stream_consume" {
				t.Errorf("%s: trace_analysis %d has parent %q, want stream_consume", tc.name, a.ID, p.Name)
			}
			for _, name := range children {
				if kids[a.ID][name] != 1 {
					t.Errorf("%s: trace_analysis %d has %d %s children, want 1 (children %v)",
						tc.name, a.ID, kids[a.ID][name], name, kids[a.ID])
				}
			}
			if len(kids[a.ID]) != len(children) {
				t.Errorf("%s: trace_analysis %d children %v, want exactly %v", tc.name, a.ID, kids[a.ID], children)
			}
		}
	}
}
