package systrace_test

// End-to-end smoke test of the observability layer: one traced sed
// boot with the guest-PC sampler attached must leave a well-nested
// phase-span timeline (system_boot, then machine_run with the
// trace_drain analysis phases inside it) and a non-empty folded
// profile that attributes samples to kernel functions; and a sed
// prediction, on the two-phase and on the compressed streaming drain,
// must split each trace_analysis span into its layers. This is the
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
// trace_analysis span sits in its drain span (trace_drain, or the
// streaming consumer's stream_consume) and holds the analysis layers
// as direct children on its goroutine: tracecheck and parse_simulate,
// plus stream_decode when the epochs arrive compressed.
func checkAnalysisSpans(t *testing.T, spec workload.Spec) {
	t.Helper()
	for _, tc := range []struct {
		name     string
		drain    string
		children []string
		run      func() (*experiment.Predicted, error)
	}{
		{"two-phase", "trace_drain", []string{"tracecheck", "parse_simulate"},
			func() (*experiment.Predicted, error) { return experiment.Predict(spec, kernel.Ultrix, 1) }},
		{"compressed-stream", "stream_consume", []string{"stream_decode", "tracecheck", "parse_simulate"},
			func() (*experiment.Predicted, error) {
				return experiment.PredictStream(spec, kernel.Ultrix, 1, 0, kernel.DefaultStream())
			}},
	} {
		obspkg.Reset()
		if _, err := tc.run(); err != nil {
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
		for _, s := range byID {
			if p, ok := byID[s.Parent]; ok && p.Name == "trace_analysis" {
				if s.GID != p.GID || s.Depth != p.Depth+1 || s.Open() ||
					s.StartNs < p.StartNs || s.EndNs > p.EndNs {
					t.Errorf("%s: %s span %d not nested in trace_analysis %d", tc.name, s.Name, s.ID, p.ID)
				}
				if kids[p.ID] == nil {
					kids[p.ID] = map[string]int{}
				}
				kids[p.ID][s.Name]++
			}
		}
		if len(analyses) == 0 {
			t.Fatalf("%s: no trace_analysis span", tc.name)
		}
		for _, a := range analyses {
			if p, ok := byID[a.Parent]; !ok || p.Name != tc.drain {
				t.Errorf("%s: trace_analysis %d has parent %q, want %s", tc.name, a.ID, p.Name, tc.drain)
			}
			for _, name := range tc.children {
				if kids[a.ID][name] != 1 {
					t.Errorf("%s: trace_analysis %d has %d %s children, want 1 (children %v)",
						tc.name, a.ID, kids[a.ID][name], name, kids[a.ID])
				}
			}
			if len(kids[a.ID]) != len(tc.children) {
				t.Errorf("%s: trace_analysis %d children %v, want exactly %v", tc.name, a.ID, kids[a.ID], tc.children)
			}
		}
	}
}
