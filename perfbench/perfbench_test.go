package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/workload"
)

// gccDef is the smallest prediction workload: gcc, about 0.17 s per
// predict.
func gccDef(k kind, f kernel.Flavor) def {
	return def{name: "gcc-test", kind: k, progs: []string{"gcc"}, flavors: []kernel.Flavor{f}}
}

func newTestBench(t *testing.T, d def) *bench {
	t.Helper()
	b, err := newBench(d, 1, 0, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSmokeGCC(t *testing.T) {
	b := newTestBench(t, gccDef(kindPredict, kernel.Ultrix))
	e2e, err := b.endToEnd()
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 || b.attempted < 2 {
		t.Fatalf("end-to-end: %d of %d ops failed (%v)", b.failed, b.attempted, b.classes)
	}
	for _, m := range endToEndMetrics {
		if !(e2e[m.name] > 0) {
			t.Errorf("end-to-end metric %s = %v, want > 0", m.name, e2e[m.name])
		}
	}

	b = newTestBench(t, gccDef(kindPredict, kernel.Ultrix))
	layers, err := b.perLayer(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	if b.failed != 0 {
		t.Fatalf("traced run: %d of %d ops failed (%v)", b.failed, b.attempted, b.classes)
	}
	for _, name := range []string{"tracecheck.self_s", "trace.parse_s", "memsys.tracesim_s",
		"machine.self_s", "kernel.boot_s", "pixie.count_s", "sim.trace_words", "pred_err_pct"} {
		if !(layers[name] > 0) {
			t.Errorf("per-layer metric %s = %v, want > 0", name, layers[name])
		}
	}
	if layers["memsys.timing_s"] != 0 || layers["kernel.stream_epochs"] != 0 {
		t.Errorf("prediction reports Timing model %v s, %v epochs; want 0",
			layers["memsys.timing_s"], layers["kernel.stream_epochs"])
	}
	// One pass: the layer split accounts for the traced op exactly.
	if s := layers["bench.accounted_share"]; math.Abs(s-1) > 1e-9 {
		t.Errorf("accounted share %v, want 1", s)
	}
}

func TestFailureClassification(t *testing.T) {
	b := newTestBench(t, gccDef(kindPredict, kernel.Ultrix))
	b.want = map[string]uint32{"gcc": knownResult["gcc"] + 1}
	if _, err := b.endToEnd(); err != nil {
		t.Fatal(err)
	}
	if b.attempted < 2 || b.failed != b.attempted || b.classes[classWrongResult] != b.failed {
		t.Fatalf("attempted %d, failed %d, classes %v: want every op failed as %s",
			b.attempted, b.failed, b.classes, classWrongResult)
	}

	b = newTestBench(t, gccDef(kindPredict, kernel.Ultrix))
	if _, ok := b.attempt(0, classNondeterministic, func() (counts, error) { panic("injected") }); ok {
		t.Fatal("a panicking op passed")
	}
	c := counts{Result: knownResult["gcc"], GuestInstr: 1}
	b.attempt(0, classFidelity, func() (counts, error) { return c, nil })
	c.GuestInstr++
	b.attempt(0, classFidelity, func() (counts, error) { return c, nil })
	if b.failed != 2 || len(b.classes) != 2 || b.classes[classPanic] != 1 || b.classes[classFidelity] != 1 {
		t.Fatalf("failed %d, classes %v; want one %s and one %s", b.failed, b.classes, classPanic, classFidelity)
	}
}

// The traced run's rebuilt pipelines must reproduce the entry points'
// simulated counts exactly, or its layer times describe another program.
func TestTracedPipelineMatchesEntryPoints(t *testing.T) {
	for _, tc := range []struct {
		k kind
		f kernel.Flavor
	}{
		{kindPredict, kernel.Ultrix},
		{kindStream, kernel.Mach},
		{kindMeasure, kernel.Mach},
	} {
		b := newTestBench(t, gccDef(tc.k, tc.f))
		im, _, err := buildImages(b.d, b.specs)
		if err != nil {
			t.Fatal(err)
		}
		o := b.ops[0]
		want, err := call(tc.k, o)
		if err != nil {
			t.Fatal(err)
		}
		var got tracedRun
		if tc.k == kindMeasure {
			got, err = measureTraced(im, newTracer(), o)
		} else {
			got, err = predictTraced(im, newTracer(), tc.k, o)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got.c != want {
			t.Errorf("%v kind %d: rebuilt %+v\nentry point %+v", o, tc.k, got.c, want)
		}
	}
}

// BENCHMARK.json and the program must name the same workloads and
// metrics with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(defs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(defs))
	}
	for i, w := range doc.Workloads {
		if w.Name != defs[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, defs[i].name)
		}
	}
	check := func(kind string, doc []struct{ Name, Unit string }, prog []metricSpec) {
		got := map[string]string{}
		for _, m := range doc {
			got[m.Name] = m.Unit
		}
		if len(got) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(prog))
		}
		for _, m := range prog {
			if got[m.name] != m.unit {
				t.Errorf("%s metric %s: BENCHMARK.json unit %q, program %q", kind, m.name, got[m.name], m.unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEndMetrics)
	check("per_layer", doc.PerLayer, perLayerMetrics)
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "measure", "--trace", "2"},
		{"--workload", "measure", "extra"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run %v: exit %d, stdout %q; want nonzero and no result", args, code, out.String())
		}
		if !strings.Contains(errb.String(), "perfbench") {
			t.Errorf("run %v: no diagnostic on stderr", args)
		}
	}
}

// The known failure kept out of the timed workloads (NOTES.md): egrep
// on Mach under the epoch ring at 512 KB epochs, raw or compressed.
// Run with -v to see it; the test reports when the failure is gone.
func TestKnownFailureEgrepMach512K(t *testing.T) {
	if testing.Short() {
		t.Skip("boots egrep on Mach twice")
	}
	spec, ok := workload.ByName("egrep")
	if !ok {
		t.Fatal("no egrep workload")
	}
	var errs []string
	for _, compress := range []bool{false, true} {
		st := kernel.DefaultStream()
		st.Compress = compress
		if _, err := experiment.PredictStream(spec, kernel.Mach, 1, 512<<10, st); err != nil {
			errs = append(errs, fmt.Sprintf("compress=%v: %v", compress, err))
		}
	}
	if len(errs) == 0 {
		t.Log("egrep/Mach at 512 KB epochs no longer fails: update NOTES.md")
		return
	}
	t.Skipf("known failure reproduced:\n%s", strings.Join(errs, "\n"))
}
