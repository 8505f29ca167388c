package systrace_test

// One benchmark per table and figure of the paper. Each regenerates
// its artifact and reports the headline quantities as custom metrics,
// so `go test -bench=. -benchmem` reproduces the whole evaluation on a
// representative subset (cmd/experiments runs the full twelve-workload
// suite).

import (
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
	"systrace/internal/trace"
	"systrace/internal/workload"
)

// benchSpecs is the subset used by the benchmarks: an I/O-bound
// program, the biggest integer program, pure recursion, and the
// store-heavy FP loops.
func benchSpecs(b *testing.B, names ...string) []workload.Spec {
	b.Helper()
	if len(names) == 0 {
		names = []string{"sed", "compress", "lisp", "liv"}
	}
	var specs []workload.Spec
	for _, n := range names {
		s, ok := workload.ByName(n)
		if !ok {
			b.Fatalf("no workload %q", n)
		}
		specs = append(specs, s)
	}
	return specs
}

func BenchmarkTable1Workloads(b *testing.B) {
	specs := benchSpecs(b)
	for i := 0; i < b.N; i++ {
		rows, err := experiment.NewRunner(0).Table1(specs)
		if err != nil {
			b.Fatal(err)
		}
		var total float64
		for _, r := range rows {
			total += r.Seconds
		}
		b.ReportMetric(total, "simsec/suite")
	}
}

func BenchmarkTable2RunTimes(b *testing.B) {
	specs := benchSpecs(b, "sed", "lisp")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.NewRunner(0).Table2(specs)
		if err != nil {
			b.Fatal(err)
		}
		var maxErr float64
		for _, r := range rows {
			e := experiment.Row{Name: r.Name, Measured: r.UltrixMeasured, Predicted: r.UltrixPredicted}.PercentError()
			if e < 0 {
				e = -e
			}
			if e > maxErr {
				maxErr = e
			}
		}
		b.ReportMetric(maxErr, "max%err")
	}
}

func BenchmarkFigure3PredictionError(b *testing.B) {
	specs := benchSpecs(b, "sed", "lisp")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.NewRunner(0).Table2(specs)
		if err != nil {
			b.Fatal(err)
		}
		var sum float64
		for _, r := range experiment.Figure3(rows) {
			e := r.PercentError()
			if e < 0 {
				e = -e
			}
			sum += e
		}
		b.ReportMetric(sum/float64(len(rows)), "mean%err")
	}
}

func BenchmarkTable3TLBMisses(b *testing.B) {
	specs := benchSpecs(b, "sed", "tomcatv")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.NewRunner(0).Table3(specs)
		if err != nil {
			b.Fatal(err)
		}
		// Report the Mach/Ultrix miss ratio of the I/O-bound workload:
		// the paper's signature result is Mach >> Ultrix there.
		r := rows[0]
		if r.UltrixMeasured > 0 {
			b.ReportMetric(float64(r.MachMeasured)/float64(r.UltrixMeasured), "mach/ultrix")
		}
	}
}

func BenchmarkFigure2Instrumentation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := experiment.Figure2()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty figure")
		}
	}
}

func BenchmarkFigure1TraceFlow(b *testing.B) {
	spec, _ := workload.ByName("sed")
	for i := 0; i < b.N; i++ {
		pred, err := experiment.Predict(spec, kernel.Ultrix, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(pred.TraceWords), "tracewords")
		b.ReportMetric(float64(pred.Events), "events")
	}
}

func BenchmarkTextGrowth(b *testing.B) {
	specs := benchSpecs(b, "gcc")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.TextGrowth(specs)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			switch r.Tool {
			case "epoxie":
				b.ReportMetric(r.Factor, "epoxie-x")
			case "pixie":
				b.ReportMetric(r.Factor, "pixie-x")
			}
		}
	}
}

func BenchmarkTimeDilation(b *testing.B) {
	specs := benchSpecs(b, "lisp")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.NewRunner(0).TimeDilation(specs)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(rows[0].Factor, "slowdown-x")
	}
}

func BenchmarkBufferSizing(b *testing.B) {
	spec, _ := workload.ByName("sed")
	for i := 0; i < b.N; i++ {
		rows, err := experiment.BufferSizing(spec, []uint32{256 << 10, 2 << 20})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].ModeSwitches < rows[1].ModeSwitches {
			b.Fatal("smaller buffer should switch modes at least as often")
		}
		b.ReportMetric(rows[1].InstrPerPhase, "instr/phase")
	}
}

func BenchmarkTunixKernelCPI(b *testing.B) {
	spec, _ := workload.ByName("sed")
	for i := 0; i < b.N; i++ {
		res, err := experiment.NewRunner(0).KernelCPI(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Ratio, "kcpi/ucpi")
	}
}

func BenchmarkPageMappingVariance(b *testing.B) {
	spec, _ := workload.ByName("tomcatv")
	for i := 0; i < b.N; i++ {
		res, err := experiment.NewRunner(0).PageMappingVariance(spec, []uint32{3, 17, 91})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpreadPercent, "spread%")
		b.ReportMetric(res.SystemFraction*100, "sys%")
	}
}

func BenchmarkErrorSources(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiment.NewRunner(0).ErrorSources([]string{"sed", "liv"})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(rows[1].FPOverlapCycles), "fp-overlap-cyc")
	}
}

func BenchmarkDefensiveTracing(b *testing.B) {
	// Detection probability of single-word corruptions on a live
	// system trace (E13, §4.3).
	spec, _ := workload.ByName("lisp")
	pred, err := experiment.Predict(spec, kernel.Ultrix, 1)
	if err != nil {
		b.Fatal(err)
	}
	_ = pred
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detected, total, err := experiment.CorruptionDetection(spec)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(detected)/float64(total)*100, "detect%")
	}
	_ = trace.MarkerBase
}
