package userland_test

import (
	"testing"

	"systrace/internal/epoxie"
	m "systrace/internal/mahler"
	"systrace/internal/userland"
	"systrace/internal/workload"
)

// BenchmarkBuildFlow times one liveness-driven (FlowOn) build of
// espresso: compile, dataflow analysis, rewrite and both links, the
// work every experiment does per program before its first guest
// instruction retires.
func BenchmarkBuildFlow(b *testing.B) {
	spec, ok := workload.ByName("espresso")
	if !ok {
		b.Fatal("no espresso workload")
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		mod := spec.Build()
		b.StartTimer()
		if _, err := userland.BuildFlow(spec.Name, []*m.Module{mod}, m.Options{}, epoxie.FlowOn); err != nil {
			b.Fatal(err)
		}
	}
}
