package dataflow_test

import (
	"testing"

	"systrace/internal/dataflow"
	"systrace/internal/epoxie"
	"systrace/internal/kernel"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/userland"
	"systrace/internal/workload"
)

// TestNaiveOracle checks the one-pass solver and queries against the
// naive re-walks (export_test.go) on real code: every workload's and
// the UX server's objects, and both kernels', through AnalyzeObjects as
// the rewriter sees them, and every traced image through
// AnalyzeExecutable as the verifier and the guest lints see it.
func TestNaiveOracle(t *testing.T) {
	type prog struct {
		name string
		mod  *m.Module
	}
	var progs []prog
	for _, s := range workload.All() {
		progs = append(progs, prog{s.Name, s.Build()})
	}
	progs = append(progs, prog{"ux", userland.UXServer()})

	check := func(what string, objs []*obj.File, traced *obj.Executable) {
		t.Helper()
		p, err := dataflow.AnalyzeObjects(objs)
		if err != nil {
			t.Fatalf("%s objects: %v", what, err)
		}
		for i := range objs {
			if err := dataflow.CheckNaive(p.Object(i)); err != nil {
				t.Fatalf("%s object %s: %v", what, objs[i].Name, err)
			}
		}
		facts, err := dataflow.AnalyzeExecutable(traced, dataflow.TracedExeConfig(traced))
		if err != nil {
			t.Fatalf("%s traced image: %v", what, err)
		}
		if err := dataflow.CheckNaive(facts); err != nil {
			t.Fatalf("%s traced image: %v", what, err)
		}
	}

	for _, pr := range progs {
		objs := []*obj.File{userland.Crt0(true)}
		for _, mod := range []*m.Module{pr.mod, userland.Libc()} {
			o, err := mod.Compile(m.Options{})
			if err != nil {
				t.Fatal(err)
			}
			objs = append(objs, o)
		}
		b, err := userland.BuildFlow(pr.name, []*m.Module{pr.mod}, m.Options{}, epoxie.FlowOn)
		if err != nil {
			t.Fatal(err)
		}
		check(pr.name, objs, b.Instr)
	}
	for _, f := range []kernel.Flavor{kernel.Ultrix, kernel.Mach} {
		cfg := kernel.Config{Flavor: f, Traced: true, Flow: epoxie.FlowOn}
		ko, err := kernel.Module(cfg).Compile(m.Options{})
		if err != nil {
			t.Fatal(err)
		}
		exe, err := kernel.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		check("kernel "+f.String(), []*obj.File{kernel.VectorsObj(true), ko}, exe)
	}
}
