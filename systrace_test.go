package systrace_test

import (
	"testing"

	"systrace"
	m "systrace/internal/mahler"
)

// TestFacadeEndToEnd drives the public API the way the quickstart
// example does: build a program, boot the traced OS, parse the trace.
func TestFacadeEndToEnd(t *testing.T) {
	mod := systrace.NewModule("facade")
	f := mod.Func("main", m.TInt)
	f.Locals("i", "s")
	f.Code(func(b *m.Block) {
		b.Assign("s", m.I(0))
		b.For("i", m.I(0), m.I(500), func(b *m.Block) {
			b.Assign("s", m.Add(m.V("s"), m.V("i")))
		})
		b.Return(m.Mod(m.V("s"), m.I(1000)))
	})
	prog, err := systrace.BuildProgram("facade", []*systrace.Module{mod})
	if err != nil {
		t.Fatal(err)
	}
	if g := prog.Instr.Instr.GrowthFactor(); g < 1.5 || g > 2.6 {
		t.Errorf("growth %.2f outside the paper's band", g)
	}

	kexe, err := systrace.BuildKernel(systrace.Ultrix, true)
	if err != nil {
		t.Fatal(err)
	}
	disk, err := systrace.BuildDiskImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := systrace.DefaultBoot(systrace.Ultrix)
	cfg.DiskImage = disk
	cfg.TraceBufBytes = 1 << 20
	sys, err := systrace.Boot(kexe, []systrace.BootProc{{Exe: prog.Instr}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := systrace.NewParser(systrace.NewSideTable(kexe))
	p.AddProcess(1, systrace.NewSideTable(prog.Instr))
	sim := systrace.NewTraceSim(systrace.PolicySequential, cfg.RAMBytes, 1)
	var perr error
	sys.OnTrace = func(words []uint32) {
		if perr != nil {
			return
		}
		var evs []systrace.Event
		evs, perr = p.Parse(words, nil)
		sim.Events(evs)
	}
	if err := sys.Run(1_000_000_000); err != nil {
		t.Fatal(err)
	}
	if perr != nil {
		t.Fatal(perr)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := sys.ExitStatus(1); got != 500*499/2%1000 {
		t.Errorf("result %d", got)
	}
	if sim.Instr == 0 || p.Records == 0 {
		t.Error("no trace simulated")
	}

	// Figure 2 through the facade.
	f2, err := systrace.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(f2.Before) != 5 || len(f2.After) != 13 {
		t.Errorf("figure 2 shape %d/%d", len(f2.Before), len(f2.After))
	}
}

func TestWorkloadCatalog(t *testing.T) {
	ws := systrace.Workloads()
	if len(ws) != 12 {
		t.Fatalf("Table 1 has twelve workloads, got %d", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if w.Name == "" || w.Description == "" || w.Build == nil {
			t.Errorf("incomplete workload %+v", w)
		}
		names[w.Name] = true
	}
	for _, n := range []string{"sed", "egrep", "yacc", "gcc", "compress",
		"espresso", "lisp", "eqntott", "fpppp", "doduc", "liv", "tomcatv"} {
		if !names[n] {
			t.Errorf("missing workload %s", n)
		}
	}
	if _, ok := systrace.WorkloadByName("sed"); !ok {
		t.Error("lookup failed")
	}
}
