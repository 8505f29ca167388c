package systrace_test

// Ablation benchmarks for the design choices DESIGN.md calls out:
// each one toggles a single mechanism and reports the quantity the
// paper uses to justify the choice.

import (
	"testing"

	"systrace/internal/epoxie"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/memsys"
	"systrace/internal/obj"
	"systrace/internal/sim"
	"systrace/internal/trace"
)

// ablationModule is a self-contained compute kernel (no syscalls) with
// enough basic blocks, memory traffic, and pinned locals that both the
// record format and the register machinery are exercised: array
// initialization, a recursive summation, and a hash-style scramble
// loop over a 4 KB table.
func ablationModule() *m.Module {
	mod := m.NewModule("ablation")
	mod.Global("tab", 4096)
	rec := mod.Func("recsum", m.TInt)
	rec.Param("n", m.TInt)
	rec.Code(func(b *m.Block) {
		b.If(m.Le(m.V("n"), m.I(0)), func(b *m.Block) { b.Return(m.I(0)) }, nil)
		b.Return(m.Add(m.LoadW(m.Add(m.Addr("tab", 0), m.Mul(m.And(m.V("n"), m.I(1023)), m.I(4)))),
			m.Call("recsum", m.Sub(m.V("n"), m.I(1)))))
	})
	f := mod.Func("main", m.TInt)
	f.Locals("a", "b", "c", "d", "e", "g", "h", "i", "s")
	f.Code(func(b *m.Block) {
		b.For("i", m.I(0), m.I(1024), func(b *m.Block) {
			b.StoreW(m.Add(m.Addr("tab", 0), m.Mul(m.V("i"), m.I(4))),
				m.Xor(m.Mul(m.V("i"), m.U(2654435761)), m.I(0x5bd1)))
		})
		b.Assign("s", m.I(0))
		b.For("i", m.I(0), m.I(64), func(b *m.Block) {
			b.Assign("a", m.LoadW(m.Add(m.Addr("tab", 0), m.Mul(m.And(m.Mul(m.V("i"), m.I(37)), m.I(1023)), m.I(4)))))
			b.Assign("s", m.Add(m.V("s"), m.And(m.V("a"), m.I(0xffff))))
		})
		b.Return(m.Add(m.V("s"), m.Call("recsum", m.I(200))))
	})
	return mod
}

func buildAblation(b *testing.B, opt m.Options, cfg epoxie.Config) *epoxie.Build {
	b.Helper()
	o, err := ablationModule().Compile(opt)
	if err != nil {
		b.Fatal(err)
	}
	bb, err := epoxie.BuildInstrumented([]*obj.File{sim.TracedStartObj(), o}, link.Options{
		Name: "ablation", TextBase: sim.BareTextBase, DataBase: sim.BareDataBase,
	}, cfg, epoxie.BareRuntime)
	if err != nil {
		b.Fatal(err)
	}
	return bb
}

// BenchmarkAblationRecordFormat compares the Ultrix-style trace record
// (one word per basic block, lengths resolved through the static side
// table, §3.5) against the Tunix-style alternative that carries a
// length word in the trace itself (§3.4). The address-only format is
// what makes the one-word-per-entry stream possible; the in-trace
// format costs one extra word per basic-block record.
func BenchmarkAblationRecordFormat(b *testing.B) {
	bb := buildAblation(b, m.Options{}, epoxie.Config{})
	for i := 0; i < b.N; i++ {
		mach := sim.NewBareMachine(bb.Instr)
		if err := mach.Run(200_000_000); err != nil {
			b.Fatal(err)
		}
		words := sim.TraceWords(mach)
		p := trace.NewParser(nil)
		p.AddProcess(0, trace.NewSideTable(bb.Instr.Instr.Blocks))
		events, err := p.Parse(words, nil)
		if err != nil {
			b.Fatal(err)
		}
		blocks := p.Records
		addrOnly := float64(len(words))
		tunix := float64(uint64(len(words)) + blocks) // + one length word per record
		b.ReportMetric(addrOnly*4/float64(len(events)), "addronly-B/ref")
		b.ReportMetric(tunix*4/float64(len(events)), "inlen-B/ref")
		b.ReportMetric(tunix/addrOnly, "size-x")
	}
}

// BenchmarkAblationRegisterStrategy compares link-time register
// *stealing* (epoxie: the compiler uses all registers; instrumentation
// shadows s5..s7 where live, §3.2) against Titan/Tunix-style compiler
// *reservation* (the compiler never touches the trace registers,
// §3.4). Reservation simplifies the rewriter but pessimizes every
// binary, traced or not; stealing keeps uninstrumented code optimal
// and pays shadow-slot traffic only in instrumented blocks that
// actually use the stolen registers.
func BenchmarkAblationRegisterStrategy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		steal := buildAblation(b, m.Options{}, epoxie.Config{})
		reserve := buildAblation(b, m.Options{ReserveXRegs: true}, epoxie.Config{})

		// Both strategies must compute the same answer.
		vs, _, err := sim.RunResult(steal.Instr, 200_000_000)
		if err != nil {
			b.Fatal(err)
		}
		vr, _, err := sim.RunResult(reserve.Instr, 200_000_000)
		if err != nil {
			b.Fatal(err)
		}
		if vs != vr {
			b.Fatalf("strategies disagree: steal v0=%d reserve v0=%d", vs, vr)
		}

		// Reservation's cost is carried by the *uninstrumented* binary
		// (spills where pinned registers ran out); stealing's cost is
		// carried by the instrumented one (shadow slots).
		b.ReportMetric(float64(len(reserve.Orig.Text))/float64(len(steal.Orig.Text)), "resv-origtext-x")
		b.ReportMetric(float64(len(steal.Instr.Text))/float64(len(steal.Orig.Text)), "steal-growth-x")
		b.ReportMetric(float64(len(reserve.Instr.Text))/float64(len(reserve.Orig.Text)), "resv-growth-x")
	}
}

// BenchmarkAblationUTLBSynthesis toggles the trace-driven simulator's
// UTLB-handler synthesis (§4.1: "rather than tracing the UTLB miss
// handler, we modified our simulator to synthesize the activity of the
// UTLB miss handler"): without it, every TLB refill's nine instruction
// fetches vanish from the predicted instruction and stall counts.
func BenchmarkAblationUTLBSynthesis(b *testing.B) {
	mkEvents := func() []trace.Event {
		var evs []trace.Event
		// A user working set of 64 pages touched in a scattered order,
		// several sweeps, so refills are plentiful.
		for sweep := 0; sweep < 8; sweep++ {
			for p := uint32(0); p < 64; p++ {
				page := (p*17 + uint32(sweep)) % 64
				va := 0x00400000 + page*4096 + (p%16)*64
				evs = append(evs, trace.Event{Kind: trace.EvIFetch, Addr: va, Size: 4})
				evs = append(evs, trace.Event{Kind: trace.EvLoad, Addr: 0x10000000 + page*4096, Size: 4})
			}
		}
		return evs
	}
	for i := 0; i < b.N; i++ {
		cfg := memsys.DECstation5000()
		son := memsys.NewTraceSim(cfg, memsys.PolicySequential, 16384, 1)
		soff := memsys.NewTraceSim(cfg, memsys.PolicySequential, 16384, 1)
		soff.UTLBHandlerN = 0
		son.Events(mkEvents())
		soff.Events(mkEvents())
		if son.TLB.Misses == 0 {
			b.Fatal("workload produced no TLB misses")
		}
		if son.Instr <= soff.Instr {
			b.Fatal("synthesis added no instruction activity")
		}
		b.ReportMetric(float64(son.TLB.Misses), "tlb-misses")
		b.ReportMetric(float64(son.Instr-soff.Instr)/float64(son.TLB.Misses), "synth-instr/miss")
		b.ReportMetric(float64(son.MemStalls()-soff.MemStalls()), "synth-stall-cyc")
	}
}
