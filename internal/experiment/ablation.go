package experiment

// Ablations of the design choices DESIGN.md "Design choices worth
// ablating" cites: each toggles one mechanism and reports the quantity
// the paper uses to justify the choice. The record-format and
// register-strategy ablations run a self-contained compute kernel on
// the bare traced harness (internal/sim); the UTLB-synthesis ablation
// drives the trace-driven simulator directly.

import (
	"fmt"

	"systrace/internal/epoxie"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/memsys"
	"systrace/internal/obj"
	"systrace/internal/sim"
	"systrace/internal/trace"
)

// ablationBudget bounds one bare ablation run.
const ablationBudget = 200_000_000

// Ablation is the result of the three ablations.
type Ablation struct {
	// Record format: bytes per reconstructed reference of the
	// address-only stream (Ultrix style: one word per basic block, its
	// length resolved through the static side table, §3.5) and of the
	// same stream with a length word in every block record (Tunix
	// style, §3.4).
	AddrOnlyBytesPerRef, InLenBytesPerRef float64

	// Register strategy: text growth under link-time stealing (the
	// compiler uses every register; epoxie shadows the trace registers
	// where live, §3.2) and under compiler reservation (the compiler
	// never touches them, §3.4), and reservation's uninstrumented text
	// over stealing's: reservation taxes every binary, traced or not,
	// where stealing pays only in instrumented blocks. StealResult and
	// ReserveResult are the v0 each instrumented binary returns.
	StealGrowth, ReserveGrowth, ReserveOrigText float64
	StealResult, ReserveResult                  uint32

	// UTLB synthesis (§4.1): the trace-driven simulator's TLB misses,
	// and the instructions and memory stall cycles that synthesizing
	// the refill handler adds over the same references with synthesis
	// off.
	TLBMisses, SynthInstr, SynthStalls uint64
}

// Ablate runs the three ablations.
func Ablate() (*Ablation, error) {
	steal, stealV0, words, err := runStrategy(m.Options{})
	if err != nil {
		return nil, err
	}
	reserve, reserveV0, _, err := runStrategy(m.Options{ReserveXRegs: true})
	if err != nil {
		return nil, err
	}
	// The stealing binary's stream is the address-only format.
	p := trace.NewParser(nil)
	p.AddProcess(0, trace.NewSideTable(steal.Instr.Instr.Blocks))
	var refs refCount
	if err := p.ParseTo(words, &refs); err != nil {
		return nil, fmt.Errorf("ablation: %w", err)
	}
	growth := func(b *epoxie.Build) float64 { return float64(len(b.Instr.Text)) / float64(len(b.Orig.Text)) }
	on, off := utlbSim(true), utlbSim(false)
	return &Ablation{
		AddrOnlyBytesPerRef: float64(len(words)) * 4 / float64(refs),
		InLenBytesPerRef:    float64(uint64(len(words))+p.Records) * 4 / float64(refs),
		StealGrowth:         growth(steal),
		ReserveGrowth:       growth(reserve),
		ReserveOrigText:     float64(len(reserve.Orig.Text)) / float64(len(steal.Orig.Text)),
		StealResult:         stealV0,
		ReserveResult:       reserveV0,
		TLBMisses:           on.TLB.Misses,
		SynthInstr:          on.Instr - off.Instr,
		SynthStalls:         on.MemStalls() - off.MemStalls(),
	}, nil
}

// runStrategy compiles the ablation module under opt, instruments it
// for the bare harness and runs it, returning the build, the v0 it
// returns, and its trace words.
func runStrategy(opt m.Options) (*epoxie.Build, uint32, []uint32, error) {
	o, err := ablationModule().Compile(opt)
	if err != nil {
		return nil, 0, nil, err
	}
	b, err := epoxie.BuildInstrumented([]*obj.File{sim.TracedStartObj(), o}, link.Options{
		Name: "ablation", TextBase: sim.BareTextBase, DataBase: sim.BareDataBase,
	}, epoxie.Config{}, epoxie.BareRuntime)
	if err != nil {
		return nil, 0, nil, err
	}
	v0, mach, err := sim.RunResult(b.Instr, ablationBudget)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("ablation: %w", err)
	}
	return b, v0, sim.TraceWords(mach), nil
}

// refCount is a trace.Sink that counts references.
type refCount uint64

func (c *refCount) Fetch(_ trace.Event, n int) { *c += refCount(n) }
func (c *refCount) Ref(trace.Event)            { *c++ }

// utlbSim feeds a user working set of 64 pages, touched in a scattered
// order over eight sweeps so refills are plentiful, through a
// trace-driven simulator with UTLB-handler synthesis on or off.
func utlbSim(synth bool) *memsys.TraceSim {
	s := memsys.NewTraceSim(memsys.DECstation5000(), memsys.PolicySequential, 16384, 1)
	if !synth {
		s.UTLBHandlerN = 0
	}
	for sweep := uint32(0); sweep < 8; sweep++ {
		for p := uint32(0); p < 64; p++ {
			page := (p*17 + sweep) % 64
			s.Fetch(trace.Event{Kind: trace.EvIFetch, Addr: 0x00400000 + page*4096 + (p%16)*64, Size: 4}, 1)
			s.Ref(trace.Event{Kind: trace.EvLoad, Addr: 0x10000000 + page*4096, Size: 4})
		}
	}
	return s
}

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
