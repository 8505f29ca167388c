package epoxie_test

import (
	"testing"

	"systrace/internal/asm"
	"systrace/internal/cpu"
	"systrace/internal/dataflow"
	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/sim"
	"systrace/internal/trace"
	"systrace/internal/userland"
	"systrace/internal/verify"
	"systrace/internal/workload"
)

// refObserver reconstructs the reference event stream by watching the
// uninstrumented program execute on the interpreter — the paper's
// validation method: "comparing epoxie trace for deterministic user
// programs to trace from a CPU simulator" (§4.3).
type refObserver struct {
	ranges   []addrRange
	events   []trace.Event
	inRegion bool
}

type addrRange struct{ lo, hi uint32 }

func newRefObserver(e *obj.Executable) *refObserver {
	o := &refObserver{}
	for _, b := range e.Blocks {
		if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) == 0 {
			o.ranges = append(o.ranges, addrRange{b.Addr, b.Addr + uint32(b.NInstr)*4})
		}
	}
	return o
}

func (o *refObserver) within(va uint32) bool {
	for _, r := range o.ranges {
		if va >= r.lo && va < r.hi {
			return true
		}
	}
	return false
}

func (o *refObserver) Fetch(va, pa uint32, kernel, cached bool) {
	o.inRegion = o.within(va)
	if o.inRegion {
		o.events = append(o.events, trace.Event{Kind: trace.EvIFetch, Addr: va, Size: 4})
	}
}

// FetchRun is its n Fetch calls, by the Observer contract.
func (o *refObserver) FetchRun(va, pa uint32, n int, kernel, cached bool) {
	for k := uint32(0); k < uint32(n); k++ {
		o.Fetch(va+4*k, pa+4*k, kernel, cached)
	}
}

func (o *refObserver) Load(va, pa uint32, size int, kernel, cached bool) {
	if o.inRegion {
		o.events = append(o.events, trace.Event{Kind: trace.EvLoad, Addr: va, Size: int8(size)})
	}
}

func (o *refObserver) Store(va, pa uint32, size int, kernel, cached bool) {
	if o.inRegion {
		o.events = append(o.events, trace.Event{Kind: trace.EvStore, Addr: va, Size: int8(size)})
	}
}

func (o *refObserver) Exception(code int, vector uint32) {}
func (o *refObserver) FPOp(latency int)                  {}

// buildPair compiles and links a module both ways.
func buildPair(t *testing.T, mod *m.Module, cfg epoxie.Config) *epoxie.Build {
	t.Helper()
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	objs := []*obj.File{sim.TracedStartObj(), o}
	b, err := epoxie.BuildInstrumented(objs, link.Options{
		Name:     mod.Name,
		TextBase: sim.BareTextBase,
		DataBase: sim.BareDataBase,
	}, cfg, epoxie.BareRuntime)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	return b
}

// checkTrace runs both images and compares the parsed epoxie trace
// against the interpreter reference, event for event.
func checkTrace(t *testing.T, mod *m.Module, cfg epoxie.Config) (origV, instV uint32) {
	t.Helper()
	return checkBuildTrace(t, buildPair(t, mod, cfg))
}

// checkBuildTrace runs both images of a finished build and compares the
// parsed epoxie trace against the interpreter reference, event for
// event.
func checkBuildTrace(t *testing.T, b *epoxie.Build) (origV, instV uint32) {
	t.Helper()

	// Reference: uninstrumented run under the observer.
	mach := sim.NewBareMachine(b.Orig)
	ref := newRefObserver(b.Orig)
	mach.CPU.Obs = ref
	if err := mach.Run(100_000_000); err != nil {
		t.Fatalf("reference run: %v", err)
	}
	origV = mach.CPU.GPR[2]

	// Traced run.
	tm := sim.NewBareMachine(b.Instr)
	if err := tm.Run(400_000_000); err != nil {
		t.Fatalf("traced run: %v", err)
	}
	instV = tm.CPU.GPR[2]
	if origV != instV {
		t.Fatalf("instrumentation changed program behavior: orig v0=0x%x traced v0=0x%x", origV, instV)
	}

	words := sim.TraceWords(tm)
	if len(words) == 0 {
		t.Fatal("traced run produced no trace")
	}
	table := trace.NewSideTable(b.Instr.Instr.Blocks)
	p := trace.NewParser(nil)
	p.AddProcess(0, table)
	events, err := p.Parse(words, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}

	if len(events) != len(ref.events) {
		t.Fatalf("event count: trace %d, simulator %d", len(events), len(ref.events))
	}
	for i := range events {
		g, w := events[i], ref.events[i]
		if g.Kind != w.Kind || g.Addr != w.Addr || g.Size != w.Size {
			t.Fatalf("event %d: trace %v@0x%08x/%d, simulator %v@0x%08x/%d",
				i, g.Kind, g.Addr, g.Size, w.Kind, w.Addr, w.Size)
		}
	}
	return origV, instV
}

func TestTraceMatchesSimulatorLoops(t *testing.T) {
	mod := m.NewModule("loops")
	mod.Global("arr", 256)
	f := mod.Func("main", m.TInt)
	// Enough locals to pin into s5..s7 so register stealing is
	// exercised on real code.
	f.Locals("a", "b", "c", "d", "e", "g", "h", "i", "sum")
	f.Code(func(bl *m.Block) {
		bl.Assign("sum", m.I(0))
		bl.For("i", m.I(0), m.I(64), func(bl *m.Block) {
			bl.StoreW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))), m.Mul(m.V("i"), m.I(3)))
		})
		bl.For("i", m.I(0), m.I(64), func(bl *m.Block) {
			bl.Assign("sum", m.Add(m.V("sum"), m.LoadW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))))))
		})
		bl.Return(m.V("sum"))
	})
	if v, _ := checkTrace(t, mod, epoxie.Config{}); v != 6048 {
		t.Errorf("result %d want 6048", v)
	}
}

func TestTraceMatchesSimulatorCalls(t *testing.T) {
	mod := m.NewModule("calls")
	fib := mod.Func("fib", m.TInt)
	fib.Param("n", m.TInt)
	fib.Code(func(bl *m.Block) {
		bl.If(m.Lt(m.V("n"), m.I(2)), func(bl *m.Block) { bl.Return(m.V("n")) }, nil)
		bl.Return(m.Add(m.Call("fib", m.Sub(m.V("n"), m.I(1))), m.Call("fib", m.Sub(m.V("n"), m.I(2)))))
	})
	f := mod.Func("main", m.TInt)
	f.Code(func(bl *m.Block) { bl.Return(m.Call("fib", m.I(10))) })
	if v, _ := checkTrace(t, mod, epoxie.Config{}); v != 55 {
		t.Errorf("fib(10) = %d want 55", v)
	}
}

func TestTraceMatchesSimulatorSubword(t *testing.T) {
	mod := m.NewModule("subword")
	mod.Global("buf", 64)
	f := mod.Func("main", m.TInt)
	f.Locals("i", "sum")
	f.Code(func(bl *m.Block) {
		bl.For("i", m.I(0), m.I(32), func(bl *m.Block) {
			bl.StoreB(m.Add(m.Addr("buf", 0), m.V("i")), m.Mul(m.V("i"), m.I(7)))
		})
		bl.Assign("sum", m.I(0))
		bl.For("i", m.I(0), m.I(16), func(bl *m.Block) {
			bl.Assign("sum", m.Add(m.V("sum"),
				m.Load(m.Add(m.Addr("buf", 0), m.Mul(m.V("i"), m.I(2))), 2, false)))
		})
		bl.Return(m.V("sum"))
	})
	checkTrace(t, mod, epoxie.Config{})
}

func TestTraceMatchesSimulatorFloat(t *testing.T) {
	mod := m.NewModule("fptrace")
	mod.Global("vec", 128)
	f := mod.Func("main", m.TInt)
	f.Locals("i")
	f.FLocals("acc")
	f.Code(func(bl *m.Block) {
		bl.For("i", m.I(0), m.I(16), func(bl *m.Block) {
			bl.StoreF(m.Add(m.Addr("vec", 0), m.Mul(m.V("i"), m.I(8))),
				m.FMul(m.ToFloat(m.V("i")), m.F(1.5)))
		})
		bl.Assign("acc", m.F(0))
		bl.For("i", m.I(0), m.I(16), func(bl *m.Block) {
			bl.Assign("acc", m.FAdd(m.FV("acc"),
				m.LoadF(m.Add(m.Addr("vec", 0), m.Mul(m.V("i"), m.I(8))))))
		})
		bl.Return(m.ToInt(m.FV("acc"))) // 1.5 * 120 = 180
	})
	if v, _ := checkTrace(t, mod, epoxie.Config{}); v != 180 {
		t.Errorf("got %d want 180", v)
	}
}

func TestTraceMatchesSimulatorFuncPtr(t *testing.T) {
	mod := m.NewModule("fptr")
	inc := mod.Func("inc", m.TInt)
	inc.Param("x", m.TInt)
	inc.Code(func(bl *m.Block) { bl.Return(m.Add(m.V("x"), m.I(1))) })
	dbl := mod.Func("dbl", m.TInt)
	dbl.Param("x", m.TInt)
	dbl.Code(func(bl *m.Block) { bl.Return(m.Mul(m.V("x"), m.I(2))) })
	mod.DataAddrs("ops", []string{"inc", "dbl"})
	f := mod.Func("main", m.TInt)
	f.Locals("i", "acc")
	f.Code(func(bl *m.Block) {
		bl.Assign("acc", m.I(3))
		bl.For("i", m.I(0), m.I(8), func(bl *m.Block) {
			bl.Assign("acc", m.CallVia(
				m.LoadW(m.Add(m.Addr("ops", 0), m.Mul(m.And(m.V("i"), m.I(1)), m.I(4)))),
				m.V("acc")))
		})
		bl.Return(m.V("acc"))
	})
	// ((((3+1)*2+1)*2+1)*2+1)*2 = inc,dbl ×4: 3→4→8→9→18→19→38→39→78
	if v, _ := checkTrace(t, mod, epoxie.Config{}); v != 78 {
		t.Errorf("got %d want 78", v)
	}
}

func TestTraceMatchesSimulatorOrigMode(t *testing.T) {
	mod := m.NewModule("origmode")
	mod.Global("a", 64)
	f := mod.Func("main", m.TInt)
	f.Locals("i", "s")
	f.Code(func(bl *m.Block) {
		bl.Assign("s", m.I(0))
		bl.For("i", m.I(0), m.I(10), func(bl *m.Block) {
			bl.StoreW(m.Add(m.Addr("a", 0), m.Mul(m.V("i"), m.I(4))), m.V("i"))
			bl.Assign("s", m.Add(m.V("s"), m.LoadW(m.Add(m.Addr("a", 0), m.Mul(m.V("i"), m.I(4))))))
		})
		bl.Return(m.V("s"))
	})
	if v, _ := checkTrace(t, mod, epoxie.Config{Orig: true}); v != 45 {
		t.Errorf("got %d want 45", v)
	}
}

// TestTextGrowth verifies the §3.2 growth bands: the modified epoxie
// stays under ~2.5x, the original style lands in 4-6x.
func TestTextGrowth(t *testing.T) {
	mod := growthWorkload()
	b := buildPair(t, mod, epoxie.Config{})
	g := b.Instr.Instr.GrowthFactor()
	if g < 1.5 || g > 2.6 {
		t.Errorf("modified epoxie growth %.2f, want ~1.9-2.3", g)
	}

	mod2 := growthWorkload()
	b2 := buildPair(t, mod2, epoxie.Config{Orig: true})
	g2 := b2.Instr.Instr.GrowthFactor()
	if g2 < 3.4 || g2 > 6.5 {
		t.Errorf("original epoxie growth %.2f, want ~4-6", g2)
	}
	if g2 <= g {
		t.Errorf("original mode (%.2f) should be larger than modified (%.2f)", g2, g)
	}
}

func growthWorkload() *m.Module {
	mod := m.NewModule("growth")
	mod.Global("data", 4096)
	f := mod.Func("main", m.TInt)
	f.Locals("i", "j", "s")
	f.Code(func(bl *m.Block) {
		bl.Assign("s", m.I(0))
		bl.For("i", m.I(0), m.I(8), func(bl *m.Block) {
			bl.For("j", m.I(0), m.I(8), func(bl *m.Block) {
				bl.StoreW(m.Add(m.Addr("data", 0), m.Mul(m.Add(m.Mul(m.V("i"), m.I(8)), m.V("j")), m.I(4))), m.V("j"))
				bl.Assign("s", m.Add(m.V("s"), m.V("j")))
			})
		})
		bl.Return(m.V("s"))
	})
	return mod
}

// TestDefensiveTracing injects corruption into a valid trace and
// checks the redundancy checks catch it (§4.3).
func TestDefensiveTracing(t *testing.T) {
	mod := m.NewModule("defense")
	mod.Global("a", 64)
	f := mod.Func("main", m.TInt)
	f.Locals("i")
	f.Code(func(bl *m.Block) {
		bl.For("i", m.I(0), m.I(8), func(bl *m.Block) {
			bl.StoreW(m.Add(m.Addr("a", 0), m.Mul(m.V("i"), m.I(4))), m.V("i"))
		})
		bl.Return(m.I(0))
	})
	b := buildPair(t, mod, epoxie.Config{})
	tm := sim.NewBareMachine(b.Instr)
	if err := tm.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	words := sim.TraceWords(tm)
	table := trace.NewSideTable(b.Instr.Instr.Blocks)

	table.SetTextRange(b.Orig.TextBase, b.Orig.TextEnd())
	parseAll := func(ws []uint32) error {
		p := trace.NewParser(nil)
		p.AddProcess(0, table)
		if _, err := p.Parse(ws, nil); err != nil {
			return err
		}
		return p.Finish()
	}
	if err := parseAll(words); err != nil {
		t.Fatalf("clean trace rejected: %v", err)
	}

	// Classify each word (record vs memory reference) from the clean
	// parse so corruptions can be targeted.
	isRecord := make([]bool, len(words))
	{
		pending := 0
		for i, w := range words {
			if pending > 0 {
				pending--
				continue
			}
			b := table.Lookup(w)
			if b == nil {
				t.Fatalf("clean trace word %d unparseable", i)
			}
			isRecord[i] = true
			pending = len(b.Mem)
		}
	}

	// Overwriting any record with a non-record value must be caught.
	for i := range words {
		if !isRecord[i] {
			continue
		}
		ovr := append([]uint32(nil), words...)
		ovr[i] = 0x12345678
		if parseAll(ovr) == nil {
			t.Fatalf("overwritten record at %d accepted", i)
		}
	}

	// Dropping memory-reference words: the stream slips and is caught
	// when a data address lands where a record must be, a record
	// address lands where a store effective address must be, or the
	// final block ends incomplete. A slip absorbed entirely by load
	// addresses can escape — "a very high probability" (§4.3), not
	// certainty — so require a high detection rate, not perfection.
	detected, total := 0, 0
	for i := range words {
		if isRecord[i] {
			continue
		}
		del := append([]uint32(nil), words[:i]...)
		del = append(del, words[i+1:]...)
		total++
		if parseAll(del) != nil {
			detected++
		}
	}
	if detected*100 < total*90 {
		t.Errorf("dropped-reference detection rate %d/%d, want >= 90%%", detected, total)
	}

	// Dropping records: detectable unless the block generated no
	// memory references (a one-word entry vanishing leaves a
	// perfectly consistent stream — "detected with a very high
	// probability", §4.3, not certainty). Require detection for all
	// blocks that have memory references.
	for i := range words {
		if !isRecord[i] {
			continue
		}
		if b := table.Lookup(words[i]); len(b.Mem) == 0 {
			continue
		}
		del := append([]uint32(nil), words[:i]...)
		del = append(del, words[i+1:]...)
		if parseAll(del) == nil {
			t.Fatalf("dropped record (with refs) at %d accepted", i)
		}
	}
}

// TestFigure2 checks that instrumenting the paper's fopen-like shape
// produces the expected structure: prologue + memtrace per memory
// instruction, with the hazard case using an EA no-op.
func TestFigure2(t *testing.T) {
	out, err := epoxie.Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Before) == 0 || len(out.After) <= len(out.Before) {
		t.Fatalf("before=%d after=%d", len(out.Before), len(out.After))
	}
	// The paper's sequence grows 5 instructions to 13.
	if len(out.Before) != 5 || len(out.After) != 13 {
		t.Errorf("Figure 2 shape: before=%d after=%d, want 5 and 13", len(out.Before), len(out.After))
	}
}

// NewBareMachine lives in sim; reference it so the import is explicit
// about what the harness provides.
var _ = cpu.KSeg0Base

// TestVerifyWorkloadCorpus statically verifies every Table-1 workload
// under every runtime kind: the instrumentation the simulator would
// trust at runtime must also satisfy the rewriter's invariants on
// paper (internal/verify). Each workload is compiled once and relinked
// per runtime kind.
func TestVerifyWorkloadCorpus(t *testing.T) {
	kinds := []struct {
		name string
		kind epoxie.RuntimeKind
	}{
		{"user", epoxie.UserRuntime},
		{"kernel", epoxie.KernelRuntime},
		{"bare", epoxie.BareRuntime},
	}
	for _, spec := range workload.All() {
		objs := []*obj.File{userland.Crt0(true)}
		for _, mod := range []*m.Module{spec.Build(), userland.Libc()} {
			o, err := mod.Compile(m.Options{})
			if err != nil {
				t.Fatalf("%s: compile: %v", spec.Name, err)
			}
			objs = append(objs, o)
		}
		for _, k := range kinds {
			t.Run(spec.Name+"/"+k.name, func(t *testing.T) {
				b, err := epoxie.BuildInstrumented(objs, link.Options{
					Name: spec.Name, Entry: "_start",
					TextBase: obj.UserTextBase, DataBase: obj.UserDataBase,
				}, epoxie.Config{}, k.kind)
				if err != nil {
					t.Fatalf("instrument: %v", err)
				}
				res, err := verify.Executable(b.Instr)
				if err != nil {
					t.Fatalf("verify: %v", err)
				}
				for _, d := range res.Diags {
					t.Errorf("%s", d)
				}
				if res.Blocks == 0 {
					t.Error("no instrumented blocks verified")
				}
			})
		}
	}
}

// eaAsmObj hand-writes an fp-anchored frame — which the compiler never
// emits — so the EA strength reduction (rebasing provably sp-relative
// operands onto sp and routing them to the specialized memtrace_sp
// entry) is exercised and proven against the simulator reference. The
// second rebase candidate is a hazard load (rt == base) that the
// rebase dissolves.
func eaAsmObj(t *testing.T) *obj.File {
	t.Helper()
	a := asm.New("eaprog")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, uint16(0x10000-32)))
	a.I(isa.ADDU(isa.RegFP, isa.RegSP, isa.RegZero)) // fp := sp
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 0x1234))
	a.I(isa.SW(isa.RegT0, isa.RegFP, 8))  // rebased: sw t0,8(sp)
	a.I(isa.SW(isa.RegT0, isa.RegSP, 16)) // direct memtrace_sp
	a.I(isa.LW(isa.RegT1, isa.RegSP, 8))  // direct memtrace_sp
	a.I(isa.ADDU(isa.RegT3, isa.RegFP, isa.RegZero))
	a.I(isa.LW(isa.RegT3, isa.RegT3, 16)) // hazard, dissolved by rebase to 16(sp)
	a.I(isa.ADDU(isa.RegV0, isa.RegT1, isa.RegZero))
	a.I(isa.ADDU(isa.RegV0, isa.RegV0, isa.RegT3))
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 32))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestEAStrengthReduction(t *testing.T) {
	build := func(fl epoxie.FlowMode) *epoxie.Build {
		b, err := epoxie.BuildInstrumented(
			[]*obj.File{sim.TracedStartObj(), eaAsmObj(t)},
			link.Options{Name: "ea", TextBase: sim.BareTextBase, DataBase: sim.BareDataBase},
			epoxie.Config{Flow: fl}, epoxie.BareRuntime)
		if err != nil {
			t.Fatalf("instrument (flow %d): %v", fl, err)
		}
		return b
	}
	runTraced := func(b *epoxie.Build) uint64 {
		tm := sim.NewBareMachine(b.Instr)
		if err := tm.Run(400_000_000); err != nil {
			t.Fatalf("traced run: %v", err)
		}
		return tm.CPU.Stat.Instret
	}

	on := build(epoxie.FlowOn)
	fl := on.Instr.Instr.Flow
	if fl.EARebased < 2 {
		t.Errorf("EARebased = %d, want >= 2 (plain store + hazard load)", fl.EARebased)
	}
	if fl.EASpecial < 4 {
		t.Errorf("EASpecial = %d, want >= 4", fl.EASpecial)
	}
	if len(fl.EARebases) != fl.EARebased {
		t.Errorf("EARebases records %d != EARebased %d", len(fl.EARebases), fl.EARebased)
	}
	if _, ok := on.Instr.Symbol("memtrace_sp"); !ok {
		t.Fatal("memtrace_sp missing from instrumented image")
	}
	var store, load bool
	for _, w := range on.Instr.Text {
		store = store || w == isa.SW(isa.RegT0, isa.RegSP, 8)
		load = load || w == isa.LW(isa.RegT3, isa.RegSP, 16)
	}
	if !store || !load {
		t.Errorf("rebased slots missing in FlowOn text (store %v, load %v)", store, load)
	}
	// Dynamic proof: trace events identical to the simulator reference.
	if _, v := checkBuildTrace(t, on); v != 0x2468 {
		t.Errorf("traced v0 = %#x, want 0x2468", v)
	}
	requireCleanVerify(t, on.Instr)

	// Layout parity: FlowPadded keeps FlowOff's exact text size and
	// block addresses while carrying the rebased operands, so the
	// differential oracle can prove the rebases with layout held fixed.
	off, pad := build(epoxie.FlowOff), build(epoxie.FlowPadded)
	if len(off.Instr.Text) != len(pad.Instr.Text) {
		t.Fatalf("text size: FlowOff %d words, FlowPadded %d", len(off.Instr.Text), len(pad.Instr.Text))
	}
	if len(off.Instr.Blocks) != len(pad.Instr.Blocks) {
		t.Fatalf("blocks: FlowOff %d, FlowPadded %d", len(off.Instr.Blocks), len(pad.Instr.Blocks))
	}
	for i := range off.Instr.Blocks {
		if off.Instr.Blocks[i].Addr != pad.Instr.Blocks[i].Addr {
			t.Fatalf("block %d: FlowOff head 0x%08x, FlowPadded 0x%08x",
				i, off.Instr.Blocks[i].Addr, pad.Instr.Blocks[i].Addr)
		}
	}
	if pad.Instr.Instr.Flow.EARebased < 2 {
		t.Errorf("FlowPadded EARebased = %d, want >= 2", pad.Instr.Instr.Flow.EARebased)
	}
	checkBuildTrace(t, off)
	checkBuildTrace(t, pad)

	// The specialized runtime path must actually be cheaper.
	onN, offN := runTraced(on), runTraced(off)
	if onN >= offN {
		t.Errorf("FlowOn retired %d instructions, FlowOff %d: specialization saved nothing", onN, offN)
	}
}

// requireCleanVerify asserts the image passes the static verifier.
func requireCleanVerify(t *testing.T, e *obj.Executable) {
	t.Helper()
	res, err := verify.Executable(e)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	for _, d := range res.Diags {
		t.Errorf("verifier diagnostic: %s", d)
	}
}

// TestStaticCostModel runs the dataflow trace-cost model over an
// instrumented doubly nested loop and checks its structural facts:
// full coverage of the recorded blocks, the nesting detected, the
// per-entry cost bounded by the real block costs, and the
// instrumentation growth accounted per function.
func TestStaticCostModel(t *testing.T) {
	b := buildPair(t, growthWorkload(), epoxie.Config{})
	c, err := dataflow.StaticCostTraced(b.Instr)
	if err != nil {
		t.Fatal(err)
	}
	if c.Blocks != len(b.Instr.Instr.Blocks) {
		t.Errorf("model covers %d blocks, image records %d", c.Blocks, len(b.Instr.Instr.Blocks))
	}
	if c.MaxDepth < 2 {
		t.Errorf("max loop depth %d, want >= 2 for a doubly nested loop", c.MaxDepth)
	}
	// Per-entry cost is a weighted mean of 1+|Mem| over blocks, so it
	// must sit inside the per-block extremes.
	lo, hi := 1<<30, 0
	for i := range b.Instr.Instr.Blocks {
		w := 1 + len(b.Instr.Instr.Blocks[i].Mem)
		if w < lo {
			lo = w
		}
		if w > hi {
			hi = w
		}
	}
	if wpb := c.WordsPerBlock(); wpb < float64(lo) || wpb > float64(hi) {
		t.Errorf("words/block %.2f outside block-cost range [%d,%d]", wpb, lo, hi)
	}
	if c.AddedInstr <= 0 || c.AddedPerInstr() <= 0 {
		t.Errorf("no instrumentation growth accounted: %+v", c)
	}
	var mainFn *dataflow.FuncCost
	for i := range c.Funcs {
		if c.Funcs[i].Name == "main" {
			mainFn = &c.Funcs[i]
		}
	}
	if mainFn == nil {
		t.Fatal("no per-function row for main")
	}
	if mainFn.Depth < 2 || mainFn.Blocks == 0 || mainFn.WordsPerInstr() <= 0 {
		t.Errorf("main row implausible: %+v", mainFn)
	}

	// The inner loop must dominate the weighted mix: the model's
	// words/instr should be closer to the hot inner blocks' ratio than
	// an unweighted average would be. Sanity-bound it to (0, 2].
	if wpi := c.WordsPerInstr(); wpi <= 0 || wpi > 2 {
		t.Errorf("words/instr %.3f implausible", wpi)
	}
}
