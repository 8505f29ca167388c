package pixie_test

import (
	"testing"

	"systrace/internal/asm"
	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/pixie"
	"systrace/internal/sim"
	"systrace/internal/trace"
)

// buildOrig compiles a module into a bare uninstrumented executable
// (with the traced start stub so xreg3 bookkeeping exists).
func buildOrig(t *testing.T, mod *m.Module) *obj.Executable {
	t.Helper()
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	e, err := sim.BuildBare(mod.Name, o)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return e
}

func tracedStartModule() *m.Module {
	mod := m.NewModule("pxwork")
	mod.Global("arr", 512)
	fib := mod.Func("fib", m.TInt)
	fib.Param("n", m.TInt)
	fib.Code(func(b *m.Block) {
		b.If(m.Lt(m.V("n"), m.I(2)), func(b *m.Block) { b.Return(m.V("n")) }, nil)
		b.Return(m.Add(m.Call("fib", m.Sub(m.V("n"), m.I(1))), m.Call("fib", m.Sub(m.V("n"), m.I(2)))))
	})
	f := mod.Func("main", m.TInt)
	f.Locals("i", "s")
	f.Code(func(b *m.Block) {
		b.For("i", m.I(0), m.I(32), func(b *m.Block) {
			b.StoreW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))), m.Mul(m.V("i"), m.V("i")))
		})
		b.Assign("s", m.I(0))
		b.For("i", m.I(0), m.I(32), func(b *m.Block) {
			b.Assign("s", m.Add(m.V("s"), m.LoadW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))))))
		})
		b.Return(m.Add(m.V("s"), m.Call("fib", m.I(9))))
	})
	return mod
}

// rebuildWithTracedStart links with the traced start stub so the
// bookkeeping area is initialized.
func buildTraced(t *testing.T, mod *m.Module) *obj.Executable {
	t.Helper()
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	objs := []*obj.File{sim.TracedStartObj(), o}
	e, err := sim.BuildBareObjs(mod.Name, objs)
	if err != nil {
		t.Fatalf("link: %v", err)
	}
	return e
}

func TestPixieTraceCorrectness(t *testing.T) {
	orig := buildTraced(t, tracedStartModule())
	want := 32*31*63/6 + 34 // sum i^2 (0..31) + fib(9)

	// The uninstrumented program's answer.
	v0, _, err := sim.RunResult(orig, 100_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if int(v0) != want {
		t.Fatalf("orig result %d want %d", v0, want)
	}

	res, err := pixie.Rewrite(orig, pixie.ModeTrace)
	if err != nil {
		t.Fatal(err)
	}
	pm := sim.NewBareMachine(res.Exe)
	if err := pm.Run(500_000_000); err != nil {
		t.Fatalf("pixie run: %v", err)
	}
	if got := pm.CPU.GPR[2]; int(got) != want {
		t.Fatalf("pixie changed behavior: got %d want %d", got, want)
	}

	// Trace must parse cleanly and report the original addresses.
	words := sim.TraceWords(pm)
	if len(words) == 0 {
		t.Fatal("no trace produced")
	}
	table := trace.NewSideTable(res.Exe.Instr.Blocks)
	p := trace.NewParser(nil)
	p.AddProcess(0, table)
	events, err := p.Parse(words, nil)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	// Every fetch must be inside the original text.
	for _, ev := range events {
		if ev.Kind == trace.EvIFetch &&
			(ev.Addr < orig.TextBase || ev.Addr >= orig.TextEnd()) {
			t.Fatalf("fetch outside original text: 0x%x", ev.Addr)
		}
	}
}

func TestPixieGrowth(t *testing.T) {
	orig := buildTraced(t, tracedStartModule())
	res, err := pixie.Rewrite(orig, pixie.ModeTrace)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Exe.Instr.GrowthFactor()
	if g < 3.5 || g > 6.5 {
		t.Errorf("pixie growth %.2f, want ~4-6", g)
	}
}

func TestPixieCountMode(t *testing.T) {
	orig := buildTraced(t, tracedStartModule())
	res, err := pixie.Rewrite(orig, pixie.ModeCount)
	if err != nil {
		t.Fatal(err)
	}
	pm := sim.NewBareMachine(res.Exe)
	if err := pm.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	want := 32*31*63/6 + 34
	if got := pm.CPU.GPR[2]; int(got) != want {
		t.Fatalf("count mode changed behavior: got %d want %d", got, want)
	}

	counts := pixie.ReadCounts(pm.RAM, res)
	var total uint64
	for bi, c := range counts {
		total += uint64(c) * uint64(orig.Blocks[bi].NInstr)
	}
	if total == 0 {
		t.Fatal("no blocks counted")
	}
	// The dynamic instruction count from the counters must be close
	// to the original program's path length. (Not exact: the counters
	// also tick for crt0's uninstrumented... no — uninstrumented
	// blocks are not counted, so compare against a loose band.)
	if total < 1000 {
		t.Errorf("dynamic instruction count %d suspiciously small", total)
	}
}

// TestPixieDelaySlotShapes hand-assembles the call shapes the MIPS
// compiler emits that force pixie's terminator machinery: a jal whose
// delay slot holds a hoistable store, a jal whose delay slot writes a
// register unrelated to the target (hoisted), and an indirect call
// (jalr) whose delay slot writes the jump register itself — NOT
// hoistable, since the moved store would clobber the target address.
func TestPixieDelaySlotShapes(t *testing.T) {
	a := asm.New("shapes")
	a.Global("cell", 8)

	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xfff8)) // -8
	a.I(isa.SW(isa.RegRA, isa.RegSP, 0))
	// Hoistable: jal addfive with a store in the slot.
	a.LA(isa.RegT0, "cell", 0)
	a.I(isa.ORI(isa.RegA0, isa.RegZero, 10))
	a.JalSym("addfive")
	a.I(isa.SW(isa.RegA0, isa.RegT0, 0)) // slot: cell = 10 (hoist candidate)
	// v0 = 15 now; add the stored cell back.
	a.LA(isa.RegT0, "cell", 0)
	a.I(isa.LW(isa.RegT1, isa.RegT0, 0))
	a.I(isa.ADDU(isa.RegV0, isa.RegV0, isa.RegT1)) // 25
	// Indirect call: jalr through t2, slot must NOT be hoisted past
	// the call when it writes the jump register.
	a.LA(isa.RegT2, "addfive", 0)
	a.I(isa.ORI(isa.RegA0, isa.RegV0, 0))
	a.I(isa.JALR(isa.RegRA, isa.RegT2))
	a.I(isa.ORI(isa.RegT2, isa.RegZero, 0)) // slot clobbers t2
	// v0 = 30.
	a.I(isa.LW(isa.RegRA, isa.RegSP, 0))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 8))

	a.Func("addfive", 0)
	a.I(isa.ADDIU(isa.RegV0, isa.RegA0, 5))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)

	f := a.MustFinish()
	e, err := sim.BuildBareObjs("shapes", []*obj.File{sim.TracedStartObj(), f})
	if err != nil {
		t.Fatal(err)
	}

	v0, _, err := sim.RunResult(e, 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	if v0 != 30 {
		t.Fatalf("uninstrumented result %d want 30", v0)
	}

	res, err := pixie.Rewrite(e, pixie.ModeTrace)
	if err != nil {
		t.Fatal(err)
	}
	pm := sim.NewBareMachine(res.Exe)
	if err := pm.Run(10_000_000); err != nil {
		t.Fatalf("pixie run: %v", err)
	}
	if got := pm.CPU.GPR[2]; got != 30 {
		t.Fatalf("pixie changed behavior: %d want 30", got)
	}

	// The trace must parse and contain exactly two stores to `cell`
	// at its original data address.
	words := sim.TraceWords(pm)
	p := trace.NewParser(nil)
	p.AddProcess(0, trace.NewSideTable(res.Exe.Instr.Blocks))
	events, err := p.Parse(words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	cell := symbol(t, e, "cell")
	stores := 0
	for _, ev := range events {
		if ev.Kind == trace.EvStore && ev.Addr == cell {
			stores++
		}
	}
	if stores != 1 {
		t.Errorf("stores to cell in trace = %d want 1", stores)
	}
}

// TestEpoxiePixieAgree is the strongest cross-validation of the two
// instrumenters: the same program rewritten by epoxie (object-level,
// static correction) and by pixie (executable-level, runtime
// translation) must reconstruct the *identical* reference stream —
// same kinds, same original addresses, same order.
func TestEpoxiePixieAgree(t *testing.T) {
	mod := tracedStartModule()
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// epoxie side.
	eb, err := epoxie.BuildInstrumented([]*obj.File{sim.TracedStartObj(), o}, link.Options{
		Name: mod.Name, TextBase: sim.BareTextBase, DataBase: sim.BareDataBase,
	}, epoxie.Config{}, epoxie.BareRuntime)
	if err != nil {
		t.Fatal(err)
	}
	em := sim.NewBareMachine(eb.Instr)
	if err := em.Run(100_000_000); err != nil {
		t.Fatal(err)
	}
	pe := trace.NewParser(nil)
	pe.AddProcess(0, trace.NewSideTable(eb.Instr.Instr.Blocks))
	eEvents, err := pe.Parse(sim.TraceWords(em), nil)
	if err != nil {
		t.Fatal(err)
	}

	// pixie side: rewrite the same original executable.
	res, err := pixie.Rewrite(eb.Orig, pixie.ModeTrace)
	if err != nil {
		t.Fatal(err)
	}
	pm := sim.NewBareMachine(res.Exe)
	if err := pm.Run(500_000_000); err != nil {
		t.Fatal(err)
	}
	pp := trace.NewParser(nil)
	pp.AddProcess(0, trace.NewSideTable(res.Exe.Instr.Blocks))
	pEvents, err := pp.Parse(sim.TraceWords(pm), nil)
	if err != nil {
		t.Fatal(err)
	}

	if em.CPU.GPR[2] != pm.CPU.GPR[2] {
		t.Fatalf("results differ: epoxie %d pixie %d", em.CPU.GPR[2], pm.CPU.GPR[2])
	}
	if len(eEvents) != len(pEvents) {
		t.Fatalf("event counts differ: epoxie %d pixie %d", len(eEvents), len(pEvents))
	}
	for i := range eEvents {
		a, b := eEvents[i], pEvents[i]
		if a.Kind != b.Kind || a.Addr != b.Addr || a.Size != b.Size {
			t.Fatalf("event %d: epoxie %v@0x%08x/%d, pixie %v@0x%08x/%d",
				i, a.Kind, a.Addr, a.Size, b.Kind, b.Addr, b.Size)
		}
	}
}

// symbol returns the address of the named symbol in e, failing the
// test if e has none.
func symbol(t testing.TB, e *obj.Executable, name string) uint32 {
	t.Helper()
	a, ok := e.Symbol(name)
	if !ok {
		t.Fatalf("executable %s: no symbol %q", e.Name, name)
	}
	return a
}
