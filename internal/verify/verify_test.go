package verify_test

import (
	"strings"
	"testing"

	"systrace/internal/asm"
	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/link"
	m "systrace/internal/mahler"
	"systrace/internal/obj"
	"systrace/internal/sim"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/verify"
)

// buildModule instruments a mahler module the way epoxie_test does.
func buildModule(t *testing.T, mod *m.Module, kind epoxie.RuntimeKind) *epoxie.Build {
	t.Helper()
	o, err := mod.Compile(m.Options{})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return buildObjs(t, mod.Name, []*obj.File{sim.TracedStartObj(), o}, kind)
}

func buildObjs(t *testing.T, name string, objs []*obj.File, kind epoxie.RuntimeKind) *epoxie.Build {
	t.Helper()
	b, err := epoxie.BuildInstrumented(objs, link.Options{
		Name:     name,
		TextBase: sim.BareTextBase,
		DataBase: sim.BareDataBase,
	}, epoxie.Config{}, kind)
	if err != nil {
		t.Fatalf("instrument: %v", err)
	}
	return b
}

// testModule exercises loops, calls, stolen-register pressure, and
// memory traffic.
func testModule() *m.Module {
	mod := m.NewModule("verifyprog")
	mod.Global("arr", 256)
	fib := mod.Func("fib", m.TInt)
	fib.Param("n", m.TInt)
	fib.Code(func(bl *m.Block) {
		bl.If(m.Lt(m.V("n"), m.I(2)), func(bl *m.Block) { bl.Return(m.V("n")) }, nil)
		bl.Return(m.Add(m.Call("fib", m.Sub(m.V("n"), m.I(1))), m.Call("fib", m.Sub(m.V("n"), m.I(2)))))
	})
	f := mod.Func("main", m.TInt)
	// Enough locals to pin into s5..s7 so register stealing shows up.
	f.Locals("a", "b", "c", "d", "e", "g", "h", "i", "sum")
	f.Code(func(bl *m.Block) {
		bl.Assign("sum", m.I(0))
		bl.For("i", m.I(0), m.I(16), func(bl *m.Block) {
			bl.StoreW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))), m.Mul(m.V("i"), m.I(3)))
		})
		bl.For("i", m.I(0), m.I(16), func(bl *m.Block) {
			bl.Assign("sum", m.Add(m.V("sum"), m.LoadW(m.Add(m.Addr("arr", 0), m.Mul(m.V("i"), m.I(4))))))
		})
		bl.Return(m.Add(m.V("sum"), m.Call("fib", m.I(6))))
	})
	return mod
}

// hoistObj hand-writes code with a memory instruction in a branch
// delay slot (so the rewriter must hoist it) plus a backward branch
// and a known plain instruction for targeted mutations.
func hoistObj(t *testing.T) *obj.File {
	t.Helper()
	a := asm.New("hoistprog")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 7)) // known-plain mutation target
	a.Label("top")
	a.I(isa.SW(isa.RegT0, isa.RegSP, 64))
	a.I(isa.ADDIU(isa.RegT0, isa.RegT0, 0xffff)) // t0--
	a.Br(isa.BNE(isa.RegT0, isa.RegZero, 0), "top")
	a.I(isa.NOP)
	a.I(isa.JR(isa.RegRA))
	a.I(isa.LW(isa.RegV0, isa.RegSP, 64)) // delay-slot load: must be hoisted
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func cloneExe(e *obj.Executable) *obj.Executable {
	ne := *e
	ne.Text = append([]isa.Word(nil), e.Text...)
	ii := *e.Instr
	ii.Blocks = append([]obj.InstrBlock(nil), e.Instr.Blocks...)
	ii.Flow.EARebases = append([]obj.EARebase(nil), e.Instr.Flow.EARebases...)
	ne.Instr = &ii
	return &ne
}

func mustVerify(t *testing.T, e *obj.Executable) *verify.Result {
	t.Helper()
	res, err := verify.Executable(e)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	return res
}

func requireClean(t *testing.T, e *obj.Executable) *verify.Result {
	t.Helper()
	res := mustVerify(t, e)
	if !res.Clean() {
		for _, d := range res.Diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
		t.Fatalf("%s: %d diagnostics on a stock build", e.Name, len(res.Diags))
	}
	return res
}

// setWord overwrites one text word by address.
func setWord(t *testing.T, e *obj.Executable, addr uint32, w isa.Word) {
	t.Helper()
	if addr < e.TextBase || addr >= e.TextEnd() {
		t.Fatalf("address 0x%08x outside text", addr)
	}
	e.Text[(addr-e.TextBase)/4] = w
}

// findWord returns the address of the first instrumented-block word
// satisfying pred.
func findWord(t *testing.T, e *obj.Executable, pred func(addr uint32, w isa.Word) bool) uint32 {
	t.Helper()
	for _, b := range e.Blocks {
		if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) != 0 {
			continue
		}
		for k := int32(0); k < b.NInstr; k++ {
			addr := b.Addr + uint32(k)*4
			if pred(addr, e.Text[(addr-e.TextBase)/4]) {
				return addr
			}
		}
	}
	t.Fatal("no matching instruction found")
	return 0
}

func firstInstrumentedHead(t *testing.T, e *obj.Executable) uint32 {
	t.Helper()
	for _, b := range e.Blocks {
		if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) == 0 {
			return b.Addr
		}
	}
	t.Fatal("no instrumented block")
	return 0
}

func assertRuleFires(t *testing.T, res *verify.Result, rule string) verify.Diag {
	t.Helper()
	for _, d := range res.Diags {
		if d.Rule == rule {
			return d
		}
	}
	t.Fatalf("rule %s did not fire; got %d diagnostics: %v", rule, len(res.Diags), res.Diags)
	return verify.Diag{}
}

func TestVerifyCleanBuilds(t *testing.T) {
	for _, kind := range []epoxie.RuntimeKind{epoxie.UserRuntime, epoxie.KernelRuntime, epoxie.BareRuntime} {
		b := buildModule(t, testModule(), kind)
		res := requireClean(t, b.Instr)
		for _, rule := range []string{verify.RuleBBHead, verify.RuleMemTrace, verify.RuleSteal,
			verify.RuleBranchTarget, verify.RuleSideTable} {
			if res.Checks[rule] == 0 {
				t.Errorf("kind %d: rule %s never checked", kind, rule)
			}
		}
		if res.Blocks == 0 {
			t.Error("no instrumented blocks walked")
		}
	}
}

func TestVerifyCleanHoist(t *testing.T) {
	b := buildObjs(t, "hoist", []*obj.File{sim.TracedStartObj(), hoistObj(t)}, epoxie.BareRuntime)
	res := requireClean(t, b.Instr)
	if res.Checks[verify.RuleHoist] == 0 {
		t.Fatal("hoist rule never checked despite a delay-slot memory instruction")
	}
}

func TestVerifyErrors(t *testing.T) {
	if _, err := verify.Executable(nil); err == nil {
		t.Error("nil executable accepted")
	}
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	if _, err := verify.Executable(b.Orig); err == nil {
		t.Error("uninstrumented executable accepted")
	}
	o, err := testModule().Compile(m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ob, err := epoxie.BuildInstrumented([]*obj.File{sim.TracedStartObj(), o}, link.Options{
		Name: "origmode", TextBase: sim.BareTextBase, DataBase: sim.BareDataBase,
	}, epoxie.Config{Orig: true}, epoxie.BareRuntime)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := verify.Executable(ob.Instr); err == nil ||
		!strings.Contains(err.Error(), "epoxie-orig") {
		t.Errorf("orig-mode image: want unsupported-tool error, got %v", err)
	}
}

// Mutation tests: each corrupts one aspect of a stock build and
// asserts the exact rule fires.

func TestMutationBBHeadSavedRA(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	head := firstInstrumentedHead(t, e)
	setWord(t, e, head, isa.NOP)
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleBBHead)
	if d.Addr != head {
		t.Errorf("diagnostic at 0x%08x, mutation at 0x%08x", d.Addr, head)
	}
}

func TestMutationBBHeadJal(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	head := firstInstrumentedHead(t, e)
	setWord(t, e, head+4, isa.NOP)
	assertRuleFires(t, mustVerify(t, e), verify.RuleBBHead)
}

func TestMutationBBHeadLINop(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	head := firstInstrumentedHead(t, e)
	old := isa.LINopValue(e.Text[(head+8-e.TextBase)/4])
	if old < 0 {
		t.Fatal("no LINop at head+8")
	}
	setWord(t, e, head+8, isa.LINop(old+1))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleBBHead)
	if !strings.Contains(d.Msg, "trace-word count") {
		t.Errorf("wrong bb-head diagnostic: %s", d.Msg)
	}
}

func TestMutationMemTraceCallRemoved(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	mt := symbol(t, e, "memtrace")
	jal := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w>>26 == isa.OpJAL && isa.Decode(w).Target == isa.JTarget(mt)
	})
	setWord(t, e, jal, isa.NOP)
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleMemTrace)
	if !strings.Contains(d.Msg, "without a memtrace call") &&
		!strings.Contains(d.Msg, "side table expects") {
		t.Errorf("wrong mem-trace diagnostic: %s", d.Msg)
	}
}

func TestMutationMemTraceSlotNotMem(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	mt := symbol(t, e, "memtrace")
	jal := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w>>26 == isa.OpJAL && isa.Decode(w).Target == isa.JTarget(mt)
	})
	setWord(t, e, jal+4, isa.ADDU(isa.RegT0, isa.RegT0, isa.RegZero))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleMemTrace)
	if d.Addr != jal+4 && !strings.Contains(d.Msg, "side table expects") {
		t.Errorf("unexpected mem-trace diagnostic: %s", d)
	}
}

func TestMutationStolenRegisterUse(t *testing.T) {
	b := buildObjs(t, "hoist", []*obj.File{sim.TracedStartObj(), hoistObj(t)}, epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	// The known plain instruction from hoistObj, rewritten in place.
	plain := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w == isa.ADDIU(isa.RegT0, isa.RegZero, 7)
	})
	setWord(t, e, plain, isa.ADDU(isa.RegT0, isa.XReg1, isa.RegT0))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleSteal)
	if d.Addr != plain {
		t.Errorf("diagnostic at 0x%08x, mutation at 0x%08x", d.Addr, plain)
	}
}

func TestMutationBranchTarget(t *testing.T) {
	b := buildObjs(t, "hoist", []*obj.File{sim.TracedStartObj(), hoistObj(t)}, epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	br := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w>>26 == isa.OpBNE
	})
	w := e.Text[(br-e.TextBase)/4]
	// Push the target one word past the block head, into the prologue.
	setWord(t, e, br, w&^isa.Word(0xffff)|isa.Word(uint16(w)+1))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleBranchTarget)
	if d.Addr != br {
		t.Errorf("diagnostic at 0x%08x, mutation at 0x%08x", d.Addr, br)
	}
}

func TestMutationUnsafeHoist(t *testing.T) {
	b := buildObjs(t, "hoist", []*obj.File{sim.TracedStartObj(), hoistObj(t)}, epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	// The hoisted delay-slot load writes v0; retarget the jump through
	// v0 so the transfer now reads what the hoisted load clobbers.
	jr := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w == isa.JR(isa.RegRA)
	})
	setWord(t, e, jr, isa.JR(isa.RegV0))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleHoist)
	if !strings.Contains(d.Msg, "transfer reads") {
		t.Errorf("wrong hoist diagnostic: %s", d.Msg)
	}
}

func TestMutationHoistSlotNotCleared(t *testing.T) {
	b := buildObjs(t, "hoist", []*obj.File{sim.TracedStartObj(), hoistObj(t)}, epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	jr := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w == isa.JR(isa.RegRA)
	})
	setWord(t, e, jr+4, isa.SW(isa.RegV0, isa.RegSP, 64))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleHoist)
	if !strings.Contains(d.Msg, "not cleared") {
		t.Errorf("wrong hoist diagnostic: %s", d.Msg)
	}
}

func TestMutationSideTable(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	e.Instr.Blocks[0].RecordAddr += 4
	assertRuleFires(t, mustVerify(t, e), verify.RuleSideTable)

	e2 := cloneExe(b.Instr)
	e2.Instr.Blocks[0].OrigAddr = 0x1000 // below text base
	d := assertRuleFires(t, mustVerify(t, e2), verify.RuleSideTable)
	if !strings.Contains(d.Msg, "outside uninstrumented text") {
		t.Errorf("wrong side-table diagnostic: %s", d.Msg)
	}
}

// deadRegObj never returns: ra is dead in every block, so the rewriter
// emits lean prologues throughout, with a known plain instruction to
// mutate.
func deadRegObj(t *testing.T) *obj.File {
	t.Helper()
	a := asm.New("deadregprog")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 7)) // known-plain mutation target
	a.Label("spin")
	a.Jmp("spin")
	a.I(isa.NOP)
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMutationDeadRegRaLive(t *testing.T) {
	b := buildObjs(t, "deadreg", []*obj.File{sim.TracedStartObj(), deadRegObj(t)}, epoxie.BareRuntime)
	res := requireClean(t, b.Instr)
	if res.Checks[verify.RuleDeadReg] == 0 {
		t.Fatal("dead-reg rule never checked: build produced no lean blocks")
	}
	e := cloneExe(b.Instr)
	plain := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w == isa.ADDIU(isa.RegT0, isa.RegZero, 7)
	})
	blk := e.BlockFor(plain)
	if blk == nil || blk.Flags&obj.BBLeanPrologue == 0 {
		t.Fatal("mutation target is not inside a lean block")
	}
	// Inject the bug the rule exists for: the block is flagged lean (ra
	// assumed dead) but now reads ra before any definition, so the stale
	// value bbtrace restores would be consumed.
	setWord(t, e, plain, isa.ADDU(isa.RegT0, isa.RegRA, isa.RegZero))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleDeadReg)
	if d.Block != blk.Addr {
		t.Errorf("diagnostic for block 0x%08x, mutation in 0x%08x", d.Block, blk.Addr)
	}
	if !strings.Contains(d.Msg, "ra is live") {
		t.Errorf("wrong dead-reg diagnostic: %s", d.Msg)
	}
}

// clobberObj defines v1, runs an unrelated instruction, then reads v1 —
// so turning the definition into an unbracketed shadow load leaves v1
// live past the rewritten group.
func clobberObj(t *testing.T) *obj.File {
	t.Helper()
	a := asm.New("clobberprog")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegV1, isa.RegZero, 1))        // becomes the clobbering load
	a.I(isa.ADDU(isa.RegT0, isa.RegT0, isa.RegZero)) // the group's consumer
	a.I(isa.ADDU(isa.RegT1, isa.RegV1, isa.RegZero)) // keeps v1 live past it
	a.Label("spin")
	a.Jmp("spin")
	a.I(isa.NOP)
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestMutationLiveClobber(t *testing.T) {
	b := buildObjs(t, "clobber", []*obj.File{sim.TracedStartObj(), clobberObj(t)}, epoxie.BareRuntime)
	requireClean(t, b.Instr)
	e := cloneExe(b.Instr)
	site := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w == isa.ADDIU(isa.RegV1, isa.RegZero, 1)
	})
	// Inject the bug: an unbracketed borrowed-scratch shadow load (no
	// BookTmp save/restore around it) clobbering v1 while a later
	// instruction still reads it.
	setWord(t, e, site, isa.LW(isa.RegV1, isa.XReg3, trace.BookShadow1))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleLiveClobber)
	if d.Addr != site {
		t.Errorf("diagnostic at 0x%08x, mutation at 0x%08x", d.Addr, site)
	}
	if !strings.Contains(d.Msg, "live past the rewritten group") {
		t.Errorf("wrong live-clobber diagnostic: %s", d.Msg)
	}

	// Flow-awareness negative: the same unbracketed load is legal once
	// the later read is gone, because v1 is then provably dead at the
	// end of the group.
	e2 := cloneExe(b.Instr)
	setWord(t, e2, site, isa.LW(isa.RegV1, isa.XReg3, trace.BookShadow1))
	read := findWord(t, e2, func(_ uint32, w isa.Word) bool {
		return w == isa.ADDU(isa.RegT1, isa.RegV1, isa.RegZero)
	})
	setWord(t, e2, read, isa.ADDU(isa.RegT1, isa.RegT2, isa.RegZero))
	res := mustVerify(t, e2)
	if !res.Clean() {
		for _, d := range res.Diags {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	if res.Checks[verify.RuleLiveClobber] == 0 {
		t.Error("live-clobber rule never checked on the dead-scratch variant")
	}
}

// TestDiagOrderDeterministic: the same corrupted image yields the same
// diagnostics in the same order, every time.
func TestDiagOrderDeterministic(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	head := firstInstrumentedHead(t, e)
	setWord(t, e, head, isa.NOP)
	setWord(t, e, head+4, isa.NOP)
	e.Instr.Blocks[0].RecordAddr += 4
	first := mustVerify(t, e)
	if first.Clean() {
		t.Fatal("corrupted image verified clean")
	}
	for i := 0; i < 3; i++ {
		again := mustVerify(t, e)
		if len(again.Diags) != len(first.Diags) {
			t.Fatalf("run %d: %d diags, want %d", i, len(again.Diags), len(first.Diags))
		}
		for j := range again.Diags {
			if again.Diags[j] != first.Diags[j] {
				t.Fatalf("run %d diag %d: %v != %v", i, j, again.Diags[j], first.Diags[j])
			}
		}
	}
}

func TestRegisterMetrics(t *testing.T) {
	b := buildModule(t, testModule(), epoxie.BareRuntime)
	e := cloneExe(b.Instr)
	head := firstInstrumentedHead(t, e)
	setWord(t, e, head, isa.NOP)
	res := mustVerify(t, e)

	reg := telemetry.New()
	res.RegisterMetrics(reg, telemetry.L("image", e.Name))
	snap := reg.Snapshot()
	mdiag, ok := snap.Get("verify_diags_total",
		telemetry.L("image", e.Name), telemetry.L("rule", verify.RuleBBHead))
	if !ok || mdiag.Value < 1 {
		t.Fatalf("verify_diags_total{rule=bb-head} = %v (found %v)", mdiag.Value, ok)
	}
	mpass, ok := snap.Get("verify_checks_total", telemetry.L("image", e.Name),
		telemetry.L("rule", verify.RuleMemTrace), telemetry.L("result", "pass"))
	if !ok || mpass.Value < 1 {
		t.Fatalf("verify_checks_total{rule=mem-trace,result=pass} = %v (found %v)", mpass.Value, ok)
	}
	if mb, ok := snap.Get("verify_blocks_total", telemetry.L("image", e.Name)); !ok || mb.Value < 1 {
		t.Fatal("verify_blocks_total missing")
	}
}

// eaObj hand-writes an fp-anchored frame — which the compiler never
// emits — so the rewriter provably rebases a memory operand onto sp,
// plus an sp-based reference (specialized to memtrace_sp) and an
// unknown-base reference (general memtrace) for targeted mutations.
func eaObj(t *testing.T) *obj.File {
	t.Helper()
	a := asm.New("eaprog")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, uint16(0x10000-32)))
	a.I(isa.ADDU(isa.RegFP, isa.RegSP, isa.RegZero)) // fp := sp
	a.I(isa.SW(isa.RegT0, isa.RegFP, 8))             // rebased to 8(sp), routed to memtrace_sp
	a.I(isa.LW(isa.RegT1, isa.RegSP, 16))            // already sp-based: memtrace_sp
	a.I(isa.LW(isa.RegT2, isa.RegA0, 0))             // unknown base: general memtrace
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 32))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f, err := a.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func buildEA(t *testing.T) *epoxie.Build {
	t.Helper()
	return buildObjs(t, "ea", []*obj.File{sim.TracedStartObj(), eaObj(t)}, epoxie.BareRuntime)
}

func TestVerifyCleanEARebase(t *testing.T) {
	b := buildEA(t)
	res := requireClean(t, b.Instr)
	fl := b.Instr.Instr.Flow
	if fl.EARebased < 1 || len(fl.EARebases) != fl.EARebased {
		t.Fatalf("EARebased = %d with %d records, want >= 1 and equal", fl.EARebased, len(fl.EARebases))
	}
	if fl.EASpecial < 2 {
		t.Fatalf("EASpecial = %d, want >= 2 (rebased store + direct sp load)", fl.EASpecial)
	}
	if res.Checks[verify.RuleAddrClass] == 0 {
		t.Error("addr-class rule never checked")
	}
	if res.Checks[verify.RuleRedundantEA] == 0 {
		t.Error("redundant-ea rule never checked")
	}
	reb := fl.EARebases[0]
	if got := b.Instr.Text[(reb.Addr-b.Instr.TextBase)/4]; got != isa.SW(isa.RegT0, isa.RegSP, 8) {
		t.Errorf("rebased slot word = %#x, want sw t0,8(sp)", uint32(got))
	}
	if reb.OrigBase != isa.RegFP || reb.NewBase != isa.RegSP {
		t.Errorf("rebase record %s -> %s, want fp -> sp",
			isa.RegName(int(reb.OrigBase)), isa.RegName(int(reb.NewBase)))
	}
}

func TestMutationRedundantEAEncoding(t *testing.T) {
	b := buildEA(t)
	e := cloneExe(b.Instr)
	reb := e.Instr.Flow.EARebases[0]
	setWord(t, e, reb.Addr, isa.SW(isa.RegT0, isa.RegSP, 12))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleRedundantEA)
	if !strings.Contains(d.Msg, "does not encode") {
		t.Errorf("wrong redundant-ea diagnostic: %s", d.Msg)
	}
}

func TestMutationRedundantEAUnprovable(t *testing.T) {
	b := buildEA(t)
	e := cloneExe(b.Instr)
	// Claim the rebase proved t5+8 == sp+8; t5 is unknown there, so the
	// verifier's independent re-proof must fail.
	e.Instr.Flow.EARebases[0].OrigBase = isa.RegT5
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleRedundantEA)
	if !strings.Contains(d.Msg, "re-prove") {
		t.Errorf("wrong redundant-ea diagnostic: %s", d.Msg)
	}
}

func TestMutationAddrClassSPRoute(t *testing.T) {
	b := buildEA(t)
	e := cloneExe(b.Instr)
	slot := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w == isa.LW(isa.RegT1, isa.RegSP, 16)
	})
	setWord(t, e, slot, isa.LW(isa.RegT1, isa.RegT0, 16))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleAddrClass)
	if !strings.Contains(d.Msg, "not sp") {
		t.Errorf("wrong addr-class diagnostic: %s", d.Msg)
	}
}

func TestMutationAddrClassNullPage(t *testing.T) {
	b := buildEA(t)
	e := cloneExe(b.Instr)
	slot := findWord(t, e, func(_ uint32, w isa.Word) bool {
		return w == isa.LW(isa.RegT2, isa.RegA0, 0)
	})
	setWord(t, e, slot, isa.LW(isa.RegT2, isa.RegZero, 256))
	d := assertRuleFires(t, mustVerify(t, e), verify.RuleAddrClass)
	if !strings.Contains(d.Msg, "null page") {
		t.Errorf("wrong addr-class diagnostic: %s", d.Msg)
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
