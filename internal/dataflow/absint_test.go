package dataflow

import (
	"strings"
	"testing"

	"systrace/internal/asm"
	"systrace/internal/isa"
	"systrace/internal/obj"
)

func wantVal(t *testing.T, st *RegVals, ok bool, r int, want AbsVal, what string) {
	t.Helper()
	if !ok {
		t.Fatalf("%s: no value facts", what)
	}
	if got := st.Reg(r); got != want {
		t.Errorf("%s: %s = %+v, want %+v", what, isa.RegName(r), got, want)
	}
}

// TestValueTracking drives the core lattice through one block:
// constants materialize through lui/ori, pointer arithmetic keeps the
// sp anchor, and moves propagate values unchanged.
func TestValueTracking(t *testing.T) {
	a := asm.New("t")
	a.Func("main", 0)
	a.I(isa.LUI(isa.RegT0, 0x1234))
	a.I(isa.ORI(isa.RegT0, isa.RegT0, 0x5678))
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xffe0)) // -32
	a.I(isa.ADDU(isa.RegFP, isa.RegSP, isa.RegZero))
	a.I(isa.ADDIU(isa.RegT1, isa.RegFP, 8))
	a.I(isa.SUBU(isa.RegT2, isa.RegT1, isa.RegSP)) // same-anchor diff
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	st, ok := facts.Values().At(0, 6)
	wantVal(t, st, ok, isa.RegT0, Const(0x12345678), "lui/ori const")
	wantVal(t, st, ok, isa.RegSP, AbsVal{Kind: VSP, Off: -32}, "sp after frame push")
	wantVal(t, st, ok, isa.RegFP, AbsVal{Kind: VSP, Off: -32}, "fp = move from sp")
	wantVal(t, st, ok, isa.RegT1, AbsVal{Kind: VSP, Off: -24}, "fp-relative addiu")
	wantVal(t, st, ok, isa.RegT2, Const(8), "subu of same-anchor pointers")
	// Register 0 always reads as const 0; k0/k1 are never tracked.
	wantVal(t, st, ok, isa.RegZero, Const(0), "zero register")
	wantVal(t, st, ok, isa.RegK0, Top, "k0 untracked")
}

// TestHeightEpilogues is the satellite-1 regression: the old dedicated
// height pass went to ⊤ on any sp write other than addiu. Through the
// value lattice, a frame-pointer epilogue (move sp,fp) and a
// constant-register pop (addu sp,sp,rK) keep the height known, while a
// genuinely dynamic alloca-style adjust still degrades to unknown —
// until sp is rebuilt from a value anchored to the entry frame.
func TestHeightEpilogues(t *testing.T) {
	a := asm.New("t")
	a.Func("fpframe", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xffe0)) // -32
	a.I(isa.ADDU(isa.RegFP, isa.RegSP, isa.RegZero))
	a.I(isa.SUBU(isa.RegSP, isa.RegSP, isa.RegA0)) // alloca: sp unknown
	a.Label("dynamic")
	a.I(isa.ADDU(isa.RegT0, isa.RegZero, isa.RegZero))
	a.I(isa.ADDU(isa.RegSP, isa.RegFP, isa.RegZero)) // epilogue: sp = fp
	a.Label("restored")
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 32))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	a.Func("constpop", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xfff0)) // -16
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 16))
	a.I(isa.ADDU(isa.RegSP, isa.RegSP, isa.RegT0)) // pop by known-const reg
	a.Label("popped")
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	if _, ok := facts.StackHeight(0xc); ok { // dynamic
		t.Errorf("height after alloca-style adjust should be unknown")
	}
	if h, ok := facts.StackHeight(0x14); !ok || h != -32 { // restored
		t.Errorf("height after move sp,fp = %d,%v want -32,true", h, ok)
	}
	if h, ok := facts.StackHeight(0x2c); !ok || h != 0 { // popped
		t.Errorf("height after addu sp,sp,rK = %d,%v want 0,true", h, ok)
	}
}

// TestValueJoin: agreeing paths keep the value, disagreeing paths meet
// at ⊤.
func TestValueJoin(t *testing.T) {
	a := asm.New("t")
	a.Func("main", 0)
	a.Br(isa.BEQ(isa.RegA0, isa.RegZero, 0), "other")
	a.I(isa.NOP)
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 7))
	a.I(isa.ADDIU(isa.RegT1, isa.RegZero, 1))
	a.Jmp("join")
	a.I(isa.NOP)
	a.Label("other")
	a.I(isa.ADDIU(isa.RegT0, isa.RegZero, 7))
	a.I(isa.ADDIU(isa.RegT1, isa.RegZero, 2))
	a.Label("join")
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	st, ok := facts.Values().At(0x20, 0) // join
	wantVal(t, st, ok, isa.RegT0, Const(7), "agreeing join")
	wantVal(t, st, ok, isa.RegT1, Top, "disagreeing join")
	wantVal(t, st, ok, isa.RegSP, AbsVal{Kind: VSP}, "sp across join")
}

// TestBaseValues: a load result is value-numbered by its static site,
// so displaced copies stay comparable, while two different load sites
// never compare.
func TestBaseValues(t *testing.T) {
	a := asm.New("t")
	a.Func("main", 0)
	a.I(isa.LW(isa.RegT0, isa.RegA0, 0))
	a.I(isa.ADDIU(isa.RegT1, isa.RegT0, 12))
	a.I(isa.LW(isa.RegT2, isa.RegA0, 0)) // different site, same operands
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	st, ok := facts.Values().At(0, 3)
	if !ok {
		t.Fatal("no value facts")
	}
	t0, t1, t2 := st.Reg(isa.RegT0), st.Reg(isa.RegT1), st.Reg(isa.RegT2)
	if t0.Kind != VBase || t1.Kind != VBase || t2.Kind != VBase {
		t.Fatalf("load results not base-valued: %+v %+v %+v", t0, t1, t2)
	}
	if d, ok := t1.Diff(t0); !ok || d != 12 {
		t.Errorf("t1-t0 = %d,%v want 12,true", d, ok)
	}
	if _, ok := t2.Diff(t0); ok {
		t.Errorf("different load sites must not compare")
	}
	// The effective address of a load through a tracked base.
	if ea := EA(st, isa.SW(isa.RegV0, isa.RegT1, 8)); ea != t0.Add(20) {
		t.Errorf("EA through displaced base = %+v, want %+v", ea, t0.Add(20))
	}
}

// TestCallClobbersValues: across a call only sp survives; across a
// syscall only sp and gp survive.
func TestCallClobbersValues(t *testing.T) {
	a := asm.New("t")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xfff8)) // -8
	a.I(isa.LUI(isa.RegS0, 1))
	a.JalSym("leaf")
	a.I(isa.NOP)
	a.Label("after")
	a.I(isa.SYSCALL())
	a.Label("postsys")
	a.I(isa.JR(isa.RegRA))
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 8))
	a.Func("leaf", 0)
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	st, ok := facts.Values().At(0x10, 0) // after
	wantVal(t, st, ok, isa.RegSP, AbsVal{Kind: VSP, Off: -8}, "sp across call")
	wantVal(t, st, ok, isa.RegS0, Top, "s0 across call (no callee summary)")
	wantVal(t, st, ok, isa.RegGP, AbsVal{Kind: VGP}, "gp across call")
	st, ok = facts.Values().At(0x14, 0) // postsys
	wantVal(t, st, ok, isa.RegSP, AbsVal{Kind: VSP, Off: -8}, "sp across syscall")
	wantVal(t, st, ok, isa.RegGP, AbsVal{Kind: VGP}, "gp across syscall")
	wantVal(t, st, ok, isa.RegRA, Top, "ra across syscall")
}

// TestRelocdNotFolded: an object-side word whose immediate carries a
// pending relocation (the la expansion) must not be constant-folded —
// the encoded bits are not what will execute.
func TestRelocdNotFolded(t *testing.T) {
	a := asm.New("t")
	a.Global("buf", 64)
	a.Func("main", 0)
	a.LA(isa.RegT0, "buf", 0)
	a.I(isa.JR(isa.RegRA))
	a.I(isa.NOP)
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	st, ok := facts.Values().At(0, 2)
	wantVal(t, st, ok, isa.RegT0, Top, "reloc-patched la result")
}

// TestPoisonedBlock: a block whose address escapes into data (a jump
// table slot targeting a mid-function label) is entered with ⊤ —
// indirect jumps may reach it with any state — while the same code
// without the escape keeps its facts. Function entries are exempt: the
// entry seed covers indirect entry by construction.
func TestPoisonedBlock(t *testing.T) {
	build := func(escape bool) *obj.File {
		a := asm.New("t")
		a.Func("main", 0)
		a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xfff0)) // -16
		a.Label("mid")
		a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 16))
		a.I(isa.JR(isa.RegRA))
		a.I(isa.NOP)
		if escape {
			a.DataWordSym("tbl", "main", 4) // address of mid
		}
		return a.MustFinish()
	}

	facts := analyze(t, build(false)).Object(0)
	if h, ok := facts.StackHeight(4); !ok || h != -16 {
		t.Errorf("unescaped mid height = %d,%v want -16,true", h, ok)
	}
	facts = analyze(t, build(true)).Object(0)
	if _, ok := facts.StackHeight(4); ok {
		t.Errorf("escaped mid block should be entered with unknown height")
	}
	// The entry itself stays seeded even when its address is taken.
	if h, ok := facts.StackHeight(0); !ok || h != 0 {
		t.Errorf("entry height = %d,%v want 0,true", h, ok)
	}
}

// TestIndirectJumpTable is the satellite edge case: jr through a
// pointer loaded from a data-section table. The jump itself degrades to
// an unknown terminator (all-live below), and every block named by the
// table is poisoned, so no stale frame facts survive into the landing
// sites.
func TestIndirectJumpTable(t *testing.T) {
	a := asm.New("t")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xfff8)) // -8
	a.LA(isa.RegT0, "table", 0)
	a.I(isa.LW(isa.RegT1, isa.RegT0, 0))
	a.I(isa.JR(isa.RegT1))
	a.I(isa.NOP)
	a.Label("case0")
	a.I(isa.ADDIU(isa.RegV0, isa.RegZero, 0))
	a.Jmp("out")
	a.I(isa.NOP)
	a.Label("case1")
	a.I(isa.ADDIU(isa.RegV0, isa.RegZero, 1))
	a.Label("out")
	a.I(isa.JR(isa.RegRA))
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 8))
	a.DataWordSym("table", "main", 0x18)   // case0
	a.DataWordSym("table_1", "main", 0x24) // case1
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	// The jr block: unknown targets mean all-live out.
	out, ok := facts.LiveOut(0)
	if !ok || out != isa.AllRegs {
		t.Errorf("jr-through-table live-out = %v, want all-live", out)
	}
	// Both table targets are poisoned: frame facts do not leak in.
	for _, off := range []uint32{0x18, 0x24} {
		if _, ok := facts.StackHeight(off); ok {
			t.Errorf("table target 0x%x should have unknown height", off)
		}
		st, ok := facts.Values().At(off, 0)
		wantVal(t, st, ok, isa.RegSP, Top, "table target sp")
	}
}

// TestSelfModifyingAdjacentText is the satellite edge case: code whose
// data section references text both as a jump target and as a store
// destination (patching-adjacent idioms). The referenced block must be
// poisoned, the store through the text pointer must not perturb value
// facts of neighbouring blocks, and analysis must stay well-formed.
func TestSelfModifyingAdjacentText(t *testing.T) {
	a := asm.New("t")
	a.Func("main", 0)
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 0xfff0)) // -16
	a.LA(isa.RegT0, "main", 0x14)                // address of patch
	a.I(isa.SW(isa.RegT1, isa.RegT0, 0))         // store into text
	a.Label("stay")
	a.I(isa.ADDU(isa.RegV0, isa.RegZero, isa.RegZero))
	a.Label("patch")
	a.I(isa.ADDIU(isa.RegV0, isa.RegV0, 1))
	a.I(isa.JR(isa.RegRA))
	a.I(isa.ADDIU(isa.RegSP, isa.RegSP, 16))
	f := a.MustFinish()
	facts := analyze(t, f).Object(0)

	// The patched block's address escaped through the la relocation:
	// entered with ⊤.
	if _, ok := facts.StackHeight(0x14); ok {
		t.Errorf("patch target should have unknown height")
	}
	// The adjacent block keeps its facts: the escape is block-grained,
	// not function-grained.
	if h, ok := facts.StackHeight(0x10); !ok || h != -16 {
		t.Errorf("adjacent block height = %d,%v want -16,true", h, ok)
	}
}

// TestZeroLengthBlocks is the satellite edge case: zero-length blocks
// at object boundaries are rejected with a namespaced error on both
// front ends, never a panic or a silent mis-analysis.
func TestZeroLengthBlocks(t *testing.T) {
	mk := func(blocks []obj.BasicBlock) *obj.File {
		return &obj.File{
			Name: "edge",
			Text: []isa.Word{isa.JR(isa.RegRA), isa.NOP},
			Syms: []obj.Symbol{
				{Name: "main", Section: obj.SecText, Off: 0, Defined: true, Func: true},
			},
			Blocks: blocks,
		}
	}
	for _, tc := range []struct {
		name   string
		blocks []obj.BasicBlock
	}{
		{"zero at start", []obj.BasicBlock{{Off: 0, NInstr: 0}, {Off: 0, NInstr: 2}}},
		{"zero at end", []obj.BasicBlock{{Off: 0, NInstr: 2}, {Off: 8, NInstr: 0}}},
		{"past the text", []obj.BasicBlock{{Off: 0, NInstr: 2}, {Off: 8, NInstr: 1}}},
	} {
		_, err := AnalyzeObjects([]*obj.File{mk(tc.blocks)})
		if err == nil {
			t.Errorf("%s: AnalyzeObjects accepted malformed blocks", tc.name)
		} else if !strings.HasPrefix(err.Error(), "dataflow:") {
			t.Errorf("%s: error namespace: %v", tc.name, err)
		}
	}
	// A second object whose first block is empty: the boundary between
	// objects must get the same treatment as within one.
	good := asm.New("a")
	good.Func("main", 0)
	good.I(isa.JR(isa.RegRA))
	good.I(isa.NOP)
	ga := good.MustFinish()
	if _, err := AnalyzeObjects([]*obj.File{ga, mk([]obj.BasicBlock{{Off: 0, NInstr: 0}})}); err == nil {
		t.Errorf("zero-length block in second object accepted")
	}
}
