package dataflow

import "systrace/internal/isa"

// Forward abstract interpretation: per-register abstract values over
// the same CFG the liveness solver uses. The value lattice per
// register is
//
//	⊥  (VBot)    unreached
//	const(k)     the register provably holds the 32-bit constant k
//	sp+δ         entry stack pointer of the enclosing function, plus δ
//	gp+δ         entry global pointer of the enclosing function, plus δ
//	base+δ       the value loaded by one static load site, plus δ
//	⊤  (VTop)    anything
//
// sp+δ and gp+δ are anchored at the enclosing function's entry, so
// they relate register values to one frame without knowing the frame's
// runtime address. base+δ value-numbers the result of one load site:
// two registers carrying base(s)+δ1 and base(s)+δ2 provably differ by
// δ2-δ1, because both are copies of the value produced by the most
// recent execution of site s — to keep that true in loops, executing a
// load site invalidates every other register still carrying its old
// result.
//
// Soundness convention (the dual of liveness): the abstract value
// over-approximates the concrete one. A register reported const/sp+δ/
// gp+δ/base+δ is guaranteed to hold exactly that value on every
// modeled path; every unknown — merged disagreeing paths, untracked
// arithmetic, unresolved control flow, reloc-patched immediates, the
// kernel registers k0/k1 (asynchronously clobbered by interrupt
// handlers), escaped block addresses — degrades to ⊤. The FuzzAbsInt
// oracle checks this against a concrete single-path simulator.
//
// Interprocedural conservatism matches the stack-height pass this
// lattice subsumes: a call preserves sp and gp (the ABI restores sp
// and never repoints gp) and nothing else; a function entry starts at
// sp+0/gp+0 with every other register ⊤, which also covers indirect
// entries (tail calls, jump tables into function entries), since the
// anchors are defined at the moment of entry.

// ValKind classifies an abstract value.
type ValKind uint8

const (
	VBot   ValKind = iota // unreached
	VConst                // Off is the value
	VSP                   // function-entry sp, plus Off
	VGP                   // function-entry gp, plus Off
	VBase                 // load site Base's result, plus Off
	VTop                  // unknown
)

// AbsVal is one register's abstract value. Base is the load site's
// unique key (block key + word offset) for VBase, zero otherwise; Off
// is the value for VConst and the displacement for the pointer kinds.
// Kind comes last so the struct packs into 16 bytes.
type AbsVal struct {
	Base uint64
	Off  int32
	Kind ValKind
}

// Top and Bot are the lattice extremes.
var (
	Top = AbsVal{Kind: VTop}
	Bot = AbsVal{Kind: VBot}
)

// Const builds a constant abstract value.
func Const(v int32) AbsVal { return AbsVal{Kind: VConst, Off: v} }

// Known reports whether v is one of the informative kinds (not ⊥/⊤).
func (v AbsVal) Known() bool { return v.Kind > VBot && v.Kind < VTop }

// Add displaces v by d (32-bit wraparound); ⊥/⊤ absorb.
func (v AbsVal) Add(d int32) AbsVal {
	if !v.Known() {
		return v
	}
	v.Off += d
	return v
}

// Diff returns v - u when both are known, anchored the same way
// (same kind and, for base+δ, the same load site).
func (v AbsVal) Diff(u AbsVal) (int32, bool) {
	if !v.Known() || v.Kind != u.Kind || v.Base != u.Base {
		return 0, false
	}
	return v.Off - u.Off, true
}

// RegVals is the abstract state over the 32 GPRs. Index 0 is unused;
// read registers through Reg.
type RegVals [32]AbsVal

// Reg returns register r's abstract value (register 0 reads as
// const 0).
func (v *RegVals) Reg(r int) AbsVal {
	if r == 0 {
		return Const(0)
	}
	return v[r]
}

// set writes register r's abstract value. Register 0 is immutable and
// the kernel temporaries k0/k1 are never tracked: an interrupt may
// clobber them between any two instructions.
func (v *RegVals) set(r int, val AbsVal) {
	if r <= 0 || r >= 32 {
		return
	}
	if r == isa.RegK0 || r == isa.RegK1 {
		val = Top
	}
	v[r] = val
}

// EA returns the abstract effective address of memory instruction w
// under state v: value(base) + signext(imm).
func EA(v *RegVals, w isa.Word) AbsVal {
	i := isa.Decode(w)
	return v.Reg(i.Rs).Add(int32(int16(i.Imm)))
}

// joinVal merges two abstract values: equal values keep, ⊥ is the
// identity, anything else is ⊤.
func joinVal(a, b AbsVal) AbsVal {
	switch {
	case a == b, b.Kind == VBot:
		return a
	case a.Kind == VBot:
		return b
	}
	return Top
}

// topState is the all-⊤ state (modulo the implicit const-0 register 0).
func topState() RegVals {
	var s RegVals
	for r := 1; r < 32; r++ {
		s[r] = Top
	}
	return s
}

// entryState is the canonical function-entry state: sp and gp anchored
// at zero displacement, everything else unknown. This is correct for
// any entry into the function — direct call, tail call, or an indirect
// jump to its entry — because the anchors are defined by that entry.
func entryState() RegVals {
	s := topState()
	s[isa.RegSP] = AbsVal{Kind: VSP}
	s[isa.RegGP] = AbsVal{Kind: VGP}
	return s
}

// killBase invalidates every register still carrying load site
// `site`'s previous result (the site is about to produce a new one).
func killBase(st *RegVals, site uint64) {
	for r := 1; r < 32; r++ {
		if st[r].Kind == VBase && st[r].Base == site {
			st[r] = Top
		}
	}
}

// binOp evaluates an ALU operation over abstract values.
func binOp(funct uint32, a, b AbsVal) AbsVal {
	ca, cb := a.Kind == VConst, b.Kind == VConst
	switch funct {
	case isa.FnADDU:
		switch {
		case cb:
			return a.Add(b.Off)
		case ca:
			return b.Add(a.Off)
		}
	case isa.FnSUBU:
		if cb {
			return a.Add(-b.Off)
		}
		if d, ok := a.Diff(b); ok {
			return Const(d)
		}
	case isa.FnOR, isa.FnXOR:
		switch {
		case ca && cb && funct == isa.FnOR:
			return Const(a.Off | b.Off)
		case ca && cb:
			return Const(a.Off ^ b.Off)
		case cb && b.Off == 0:
			return a
		case ca && a.Off == 0:
			return b
		}
	case isa.FnAND:
		switch {
		case ca && cb:
			return Const(a.Off & b.Off)
		case ca && a.Off == 0, cb && b.Off == 0:
			return Const(0)
		}
	case isa.FnNOR:
		if ca && cb {
			return Const(^(a.Off | b.Off))
		}
	case isa.FnSLT:
		if ca && cb {
			return boolConst(a.Off < b.Off)
		}
	case isa.FnSLTU:
		if ca && cb {
			return boolConst(uint32(a.Off) < uint32(b.Off))
		}
	case isa.FnSLLV:
		if ca && cb {
			return Const(int32(uint32(b.Off) << (uint32(a.Off) & 31)))
		}
	case isa.FnSRLV:
		if ca && cb {
			return Const(int32(uint32(b.Off) >> (uint32(a.Off) & 31)))
		}
	case isa.FnSRAV:
		if ca && cb {
			return Const(b.Off >> (uint32(a.Off) & 31))
		}
	}
	return Top
}

func boolConst(b bool) AbsVal {
	if b {
		return Const(1)
	}
	return Const(0)
}

// valTransferWord applies one instruction's forward value transfer to
// st in place. site is the word's unique key (for value-numbering load
// results).
func valTransferWord(b *block, i int, st *RegVals) {
	if isTransparent(b, i) {
		// A trace-runtime call: bbtrace/memtrace preserve every
		// register they touch except ra (restored from the bookkeeping
		// area, possibly stale), the assembler temporary, and the two
		// scratch xregs they own.
		st.set(isa.RegRA, Top)
		st.set(isa.RegAT, Top)
		st.set(isa.XReg1, Top)
		st.set(isa.XReg2, Top)
		return
	}
	w := b.words[i]
	if b.relocd != nil && b.relocd[i] {
		// The word's immediate or target field is relocation-patched:
		// the encoded bits are not what will execute. Clobber the def
		// (if any) and model nothing else.
		if d := isa.Defs(w); d > 0 {
			st.set(d, Top)
		}
		return
	}
	d := isa.Decode(w)
	simm := int32(int16(d.Imm))
	switch d.Op {
	case isa.OpSpecial:
		switch d.Funct {
		case isa.FnSLL:
			if v := st.Reg(d.Rt); v.Kind == VConst {
				st.set(d.Rd, Const(int32(uint32(v.Off)<<d.Shamt)))
			} else if d.Shamt == 0 {
				st.set(d.Rd, v)
			} else {
				st.set(d.Rd, Top)
			}
		case isa.FnSRL:
			if v := st.Reg(d.Rt); v.Kind == VConst {
				st.set(d.Rd, Const(int32(uint32(v.Off)>>d.Shamt)))
			} else if d.Shamt == 0 {
				st.set(d.Rd, v)
			} else {
				st.set(d.Rd, Top)
			}
		case isa.FnSRA:
			if v := st.Reg(d.Rt); v.Kind == VConst {
				st.set(d.Rd, Const(v.Off>>d.Shamt))
			} else if d.Shamt == 0 {
				st.set(d.Rd, v)
			} else {
				st.set(d.Rd, Top)
			}
		case isa.FnSYSCALL, isa.FnBREAK:
			// The kernel's register effects are untracked; only the
			// stack and global pointers are assumed preserved (the
			// same ABI assumption the stack-height pass always made).
			sp, gp := st[isa.RegSP], st[isa.RegGP]
			*st = topState()
			st[isa.RegSP], st[isa.RegGP] = sp, gp
		case isa.FnJR, isa.FnMTHI, isa.FnMTLO, isa.FnMULT, isa.FnMULTU, isa.FnDIV, isa.FnDIVU:
			// No GPR def.
		default:
			if wr := isa.Defs(w); wr > 0 {
				switch d.Funct {
				case isa.FnADDU, isa.FnSUBU, isa.FnAND, isa.FnOR, isa.FnXOR,
					isa.FnNOR, isa.FnSLT, isa.FnSLTU, isa.FnSLLV, isa.FnSRLV, isa.FnSRAV:
					st.set(wr, binOp(d.Funct, st.Reg(d.Rs), st.Reg(d.Rt)))
				default:
					// JALR, MFHI, MFLO, anything untracked.
					st.set(wr, Top)
				}
			}
		}
	case isa.OpADDIU:
		st.set(d.Rt, st.Reg(d.Rs).Add(simm))
	case isa.OpORI:
		if v := st.Reg(d.Rs); v.Kind == VConst {
			st.set(d.Rt, Const(v.Off|int32(uint32(d.Imm))))
		} else if d.Imm == 0 {
			st.set(d.Rt, v)
		} else {
			st.set(d.Rt, Top)
		}
	case isa.OpXORI:
		if v := st.Reg(d.Rs); v.Kind == VConst {
			st.set(d.Rt, Const(v.Off^int32(uint32(d.Imm))))
		} else if d.Imm == 0 {
			st.set(d.Rt, v)
		} else {
			st.set(d.Rt, Top)
		}
	case isa.OpANDI:
		if v := st.Reg(d.Rs); v.Kind == VConst {
			st.set(d.Rt, Const(v.Off&int32(uint32(d.Imm))))
		} else {
			st.set(d.Rt, Top)
		}
	case isa.OpSLTI:
		if v := st.Reg(d.Rs); v.Kind == VConst {
			st.set(d.Rt, boolConst(v.Off < simm))
		} else {
			st.set(d.Rt, Top)
		}
	case isa.OpSLTIU:
		if v := st.Reg(d.Rs); v.Kind == VConst {
			st.set(d.Rt, boolConst(uint32(v.Off) < uint32(simm)))
		} else {
			st.set(d.Rt, Top)
		}
	case isa.OpLUI:
		st.set(d.Rt, Const(int32(uint32(d.Imm)<<16)))
	case isa.OpJAL:
		st.set(isa.RegRA, Top)
	case isa.OpLB, isa.OpLH, isa.OpLW, isa.OpLBU, isa.OpLHU:
		site := b.key + uint64(i)*4
		killBase(st, site)
		st.set(d.Rt, AbsVal{Kind: VBase, Base: site})
	default:
		if wr := isa.Defs(w); wr > 0 {
			st.set(wr, Top)
		}
	}
}

// joinVals merges a reaching state into a block's value-in and reports
// whether it changed. A nil (⊥) value-in adopts the state, in the
// block's slot of p.vals.
func (p *Program) joinVals(bi int, st *RegVals) bool {
	b := &p.blocks[bi]
	if b.valIn == nil {
		p.vals[bi] = *st
		b.valIn = &p.vals[bi]
		return true
	}
	changed := false
	for r := 1; r < 32; r++ {
		if j := joinVal(b.valIn[r], st[r]); j != b.valIn[r] {
			b.valIn[r] = j
			changed = true
		}
	}
	return changed
}

// solveValues runs the forward worklist to the least fixpoint over the
// value lattice. Seeds: every function entry gets the canonical entry
// state, and every block whose address escapes into data or a
// non-jump relocation (a jump-table target, a handler vector) gets ⊤,
// since an indirect jump may enter it with any state.
func (p *Program) solveValues() {
	n := len(p.blocks)
	p.vals = make([]RegVals, n)
	inWL := make([]bool, n)
	var wl []int
	push := func(i int) {
		if i >= 0 && !inWL[i] {
			inWL[i] = true
			wl = append(wl, i)
		}
	}
	es := entryState()
	entryOf := make([]bool, n)
	for _, f := range p.fns {
		if f.entry >= 0 {
			entryOf[f.entry] = true
			if p.joinVals(f.entry, &es) {
				push(f.entry)
			}
		}
	}
	top := topState()
	for i := range p.blocks {
		// Escaped non-entry blocks can be entered with arbitrary state.
		// Function entries are exempt: the entry state covers indirect
		// entry by construction.
		if p.blocks[i].poisoned && !entryOf[i] && p.joinVals(i, &top) {
			push(i)
		}
	}

	for len(wl) > 0 {
		bi := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		inWL[bi] = false
		p.stats.ValPasses++

		b := &p.blocks[bi]
		if b.valIn == nil {
			continue
		}
		out := *b.valIn
		for i := range b.words {
			valTransferWord(b, i, &out)
		}

		// flow propagates out-state to an intraprocedural successor.
		// Edges that cross a function boundary carry a different frame
		// anchor: a target that is its function's entry is covered by
		// the entry seed; any other cross-function target degrades
		// to ⊤.
		flow := func(ti int, st *RegVals) {
			if ti < 0 {
				return
			}
			t := &p.blocks[ti]
			if t.fn != b.fn {
				if entryOf[ti] {
					return
				}
				st = &top
			}
			if p.joinVals(ti, st) {
				push(ti)
			}
		}
		switch b.kind {
		case termFall:
			flow(b.next, &out)
		case termBranch:
			flow(b.target, &out)
			flow(b.next, &out)
		case termJump:
			flow(b.target, &out)
		case termCall, termCallUnknown:
			// The callee starts from the entry seed; the return point
			// resumes with sp and gp preserved (the ABI restores sp and
			// never repoints gp) and everything else unknown.
			ret := topState()
			ret[isa.RegSP] = out[isa.RegSP]
			ret[isa.RegGP] = out[isa.RegGP]
			flow(b.next, &ret)
		}
		// termTailCall: the target is a function entry (seed covers).
		// termRet / termJumpUnknown: no modeled successors; unknown
		// jump targets are covered by the poisoned-block seeding.
	}
}

// ValCursor reads the abstract register state at successive points
// of a block. Walking a block's points in increasing order costs one
// forward pass over the block in all; a query for an earlier point, or
// for another block, restarts from that block's value-in.
type ValCursor struct {
	f  *Facts
	b  *block // nil until a query finds a reached block
	k  int    // st is the state immediately before word k of b
	st RegVals
}

// Values returns a cursor over f's value states. Each caller that
// queries in order keeps its own.
func (f *Facts) Values() *ValCursor { return &ValCursor{f: f} }

// At returns the abstract register values immediately before
// instruction k of the block at off (k == NInstr gives the exit
// state). ok is false when the block is unknown or unreached. The
// state belongs to the cursor: it is valid until the next call.
func (c *ValCursor) At(off uint32, k int) (*RegVals, bool) {
	if c.b == nil || c.b.key != c.f.hi|uint64(off) || k < c.k {
		c.b = c.f.lookup(off)
		if c.b == nil || c.b.valIn == nil {
			c.b = nil
			return nil, false
		}
		c.st, c.k = *c.b.valIn, 0
	}
	if k < 0 || k > len(c.b.words) {
		return nil, false
	}
	for ; c.k < k; c.k++ {
		valTransferWord(c.b, c.k, &c.st)
	}
	return &c.st, true
}
