package isa

// Register use/def analysis. This file is the single source of truth
// for which register fields an instruction reads and writes: the
// rewriters (epoxie's register stealing, pixie), the static verifier
// (internal/verify), and the hazard checks all analyze instructions
// through these helpers, so a disagreement about an instruction's
// register behavior cannot arise between the tool that rewrites code
// and the tool that checks it.

// Uses returns the general-purpose registers read by w, in field order
// (rs before rt). Register 0 is omitted (reading it is free and
// rewriting it is never needed). UsesMask is the allocation-free form
// the rewriters and the dataflow engine call; the tests check it
// against this one.
func Uses(w Word) []int {
	i := Decode(w)
	add := func(dst []int, r int) []int {
		if r == 0 {
			return dst
		}
		for _, x := range dst {
			if x == r {
				return dst
			}
		}
		return append(dst, r)
	}
	var rs []int
	switch i.Op {
	case OpSpecial:
		switch i.Funct {
		case FnSLL, FnSRL, FnSRA:
			rs = add(rs, i.Rt)
		case FnJR, FnMTHI, FnMTLO:
			rs = add(rs, i.Rs)
		case FnJALR:
			rs = add(rs, i.Rs)
		case FnMFHI, FnMFLO, FnSYSCALL, FnBREAK:
		default:
			rs = add(rs, i.Rs)
			rs = add(rs, i.Rt)
		}
	case OpRegImm, OpBLEZ, OpBGTZ:
		rs = add(rs, i.Rs)
	case OpBEQ, OpBNE:
		rs = add(rs, i.Rs)
		rs = add(rs, i.Rt)
	case OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI:
		rs = add(rs, i.Rs)
	case OpLUI, OpJ, OpJAL:
	case OpLB, OpLH, OpLW, OpLBU, OpLHU, OpLWC1:
		rs = add(rs, i.Rs)
	case OpSB, OpSH, OpSW:
		rs = add(rs, i.Rs)
		rs = add(rs, i.Rt)
	case OpSWC1:
		rs = add(rs, i.Rs)
	case OpCOP0:
		if uint32(i.Rs) == Cop0MT {
			rs = add(rs, i.Rt)
		}
	case OpCOP1:
		if uint32(i.Rs) == Cop1MT {
			rs = add(rs, i.Rt)
		}
	}
	return rs
}

// Defs returns the general-purpose register written by w, or -1.
func Defs(w Word) int {
	i := Decode(w)
	switch i.Op {
	case OpSpecial:
		switch i.Funct {
		case FnJR, FnSYSCALL, FnBREAK, FnMTHI, FnMTLO, FnMULT, FnMULTU, FnDIV, FnDIVU:
			return -1
		}
		if i.Rd == 0 {
			return -1
		}
		return i.Rd
	case OpJAL:
		return RegRA
	case OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI, OpLUI,
		OpLB, OpLH, OpLW, OpLBU, OpLHU:
		if i.Rt == 0 {
			return -1
		}
		return i.Rt
	case OpCOP0:
		if uint32(i.Rs) == Cop0MF && i.Rt != 0 {
			return i.Rt
		}
	case OpCOP1:
		if uint32(i.Rs) == Cop1MF && i.Rt != 0 {
			return i.Rt
		}
	}
	return -1
}

// UsesReg reports whether w reads register r.
func UsesReg(w Word, r int) bool { return r < 32 && UsesMask(w).Has(r) }

// Touches reports whether w reads or writes register r.
func Touches(w Word, r int) bool { return Defs(w) == r || UsesReg(w, r) }

// FreeScratch returns the first candidate register not referenced by w
// (neither read nor written), or -1 if every candidate is in use. The
// rewriters use it to borrow a temporary around an instruction.
func FreeScratch(w Word, candidates []int) int {
	for _, cand := range candidates {
		if !Touches(w, cand) {
			return cand
		}
	}
	return -1
}

// Register field setters: patch one field in place, leaving every
// other bit of the word untouched (re-encoding through Decode/Encode
// would canonicalize fields some formats ignore).
func setRs(w Word, r int) Word { return w&^(0x1f<<21) | Word(r&0x1f)<<21 }
func setRt(w Word, r int) Word { return w&^(0x1f<<16) | Word(r&0x1f)<<16 }
func setRd(w Word, r int) Word { return w&^(0x1f<<11) | Word(r&0x1f)<<11 }

// MapRegs rewrites w's register fields: every read field r becomes
// mapRead(r) and every written field becomes mapWrite(r). The per-
// format field roles match Uses/Defs exactly (rt is a read for stores
// and branches but a write for loads and immediates; JALR reads rs and
// writes rd; shifts read rt). Fields an instruction does not use are
// left untouched.
func MapRegs(w Word, mapRead, mapWrite func(int) int) Word {
	i := Decode(w)
	switch i.Op {
	case OpSpecial:
		switch i.Funct {
		case FnJR:
			w = setRs(w, mapRead(i.Rs))
		case FnJALR:
			w = setRs(w, mapRead(i.Rs))
			w = setRd(w, mapWrite(i.Rd))
		case FnSLL, FnSRL, FnSRA:
			w = setRt(w, mapRead(i.Rt))
			w = setRd(w, mapWrite(i.Rd))
		case FnMFHI, FnMFLO:
			w = setRd(w, mapWrite(i.Rd))
		case FnMTHI, FnMTLO:
			w = setRs(w, mapRead(i.Rs))
		case FnMULT, FnMULTU, FnDIV, FnDIVU:
			w = setRs(w, mapRead(i.Rs))
			w = setRt(w, mapRead(i.Rt))
		case FnSYSCALL, FnBREAK:
		default:
			w = setRs(w, mapRead(i.Rs))
			w = setRt(w, mapRead(i.Rt))
			w = setRd(w, mapWrite(i.Rd))
		}
	case OpRegImm, OpBLEZ, OpBGTZ:
		w = setRs(w, mapRead(i.Rs))
	case OpBEQ, OpBNE:
		w = setRs(w, mapRead(i.Rs))
		w = setRt(w, mapRead(i.Rt))
	case OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI:
		w = setRs(w, mapRead(i.Rs))
		w = setRt(w, mapWrite(i.Rt))
	case OpLUI:
		w = setRt(w, mapWrite(i.Rt))
	case OpLB, OpLH, OpLW, OpLBU, OpLHU:
		w = setRs(w, mapRead(i.Rs))
		w = setRt(w, mapWrite(i.Rt))
	case OpSB, OpSH, OpSW:
		w = setRs(w, mapRead(i.Rs))
		w = setRt(w, mapRead(i.Rt))
	case OpLWC1, OpSWC1:
		w = setRs(w, mapRead(i.Rs))
	case OpCOP0:
		if uint32(i.Rs) == Cop0MT {
			w = setRt(w, mapRead(i.Rt))
		} else if uint32(i.Rs) == Cop0MF {
			w = setRt(w, mapWrite(i.Rt))
		}
	case OpCOP1:
		if uint32(i.Rs) == Cop1MT {
			w = setRt(w, mapRead(i.Rt))
		} else if uint32(i.Rs) == Cop1MF {
			w = setRt(w, mapWrite(i.Rt))
		}
	}
	return w
}

// SafeToHoist reports whether moving a delay slot's memory instruction
// above its control transfer preserves semantics: the transfer must
// not read anything the hoisted instruction writes. Shared by
// epoxie's rewriter and the static verifier so both sides apply the
// same hazard rule. It delegates to the flow-register mask check so
// HI/LO and FP-condition hazards are covered alongside the GPRs.
func SafeToHoist(term, slot Word) bool { return SafeToHoistMask(term, slot) }
