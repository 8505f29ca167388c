package cpu

// Micro-op decoding for the superblock tier. The builder (sbBuild)
// decodes each instruction it walks straight from the text frame's RAM
// into a micro-op — internal opcode index, pre-extracted register
// numbers and shift amount, sign/zero-extended immediate, precomputed
// jump-target pieces, and the retirement class — and execSB dispatches
// off the linearized array with no byte reassembly and no field
// re-extraction. Step decodes nothing: it is the reference interpreter
// (fetchWord + exec) and reads live memory on every fetch.
//
// Correctness is a write-invalidation discipline plus a differential
// oracle (predecode_test.go): a superblock is dropped when anything
// stores into a frame it draws from — guest stores (the bitmap check
// in store() and the inline SW/SB), host-side writes through the
// mem.RAM API (the machine registers InvalidatePhys as the RAM write
// hook), and device DMA, which writes through the same API. The
// reference engine
// (SetPredecode(false), which never builds a chain) is run against
// superblock dispatch over random instruction sequences and full
// workload boots.

import (
	"systrace/internal/isa"
	"systrace/internal/obs"
)

// pdOp is the internal opcode index of a micro-op. Every 32-bit word
// decodes to exactly one pdOp; words the reference interpreter treats
// as reserved decode to pdReserved (keeping the class of their primary
// opcode so retirement accounting matches).
type pdOp uint8

const (
	pdReserved pdOp = iota

	// SPECIAL
	pdSLL
	pdSRL
	pdSRA
	pdSLLV
	pdSRLV
	pdSRAV
	pdJR
	pdJALR
	pdSYSCALL
	pdBREAK
	pdMFHI
	pdMTHI
	pdMFLO
	pdMTLO
	pdMULT
	pdMULTU
	pdDIV
	pdDIVU
	pdADDU
	pdSUBU
	pdAND
	pdOR
	pdXOR
	pdNOR
	pdSLT
	pdSLTU

	// Branches and jumps (imm holds the sign-extended offset << 2;
	// jumps hold the pre-shifted 26-bit target field).
	pdBLTZ
	pdBGEZ
	pdJ
	pdJAL
	pdBEQ
	pdBNE
	pdBLEZ
	pdBGTZ

	// Immediate ALU (imm pre-extended per op; LUI pre-shifted).
	pdADDIU
	pdSLTI
	pdSLTIU
	pdANDI
	pdORI
	pdXORI
	pdLUI

	// Memory. The ops execSB runs inline (LB, LBU, LW, SB, SW) hold
	// the sign-extended displacement in imm; the rest keep the raw
	// word there and dispatch through exec.
	pdLB
	pdLBU
	pdLH
	pdLHU
	pdLW
	pdSB
	pdSH
	pdSW
	pdLWC1
	pdSWC1

	// System and FP coprocessor ops are rare; they keep the raw word
	// (in imm) and dispatch through exec so their semantics are
	// identical by construction.
	pdCOP0
	pdCOP1
)

// uop is one decoded instruction.
type uop struct {
	op  pdOp
	rs  uint8
	rt  uint8
	rd  uint8
	sh  uint8
	cls Class
	imm uint32
}

// predecoder is the per-CPU invalidation state. bitmap is indexed by
// physical frame number (pa >> PageShift) and marks the frames that
// resident superblocks draw from: the store-path fast test.
type predecoder struct {
	bitmap []uint64
	off    bool

	invalidations uint64 // frames dropped after a write into their page
}

// SetPredecode selects the execution engine: true (the default) runs
// superblock chains under StepN, and false keeps every instruction on
// the reference interpreter (per-instruction fetch, byte reassembly,
// the full decode switch in exec) that the lockstep and workload
// oracles compare against. Step is the reference interpreter on both.
func (c *CPU) SetPredecode(on bool) {
	c.pd.off = !on
	c.sbDropAll()
}

// InvalidatePhys drops every superblock drawing from a frame that
// overlaps the physical range [p, p+n). The machine registers it as
// the RAM write hook and forwards device DMA notifications here, so
// every store path that bypasses the CPU's own write port still
// invalidates stale chains.
func (c *CPU) InvalidatePhys(p, n uint32) {
	if n == 0 || len(c.pd.bitmap) == 0 {
		return
	}
	first := p >> PageShift
	last := (p + n - 1) >> PageShift
	for fn := first; ; fn++ {
		c.dropFrame(fn)
		if fn >= last {
			return
		}
	}
}

// dropFrame invalidates the superblocks drawing from one physical
// frame if its bitmap bit is set.
func (c *CPU) dropFrame(fn uint32) {
	w := int(fn >> 6)
	if w >= len(c.pd.bitmap) || c.pd.bitmap[w]&(1<<(fn&63)) == 0 {
		return
	}
	c.pd.bitmap[w] &^= 1 << (fn & 63)
	c.pd.invalidations++
	dispatching := uint64(0)
	if c.sbInvalidateFrame(fn) {
		dispatching = 1
	}
	obs.Emit(evFrameDrop, uint64(fn), dispatching)
}

// decodeUop translates one machine word into a micro-op. The case
// analysis mirrors CPU.exec exactly: any word exec would raise
// ExcReserved for becomes pdReserved, and the class column matches the
// opClass table (reserved encodings retire under their primary
// opcode's class, as in the reference path).
func decodeUop(w uint32) uop {
	op := w >> 26
	u := uop{
		rs:  uint8(w >> 21 & 31),
		rt:  uint8(w >> 16 & 31),
		rd:  uint8(w >> 11 & 31),
		sh:  uint8(w >> 6 & 31),
		cls: opClass[op],
		imm: uint32(int32(int16(w))),
	}
	switch op {
	case isa.OpSpecial:
		switch w & 63 {
		case isa.FnSLL:
			u.op = pdSLL
		case isa.FnSRL:
			u.op = pdSRL
		case isa.FnSRA:
			u.op = pdSRA
		case isa.FnSLLV:
			u.op = pdSLLV
		case isa.FnSRLV:
			u.op = pdSRLV
		case isa.FnSRAV:
			u.op = pdSRAV
		case isa.FnJR:
			u.op = pdJR
		case isa.FnJALR:
			u.op = pdJALR
		case isa.FnSYSCALL:
			u.op = pdSYSCALL
		case isa.FnBREAK:
			u.op = pdBREAK
		case isa.FnMFHI:
			u.op = pdMFHI
		case isa.FnMTHI:
			u.op = pdMTHI
		case isa.FnMFLO:
			u.op = pdMFLO
		case isa.FnMTLO:
			u.op = pdMTLO
		case isa.FnMULT:
			u.op = pdMULT
		case isa.FnMULTU:
			u.op = pdMULTU
		case isa.FnDIV:
			u.op = pdDIV
		case isa.FnDIVU:
			u.op = pdDIVU
		case isa.FnADDU:
			u.op = pdADDU
		case isa.FnSUBU:
			u.op = pdSUBU
		case isa.FnAND:
			u.op = pdAND
		case isa.FnOR:
			u.op = pdOR
		case isa.FnXOR:
			u.op = pdXOR
		case isa.FnNOR:
			u.op = pdNOR
		case isa.FnSLT:
			u.op = pdSLT
		case isa.FnSLTU:
			u.op = pdSLTU
		}
	case isa.OpRegImm:
		u.imm <<= 2
		switch w >> 16 & 31 {
		case isa.RtBLTZ:
			u.op = pdBLTZ
		case isa.RtBGEZ:
			u.op = pdBGEZ
		}
	case isa.OpJ:
		u.op = pdJ
		u.imm = w << 2 & 0x0ffffffc
	case isa.OpJAL:
		u.op = pdJAL
		u.imm = w << 2 & 0x0ffffffc
	case isa.OpBEQ:
		u.op = pdBEQ
		u.imm <<= 2
	case isa.OpBNE:
		u.op = pdBNE
		u.imm <<= 2
	case isa.OpBLEZ:
		u.op = pdBLEZ
		u.imm <<= 2
	case isa.OpBGTZ:
		u.op = pdBGTZ
		u.imm <<= 2
	case isa.OpADDIU:
		u.op = pdADDIU
	case isa.OpSLTI:
		u.op = pdSLTI
	case isa.OpSLTIU:
		u.op = pdSLTIU
	case isa.OpANDI:
		u.op = pdANDI
		u.imm = uint32(uint16(w))
	case isa.OpORI:
		u.op = pdORI
		u.imm = uint32(uint16(w))
	case isa.OpXORI:
		u.op = pdXORI
		u.imm = uint32(uint16(w))
	case isa.OpLUI:
		u.op = pdLUI
		u.imm = uint32(uint16(w)) << 16
	case isa.OpLB:
		u.op = pdLB
	case isa.OpLBU:
		u.op = pdLBU
	case isa.OpLH:
		u.op = pdLH
		u.imm = w
	case isa.OpLHU:
		u.op = pdLHU
		u.imm = w
	case isa.OpLW:
		u.op = pdLW
	case isa.OpSB:
		u.op = pdSB
	case isa.OpSH:
		u.op = pdSH
		u.imm = w
	case isa.OpSW:
		u.op = pdSW
	case isa.OpLWC1:
		u.op = pdLWC1
		u.imm = w
	case isa.OpSWC1:
		u.op = pdSWC1
		u.imm = w
	case isa.OpCOP0:
		u.op = pdCOP0
		u.imm = w
	case isa.OpCOP1:
		u.op = pdCOP1
		u.imm = w
	}
	return u
}
