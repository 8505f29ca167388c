package cpu

// Micro-op decoding for the superblock tier. The builder (sbBuild)
// decodes each instruction it walks straight from the text frame's RAM
// into a micro-op — internal opcode index, pre-extracted register
// numbers and shift amount, sign/zero-extended immediate, and
// precomputed jump-target pieces — and execSB dispatches off the
// linearized array with no byte reassembly and no field re-extraction.
// Step decodes nothing: it is the reference interpreter (fetchWord +
// exec) and reads live memory on every fetch. The differential oracle
// (decode_test.go) runs the two against each other.

import "systrace/internal/isa"

// pdOp is the internal opcode index of a micro-op. Every 32-bit word
// decodes to exactly one pdOp; words the reference interpreter treats
// as reserved decode to pdReserved.
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
	imm uint32
}

// decodeUop translates one machine word into a micro-op. The case
// analysis mirrors CPU.exec exactly: any word exec would raise
// ExcReserved for becomes pdReserved.
func decodeUop(w uint32) uop {
	op := w >> 26
	u := uop{
		rs:  uint8(w >> 21 & 31),
		rt:  uint8(w >> 16 & 31),
		rd:  uint8(w >> 11 & 31),
		sh:  uint8(w >> 6 & 31),
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
