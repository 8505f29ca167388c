package isa

import "strings"

// Dataflow-facing register model. Liveness analysis needs more than the
// GPR-only Uses/Defs view: multiply/divide results live in HI/LO, and
// the FP compare instructions communicate with the FP branches through
// the condition flag. RegSet packs the whole architectural register
// state liveness tracks into one word so transfer functions are plain
// bit arithmetic.

// Flow-register numbers beyond the 32 GPRs.
const (
	RegHI  = 32 // multiply/divide high result
	RegLO  = 33 // multiply/divide low result
	RegFPC = 34 // FP condition flag (set by c.xx.d, read by bc1f/bc1t)

	// NumFlowRegs is the size of the flow-register space: 32 GPRs plus
	// HI, LO, and the FP condition flag.
	NumFlowRegs = 35
)

// RegSet is a set of flow registers: bit r set means register r is a
// member. Bit 0 (the hardwired zero register) is never set — reading
// it is free and writing it is impossible, so it can never be live.
type RegSet uint64

// AllRegs is every flow register except the hardwired zero.
const AllRegs RegSet = (1<<NumFlowRegs - 1) &^ 1

// RegMask returns the singleton set {r}, or the empty set for the zero
// register or an out-of-range number.
func RegMask(r int) RegSet {
	if r <= 0 || r >= NumFlowRegs {
		return 0
	}
	return 1 << uint(r)
}

// Has reports whether r is a member of s.
func (s RegSet) Has(r int) bool { return s&RegMask(r) != 0 }

// Add returns s with r added.
func (s RegSet) Add(r int) RegSet { return s | RegMask(r) }

// Without returns s with r removed.
func (s RegSet) Without(r int) RegSet { return s &^ RegMask(r) }

// Regs returns the members of s in ascending order.
func (s RegSet) Regs() []int {
	var rs []int
	for r := 1; r < NumFlowRegs; r++ {
		if s.Has(r) {
			rs = append(rs, r)
		}
	}
	return rs
}

// FlowRegName returns the conventional name for a flow register,
// extending RegName with the HI/LO/FPC pseudo-registers.
func FlowRegName(r int) string {
	switch r {
	case RegHI:
		return "hi"
	case RegLO:
		return "lo"
	case RegFPC:
		return "fpc"
	}
	return RegName(r)
}

// String renders the set as {a,b,...} for diagnostics.
func (s RegSet) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, r := range s.Regs() {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(FlowRegName(r))
	}
	b.WriteByte('}')
	return b.String()
}

// UsesMask returns the flow registers read by w: the GPRs Uses lists
// plus HI/LO for the move-from instructions and the FP condition flag
// for the FP branches. It models only architectural register reads;
// the ABI effects of syscall/break (argument registers the kernel
// consumes) are the dataflow engine's concern, not the ISA's. It reads
// the fields directly rather than through Uses, so it never allocates:
// the dataflow engine calls it once per word it analyzes.
func UsesMask(w Word) RegSet {
	rs := RegMask(int(w >> 21 & 31))
	rt := RegMask(int(w >> 16 & 31))
	switch w >> 26 {
	case OpSpecial:
		switch w & 63 {
		case FnSLL, FnSRL, FnSRA:
			return rt
		case FnJR, FnJALR, FnMTHI, FnMTLO:
			return rs
		case FnMFHI:
			return RegMask(RegHI)
		case FnMFLO:
			return RegMask(RegLO)
		case FnSYSCALL, FnBREAK:
			return 0
		}
		return rs | rt
	case OpRegImm, OpBLEZ, OpBGTZ,
		OpADDIU, OpSLTI, OpSLTIU, OpANDI, OpORI, OpXORI,
		OpLB, OpLH, OpLW, OpLBU, OpLHU, OpLWC1, OpSWC1:
		return rs
	case OpBEQ, OpBNE, OpSB, OpSH, OpSW:
		return rs | rt
	case OpCOP0:
		if w>>21&31 == Cop0MT {
			return rt
		}
	case OpCOP1:
		switch w >> 21 & 31 {
		case Cop1MT:
			return rt
		case Cop1BC:
			return RegMask(RegFPC)
		}
	}
	return 0
}

// DefsMask returns the flow registers written by w: the GPR from Defs
// plus HI/LO for multiply/divide and move-to, and the FP condition
// flag for the FP compares.
func DefsMask(w Word) RegSet {
	var s RegSet
	if d := Defs(w); d > 0 {
		s = s.Add(d)
	}
	i := Decode(w)
	switch i.Op {
	case OpSpecial:
		switch i.Funct {
		case FnMULT, FnMULTU, FnDIV, FnDIVU:
			s = s.Add(RegHI).Add(RegLO)
		case FnMTHI:
			s = s.Add(RegHI)
		case FnMTLO:
			s = s.Add(RegLO)
		}
	case OpCOP1:
		if uint32(i.Rs) == Cop1Dbl {
			switch i.Funct {
			case F1CLT, F1CLE, F1CEQ:
				s = s.Add(RegFPC)
			}
		}
	}
	return s
}

// SafeToHoistMask is the flow-register generalization of SafeToHoist:
// moving the delay-slot instruction above its control transfer is safe
// when nothing the slot writes — GPR, HI/LO, or the FP condition flag
// — is read by the transfer. The GPR-only check misses a c.xx.d slot
// under a bc1f/bc1t terminator; the mask check does not.
func SafeToHoistMask(term, slot Word) bool {
	return DefsMask(slot)&UsesMask(term) == 0
}
