package cpu

// Predecode cache: the first time a physical text frame is executed,
// all 1024 words are decoded into a dense array of micro-ops — internal
// opcode index, pre-extracted register numbers and shift amount,
// sign/zero-extended immediate, precomputed jump-target pieces, and the
// retirement class — and Step dispatches off that array with no byte
// reassembly and no field re-extraction. Frames are keyed by *physical*
// frame number, so virtual aliases (multiple mappings of one text
// frame, or the same frame under different ASIDs) share one decode and
// branch/jump targets are formed from the current PC at execution time.
//
// Correctness is a write-invalidation discipline plus a differential
// oracle (predecode_test.go): a frame is dropped when anything stores
// into it — guest stores (the bitmap check in store()), host-side
// writes through the mem.RAM API (the machine registers InvalidatePhys
// as the RAM write hook), and RAMPage-bypassing device DMA (the machine
// forwards dev.WriteNotifier callbacks here). The retained reference
// interpreter (SetPredecode(false) — the exact pre-predecode fetch +
// decode + exec path) is stepped in lockstep against this engine over
// random instruction sequences and full workload boots.

import (
	"encoding/binary"
	"math"

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

	// Memory (imm sign-extended displacement).
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
	// (in imm) and dispatch through the reference helpers so their
	// semantics are identical by construction.
	pdCOP0
	pdCOP1
)

// uop is one predecoded instruction. 12 bytes; a frame of 1024 is 12 KB.
type uop struct {
	op  pdOp
	rs  uint8
	rt  uint8
	rd  uint8
	sh  uint8
	cls Class
	imm uint32
}

// pdFrameWords is the number of instruction slots per physical frame.
const pdFrameWords = PageSize / 4

// pdFrame is the decoded image of one physical text frame.
type pdFrame struct {
	ops [pdFrameWords]uop
}

// pdMaxFrames bounds resident decoded frames (48 MB of micro-ops); the
// cache is dropped wholesale beyond it. Real workloads execute a few
// dozen text frames, so this is a runaway backstop, not a working-set
// knob.
const pdMaxFrames = 4096

// predecoder is the per-CPU cache state. frames and bitmap are both
// indexed by physical frame number (pa >> PageShift); the bitmap is the
// store-path fast test, the map holds the decoded arrays.
type predecoder struct {
	frames map[uint32]*pdFrame
	bitmap []uint64
	off    bool

	hits          uint64 // instructions dispatched from a decoded frame
	misses        uint64 // frames decoded
	invalidations uint64 // frames dropped after a write into their page
}

// SetPredecode selects the execution engine: true (the default) runs
// the fast path — the predecode cache under Step and StepN, with
// superblock chains on top — and false keeps the reference interpreter
// (per-instruction fetch, byte reassembly, the full decode switch in
// exec) that the lockstep and workload oracles compare against.
func (c *CPU) SetPredecode(on bool) {
	c.pd.off = !on
	c.dropAllFrames()
	c.ipd = nil
	c.icache.vpage = 1
}

// PredecodeStats reports the cache counters: instructions dispatched
// from decoded frames, frames decoded, and frames invalidated by
// writes.
func (c *CPU) PredecodeStats() (hits, misses, invalidations uint64) {
	return c.pd.hits, c.pd.misses, c.pd.invalidations
}

// pdFrameFor returns the decoded frame for the physical frame holding
// ppage, decoding it from ram (the 4 KB host slice for the frame) on
// first execution.
func (c *CPU) pdFrameFor(ppage uint32, ram []byte) *pdFrame {
	fn := ppage >> PageShift
	if f, ok := c.pd.frames[fn]; ok {
		return f
	}
	if len(c.pd.frames) >= pdMaxFrames {
		c.dropAllFrames()
	}
	c.pd.misses++
	f := &pdFrame{}
	for i := 0; i < pdFrameWords; i++ {
		f.ops[i] = decodeUop(binary.BigEndian.Uint32(ram[i*4:]))
	}
	if c.pd.frames == nil {
		c.pd.frames = make(map[uint32]*pdFrame)
	}
	c.pd.frames[fn] = f
	w := int(fn >> 6)
	if w >= len(c.pd.bitmap) {
		nb := make([]uint64, w+1)
		copy(nb, c.pd.bitmap)
		c.pd.bitmap = nb
	}
	c.pd.bitmap[w] |= 1 << (fn & 63)
	return f
}

// InvalidatePhys drops any predecoded frames overlapping the physical
// range [p, p+n). The machine registers it as the RAM write hook and
// forwards device DMA notifications here, so every store path that
// bypasses the CPU's own write port still invalidates stale decodes.
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

// dropFrame invalidates one physical frame if it is decoded. If the
// CPU is currently executing from it, the instruction-side caches are
// flushed so the next fetch re-decodes current memory.
func (c *CPU) dropFrame(fn uint32) {
	w := int(fn >> 6)
	if w >= len(c.pd.bitmap) || c.pd.bitmap[w]&(1<<(fn&63)) == 0 {
		return
	}
	c.pd.bitmap[w] &^= 1 << (fn & 63)
	delete(c.pd.frames, fn)
	c.pd.invalidations++
	executing := uint64(0)
	if c.ipd != nil && c.ipdFrame == fn {
		c.ipd = nil
		c.icache.vpage = 1
		executing = 1
	}
	c.sbInvalidateFrame(fn)
	obs.Emit(evFrameDrop, uint64(fn), executing)
}

// dropAllFrames empties the cache (engine switch or the pdMaxFrames
// backstop). The caller re-establishes c.ipd.
func (c *CPU) dropAllFrames() {
	c.pd.invalidations += uint64(len(c.pd.frames))
	c.pd.frames = nil
	for i := range c.pd.bitmap {
		c.pd.bitmap[i] = 0
	}
	c.ipd = nil
	// Superblocks are built from decoded frames; none may outlive them.
	c.sbDropAll()
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
	case isa.OpLHU:
		u.op = pdLHU
	case isa.OpLW:
		u.op = pdLW
	case isa.OpSB:
		u.op = pdSB
	case isa.OpSH:
		u.op = pdSH
	case isa.OpSW:
		u.op = pdSW
	case isa.OpLWC1:
		u.op = pdLWC1
	case isa.OpSWC1:
		u.op = pdSWC1
	case isa.OpCOP0:
		u.op = pdCOP0
		u.imm = w
	case isa.OpCOP1:
		u.op = pdCOP1
		u.imm = w
	}
	return u
}

// execU executes one predecoded instruction; like exec it returns
// false when an exception decided control flow.
func (c *CPU) execU(u *uop) bool {
	g := &c.GPR
	switch u.op {
	case pdADDU:
		g[u.rd] = g[u.rs] + g[u.rt]
	case pdADDIU:
		g[u.rt] = g[u.rs] + u.imm
	case pdLW:
		v, ok := c.load(g[u.rs]+u.imm, 4)
		if !ok {
			return false
		}
		g[u.rt] = uint32(v)
	case pdSW:
		return c.store(g[u.rs]+u.imm, 4, uint64(g[u.rt]))
	case pdBEQ:
		if g[u.rs] == g[u.rt] {
			c.branch(c.PC + 4 + u.imm)
		} else {
			c.branch(c.PC + 8)
		}
	case pdBNE:
		if g[u.rs] != g[u.rt] {
			c.branch(c.PC + 4 + u.imm)
		} else {
			c.branch(c.PC + 8)
		}
	case pdSLL:
		g[u.rd] = g[u.rt] << u.sh
	case pdSRL:
		g[u.rd] = g[u.rt] >> u.sh
	case pdSRA:
		g[u.rd] = uint32(int32(g[u.rt]) >> u.sh)
	case pdSLLV:
		g[u.rd] = g[u.rt] << (g[u.rs] & 31)
	case pdSRLV:
		g[u.rd] = g[u.rt] >> (g[u.rs] & 31)
	case pdSRAV:
		g[u.rd] = uint32(int32(g[u.rt]) >> (g[u.rs] & 31))
	case pdJR:
		c.branch(g[u.rs])
	case pdJALR:
		t := g[u.rs]
		g[u.rd] = c.PC + 8
		c.branch(t)
	case pdSYSCALL:
		c.Stat.Syscalls++
		c.Exception(ExcSyscall, VecGeneral)
		return false
	case pdBREAK:
		if c.HaltOnBreak {
			c.Halted = true
			return false
		}
		c.Exception(ExcBreak, VecGeneral)
		return false
	case pdMFHI:
		g[u.rd] = c.HI
	case pdMTHI:
		c.HI = g[u.rs]
	case pdMFLO:
		g[u.rd] = c.LO
	case pdMTLO:
		c.LO = g[u.rs]
	case pdMULT:
		p := int64(int32(g[u.rs])) * int64(int32(g[u.rt]))
		c.LO = uint32(p)
		c.HI = uint32(p >> 32)
	case pdMULTU:
		p := uint64(g[u.rs]) * uint64(g[u.rt])
		c.LO = uint32(p)
		c.HI = uint32(p >> 32)
	case pdDIV:
		if g[u.rt] != 0 {
			c.LO = uint32(int32(g[u.rs]) / int32(g[u.rt]))
			c.HI = uint32(int32(g[u.rs]) % int32(g[u.rt]))
		}
	case pdDIVU:
		if g[u.rt] != 0 {
			c.LO = g[u.rs] / g[u.rt]
			c.HI = g[u.rs] % g[u.rt]
		}
	case pdSUBU:
		g[u.rd] = g[u.rs] - g[u.rt]
	case pdAND:
		g[u.rd] = g[u.rs] & g[u.rt]
	case pdOR:
		g[u.rd] = g[u.rs] | g[u.rt]
	case pdXOR:
		g[u.rd] = g[u.rs] ^ g[u.rt]
	case pdNOR:
		g[u.rd] = ^(g[u.rs] | g[u.rt])
	case pdSLT:
		if int32(g[u.rs]) < int32(g[u.rt]) {
			g[u.rd] = 1
		} else {
			g[u.rd] = 0
		}
	case pdSLTU:
		if g[u.rs] < g[u.rt] {
			g[u.rd] = 1
		} else {
			g[u.rd] = 0
		}
	case pdBLTZ:
		if int32(g[u.rs]) < 0 {
			c.branch(c.PC + 4 + u.imm)
		} else {
			c.branch(c.PC + 8)
		}
	case pdBGEZ:
		if int32(g[u.rs]) >= 0 {
			c.branch(c.PC + 4 + u.imm)
		} else {
			c.branch(c.PC + 8)
		}
	case pdJ:
		c.branch(c.PC&0xf0000000 | u.imm)
	case pdJAL:
		g[31] = c.PC + 8
		c.branch(c.PC&0xf0000000 | u.imm)
	case pdBLEZ:
		if int32(g[u.rs]) <= 0 {
			c.branch(c.PC + 4 + u.imm)
		} else {
			c.branch(c.PC + 8)
		}
	case pdBGTZ:
		if int32(g[u.rs]) > 0 {
			c.branch(c.PC + 4 + u.imm)
		} else {
			c.branch(c.PC + 8)
		}
	case pdSLTI:
		if int32(g[u.rs]) < int32(u.imm) {
			g[u.rt] = 1
		} else {
			g[u.rt] = 0
		}
	case pdSLTIU:
		if g[u.rs] < u.imm {
			g[u.rt] = 1
		} else {
			g[u.rt] = 0
		}
	case pdANDI:
		g[u.rt] = g[u.rs] & u.imm
	case pdORI:
		g[u.rt] = g[u.rs] | u.imm
	case pdXORI:
		g[u.rt] = g[u.rs] ^ u.imm
	case pdLUI:
		g[u.rt] = u.imm
	case pdLB:
		v, ok := c.load(g[u.rs]+u.imm, 1)
		if !ok {
			return false
		}
		g[u.rt] = uint32(int32(int8(v)))
	case pdLBU:
		v, ok := c.load(g[u.rs]+u.imm, 1)
		if !ok {
			return false
		}
		g[u.rt] = uint32(v)
	case pdLH:
		v, ok := c.load(g[u.rs]+u.imm, 2)
		if !ok {
			return false
		}
		g[u.rt] = uint32(int32(int16(v)))
	case pdLHU:
		v, ok := c.load(g[u.rs]+u.imm, 2)
		if !ok {
			return false
		}
		g[u.rt] = uint32(v)
	case pdSB:
		return c.store(g[u.rs]+u.imm, 1, uint64(g[u.rt]&0xff))
	case pdSH:
		return c.store(g[u.rs]+u.imm, 2, uint64(g[u.rt]&0xffff))
	case pdLWC1:
		v, ok := c.load(g[u.rs]+u.imm, 8)
		if !ok {
			return false
		}
		c.FPR[u.rt] = math.Float64frombits(v)
	case pdSWC1:
		return c.store(g[u.rs]+u.imm, 8, math.Float64bits(c.FPR[u.rt]))
	case pdCOP0:
		c.pdExit = true // may touch Status/Cause or the TLB
		w := u.imm
		if !c.KernelMode() {
			c.Exception(ExcReserved, VecGeneral)
			return false
		}
		return c.execCOP0(w, int(w>>21&31), int(w>>16&31))
	case pdCOP1:
		w := u.imm
		return c.execCOP1(w, int(w>>21&31), int(w>>16&31))
	default: // pdReserved
		c.Exception(ExcReserved, VecGeneral)
		return false
	}
	g[0] = 0
	return true
}
