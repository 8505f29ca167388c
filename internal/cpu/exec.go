package cpu

import (
	"encoding/binary"
	"math"

	"systrace/internal/isa"
	"systrace/internal/obs"
)

// tlbHit reports whether soft-TLB entry e translates va now: same page,
// current generation, an ASID tag the current ASID matches (any ASID
// for a global one), and kernel mode outside kuseg, as translate would
// check, so an entry a kernel access filled never serves user mode.
func (c *CPU) tlbHit(e *tlbCache, va uint32) bool {
	return e.tag == va&EntryHiVPN|c.CP0.EntryHi&e.amask && e.gen == c.tcGen && (va < KUSegEnd || c.KernelMode())
}

// refill fills soft-TLB entry e, the set of va in kind's table, from
// translate, counting the refill by what the set held; nil means
// translate raised an exception. Callers test tlbHit first, inline:
// refill does not fit the inlining budget, and a hit must cost no call.
func (c *CPU) refill(e *tlbCache, va uint32, kind int) *tlbCache {
	pa, cached, global, ok := c.translate(va, kind == tlbStore, kind == tlbFetch)
	if !ok {
		return nil
	}
	vp := va & EntryHiVPN
	cause := refillConflict // another page, or this one under another ASID
	if e.gen == 0 {
		cause = refillCold
	} else if e.tag&EntryHiVPN == vp && e.gen != c.tcGen {
		cause = refillGeneration
	}
	c.refills[kind][cause]++
	// A translation that depends on the address space is tagged with
	// the current ASID, so it serves no other.
	*e = tlbCache{tag: vp, ppage: pa & EntryHiVPN, cached: cached, gen: c.tcGen}
	if !global {
		e.tag |= c.CP0.EntryHi & ASIDMask
		e.amask = ASIDMask
	}
	// Device space and uncached segments bypass the fast path.
	if cached {
		if r := c.Bus.RAMPage(pa); r != nil {
			e.ram = (*[PageSize]byte)(r)
		}
	}
	return e
}

// fetchWord reads the instruction at va.
func (c *CPU) fetchWord(va uint32) (uint32, bool) {
	if va&3 != 0 {
		c.addressError(va, false)
		return 0, false
	}
	e := &c.stlb[tlbFetch][tlbSet(va)]
	if !c.tlbHit(e, va) {
		if e = c.refill(e, va, tlbFetch); e == nil {
			return 0, false
		}
	}
	pa := e.ppage | va&(PageSize-1)
	if c.obsAny {
		c.Obs.Fetch(va, pa, c.KernelMode(), e.cached)
	}
	if r := e.ram; r != nil {
		return binary.BigEndian.Uint32(r[pa&(PageSize-1):]), true
	}
	v, ok := c.Bus.FetchWord(pa)
	if !ok {
		c.fault("instruction bus error at va=0x%08x pa=0x%08x", va, pa)
	}
	return v, ok
}

// load performs a data read of size bytes (1, 2, 4, or 8 for FP).
func (c *CPU) load(va uint32, size int) (uint64, bool) {
	if va&uint32(size-1) != 0 && size != 8 || size == 8 && va&7 != 0 {
		c.addressError(va, false)
		return 0, false
	}
	e := &c.stlb[tlbLoad][tlbSet(va)]
	if !c.tlbHit(e, va) {
		if e = c.refill(e, va, tlbLoad); e == nil {
			return 0, false
		}
	}
	pa := e.ppage | va&(PageSize-1)
	if c.obsAny {
		c.Obs.Load(va, pa, size, c.KernelMode(), e.cached)
	}
	if r := e.ram; r != nil {
		b := r[pa&(PageSize-1):]
		switch size {
		case 1:
			return uint64(b[0]), true
		case 2:
			return uint64(binary.BigEndian.Uint16(b)), true
		case 4:
			return uint64(binary.BigEndian.Uint32(b)), true
		}
		return binary.BigEndian.Uint64(b), true
	}
	c.pdExit = true // device read: register state may change
	c.devAccess(pa, 0)
	if size == 8 {
		hi, ok1 := c.Bus.Read(pa, 4)
		lo, ok2 := c.Bus.Read(pa+4, 4)
		if !ok1 || !ok2 {
			c.fault("data bus error at va=0x%08x pa=0x%08x", va, pa)
			return 0, false
		}
		return uint64(hi)<<32 | uint64(lo), true
	}
	v, ok := c.Bus.Read(pa, size)
	if !ok {
		c.fault("data bus error at va=0x%08x pa=0x%08x", va, pa)
	}
	return uint64(v), ok
}

// store performs a data write of size bytes.
func (c *CPU) store(va uint32, size int, v uint64) bool {
	if va&uint32(size-1) != 0 && size != 8 || size == 8 && va&7 != 0 {
		c.addressError(va, true)
		return false
	}
	e := &c.stlb[tlbStore][tlbSet(va)]
	if !c.tlbHit(e, va) {
		if e = c.refill(e, va, tlbStore); e == nil {
			return false
		}
	}
	pa := e.ppage | va&(PageSize-1)
	if c.obsAny {
		c.Obs.Store(va, pa, size, c.KernelMode(), e.cached)
	}
	// Stores into a frame a resident superblock draws from drop the
	// stale chains (self-modifying code, the kernel's exec-time text
	// copy, epoxie images written as data). Device pages have frame
	// numbers past the bitmap, so the common store never reaches
	// dropFrame.
	if fn := pa >> PageShift; int(fn>>6) < len(c.sb.bitmap) && c.sb.bitmap[fn>>6]&(1<<(fn&63)) != 0 {
		c.dropFrame(fn)
	}
	if r := e.ram; r != nil {
		b := r[pa&(PageSize-1):]
		switch size {
		case 1:
			b[0] = byte(v)
		case 2:
			binary.BigEndian.PutUint16(b, uint16(v))
		case 4:
			binary.BigEndian.PutUint32(b, uint32(v))
		default:
			binary.BigEndian.PutUint64(b, v)
		}
		return true
	}
	c.pdExit = true // device write: may reprogram a device event
	c.devAccess(pa, 1)
	if size == 8 {
		ok1 := c.Bus.Write(pa, 4, uint32(v>>32))
		ok2 := c.Bus.Write(pa+4, 4, uint32(v))
		if !ok1 || !ok2 {
			c.fault("data bus error at va=0x%08x pa=0x%08x", va, pa)
			return false
		}
		return true
	}
	if !c.Bus.Write(pa, size, uint32(v)) {
		c.fault("data bus error at va=0x%08x pa=0x%08x", va, pa)
		return false
	}
	return true
}

// Step executes one instruction (or takes one exception/interrupt).
// It reports whether the CPU can continue.
//
// Step is the reference interpreter: per-instruction fetch from the
// live RAM slice with byte reassembly, and the full decode switch in
// exec. It needs no invalidation of its own, since every fetch reads
// current memory; superblock dispatch (StepN) is the fast path checked
// against it.
func (c *CPU) Step() bool {
	if c.Halted {
		return false
	}
	// Observers are attached by plain assignment to c.Obs (machine
	// timing models, tests); fold the nil check into obsAny once per
	// Step instead of per event.
	c.obsAny = c.Obs != nil
	if c.IRQPending() {
		c.Stat.Interrupts++
		c.Exception(ExcInt, VecGeneral)
	}
	w, ok := c.fetchWord(c.PC)
	if !ok {
		return !c.Halted
	}
	nextPC := c.PC + 4
	if c.inDelay {
		nextPC = c.delayTarget
		c.inDelay = false
		c.execInSlot = true
	}
	if c.CP0.Random <= TLBWired {
		c.CP0.Random = NTLB - 1
	} else {
		c.CP0.Random--
	}
	ok = c.exec(w)
	c.Stat.Instret++ // a faulting instruction still issued
	c.execInSlot = false
	if ok {
		c.PC = nextPC
	}
	return !c.Halted
}

// StepN runs one dispatch step and returns the instructions it retired,
// counting a single Step as one. When nothing can change mid-chain (no
// pending interrupt, no pending delay slot, aligned PC) and a
// superblock is enterable at the PC, the step is that chain's dispatch
// for up to max instructions; otherwise, or when the chain retired
// nothing, it is exactly one Step. So execSB is the only batched
// dispatcher, and the chain's own pdExit discipline (see
// superblock.go) is what makes the hoisted checks sound: it leaves at
// every exception, COP0 op, device access and invalidation. An
// attached observer sees the same event stream either way: a chain
// reports its fetches one FetchRun per sequential run.
func (c *CPU) StepN(max uint64) uint64 {
	if c.Halted || max == 0 {
		return 0
	}
	c.obsAny = c.Obs != nil
	// The chain ends exactly on the sample boundary, and the sampler
	// below observes the boundary PC (see obs.go).
	if c.prof.fn != nil {
		max = c.profClamp(max)
	}
	var n uint64
	if !c.inDelay && c.PC&3 == 0 && !c.IRQPending() {
		k := c.sbKey(c.PC)
		s := c.sbHit(k)
		if s == nil {
			s = c.sbProbe(c.PC, k)
		}
		if s != nil {
			c.pdExit = false
			n = c.execSB(s, max)
		}
	}
	if n == 0 {
		c.Step()
		n = 1
	}
	if c.prof.fn != nil && c.Stat.Instret >= c.prof.next {
		c.profSample()
	}
	return n
}

// branch schedules a transfer after the delay slot.
func (c *CPU) branch(target uint32) {
	c.inDelay = true
	c.delayTarget = target
}

// exec executes the decoded instruction; returns false if an exception
// was raised (the exception, not nextPC, decides control flow).
func (c *CPU) exec(w uint32) bool {
	op := w >> 26
	rs := int(w >> 21 & 31)
	rt := int(w >> 16 & 31)
	g := &c.GPR
	imm := uint32(int32(int16(w)))
	switch op {
	case isa.OpSpecial:
		rd := int(w >> 11 & 31)
		sh := w >> 6 & 31
		switch w & 63 {
		case isa.FnSLL:
			g[rd] = g[rt] << sh
		case isa.FnSRL:
			g[rd] = g[rt] >> sh
		case isa.FnSRA:
			g[rd] = uint32(int32(g[rt]) >> sh)
		case isa.FnSLLV:
			g[rd] = g[rt] << (g[rs] & 31)
		case isa.FnSRLV:
			g[rd] = g[rt] >> (g[rs] & 31)
		case isa.FnSRAV:
			g[rd] = uint32(int32(g[rt]) >> (g[rs] & 31))
		case isa.FnJR:
			c.branch(g[rs])
		case isa.FnJALR:
			t := g[rs]
			g[rd] = c.PC + 8
			c.branch(t)
		case isa.FnSYSCALL:
			c.Stat.Syscalls++
			c.Exception(ExcSyscall, VecGeneral)
			return false
		case isa.FnBREAK:
			if c.HaltOnBreak {
				c.Halted = true
				return false
			}
			c.Exception(ExcBreak, VecGeneral)
			return false
		case isa.FnMFHI:
			g[rd] = c.HI
		case isa.FnMTHI:
			c.HI = g[rs]
		case isa.FnMFLO:
			g[rd] = c.LO
		case isa.FnMTLO:
			c.LO = g[rs]
		case isa.FnMULT:
			p := int64(int32(g[rs])) * int64(int32(g[rt]))
			c.LO = uint32(p)
			c.HI = uint32(p >> 32)
		case isa.FnMULTU:
			p := uint64(g[rs]) * uint64(g[rt])
			c.LO = uint32(p)
			c.HI = uint32(p >> 32)
		case isa.FnDIV:
			if g[rt] != 0 {
				c.LO = uint32(int32(g[rs]) / int32(g[rt]))
				c.HI = uint32(int32(g[rs]) % int32(g[rt]))
			}
		case isa.FnDIVU:
			if g[rt] != 0 {
				c.LO = g[rs] / g[rt]
				c.HI = g[rs] % g[rt]
			}
		case isa.FnADDU:
			g[rd] = g[rs] + g[rt]
		case isa.FnSUBU:
			g[rd] = g[rs] - g[rt]
		case isa.FnAND:
			g[rd] = g[rs] & g[rt]
		case isa.FnOR:
			g[rd] = g[rs] | g[rt]
		case isa.FnXOR:
			g[rd] = g[rs] ^ g[rt]
		case isa.FnNOR:
			g[rd] = ^(g[rs] | g[rt])
		case isa.FnSLT:
			if int32(g[rs]) < int32(g[rt]) {
				g[rd] = 1
			} else {
				g[rd] = 0
			}
		case isa.FnSLTU:
			if g[rs] < g[rt] {
				g[rd] = 1
			} else {
				g[rd] = 0
			}
		default:
			c.Exception(ExcReserved, VecGeneral)
			return false
		}
	case isa.OpRegImm:
		taken := false
		switch rt {
		case isa.RtBLTZ:
			taken = int32(g[rs]) < 0
		case isa.RtBGEZ:
			taken = int32(g[rs]) >= 0
		default:
			c.Exception(ExcReserved, VecGeneral)
			return false
		}
		if taken {
			c.branch(c.PC + 4 + imm<<2)
		} else {
			c.branch(c.PC + 8)
		}
	case isa.OpJ:
		c.branch(c.PC&0xf0000000 | w<<2&0x0ffffffc)
	case isa.OpJAL:
		g[31] = c.PC + 8
		c.branch(c.PC&0xf0000000 | w<<2&0x0ffffffc)
	case isa.OpBEQ:
		if g[rs] == g[rt] {
			c.branch(c.PC + 4 + imm<<2)
		} else {
			c.branch(c.PC + 8)
		}
	case isa.OpBNE:
		if g[rs] != g[rt] {
			c.branch(c.PC + 4 + imm<<2)
		} else {
			c.branch(c.PC + 8)
		}
	case isa.OpBLEZ:
		if int32(g[rs]) <= 0 {
			c.branch(c.PC + 4 + imm<<2)
		} else {
			c.branch(c.PC + 8)
		}
	case isa.OpBGTZ:
		if int32(g[rs]) > 0 {
			c.branch(c.PC + 4 + imm<<2)
		} else {
			c.branch(c.PC + 8)
		}
	case isa.OpADDIU:
		g[rt] = g[rs] + imm
	case isa.OpSLTI:
		if int32(g[rs]) < int32(imm) {
			g[rt] = 1
		} else {
			g[rt] = 0
		}
	case isa.OpSLTIU:
		if g[rs] < imm {
			g[rt] = 1
		} else {
			g[rt] = 0
		}
	case isa.OpANDI:
		g[rt] = g[rs] & uint32(uint16(w))
	case isa.OpORI:
		g[rt] = g[rs] | uint32(uint16(w))
	case isa.OpXORI:
		g[rt] = g[rs] ^ uint32(uint16(w))
	case isa.OpLUI:
		g[rt] = uint32(uint16(w)) << 16
	case isa.OpLB:
		v, ok := c.load(g[rs]+imm, 1)
		if !ok {
			return false
		}
		g[rt] = uint32(int32(int8(v)))
	case isa.OpLBU:
		v, ok := c.load(g[rs]+imm, 1)
		if !ok {
			return false
		}
		g[rt] = uint32(v)
	case isa.OpLH:
		v, ok := c.load(g[rs]+imm, 2)
		if !ok {
			return false
		}
		g[rt] = uint32(int32(int16(v)))
	case isa.OpLHU:
		v, ok := c.load(g[rs]+imm, 2)
		if !ok {
			return false
		}
		g[rt] = uint32(v)
	case isa.OpLW:
		v, ok := c.load(g[rs]+imm, 4)
		if !ok {
			return false
		}
		g[rt] = uint32(v)
	case isa.OpSB:
		return c.store(g[rs]+imm, 1, uint64(g[rt]&0xff))
	case isa.OpSH:
		return c.store(g[rs]+imm, 2, uint64(g[rt]&0xffff))
	case isa.OpSW:
		return c.store(g[rs]+imm, 4, uint64(g[rt]))
	case isa.OpLWC1:
		v, ok := c.load(g[rs]+imm, 8)
		if !ok {
			return false
		}
		c.FPR[rt] = math.Float64frombits(v)
	case isa.OpSWC1:
		return c.store(g[rs]+imm, 8, math.Float64bits(c.FPR[rt]))
	case isa.OpCOP0:
		if !c.KernelMode() {
			c.Exception(ExcReserved, VecGeneral)
			return false
		}
		return c.execCOP0(w, rs, rt)
	case isa.OpCOP1:
		return c.execCOP1(w, rs, rt)
	default:
		c.Exception(ExcReserved, VecGeneral)
		return false
	}
	g[0] = 0
	return true
}

func (c *CPU) execCOP0(w uint32, rs, rt int) bool {
	rd := int(w >> 11 & 31)
	switch uint32(rs) {
	case isa.Cop0MF:
		var v uint32
		switch rd {
		case isa.C0Index:
			v = c.CP0.Index
		case isa.C0Random:
			// Internal Random is the bare index; the register image
			// places it in bits 13:8 (see the CP0 layout comment).
			v = c.CP0.Random << RandomShift
		case isa.C0EntryLo:
			v = c.CP0.EntryLo
		case isa.C0Context:
			v = c.CP0.Context
		case isa.C0BadVAddr:
			v = c.CP0.BadVAddr
		case isa.C0Count:
			v = uint32(c.Stat.Instret)
		case isa.C0EntryHi:
			v = c.CP0.EntryHi
		case isa.C0Status:
			v = c.CP0.Status
		case isa.C0Cause:
			v = c.CP0.Cause | c.irqLines
		case isa.C0EPC:
			v = c.CP0.EPC
		}
		c.GPR[rt] = v
		c.GPR[0] = 0
	case isa.Cop0MT:
		v := c.GPR[rt]
		switch rd {
		case isa.C0Index:
			c.CP0.Index = v & (NTLB - 1)
		case isa.C0EntryLo:
			c.CP0.EntryLo = v
		case isa.C0Context:
			c.CP0.Context = v
		case isa.C0EntryHi:
			// Translation reads only EntryHi's ASID, and the soft-TLB
			// and superblocks are tagged with it; the VPN field is
			// TLBP/TLBWR operand staging.
			c.CP0.EntryHi = v
		case isa.C0Status:
			c.CP0.Status = v
		case isa.C0Cause:
			c.CP0.Cause = v
		case isa.C0EPC:
			c.CP0.EPC = v
		}
	case isa.Cop0CO:
		switch w & 63 {
		case isa.C0FnTLBWR:
			obs.Emit(evTLBWrite, uint64(c.CP0.Random), uint64(c.CP0.EntryHi))
			c.TLB[c.CP0.Random] = TLBEntry{Hi: c.CP0.EntryHi, Lo: c.CP0.EntryLo}
			c.invalidateCaches()
		case isa.C0FnTLBWI:
			obs.Emit(evTLBWrite, uint64(c.CP0.Index&(NTLB-1)), uint64(c.CP0.EntryHi))
			c.TLB[c.CP0.Index&(NTLB-1)] = TLBEntry{Hi: c.CP0.EntryHi, Lo: c.CP0.EntryLo}
			c.invalidateCaches()
		case isa.C0FnTLBP:
			if i := c.lookupTLBHi(); i >= 0 {
				c.CP0.Index = uint32(i)
			} else {
				c.CP0.Index = 1 << 31
			}
		case isa.C0FnTLBR:
			e := c.TLB[c.CP0.Index&(NTLB-1)]
			c.CP0.EntryHi = e.Hi // the ASID too: the caches' tags follow it
			c.CP0.EntryLo = e.Lo
		case isa.C0FnRFE:
			c.rfe()
		default:
			c.Exception(ExcReserved, VecGeneral)
			return false
		}
	default:
		c.Exception(ExcReserved, VecGeneral)
		return false
	}
	return true
}

// lookupTLBHi probes using EntryHi's VPN and ASID (for TLBP).
func (c *CPU) lookupTLBHi() int {
	vpn := c.CP0.EntryHi & EntryHiVPN
	asid := c.CP0.EntryHi & ASIDMask
	for i := 0; i < NTLB; i++ {
		e := &c.TLB[i]
		if e.Hi&EntryHiVPN == vpn && (e.Lo&EloG != 0 || e.Hi&ASIDMask == asid) {
			return i
		}
	}
	return -1
}

func (c *CPU) execCOP1(w uint32, rs, rt int) bool {
	switch uint32(rs) {
	case isa.Cop1MF:
		fs := int(w >> 11 & 31)
		c.GPR[rt] = uint32(int32(c.FPR[fs]))
		c.GPR[0] = 0
	case isa.Cop1MT:
		fs := int(w >> 11 & 31)
		c.FPR[fs] = float64(int32(c.GPR[rt]))
	case isa.Cop1BC:
		taken := c.FPCond == (rt == 1)
		if taken {
			c.branch(c.PC + 4 + uint32(int32(int16(w)))<<2)
		} else {
			c.branch(c.PC + 8)
		}
	case isa.Cop1Dbl:
		if c.obsAny {
			c.Obs.FPOp(isa.FPLatency(w))
		}
		fd := int(w >> 6 & 31)
		fs := int(w >> 11 & 31)
		ft := rt
		switch w & 63 {
		case isa.F1ADD:
			c.FPR[fd] = c.FPR[fs] + c.FPR[ft]
		case isa.F1SUB:
			c.FPR[fd] = c.FPR[fs] - c.FPR[ft]
		case isa.F1MUL:
			c.FPR[fd] = c.FPR[fs] * c.FPR[ft]
		case isa.F1DIV:
			c.FPR[fd] = c.FPR[fs] / c.FPR[ft]
		case isa.F1SQRT:
			c.FPR[fd] = math.Sqrt(c.FPR[fs])
		case isa.F1MOV:
			c.FPR[fd] = c.FPR[fs]
		case isa.F1NEG:
			c.FPR[fd] = -c.FPR[fs]
		case isa.F1CVTDW:
			c.FPR[fd] = c.FPR[fs]
		case isa.F1CVTWD:
			c.FPR[fd] = math.Trunc(c.FPR[fs])
		case isa.F1CLT:
			c.FPCond = c.FPR[fs] < c.FPR[ft]
		case isa.F1CLE:
			c.FPCond = c.FPR[fs] <= c.FPR[ft]
		case isa.F1CEQ:
			c.FPCond = c.FPR[fs] == c.FPR[ft]
		default:
			c.Exception(ExcReserved, VecGeneral)
			return false
		}
	default:
		c.Exception(ExcReserved, VecGeneral)
		return false
	}
	return true
}
