// Package cpu implements the simulated processor: a 32-bit RISC in the
// style of the MIPS R3000 used by the DECstation 5000/200, with branch
// delay slots, a software-managed 64-entry TLB with random
// replacement, the classic KU/IE status stack, and the four-segment
// address map. Both the traced and untraced systems — kernels and user
// programs alike — execute on this interpreter; the tracing code
// (bbtrace, memtrace, instrumented blocks) is ordinary guest code.
package cpu

import (
	"fmt"

	"systrace/internal/obs"
)

// Segment boundaries (R3000).
const (
	KUSegEnd  = 0x80000000 // kuseg: TLB-mapped, user + kernel
	KSeg0Base = 0x80000000 // unmapped, cached, kernel only
	KSeg1Base = 0xa0000000 // unmapped, uncached, kernel only
	KSeg2Base = 0xc0000000 // TLB-mapped, kernel only
)

// Exception vectors. A miss on a kuseg address takes the dedicated
// UTLB refill vector with its nine-instruction handler; kseg2 (KTLB)
// misses and all other exceptions take the general vector, "which is
// much slower (several hundred instructions)" (paper §4.1).
const (
	VecUTLB    = 0x80000000
	VecGeneral = 0x80000080
)

// Exception cause codes.
const (
	ExcInt      = 0 // external interrupt
	ExcMod      = 1 // TLB modification (store to clean page)
	ExcTLBL     = 2 // TLB miss/invalid on load or fetch
	ExcTLBS     = 3 // TLB miss/invalid on store
	ExcAdEL     = 4 // address error on load/fetch
	ExcAdES     = 5 // address error on store
	ExcSyscall  = 8
	ExcBreak    = 9
	ExcReserved = 10 // reserved instruction
	ExcOverflow = 12
)

// Status register bits.
const (
	StIEc = 1 << 0 // interrupts enabled, current
	StKUc = 1 << 1 // user mode, current
	StIEp = 1 << 2
	StKUp = 1 << 3
	StIEo = 1 << 4
	StKUo = 1 << 5
	// Interrupt mask occupies bits 8..15 (one per line).
	StIMShift = 8
)

// Cause register bits.
const (
	CauseExcShift = 2
	CauseIPShift  = 8
	CauseBD       = 1 << 31
)

// TLB geometry: 64 entries, entries 0..7 wired (never hit by TLBWR),
// random replacement among 8..63, matching the R3000.
const (
	NTLB       = 64
	TLBWired   = 8
	PageSize   = 4096
	PageShift  = 12
	EntryHiVPN = 0xfffff000
	// ASID lives in bits 11:6 of EntryHi.
	ASIDShift = 6
	ASIDMask  = 0x3f << ASIDShift
	// EntryLo: PFN in 31:12, then N D V G.
	EloPFN = 0xfffff000
	EloN   = 1 << 11 // uncached
	EloD   = 1 << 10 // dirty (writable)
	EloV   = 1 << 9  // valid
	EloG   = 1 << 8  // global (ignore ASID)
)

// TLBEntry is one translation pair.
type TLBEntry struct {
	Hi uint32
	Lo uint32
}

// Bus is the physical memory system: RAM plus memory-mapped devices.
// Addresses are physical. A false ok return is a bus error, which the
// simulator treats as fatal (the synthetic machines never generate
// them in correct operation).
type Bus interface {
	Read(p uint32, size int) (v uint32, ok bool)
	Write(p uint32, size int, v uint32) bool
	// FetchWord is a 4-byte read on the instruction port.
	FetchWord(p uint32) (v uint32, ok bool)
	// RAMPage returns the RAM frame containing p for fast-path access,
	// or nil if p is device space or out of range.
	RAMPage(p uint32) []byte
}

// Observer sees every architectural event; the execution-driven memory
// system simulator (the "direct measurement" side of the validation)
// attaches here. All methods must be cheap; kernel is the mode, and
// cached reflects kseg1 bypass.
type Observer interface {
	Fetch(va, pa uint32, kernel, cached bool)
	Load(va, pa uint32, size int, kernel, cached bool)
	Store(va, pa uint32, size int, kernel, cached bool)
	Exception(code int, vector uint32)
	FPOp(latency int)
}

// RandomShift positions the Random index in the architectural
// register image: on the R3000 the TLB index occupies bits 13:8 of
// Random (and of Index), with the low eight bits reading as zero.
const RandomShift = 8

// CP0 is the system coprocessor state. Fields hold the *internal*
// representation each consumer wants; where that differs from the
// architectural register image, the layout is documented here and
// MFC0 (execCOP0) performs the conversion:
//
//   - Random holds the bare TLB index 0..NTLB-1. TLB replacement
//     (TLBWR, and the per-Step decrement) consumes it directly;
//     MFC0 returns it shifted into bits 13:8 (see RandomShift), which
//     is the only architecturally visible view.
//   - All other fields are stored exactly as MFC0 returns them.
type CP0 struct {
	Index    uint32
	Random   uint32
	EntryLo  uint32
	Context  uint32
	BadVAddr uint32
	EntryHi  uint32
	Status   uint32
	Cause    uint32
	EPC      uint32
}

// Class buckets retired instructions by kind, derived from the primary
// opcode: memory instructions (with FP loads/stores counted as memory,
// not FP), control transfers (JR/JALR live under OpSpecial and are
// counted as ALU — the approximation is static and documented), FP
// arithmetic, and system-coprocessor operations.
type Class uint8

const (
	ClassALU Class = iota
	ClassLoad
	ClassStore
	ClassBranch
	ClassFP
	ClassSystem
	NClass
)

func (c Class) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassLoad:
		return "load"
	case ClassStore:
		return "store"
	case ClassBranch:
		return "branch"
	case ClassFP:
		return "fp"
	case ClassSystem:
		return "system"
	}
	return "unknown"
}

// Stats are architectural event counts maintained by the CPU itself.
type Stats struct {
	Instret    uint64 // instructions retired
	UTLBMisses uint64 // refill-vector entries
	KTLBMisses uint64 // kseg2 misses (general vector)
	Exceptions uint64
	Interrupts uint64
	Syscalls   uint64
	// Classes splits Instret by instruction class.
	Classes [NClass]uint64
}

// tlbCache is a one-entry translation fast path per access port.
type tlbCache struct {
	vpage  uint32 // va & EntryHiVPN, 1 = invalid
	ppage  uint32
	ram    []byte // host slice for the frame, nil if device space
	cached bool   // architecturally cached (not kseg1 / EloN)
	gen    uint64 // tcGen at fill time; stale entries miss (tc2 only)
}

// tc2Sets sizes the second-level translation cache: direct-mapped by
// VPN, one array per access kind (read vs write, so a load-filled
// entry can never satisfy a store and skip the TLB dirty-bit check).
const tc2Sets = 64

// CPU is the processor. It is not safe for concurrent use.
type CPU struct {
	GPR [32]uint32
	// FPR is the value view of the FP registers; MTC1/MFC1 convert
	// through int32 (there is no raw-bit word view — see
	// TestMTC1MFC1Semantics, which pins that choice).
	FPR    [32]float64
	FPCond bool
	HI, LO uint32
	PC     uint32

	CP0  CP0
	TLB  [NTLB]TLBEntry
	Bus  Bus
	Obs  Observer
	Stat Stats

	inDelay     bool
	execInSlot  bool // the currently executing instruction is a delay slot
	delayTarget uint32
	irqLines    uint32

	icache tlbCache
	dcache tlbCache
	wcache tlbCache

	// Second-level translation cache behind the one-entry caches:
	// refill consults it before walking the TLB, so data working sets
	// larger than one page don't pay a 64-entry lookupTLB scan per
	// page alternation. Entries carry the tcGen they were filled in;
	// invalidateCaches bumps the generation, invalidating all of them
	// in O(1) (the UTLB refill handler invalidates on every TLBWR, so
	// a sweep would be on the guest's hottest exception path).
	tc2r  [tc2Sets]tlbCache
	tc2w  [tc2Sets]tlbCache
	tcGen uint64

	// Predecode engine state: the frame cache, the decoded frame for
	// the current instruction page (nil forces the slow path), and its
	// physical frame number for invalidation matching.
	pd       predecoder
	ipd      *pdFrame
	ipdFrame uint32
	// pdExit asks superblock dispatch to return to StepN after the
	// current instruction: set on exceptions, COP0 dispatch, device
	// (bus) accesses, and invalidation of the executing chain — exactly
	// the operations that can change interrupt, translation, text or
	// device-event state mid-chain.
	pdExit bool

	// Superblock engine state: linearized multi-block chains built on
	// top of the predecode cache (see superblock.go).
	sb sbState

	// prof is the guest-PC sampling profiler hook (see SetProfiler in
	// obs.go); zero when no sampler is attached.
	prof profiler

	// lastDevKey is the page|direction of the last device access the
	// flight recorder saw; devAccess uses it to emit edges, not every
	// word of a device-streaming loop.
	lastDevKey uint64

	// Per-port observer flags, re-synced by Step when c.Obs changes
	// nil-ness; they hoist the interface nil check out of every
	// fetch/load/store/exception/FP event.
	obsAny   bool
	obsFetch bool
	obsLoad  bool
	obsStore bool
	obsExc   bool
	obsFP    bool

	// Halted is set by the machine (e.g. final process exit) to stop
	// Run loops.
	Halted bool
	// HaltOnBreak makes a break instruction halt the CPU instead of
	// raising an exception — used by bare-metal toolchain tests that
	// run without a kernel.
	HaltOnBreak bool
	// FaultMsg holds a description of a fatal simulator error.
	FaultMsg string
}

// New returns a CPU in kernel mode with interrupts disabled, PC at
// entry.
func New(bus Bus, entry uint32) *CPU {
	c := &CPU{Bus: bus, PC: entry}
	c.CP0.Random = NTLB - 1
	c.invalidateCaches()
	return c
}

func (c *CPU) invalidateCaches() {
	c.icache.vpage = 1
	c.dcache.vpage = 1
	c.wcache.vpage = 1
	c.tcGen++
}

// KernelMode reports whether the CPU is in kernel mode.
func (c *CPU) KernelMode() bool { return c.CP0.Status&StKUc == 0 }

// ASID returns the current address-space id from EntryHi.
func (c *CPU) ASID() uint32 { return c.CP0.EntryHi & ASIDMask >> ASIDShift }

// SetIRQ raises or clears external interrupt line (0..7).
func (c *CPU) SetIRQ(line int, on bool) {
	bit := uint32(1) << (uint(line) + CauseIPShift)
	old := c.irqLines
	if on {
		c.irqLines |= bit
	} else {
		c.irqLines &^= bit
	}
	if c.irqLines != old {
		var lvl uint64
		if on {
			lvl = 1
		}
		obs.Emit(evIRQ, uint64(line), lvl)
	}
}

// IRQPending reports whether an enabled interrupt is pending.
func (c *CPU) IRQPending() bool {
	if c.CP0.Status&StIEc == 0 {
		return false
	}
	return c.irqLines&(c.CP0.Status>>StIMShift<<CauseIPShift)&0xff00 != 0
}

// fault records a fatal simulator error and halts.
func (c *CPU) fault(format string, args ...any) {
	if c.FaultMsg == "" {
		c.FaultMsg = fmt.Sprintf(format, args...)
	}
	c.Halted = true
}

// Exception performs exception entry: pushes the KU/IE stack, records
// EPC/Cause (with BD if in a delay slot), and vectors.
func (c *CPU) Exception(code int, vector uint32) {
	c.pdExit = true
	c.Stat.Exceptions++
	obs.Emit(evException, uint64(code), uint64(c.PC))
	st := c.CP0.Status
	c.CP0.Status = st&^0x3f | st<<2&0x3c // push stack, KUc=IEc=0
	cause := uint32(code) << CauseExcShift
	cause |= c.irqLines
	if c.inDelay || c.execInSlot {
		// The faulting (or about-to-execute) instruction sits in a
		// branch delay slot: EPC must name the branch so the pair
		// re-executes on return.
		cause |= CauseBD
		c.CP0.EPC = c.PC - 4
	} else {
		c.CP0.EPC = c.PC
	}
	c.CP0.Cause = cause
	c.inDelay = false
	c.execInSlot = false
	c.PC = vector
	if c.obsExc {
		c.Obs.Exception(code, vector)
	}
}

// rfe pops the KU/IE stack.
func (c *CPU) rfe() {
	st := c.CP0.Status
	c.CP0.Status = st&^0x0f | st>>2&0x0f
}

// lookupTLB searches for a matching entry; returns index or -1.
func (c *CPU) lookupTLB(va uint32) int {
	vpn := va & EntryHiVPN
	asid := c.CP0.EntryHi & ASIDMask
	for i := 0; i < NTLB; i++ {
		e := &c.TLB[i]
		if e.Hi&EntryHiVPN != vpn {
			continue
		}
		if e.Lo&EloG != 0 || e.Hi&ASIDMask == asid {
			return i
		}
	}
	return -1
}

// translate maps va to a physical address for an access of the given
// kind. On failure it raises the appropriate exception and returns
// ok=false.
func (c *CPU) translate(va uint32, store, fetch bool) (pa uint32, cached, ok bool) {
	switch {
	case va < KUSegEnd:
		// TLB-mapped user segment.
	case va < KSeg1Base:
		if !c.KernelMode() {
			c.addressError(va, store)
			return 0, false, false
		}
		return va - KSeg0Base, true, true
	case va < KSeg2Base:
		if !c.KernelMode() {
			c.addressError(va, store)
			return 0, false, false
		}
		return va - KSeg1Base, false, true
	default:
		if !c.KernelMode() {
			c.addressError(va, store)
			return 0, false, false
		}
		// kseg2: TLB-mapped kernel segment.
	}
	i := c.lookupTLB(va)
	if i < 0 {
		c.tlbMiss(va, store)
		return 0, false, false
	}
	lo := c.TLB[i].Lo
	if lo&EloV == 0 {
		// Invalid entries hit in the TLB and take the general vector.
		c.CP0.BadVAddr = va
		c.setContext(va)
		c.CP0.EntryHi = c.CP0.EntryHi&ASIDMask | va&EntryHiVPN
		code := ExcTLBL
		if store {
			code = ExcTLBS
		}
		c.Exception(code, VecGeneral)
		return 0, false, false
	}
	if store && lo&EloD == 0 {
		c.CP0.BadVAddr = va
		c.setContext(va)
		c.CP0.EntryHi = c.CP0.EntryHi&ASIDMask | va&EntryHiVPN
		c.Exception(ExcMod, VecGeneral)
		return 0, false, false
	}
	return lo&EloPFN | va&(PageSize-1), lo&EloN == 0, true
}

func (c *CPU) setContext(va uint32) {
	c.CP0.Context = c.CP0.Context&0xffe00000 | va>>PageShift<<2&0x001ffffc
}

func (c *CPU) tlbMiss(va uint32, store bool) {
	c.CP0.BadVAddr = va
	c.setContext(va)
	c.CP0.EntryHi = c.CP0.EntryHi&ASIDMask | va&EntryHiVPN
	code := ExcTLBL
	if store {
		code = ExcTLBS
	}
	if va < KUSegEnd {
		c.Stat.UTLBMisses++
		c.Exception(code, VecUTLB)
	} else {
		c.Stat.KTLBMisses++
		c.Exception(code, VecGeneral)
	}
}

func (c *CPU) addressError(va uint32, store bool) {
	c.CP0.BadVAddr = va
	code := ExcAdEL
	if store {
		code = ExcAdES
	}
	c.Exception(code, VecGeneral)
}
