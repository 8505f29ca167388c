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
//
// FetchRun(va, pa, n, kernel, cached) is exactly n Fetch calls at va,
// va+4, ..., va+4(n-1) (physical pa, pa+4, ...), all within one page.
// Superblock dispatch reports a chain's sequential fetches this way,
// once per run; every other event of an instruction in the run follows
// the whole run, so a run never has a load, store, FP op or exception
// between its fetches.
type Observer interface {
	Fetch(va, pa uint32, kernel, cached bool)
	FetchRun(va, pa uint32, n int, kernel, cached bool)
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

// Stats are architectural event counts maintained by the CPU itself.
type Stats struct {
	Instret    uint64 // instructions retired
	UTLBMisses uint64 // refill-vector entries
	KTLBMisses uint64 // kseg2 misses (general vector)
	Exceptions uint64
	Interrupts uint64
	Syscalls   uint64
}

// tlbCache is one soft-TLB entry: a cached page translation, tagged
// with the address space it holds in (see refill). An entry is 32
// bytes, so the three tables fit in a 32 KB L1 cache.
type tlbCache struct {
	tag    uint32 // va & EntryHiVPN, with EntryHi's ASID field at fill time under amask
	ppage  uint32
	amask  uint32          // ASIDMask, or 0 if the translation holds under every ASID
	cached bool            // architecturally cached (not kseg1 / EloN)
	ram    *[PageSize]byte // host frame, nil if device space or uncached
	gen    uint64          // tcGen at fill time, 0 if never filled; older entries miss
}

// Soft-TLB access kinds: each has its own table, so a load-filled
// entry can never satisfy a store and skip the TLB dirty-bit check.
const (
	tlbLoad = iota
	tlbStore
	tlbFetch
	nTLBKinds

	softTLBSets = 256 // sets per table (see tlbSet)
)

// tlbSet is the soft-TLB set of va. Folding the VPN's upper bytes into
// the index keeps pages on 1 MB strides (the trace buffer, stack and
// data regions of a traced run) in different sets.
func tlbSet(va uint32) uint32 {
	v := va >> PageShift
	return (v ^ v>>8 ^ v>>16) & (softTLBSets - 1)
}

// Soft-TLB refill causes, for the refill counters.
const (
	refillCold       = iota // the set was never filled
	refillConflict          // the set held another page, or this page in another address space
	refillGeneration        // the set held this page from an older tcGen
	nRefillCauses
)

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

	// stlb is the soft-TLB (see tlbHit and refill). Entries carry the
	// ASID they were filled under, so an address-space switch expires
	// nothing; a TLB write bumps tcGen, which expires every entry in
	// O(1): the UTLB refill handler writes on every miss, so a sweep
	// would be on the guest's hottest exception path.
	stlb    [nTLBKinds][softTLBSets]tlbCache
	tcGen   uint64
	refills [nTLBKinds][nRefillCauses]uint64

	// pdExit asks superblock dispatch to return to StepN after the
	// current instruction: set on exceptions, COP0 dispatch, device
	// (bus) accesses, and invalidation of the executing chain — exactly
	// the operations that can change interrupt, translation, text or
	// device-event state mid-chain.
	pdExit bool

	// Superblock engine state: linearized multi-block chains decoded
	// from RAM (see superblock.go).
	sb sbState

	// prof is the guest-PC sampling profiler hook (see SetProfiler in
	// obs.go); zero when no sampler is attached.
	prof profiler

	// lastDevKey is the page|direction of the last device access the
	// flight recorder saw; devAccess uses it to emit edges, not every
	// word of a device-streaming loop.
	lastDevKey uint64

	// obsAny caches c.Obs != nil, re-derived at every Step and StepN;
	// it hoists the interface nil check out of every
	// fetch/load/store/exception/FP event.
	obsAny bool

	// Halted is set by the machine (e.g. final process exit) to stop
	// Run loops.
	Halted bool
	// HaltOnBreak makes a break instruction halt the CPU instead of
	// raising an exception — used by bare-metal toolchain tests that
	// run without a kernel.
	HaltOnBreak bool
	// FaultMsg holds a description of a fatal simulator error.
	FaultMsg string

	// Extend, when set, is asked for more budget when superblock
	// dispatch uses up the budget of its StepN call at an instruction
	// boundary inside a chain or at a link between chains. It returns
	// the further instructions granted, or 0 to end the call there. It
	// runs on the CPU's goroutine with Stat.Instret and PC current
	// (nothing else is: Random is settled at the call's end) and must
	// not change CPU state. It is not asked while a profiler is
	// attached, whose sample boundaries cut StepN's budget.
	// The machine sets it for the length of a Run with a stall model
	// attached. It is the last field so that it moves no hot field
	// (the soft-TLB's cache-line alignment depends on its offset).
	Extend func() uint64
}

// New returns a CPU in kernel mode with interrupts disabled, PC at
// entry.
func New(bus Bus, entry uint32) *CPU {
	c := &CPU{Bus: bus, PC: entry}
	c.CP0.Random = NTLB - 1
	c.invalidateCaches()
	return c
}

// invalidateCaches expires every soft-TLB entry and superblock page-guard
// validation; callers write the TLB (TLBWI, TLBWR). An ASID switch
// needs no call: both caches are tagged with the ASID they hold under.
func (c *CPU) invalidateCaches() { c.tcGen++ }

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
	if c.obsAny {
		c.Obs.Exception(code, vector)
	}
}

// rfe pops the KU/IE stack.
func (c *CPU) rfe() {
	st := c.CP0.Status
	c.CP0.Status = st&^0x0f | st>>2&0x0f
}

// lookupTLB searches for a matching entry; returns index or -1, and
// whether the match holds under every ASID: it is global, and no
// earlier entry has its VPN (under that entry's ASID, the earlier one
// would match first).
func (c *CPU) lookupTLB(va uint32) (int, bool) {
	vpn := va & EntryHiVPN
	asid := c.CP0.EntryHi & ASIDMask
	shadowed := false
	for i := 0; i < NTLB; i++ {
		e := &c.TLB[i]
		if e.Hi&EntryHiVPN != vpn {
			continue
		}
		if e.Lo&EloG != 0 || e.Hi&ASIDMask == asid {
			return i, e.Lo&EloG != 0 && !shadowed
		}
		shadowed = true
	}
	return -1, false
}

// translate maps va to a physical address for an access of the given
// kind, and reports whether that translation holds under every ASID
// (the unmapped segments, and a global TLB entry that lookupTLB finds
// first under any ASID). On failure it raises the appropriate
// exception and returns ok=false.
func (c *CPU) translate(va uint32, store, fetch bool) (pa uint32, cached, global, ok bool) {
	switch {
	case va < KUSegEnd:
		// TLB-mapped user segment.
	case va < KSeg1Base:
		if !c.KernelMode() {
			c.addressError(va, store)
			return 0, false, false, false
		}
		return va - KSeg0Base, true, true, true
	case va < KSeg2Base:
		if !c.KernelMode() {
			c.addressError(va, store)
			return 0, false, false, false
		}
		return va - KSeg1Base, false, true, true
	default:
		if !c.KernelMode() {
			c.addressError(va, store)
			return 0, false, false, false
		}
		// kseg2: TLB-mapped kernel segment.
	}
	i, global := c.lookupTLB(va)
	if i < 0 {
		c.tlbMiss(va, store)
		return 0, false, false, false
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
		return 0, false, false, false
	}
	if store && lo&EloD == 0 {
		c.CP0.BadVAddr = va
		c.setContext(va)
		c.CP0.EntryHi = c.CP0.EntryHi&ASIDMask | va&EntryHiVPN
		c.Exception(ExcMod, VecGeneral)
		return 0, false, false, false
	}
	return lo&EloPFN | va&(PageSize-1), lo&EloN == 0, global, true
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
