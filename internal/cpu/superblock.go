package cpu

// Superblock tier: every StepN probes the entry table at its PC, and a
// chain probes at the continuation it exits to. When an address keeps
// coming up, the builder walks the instructions from it, decoding each
// straight from the text frame's RAM, and chains fall-through edges
// and statically predicted direct branches across basic-block (and
// frame) boundaries into one linearized step array. Dispatch runs that array in a dense
// jump-table loop with the per-instruction work of Step hoisted out:
// the PC is implicit in the step index (materialized only at exits),
// and the retirement count, the class counts and CP0.Random are
// derived once per pass over the chain instead of counted per
// instruction (see execSB). A chain that closes on its own entry wraps
// in place, and a chain end or a mispredicted branch links straight
// into the superblock at the real successor without leaving the
// dispatch loop.
//
// Soundness leans on two pillars:
//
//   - Nothing inside a superblock can change the fetch translation:
//     COP0 ops (the only way to write the TLB, Status, or EntryHi) and
//     SYSCALL/BREAK terminate chains at build time, and every
//     exception exits at dispatch time. A superblock whose pages are
//     TLB-mapped additionally carries the tcGen it was validated
//     under; entry under a newer generation revalidates every page
//     guard against the live TLB (current ASID, V set, N clear, same
//     frame) before the hoisted translations may be reused.
//
//   - Writes into chained text invalidate: every frame a superblock
//     draws micro-ops from is marked in the store-path bitmap and
//     registered in a frame→superblocks dependency map, and dropFrame
//     (guest stores via the bitmap, host writes and device DMA via the
//     RAM write hook) invalidates
//     the dependents — raising pdExit if one of them is currently
//     executing, so the dispatch loop bails after the in-flight
//     instruction.
//
// Branch prediction is static backward-taken/forward-not-taken (plus
// always-taken for unconditional jumps and compare-equal BEQ r,r);
// a mispredicted branch retires, its delay slot runs inline, and
// dispatch continues at the real target: in the superblock there if
// one is enterable, else in the Steps that follow. The engine is
// proven bit-identical to the reference interpreter by the
// lockstep/fuzz oracle in this package and the whole-workload oracle
// at the repo root.

import (
	"encoding/binary"

	"systrace/internal/isa"
	"systrace/internal/telemetry"
)

const (
	// sbIndexBits sizes the direct-mapped entry-point table.
	sbIndexBits = 12
	sbIndexSize = 1 << sbIndexBits

	// sbDefaultThreshold is how many times an address must be probed
	// as an entry (a StepN at that PC, or a chain exiting to it)
	// before a superblock is built over it.
	sbDefaultThreshold = 16

	// sbMaxSteps bounds one superblock's linearized chain.
	sbMaxSteps = 256
	// sbMinSteps is the smallest chain worth the entry guards.
	sbMinSteps = 3
	// sbMaxPages bounds the page guards one superblock may carry.
	sbMaxPages = 8
	// sbMaxBlocks is a runaway backstop on resident superblocks.
	sbMaxBlocks = 1024
)

// sbStep flags.
const (
	// sbSlot marks a branch delay slot. Dispatch does not track
	// inDelay while inside a superblock (the chain already encodes the
	// control flow); the flag exists so budget exits that stop just
	// before a slot can reconstruct the architectural inDelay state,
	// and so slow-path memory ops in a slot set execInSlot for exact
	// BD/EPC semantics.
	sbSlot uint8 = 1 << iota
	// sbPredTaken marks a conditional branch predicted taken.
	sbPredTaken
)

// sbStep is one dispatch step: a widened uop with its own PC (for
// exits and exceptions) and the absolute predicted-taken target baked
// into imm for branches and jumps. run is nonzero on the first step of
// each fetch run (see sbStampRuns) and holds the run's length. The
// step's class lives in the chain's prefix table (superblock.pre).
type sbStep struct {
	op    pdOp
	rs    uint8
	rt    uint8
	rd    uint8
	sh    uint8
	flags uint8
	run   uint8
	imm   uint32
	pc    uint32
}

// A class-count prefix packs one 10-bit count per Class into a uint64.
// A chain holds at most sbMaxSteps (256) steps, so dispatch can sum the
// prefixes of several passes in one packed word and unpack it only
// once the sum could next overflow a field (sbClassFlush).
const (
	sbClassBits  = 10
	sbClassMask  = 1<<sbClassBits - 1
	sbClassFlush = sbClassMask - sbMaxSteps
)

// sbPage is one TLB-mapped page guard: entry under a new translation
// generation must re-resolve vpage to exactly ppage.
type sbPage struct {
	vpage uint32
	ppage uint32
}

type superblock struct {
	entryVA uint32
	steps   []sbStep
	// pas holds each step's physical fetch address, for the observer's
	// FetchRun. The page guards keep it valid, and dropping any frame
	// it names invalidates the superblock.
	pas []uint32
	// pages holds guards for the TLB-mapped pages the chain fetches
	// from (kseg0 pages have fixed translations and need none).
	pages []sbPage
	// pre[i] holds the packed class counts of steps[:i] (see
	// sbClassBits): a dispatch pass that retired steps[:i] accounts its
	// classes with one add of pre[i]. len(pre) = len(steps)+1.
	pre []uint64
	// frames are the physical frames the micro-ops were drawn from;
	// dropFrame on any of them invalidates the superblock.
	frames []uint32
	gen    uint64 // tcGen the page guards were last validated under
	mapped bool   // any page guard present
	kernel bool   // chain touches a kernel-only segment
	loop   bool   // chain ends with a predicted branch back to entryVA
	// exitSlot: the final step is the delay slot of a chain-ending
	// branch or of a self-loop's branch, so the fall-off-the-end PC is
	// the branch's delayTarget (set by the branch step) rather than
	// lastPC+4.
	exitSlot bool
	valid    bool
}

// sbHeat is one slot of the direct-mapped hotness table.
type sbHeat struct {
	va uint32
	n  uint32
}

// sbState is the per-CPU superblock engine state.
type sbState struct {
	// idx is the direct-mapped dispatch table (entry VA → superblock);
	// all is the dedupe map behind it, deps the frame→dependents map
	// for invalidation. All lazily allocated on first use.
	idx   []*superblock
	heat  []sbHeat
	all   map[uint32]*superblock
	deps  map[uint32][]*superblock
	cur   *superblock // superblock currently being dispatched
	count int         // valid superblocks resident

	// walk is the builder's scratch, reused across builds: a chain is
	// linearized here and copied out at its exact length.
	walk struct {
		steps []sbStep
		pas   []uint32
		pre   []uint64
	}

	threshold uint32 // build threshold; 0 means sbDefaultThreshold

	built        uint64
	invalidated  uint64
	entryRejects uint64
	exitEnd      uint64
	exitMispred  uint64
	exitBudget   uint64
	exitPDExit   uint64
	exitExc      uint64
	instrs       uint64 // instructions retired inside execSB

	chainHist *telemetry.Histogram // chain length at build, in instructions
}

// SuperblockStats are the engine counters, exported for tests and
// benchmarks (telemetry reads the fields directly via RegisterMetrics).
type SuperblockStats struct {
	Built        uint64
	Invalidated  uint64
	EntryRejects uint64
	ExitEnd      uint64
	ExitMispred  uint64
	ExitBudget   uint64
	ExitPDExit   uint64
	ExitExc      uint64
	Instructions uint64 // instructions retired inside superblock dispatch
}

// SetSuperblockThreshold overrides the build threshold (0 restores the
// default). Tests set 1 so single executions form superblocks.
func (c *CPU) SetSuperblockThreshold(n uint32) { c.sb.threshold = n }

// SuperblockStats returns the engine counters.
func (c *CPU) SuperblockStats() SuperblockStats {
	return SuperblockStats{
		Built:        c.sb.built,
		Invalidated:  c.sb.invalidated,
		EntryRejects: c.sb.entryRejects,
		ExitEnd:      c.sb.exitEnd,
		ExitMispred:  c.sb.exitMispred,
		ExitBudget:   c.sb.exitBudget,
		ExitPDExit:   c.sb.exitPDExit,
		ExitExc:      c.sb.exitExc,
		Instructions: c.sb.instrs,
	}
}

// sbDropAll invalidates and forgets every superblock (engine switch or
// the sbMaxBlocks backstop) and clears the store-path bitmap.
func (c *CPU) sbDropAll() {
	for _, s := range c.sb.all {
		if s.valid {
			s.valid = false
			c.sb.invalidated++
		}
	}
	c.sb.idx = nil
	c.sb.heat = nil
	c.sb.all = nil
	c.sb.deps = nil
	c.sb.count = 0
	for i := range c.pd.bitmap {
		c.pd.bitmap[i] = 0
	}
}

// sbInvalidateFrame invalidates every superblock that drew micro-ops
// from physical frame fn; called from dropFrame so all three write
// paths (guest store bitmap, RAM write hook, device DMA) flow here. It
// reports whether the dispatching chain was one of them.
func (c *CPU) sbInvalidateFrame(fn uint32) (dispatching bool) {
	for _, s := range c.sb.deps[fn] {
		if s.valid {
			s.valid = false
			c.sb.invalidated++
			c.sb.count--
		}
		if s == c.sb.cur {
			c.pdExit = true
			dispatching = true
		}
	}
	delete(c.sb.deps, fn)
	return dispatching
}

// sbEnterable returns the superblock at va if one exists and its entry
// guards pass; a miss feeds the hotness table and may trigger a build.
// The guards reject a kernel-only chain entered in user mode and a
// mapped chain whose page guards fail revalidation. The caller must
// ensure no delay slot is pending: StepN checks before it probes, and
// execSB links only at clean instruction boundaries.
func (c *CPU) sbEnterable(va uint32) *superblock {
	if c.sb.idx == nil {
		if c.pd.off {
			return nil
		}
		c.sb.idx = make([]*superblock, sbIndexSize)
		c.sb.heat = make([]sbHeat, sbIndexSize)
	}
	s := c.sb.idx[va>>2&(sbIndexSize-1)]
	if s == nil || s.entryVA != va || !s.valid {
		c.sbMiss(va)
		return nil
	}
	if s.kernel && !c.KernelMode() {
		c.sb.entryRejects++
		return nil
	}
	if s.mapped && s.gen != c.tcGen && !c.sbRevalidate(s) {
		c.sb.entryRejects++
		return nil
	}
	return s
}

// sbMiss accounts one lookup miss at va and builds a superblock once
// the address crosses the threshold.
func (c *CPU) sbMiss(va uint32) {
	slot := va >> 2 & (sbIndexSize - 1)
	if s := c.sb.idx[slot]; s != nil && !s.valid {
		c.sb.idx[slot] = nil
		if c.sb.all[s.entryVA] == s {
			delete(c.sb.all, s.entryVA)
		}
	}
	h := &c.sb.heat[slot]
	if h.va != va {
		h.va = va
		h.n = 1
		return
	}
	h.n++
	th := c.sb.threshold
	if th == 0 {
		th = sbDefaultThreshold
	}
	if h.n < th {
		return
	}
	h.n = 0
	if s := c.sb.all[va]; s != nil && s.valid {
		// Still resident, just evicted from the direct-mapped table by
		// a colliding entry point: re-install instead of rebuilding.
		c.sb.idx[slot] = s
		return
	}
	c.sbBuild(va)
}

// sbRevalidate re-checks every page guard against the live TLB under
// the current ASID. On success the superblock is re-stamped with the
// current generation so subsequent entries are O(1) again.
func (c *CPU) sbRevalidate(s *superblock) bool {
	for _, p := range s.pages {
		if ppage, _, _, _, ok := c.sbProbeText(p.vpage); !ok || ppage != p.ppage {
			return false
		}
	}
	s.gen = c.tcGen
	return true
}

// sbProbeText resolves the text page holding va for the builder
// without raising exceptions or touching the translation caches.
// Uncached segments and device space are refused: a chain decodes its
// text once, so it may only draw from cached RAM.
func (c *CPU) sbProbeText(va uint32) (ppage uint32, ram []byte, mapped, kernel, ok bool) {
	switch {
	case va < KUSegEnd:
		mapped = true
	case va < KSeg1Base:
		kernel = true
	case va < KSeg2Base:
		return 0, nil, false, false, false // kseg1: uncached
	default:
		mapped = true
		kernel = true
	}
	if mapped {
		i := c.lookupTLB(va)
		if i < 0 {
			return 0, nil, false, false, false
		}
		lo := c.TLB[i].Lo
		if lo&EloV == 0 || lo&EloN != 0 {
			return 0, nil, false, false, false
		}
		ppage = lo & EloPFN
	} else {
		ppage = (va - KSeg0Base) & EntryHiVPN
	}
	ram = c.Bus.RAMPage(ppage)
	if ram == nil {
		return 0, nil, false, false, false
	}
	return ppage, ram, mapped, kernel, true
}

// sbChainEnder reports whether a micro-op must terminate a chain: ops
// that set pdExit or raise by design (COP0, SYSCALL, BREAK, reserved)
// and the FP condition branch, which the builder does not predict.
func sbChainEnder(u *uop) bool {
	switch u.op {
	case pdCOP0, pdSYSCALL, pdBREAK, pdReserved:
		return true
	case pdCOP1:
		return uint32(u.rs) == isa.Cop1BC // FP condition branch
	}
	return false
}

// sbIsBranch reports whether a micro-op is a control transfer (with a
// delay slot).
func sbIsBranch(u *uop) bool {
	switch u.op {
	case pdBEQ, pdBNE, pdBLEZ, pdBGTZ, pdBLTZ, pdBGEZ, pdJ, pdJAL, pdJR, pdJALR:
		return true
	}
	return false
}

// sbBuild walks the instructions from entry, decoding each from RAM
// and linearizing predicted control flow into one superblock, and
// installs it.
func (c *CPU) sbBuild(entry uint32) {
	if entry&3 != 0 {
		return
	}
	if c.sb.count >= sbMaxBlocks {
		c.sbDropAll()
		// sbDropAll released the tables; the caller's next miss
		// reallocates them and heat re-accumulates.
		return
	}
	s := &superblock{entryVA: entry}

	// Page cursor for the walk. Fetching from a new page resolves its
	// translation, records the guards, and binds the frame's RAM. The
	// micro-op is returned by value: a pointer to it would move it to
	// the heap on every step of the walk.
	var curVP, curPP uint32 = 1, 0
	var ram []byte
	fetch := func(va uint32) (uop, uint32, bool) {
		if va&EntryHiVPN != curVP {
			ppage, pram, mapped, kernel, ok := c.sbProbeText(va)
			if !ok {
				return uop{}, 0, false
			}
			curPP = ppage
			fn := ppage >> PageShift
			seen := false
			for _, f := range s.frames {
				if f == fn {
					seen = true
					break
				}
			}
			if !seen {
				if len(s.frames) >= sbMaxPages {
					return uop{}, 0, false
				}
				s.frames = append(s.frames, fn)
				if mapped {
					s.pages = append(s.pages, sbPage{vpage: va & EntryHiVPN, ppage: ppage})
					s.mapped = true
				}
				if kernel {
					s.kernel = true
				}
			} else if mapped {
				// The same frame can be re-entered under a different
				// virtual page (aliases); guard the new vpage too.
				guarded := false
				for _, p := range s.pages {
					if p.vpage == va&EntryHiVPN {
						guarded = true
						break
					}
				}
				if !guarded {
					if len(s.pages) >= sbMaxPages {
						return uop{}, 0, false
					}
					s.pages = append(s.pages, sbPage{vpage: va & EntryHiVPN, ppage: ppage})
					s.mapped = true
				}
			}
			ram = pram
			curVP = va & EntryHiVPN
		}
		off := va & (PageSize - 1)
		return decodeUop(binary.BigEndian.Uint32(ram[off:])), curPP | off, true
	}

	wk := &c.sb.walk
	wk.steps, wk.pas, wk.pre = wk.steps[:0], wk.pas[:0], append(wk.pre[:0], 0)
	mkStep := func(u *uop, pc uint32, flags uint8) sbStep {
		return sbStep{
			op: u.op, rs: u.rs, rt: u.rt, rd: u.rd, sh: u.sh,
			flags: flags, imm: u.imm, pc: pc,
		}
	}
	add := func(st sbStep, pa uint32, cls Class) {
		wk.steps = append(wk.steps, st)
		wk.pas = append(wk.pas, pa)
		wk.pre = append(wk.pre, wk.pre[len(wk.pre)-1]+1<<(sbClassBits*uint(cls)))
	}

	va := entry
	// viaJump is true while va names the target of a predicted-taken
	// branch whose (branch, slot) pair is already appended but from
	// whose block nothing is yet. If the walk stops here, the chain's
	// continuation is that target — dispatch must exit through the
	// slot's delayTarget, not fall off the end to lastPC+4.
	viaJump := false
walk:
	for len(wk.steps) < sbMaxSteps {
		u, pa, ok := fetch(va)
		if !ok || sbChainEnder(&u) {
			s.exitSlot = viaJump
			break
		}
		if !sbIsBranch(&u) {
			add(mkStep(&u, va, 0), pa, u.cls)
			va += 4
			viaJump = false
			continue
		}
		if len(wk.steps)+2 > sbMaxSteps {
			s.exitSlot = viaJump
			break
		}
		slot, slotPA, ok := fetch(va + 4)
		if !ok || sbChainEnder(&slot) || sbIsBranch(&slot) {
			// A slot the dispatcher can't run linearized (or can't
			// fetch): end the chain before the branch.
			s.exitSlot = viaJump
			break
		}
		viaJump = false
		st := mkStep(&u, va, 0)
		var target uint32
		chain := false // predicted-taken chains continue at target
		ends := false  // branch ends the chain after its slot
		switch u.op {
		case pdJ, pdJAL:
			target = va&0xf0000000 | u.imm
			st.imm = target
			st.flags |= sbPredTaken
			chain = true
		case pdJR, pdJALR:
			// Dynamic target: always chain-ending; dispatch sets
			// delayTarget from the register.
			ends = true
		default:
			target = va + 4 + u.imm
			st.imm = target
			taken := target < va // backward-taken/forward-not-taken
			if u.op == pdBEQ && u.rs == u.rt {
				taken = true // unconditional in disguise
			}
			if taken {
				st.flags |= sbPredTaken
				chain = true
			}
		}
		add(st, pa, u.cls)
		add(mkStep(&slot, va+4, sbSlot), slotPA, slot.cls)
		switch {
		case ends:
			s.exitSlot = true
			break walk
		case chain:
			if target == entry {
				// Self-loop: dispatch wraps to step 0 instead of
				// exiting, re-entry guards not needed (nothing inside
				// can change them — that is the chain-ender rule).
				// A slot that raises pdExit still ends the chain, and
				// then the continuation is the loop head the branch
				// took: the slot's delayTarget.
				s.loop = true
				s.exitSlot = true
				break walk
			}
			if target < va {
				// Backward branch into other code: stop here rather
				// than unrolling; the target gets its own superblock.
				s.exitSlot = true
				break walk
			}
			if len(wk.steps) >= sbMaxSteps {
				// No room to keep walking past the jump: the chain
				// must exit through the slot's delayTarget, not fall
				// off the end to lastPC+4 (a self-spin J unrolls to
				// exactly this shape).
				s.exitSlot = true
				break walk
			}
			va = target
			viaJump = true
		default:
			va += 8 // predicted not-taken: fall through past the slot
		}
	}

	if len(wk.steps) < sbMinSteps {
		return
	}
	s.steps = append([]sbStep(nil), wk.steps...)
	s.pas = append([]uint32(nil), wk.pas...)
	s.pre = append([]uint64(nil), wk.pre...)
	sbStampRuns(s)

	s.gen = c.tcGen
	s.valid = true
	if c.sb.all == nil {
		c.sb.all = make(map[uint32]*superblock)
		c.sb.deps = make(map[uint32][]*superblock)
	}
	if old := c.sb.all[entry]; old != nil && old.valid {
		old.valid = false
		c.sb.count--
	}
	c.sb.all[entry] = s
	c.sb.idx[entry>>2&(sbIndexSize-1)] = s
	for _, fn := range s.frames {
		c.sb.deps[fn] = append(c.sb.deps[fn], s)
		w := int(fn >> 6)
		if w >= len(c.pd.bitmap) {
			c.pd.bitmap = append(c.pd.bitmap, make([]uint64, w+1-len(c.pd.bitmap))...)
		}
		c.pd.bitmap[w] |= 1 << (fn & 63)
	}
	c.sb.count++
	c.sb.built++
	if c.sb.chainHist != nil {
		c.sb.chainHist.Observe(uint64(len(s.steps)))
	}
}

// sbStampRuns marks the chain's fetch runs: maximal spans of steps
// whose fetches are sequential within one page and that dispatch can
// report to an observer as one FetchRun ahead of running them. The
// first step of each run holds its length. A run ends after any step
// that reports an event of its own or may leave the chain before the
// next step (a load, store or COP op: every op execSB does not run
// purely inline), after any delay slot (a mispredict diverges there),
// at a PC or physical-address discontinuity, at a page boundary, at
// the chain's end, and after 255 steps.
func sbStampRuns(s *superblock) {
	for i := 0; i < len(s.steps); {
		j := i
		for {
			st := &s.steps[j]
			j++
			if j == len(s.steps) || j-i == 255 ||
				st.op >= pdLB || st.op == pdReserved || st.flags&sbSlot != 0 ||
				s.steps[j].pc != st.pc+4 || s.pas[j] != s.pas[j-1]+4 ||
				s.steps[j].pc&(PageSize-1) == 0 {
				break
			}
		}
		s.steps[i].run = uint8(j - i)
		i = j
	}
}

// advanceRandom applies n iterations of the per-instruction Random
// decrement (8..63 cycling with period 56) in O(1). Dispatch batches
// the update because nothing inside a superblock can read Random —
// MFC0 and TLBWR are chain enders.
func advanceRandom(r uint32, n uint64) uint32 {
	if n == 0 {
		return r
	}
	const period = NTLB - TLBWired
	if r <= TLBWired || r > NTLB-1 {
		// One step normalizes into the cycle.
		r = NTLB - 1
		n--
		if n == 0 {
			return r
		}
	}
	pos := (uint64(NTLB-1-r) + n) % period
	return NTLB - 1 - uint32(pos)
}

// execSB dispatches one superblock for up to max instructions and
// returns the number retired. On return the architectural state is
// exactly what the reference interpreter would hold after the same
// retirement count; c.pdExit is set when dispatch stopped early for
// an exception, a device access or an invalidation.
//
// The accounting is done once per dispatch pass, not once per step. A
// pass is one run over steps[0:i]; it ends at a loop wrap, a chain
// end, a mispredict link, a budget stop or an exception. The count
// retired so far is nb+i, where nb counts the steps of the passes
// already completed. A finished pass adds the chain's class-count
// prefix pre[i] to a packed sum, unpacked into Stat.Classes only when
// the next pass could overflow a field, and at exit. CP0.Random
// advances once at exit, and Stat.Instret is stored from nb+i before
// every slow path (device timestamps read it) and at exit.
//
// The step loop's only bookkeeping is i++ and one test against stop:
// min(len(steps), the budget's index), clamped further to the end of
// the current fetch run when an observer is attached, and to the end
// of the delay slot when a branch mispredicts. Reaching stop is a
// mispredict link (the slot retired), a chain end or loop wrap, a
// budget exit (restoring inDelay if the next step is a slot), or the
// start of the next fetch run. pdExit and Halted can only be raised by
// a step that called out of the loop, so they are tested only there:
// after the load, store and exec slow paths, and after an inline store
// whose frame drop invalidated the dispatching chain. A mispredicted
// slot that raised pdExit still resumes at the branch target.
//
// An attached observer gets each fetch run (see sbStampRuns) as one
// FetchRun when dispatch reaches the run's first step, clamped to the
// budget so a budget exit reports exactly the fetches it retired; the
// inline loads and stores report themselves, and the slow paths
// (load, store, exec) emit their own events. The observer state and
// the mode are read where they are used rather than held in locals:
// the dispatch loop is register-bound, and both are fixed for the
// whole dispatch (every mode change is an exception or a COP0 op, and
// both leave the chain).
func (c *CPU) execSB(s *superblock, max uint64) uint64 {
	steps := s.steps
	g := &c.GPR
	c.sb.cur = s
	r0 := c.CP0.Random
	base := c.Stat.Instret
	// nb: instructions retired by the completed passes of this
	// dispatch. cls sums the class-count prefixes of the passes not yet
	// flushed to Stat.Classes; clsN is their instruction total, which
	// bounds every field of cls.
	var nb, cls, clsN uint64
	// linkPending marks a mispredicted branch whose delay slot is about
	// to run inline; after the slot retires, dispatch leaves this chain
	// and tries to link into the superblock at the real target.
	linkPending := false
	i, stop := 0, 0
	var next *superblock // the chain the next pass runs

run:
	// A pass starts or resumes at steps[i]: i is 0 (a chain entry or a
	// loop wrap) or the stop of a pass cut short of the chain end, which
	// is the budget (exit here) or, when observed, the next fetch run.
	if nb+uint64(i) >= max {
		if steps[i].flags&sbSlot != 0 {
			// Stopping between a branch and its slot: the branch
			// already set delayTarget; restore the architectural
			// in-delay state for the next Step.
			c.inDelay = true
		}
		c.PC = steps[i].pc
		c.sb.exitBudget++
		goto out
	}
	stop = len(steps)
	if rem := max - nb; rem < uint64(stop) {
		stop = int(rem)
	}
	if c.obsAny {
		if e := i + int(steps[i].run); e < stop {
			stop = e
		}
		c.Obs.FetchRun(steps[i].pc, s.pas[i], stop-i, c.KernelMode(), true)
	}
	for {
		st := &steps[i]
		switch st.op {
		case pdADDU:
			g[st.rd] = g[st.rs] + g[st.rt]
			g[0] = 0
		case pdADDIU:
			g[st.rt] = g[st.rs] + st.imm
			g[0] = 0
		case pdLW:
			va := g[st.rs] + st.imm
			if e := &c.stlb[tlbLoad][tlbSet(va)]; c.tlbHit(e, va) && e.ram != nil && va&3 == 0 {
				if c.obsAny {
					c.Obs.Load(va, e.ppage|va&(PageSize-1), 4, c.KernelMode(), true)
				}
				g[st.rt] = binary.BigEndian.Uint32(e.ram[va&(PageSize-1):])
				g[0] = 0
			} else {
				c.sbCallOut(st, base+nb+uint64(i))
				v, ok := c.load(va, 4)
				c.execInSlot = false
				if !ok {
					goto exc
				}
				g[st.rt] = uint32(v)
				g[0] = 0
				if c.pdExit || c.Halted {
					goto called
				}
			}
		case pdSW:
			va := g[st.rs] + st.imm
			if e := &c.stlb[tlbStore][tlbSet(va)]; c.tlbHit(e, va) && e.ram != nil && va&3 == 0 {
				if c.obsAny {
					c.Obs.Store(va, e.ppage|va&(PageSize-1), 4, c.KernelMode(), true)
				}
				binary.BigEndian.PutUint32(e.ram[va&(PageSize-1):], g[st.rt])
				if fn := e.ppage >> PageShift; int(fn>>6) < len(c.pd.bitmap) && c.pd.bitmap[fn>>6]&(1<<(fn&63)) != 0 {
					c.dropFrame(fn)
					if c.pdExit {
						goto called
					}
				}
			} else {
				c.sbCallOut(st, base+nb+uint64(i))
				ok := c.store(va, 4, uint64(g[st.rt]))
				c.execInSlot = false
				if !ok {
					goto exc
				}
				if c.pdExit || c.Halted {
					goto called
				}
			}
		case pdBEQ, pdBNE, pdBLEZ, pdBGTZ, pdBLTZ, pdBGEZ:
			var taken bool
			switch st.op {
			case pdBEQ:
				taken = g[st.rs] == g[st.rt]
			case pdBNE:
				taken = g[st.rs] != g[st.rt]
			case pdBLEZ:
				taken = int32(g[st.rs]) <= 0
			case pdBGTZ:
				taken = int32(g[st.rs]) > 0
			case pdBLTZ:
				taken = int32(g[st.rs]) < 0
			default:
				taken = int32(g[st.rs]) >= 0
			}
			g[0] = 0
			t := st.pc + 8
			if taken {
				t = st.imm
			}
			c.delayTarget = t
			// A mispredicted branch no longer surrenders the batch: the
			// very next step IS its delay slot (the builder appends them
			// as a pair), so the slot runs inline with full slow-path
			// handling, and the pass stops after it to link to the real
			// target — possibly straight into another superblock.
			if taken != (st.flags&sbPredTaken != 0) {
				linkPending = true
				if i+2 < stop {
					stop = i + 2
				}
			}
		case pdJ:
			c.delayTarget = st.imm
			g[0] = 0
		case pdJAL:
			g[31] = st.pc + 8
			c.delayTarget = st.imm
			g[0] = 0
		case pdJR:
			c.delayTarget = g[st.rs]
			g[0] = 0
		case pdJALR:
			t := g[st.rs]
			g[st.rd] = st.pc + 8
			c.delayTarget = t
			g[0] = 0
		case pdSLL:
			g[st.rd] = g[st.rt] << st.sh
			g[0] = 0
		case pdSRL:
			g[st.rd] = g[st.rt] >> st.sh
			g[0] = 0
		case pdSRA:
			g[st.rd] = uint32(int32(g[st.rt]) >> st.sh)
			g[0] = 0
		case pdSLLV:
			g[st.rd] = g[st.rt] << (g[st.rs] & 31)
			g[0] = 0
		case pdSRLV:
			g[st.rd] = g[st.rt] >> (g[st.rs] & 31)
			g[0] = 0
		case pdSRAV:
			g[st.rd] = uint32(int32(g[st.rt]) >> (g[st.rs] & 31))
			g[0] = 0
		case pdSUBU:
			g[st.rd] = g[st.rs] - g[st.rt]
			g[0] = 0
		case pdAND:
			g[st.rd] = g[st.rs] & g[st.rt]
			g[0] = 0
		case pdOR:
			g[st.rd] = g[st.rs] | g[st.rt]
			g[0] = 0
		case pdXOR:
			g[st.rd] = g[st.rs] ^ g[st.rt]
			g[0] = 0
		case pdNOR:
			g[st.rd] = ^(g[st.rs] | g[st.rt])
			g[0] = 0
		case pdSLT:
			if int32(g[st.rs]) < int32(g[st.rt]) {
				g[st.rd] = 1
			} else {
				g[st.rd] = 0
			}
			g[0] = 0
		case pdSLTU:
			if g[st.rs] < g[st.rt] {
				g[st.rd] = 1
			} else {
				g[st.rd] = 0
			}
			g[0] = 0
		case pdSLTI:
			if int32(g[st.rs]) < int32(st.imm) {
				g[st.rt] = 1
			} else {
				g[st.rt] = 0
			}
			g[0] = 0
		case pdSLTIU:
			if g[st.rs] < st.imm {
				g[st.rt] = 1
			} else {
				g[st.rt] = 0
			}
			g[0] = 0
		case pdANDI:
			g[st.rt] = g[st.rs] & st.imm
			g[0] = 0
		case pdORI:
			g[st.rt] = g[st.rs] | st.imm
			g[0] = 0
		case pdXORI:
			g[st.rt] = g[st.rs] ^ st.imm
			g[0] = 0
		case pdLUI:
			g[st.rt] = st.imm
			g[0] = 0
		case pdMFHI:
			g[st.rd] = c.HI
			g[0] = 0
		case pdMTHI:
			c.HI = g[st.rs]
			g[0] = 0
		case pdMFLO:
			g[st.rd] = c.LO
			g[0] = 0
		case pdMTLO:
			c.LO = g[st.rs]
			g[0] = 0
		case pdMULT:
			p := int64(int32(g[st.rs])) * int64(int32(g[st.rt]))
			c.LO = uint32(p)
			c.HI = uint32(p >> 32)
			g[0] = 0
		case pdMULTU:
			p := uint64(g[st.rs]) * uint64(g[st.rt])
			c.LO = uint32(p)
			c.HI = uint32(p >> 32)
			g[0] = 0
		case pdDIV:
			if g[st.rt] != 0 {
				c.LO = uint32(int32(g[st.rs]) / int32(g[st.rt]))
				c.HI = uint32(int32(g[st.rs]) % int32(g[st.rt]))
			}
			g[0] = 0
		case pdDIVU:
			if g[st.rt] != 0 {
				c.LO = g[st.rs] / g[st.rt]
				c.HI = g[st.rs] % g[st.rt]
			}
			g[0] = 0
		case pdLB:
			va := g[st.rs] + st.imm
			if e := &c.stlb[tlbLoad][tlbSet(va)]; c.tlbHit(e, va) && e.ram != nil {
				if c.obsAny {
					c.Obs.Load(va, e.ppage|va&(PageSize-1), 1, c.KernelMode(), true)
				}
				g[st.rt] = uint32(int32(int8(e.ram[va&(PageSize-1)])))
				g[0] = 0
			} else {
				c.sbCallOut(st, base+nb+uint64(i))
				v, ok := c.load(va, 1)
				c.execInSlot = false
				if !ok {
					goto exc
				}
				g[st.rt] = uint32(int32(int8(v)))
				g[0] = 0
				if c.pdExit || c.Halted {
					goto called
				}
			}
		case pdLBU:
			va := g[st.rs] + st.imm
			if e := &c.stlb[tlbLoad][tlbSet(va)]; c.tlbHit(e, va) && e.ram != nil {
				if c.obsAny {
					c.Obs.Load(va, e.ppage|va&(PageSize-1), 1, c.KernelMode(), true)
				}
				g[st.rt] = uint32(e.ram[va&(PageSize-1)])
				g[0] = 0
			} else {
				c.sbCallOut(st, base+nb+uint64(i))
				v, ok := c.load(va, 1)
				c.execInSlot = false
				if !ok {
					goto exc
				}
				g[st.rt] = uint32(v)
				g[0] = 0
				if c.pdExit || c.Halted {
					goto called
				}
			}
		case pdSB:
			va := g[st.rs] + st.imm
			if e := &c.stlb[tlbStore][tlbSet(va)]; c.tlbHit(e, va) && e.ram != nil {
				if c.obsAny {
					c.Obs.Store(va, e.ppage|va&(PageSize-1), 1, c.KernelMode(), true)
				}
				e.ram[va&(PageSize-1)] = byte(g[st.rt])
				if fn := e.ppage >> PageShift; int(fn>>6) < len(c.pd.bitmap) && c.pd.bitmap[fn>>6]&(1<<(fn&63)) != 0 {
					c.dropFrame(fn)
					if c.pdExit {
						goto called
					}
				}
			} else {
				c.sbCallOut(st, base+nb+uint64(i))
				ok := c.store(va, 1, uint64(g[st.rt]&0xff))
				c.execInSlot = false
				if !ok {
					goto exc
				}
				if c.pdExit || c.Halted {
					goto called
				}
			}
		default:
			// pdLH/pdLHU/pdSH/pdLWC1/pdSWC1/pdCOP1(non-BC): the
			// reference interpreter on the raw word decodeUop kept in
			// imm.
			c.sbCallOut(st, base+nb+uint64(i))
			ok := c.exec(st.imm)
			c.execInSlot = false
			if !ok {
				goto exc
			}
			if c.pdExit || c.Halted {
				goto called
			}
		}
		i++
		if i == stop {
			break
		}
	}

	// The pass reached stop.
	if linkPending && steps[i-1].flags&sbSlot != 0 {
		goto mispredict
	}
	if i < len(steps) {
		goto run // a budget stop or the next fetch run
	}
	if s.loop {
		next = s
		goto pass
	}
	goto chainEnd

exc:
	i++ // a faulting instruction still issued
	c.sb.exitExc++
	goto out

called:
	// steps[i] called out of the loop and raised pdExit or halted.
	i++
	if linkPending && steps[i-1].flags&sbSlot != 0 {
		// The link comes before the pdExit exit: if the slot of a
		// mispredicted branch forced the exit, the resume PC is still
		// the branch target, not the step after the slot.
		goto mispredict
	}
	if i == len(steps) {
		goto chainEnd
	}
	c.PC = steps[i].pc
	c.sb.exitPDExit++
	goto out

mispredict:
	// The slot of a mispredicted branch just retired; resume at the
	// branch's real target.
	linkPending = false
	c.PC = c.delayTarget
	c.sb.exitMispred++
	goto link

chainEnd:
	if s.exitSlot {
		c.PC = c.delayTarget
	} else {
		c.PC = steps[len(steps)-1].pc + 4
	}
	if c.pdExit || c.Halted {
		c.sb.exitPDExit++
		goto out
	}
	c.sb.exitEnd++

link:
	// Chain-to-chain linking: the dispatch is at a clean instruction
	// boundary with c.PC naming the continuation, so if a superblock
	// starts there, enter it without surrendering the batch.
	if c.pdExit || c.Halted || nb+uint64(i) >= max {
		goto out
	}
	if next = c.sbEnterable(c.PC); next == nil {
		goto out
	}

pass:
	// The pass over steps[:i] is complete: account for it and start the
	// next one at the head of next (s itself on a loop wrap).
	nb += uint64(i)
	cls += s.pre[i]
	if clsN += uint64(i); clsN > sbClassFlush {
		c.sbFlushClasses(cls)
		cls, clsN = 0, 0
	}
	s = next
	steps = s.steps
	c.sb.cur = s
	i = 0
	goto run

out:
	c.sbFlushClasses(cls + s.pre[i])
	n := nb + uint64(i)
	c.CP0.Random = advanceRandom(r0, n)
	c.Stat.Instret = base + n
	c.sb.instrs += n
	c.sb.cur = nil
	return n
}

// sbCallOut materializes the state a slow path may observe before
// step st calls out of the dispatch loop: the PC (for exceptions), the
// in-slot flag (for BD/EPC), and the retirement count (machine time,
// for device timestamps). The caller clears execInSlot on return.
func (c *CPU) sbCallOut(st *sbStep, instret uint64) {
	c.PC = st.pc
	c.execInSlot = st.flags&sbSlot != 0
	c.Stat.Instret = instret
}

// sbFlushClasses adds the packed class counts cls (see sbClassBits)
// to Stat.Classes.
func (c *CPU) sbFlushClasses(cls uint64) {
	for ci := range c.Stat.Classes {
		c.Stat.Classes[ci] += cls >> (uint(ci) * sbClassBits) & sbClassMask
	}
}
