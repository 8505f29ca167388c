package cpu

// Superblock tier: every StepN probes the entry table at its PC, and
// every chain exit at a clean boundary probes at the continuation it
// exits to. When an address keeps coming up, the builder walks the
// instructions from it, decoding each straight from the text frame's
// RAM, and chains fall-through edges and statically predicted direct
// branches across basic-block (and frame) boundaries into one
// linearized step array. Dispatch runs that array in a dense
// jump-table loop with the per-instruction work of Step hoisted out:
// the PC is implicit in the step index (materialized only at exits),
// and the retirement count and CP0.Random are derived once per pass
// over the chain instead of counted per instruction (see execSB). A
// chain that closes on its own entry wraps in place, and a chain end or
// a mispredicted branch links straight into the superblock at the real
// successor without leaving the dispatch loop.
//
// The entry table is keyed by address space: a chain entered in kseg0
// is keyed by its entry VA, whose translation every address space
// shares, and any other chain by its entry VA and the ASID it was
// built under (sbKey), so a chain of one address space is a miss, not
// a reject, in another, and stays resident across switches. A kseg0
// key holds only while no kseg0 chain fetches from a mapped page;
// sbBuild stops such a walk before it does. A build that installs
// nothing leaves a stub under its key, so the address is not walked
// again until a frame drop or (for a mapped entry) a TLB write could
// change the outcome.
//
// Soundness leans on two pillars:
//
//   - Nothing inside a superblock can change the fetch translation:
//     COP0 ops (the only way to write the TLB, Status, or EntryHi) and
//     SYSCALL/BREAK terminate chains at build time, and every
//     exception exits at dispatch time. A superblock whose pages are
//     TLB-mapped additionally carries the tcGen it was validated
//     under. tcGen counts TLB writes (TLBWI, TLBWR) and nothing else:
//     under the chain's own ASID, which its key pins, an unchanged
//     TLB translates every page as it did. Entry under a newer
//     generation revalidates every page guard against the live TLB
//     (current ASID, V set, N clear, same frame) before the hoisted
//     translations may be reused.
//
//   - Writes into chained text invalidate: every frame a superblock
//     draws micro-ops from is marked in the store-path bitmap and
//     registered in a frame→superblocks dependency map, and dropFrame
//     (guest stores in store() and the inline SW/SB via the bitmap;
//     host writes and device DMA, which both go through the mem.RAM
//     API, via the RAM write hook) invalidates the dependents —
//     raising pdExit if one of them is currently executing, so the
//     dispatch loop bails after the in-flight instruction.
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
	"slices"

	"systrace/internal/isa"
	"systrace/internal/obs"
	"systrace/internal/telemetry"
)

const (
	// sbIndexBits sizes the entry-point table's bucket array.
	sbIndexBits = 12
	sbIndexSize = 1 << sbIndexBits

	// sbDefaultThreshold is how many times an address must be probed
	// as an entry (a StepN at that PC, or a chain exiting to it)
	// before a superblock is built over it.
	sbDefaultThreshold = 16

	// sbMaxSteps bounds one superblock's linearized chain. Any
	// non-empty walk is installed: a short chain (a `jr ra; nop`
	// return) keeps its neighbours linking chain to chain.
	sbMaxSteps = 256
	// sbMaxPages bounds the page guards one superblock may carry.
	sbMaxPages = 8
	// sbMaxBlocks is a runaway backstop on resident superblocks, sized
	// so no corpus run reaches it: a run keeps every chain it builds.
	sbMaxBlocks = 4096
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
// into imm for branches and jumps. run is the number of steps from this
// one to the end of its fetch run (see sbStampRuns), at least 1.
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

// sbPage is one TLB-mapped page guard: entry under a new translation
// generation must re-resolve vpage to exactly ppage.
type sbPage struct {
	vpage uint32
	ppage uint32
}

// The fields dispatch reads come first: sbReady's tests, steps and the
// bucket link share the object's first 64-byte line, and pas follows.
type superblock struct {
	// key is the entry VA, with the ASID it was built under above it
	// when the entry is TLB-mapped (see sbKey).
	key    uint64
	gen    uint64 // tcGen the page guards were last validated under
	valid  bool
	mapped bool // any page guard present
	kernel bool // chain touches a kernel-only segment
	loop   bool // chain ends with a predicted branch back to its entry
	steps  []sbStep
	// next is the following superblock in the same idx bucket.
	next *superblock
	// pas holds each step's physical fetch address, for the observer's
	// FetchRun. The page guards keep it valid, and dropping any frame
	// it names invalidates the superblock.
	pas []uint32
	// pages holds guards for the TLB-mapped pages the chain fetches
	// from (kseg0 pages have fixed translations and need none).
	pages []sbPage
	// frames are the physical frames the micro-ops were drawn from;
	// dropFrame on any of them invalidates the superblock.
	frames []uint32
	// fail, on a stub (a bucket entry with no steps), is the build
	// epoch a build at key failed in (see sbFailEpoch).
	fail uint64
}

// sbHeat is one slot of the direct-mapped hotness table.
type sbHeat struct {
	key uint64
	n   uint32
}

// sbState is the per-CPU superblock engine state.
type sbState struct {
	// bitmap is indexed by physical frame number (pa >> PageShift) and
	// marks the frames resident superblocks draw from: the store path's
	// fast test (see dropFrame).
	bitmap []uint64
	// off selects the reference engine: no chain is built or entered
	// (see SetSuperblocks).
	off bool

	// idx is the entry table: bucket sbBucket(key) lists the resident
	// superblocks and failed-build stubs whose key hashes there, most
	// recently entered first. heat is the hotness table behind it and
	// deps the frame→dependents map for invalidation; both are
	// allocated on first use.
	idx   [sbIndexSize]*superblock
	heat  []sbHeat
	deps  map[uint32][]*superblock
	cur   *superblock // superblock currently being dispatched
	count int         // valid superblocks resident

	// walk is the builder's scratch, reused across builds: a chain is
	// linearized here and copied out at its exact length.
	walk struct {
		steps []sbStep
		pas   []uint32
	}

	threshold uint32 // build threshold; 0 means sbDefaultThreshold

	built        uint64
	invalidated  uint64
	probeHits    uint64
	probeMisses  uint64
	entryRejects uint64 // probes refused by an entry guard
	buildFails   [nBuildFails]uint64
	exitEnd      uint64
	exitMispred  uint64
	exitBudget   uint64
	exitPDExit   uint64
	exitExc      uint64
	instrs       uint64 // instructions retired inside execSB
	frameDrops   uint64 // frames dropped after a write into their page

	chainHist *telemetry.Histogram // chain length at build, in instructions
}

// Reasons a build installs no chain, for the build-failure counters.
const (
	buildEnder = iota // the entry (or its branch's slot) ends every chain
	buildFetch        // the entry's text cannot be fetched from cached RAM
	nBuildFails
)

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

// SetSuperblocks selects the execution engine: true (the default) runs
// superblock chains under StepN, and false keeps every instruction on
// the reference interpreter (per-instruction fetch, byte reassembly,
// the full decode switch in exec) that the lockstep and workload
// oracles compare against. Step is the reference interpreter on both.
func (c *CPU) SetSuperblocks(on bool) {
	c.sb.off = !on
	c.sbDropAll()
}

// InvalidatePhys drops every superblock drawing from a frame that
// overlaps the physical range [p, p+n). The machine registers it as
// the RAM write hook and forwards device DMA notifications here, so
// every store path that bypasses the CPU's own write port still
// invalidates stale chains.
func (c *CPU) InvalidatePhys(p, n uint32) {
	if n == 0 || len(c.sb.bitmap) == 0 {
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
	if w >= len(c.sb.bitmap) || c.sb.bitmap[w]&(1<<(fn&63)) == 0 {
		return
	}
	c.sb.bitmap[w] &^= 1 << (fn & 63)
	c.sb.frameDrops++
	dispatching := uint64(0)
	if c.sbInvalidateFrame(fn) {
		dispatching = 1
	}
	obs.Emit(evFrameDrop, uint64(fn), dispatching)
}

// sbDropAll invalidates and forgets every superblock (engine switch or
// the sbMaxBlocks backstop) and clears the store-path bitmap.
func (c *CPU) sbDropAll() {
	for i := range c.sb.idx {
		for s := c.sb.idx[i]; s != nil; s = s.next {
			if s.valid {
				s.valid = false
				c.sb.invalidated++
			}
		}
		c.sb.idx[i] = nil
	}
	c.sb.heat = nil
	c.sb.deps = nil
	c.sb.count = 0
	for i := range c.sb.bitmap {
		c.sb.bitmap[i] = 0
	}
}

// sbInvalidateFrame invalidates every superblock that drew micro-ops
// from physical frame fn; called from dropFrame so all three write
// paths (guest store bitmap, RAM write hook, device DMA) flow here. It
// reports whether the dispatching chain was one of them. A dropped
// chain leaves the entry table and its other frames' dependent lists,
// so nothing but a dispatch in flight keeps it reachable.
func (c *CPU) sbInvalidateFrame(fn uint32) (dispatching bool) {
	for _, s := range c.sb.deps[fn] {
		if s.valid {
			s.valid = false
			c.sb.invalidated++
			c.sb.count--
			c.sbUnlink(s)
			for _, f := range s.frames {
				if f != fn {
					c.sb.deps[f] = slices.DeleteFunc(c.sb.deps[f], func(d *superblock) bool { return d == s })
				}
			}
		}
		if s == c.sb.cur {
			c.pdExit = true
			dispatching = true
		}
	}
	delete(c.sb.deps, fn)
	return dispatching
}

// sbUnlink removes s from its idx bucket.
func (c *CPU) sbUnlink(s *superblock) {
	for p := &c.sb.idx[sbBucket(s.key)]; *p != nil; p = &(*p).next {
		if *p == s {
			*p = s.next
			return
		}
	}
}

// sbKey is the entry-table key of a chain entered at va now: va itself
// in kseg0, whose translation is the same in every address space, and
// va with the current ASID above it anywhere else, where the text a VA
// names depends on the address space. So a mapped chain built under one
// ASID is a miss, not a reject, under another, and it stays resident
// for the next switch back. A key without an ASID is sound only for a
// chain with no page guards: sbBuild ends a kseg0 entry's walk before
// its first mapped page. (The walk cannot reach one today: backward
// branches end it, J/JAL stay in the entry's 256 MB region, and kseg1
// is refused.)
func (c *CPU) sbKey(va uint32) uint64 {
	if va-KSeg0Base < KSeg1Base-KSeg0Base {
		return uint64(va)
	}
	return uint64(c.CP0.EntryHi&ASIDMask)<<32 | uint64(va)
}

// sbBucket is the idx bucket (and heat slot) of key k: the entry word
// index, with the ASID folded in.
func sbBucket(k uint64) uint32 {
	return (uint32(k) ^ uint32(k>>32)) >> 2 & (sbIndexSize - 1)
}

// sbReady reports whether s may be entered at key k now: it is a valid
// superblock with that key, its page guards were validated under the
// current TLB (or it has none), and a kernel-only chain is entered in
// kernel mode. Anything it refuses at the bucket's head goes to the
// full probe (sbProbe), which revalidates stale page guards.
func (c *CPU) sbReady(s *superblock, k uint64) bool {
	return s != nil && s.key == k && s.valid && (!s.mapped || s.gen == c.tcGen) && (!s.kernel || c.KernelMode())
}

// sbEnterable returns the superblock at va if one exists and its entry
// guards pass; a miss feeds the hotness table and may trigger a build.
// The guards reject a kernel-only chain entered in user mode and a
// mapped chain whose page guards fail revalidation. The caller must
// ensure no delay slot is pending: StepN checks before it probes, and
// execSB links only at clean instruction boundaries.
func (c *CPU) sbEnterable(va uint32) *superblock {
	k := c.sbKey(va)
	if s := c.sbHit(k); s != nil {
		return s
	}
	return c.sbProbe(va, k)
}

// sbHit is the probe's hit path, small enough to inline: the head of
// key k's bucket if it is ready to enter, else nil, and the caller
// goes on to sbProbe.
func (c *CPU) sbHit(k uint64) *superblock {
	if s := c.sb.idx[sbBucket(k)]; c.sbReady(s, k) {
		c.sb.probeHits++
		return s
	}
	return nil
}

// sbProbe is sbEnterable past the bucket's head: it walks the bucket
// for key k, moving a match to the front, applies the entry guards
// (revalidating stale page guards), and on a miss accounts the heat of
// k, building a superblock once the address crosses the threshold and
// returning the chain it built. A stub left by a failed build answers a
// miss without heat until the build epoch moves on.
func (c *CPU) sbProbe(va uint32, k uint64) *superblock {
	if c.sb.off {
		return nil
	}
	slot := sbBucket(k)
	for p := &c.sb.idx[slot]; *p != nil; p = &(*p).next {
		s := *p
		if s.key != k {
			continue
		}
		if s.steps == nil {
			if s.fail == c.sbFailEpoch(va) {
				c.sb.probeMisses++
				return nil
			}
			*p = s.next // stale stub: heat the address again
			break
		}
		*p = s.next
		s.next = c.sb.idx[slot]
		c.sb.idx[slot] = s
		if s.kernel && !c.KernelMode() || s.mapped && s.gen != c.tcGen && !c.sbRevalidate(s) {
			c.sb.entryRejects++
			return nil
		}
		c.sb.probeHits++
		return s
	}
	c.sb.probeMisses++
	if c.sb.heat == nil {
		c.sb.heat = make([]sbHeat, sbIndexSize)
	}
	h := &c.sb.heat[slot]
	if h.key != k {
		*h = sbHeat{key: k, n: 1}
		return nil
	}
	h.n++
	th := c.sb.threshold
	if th == 0 {
		th = sbDefaultThreshold
	}
	if h.n < th {
		return nil
	}
	h.n = 0
	if why := c.sbBuild(va, k); why >= 0 {
		c.sb.buildFails[why]++
		c.sb.idx[slot] = &superblock{key: k, fail: c.sbFailEpoch(va), next: c.sb.idx[slot]}
		return nil
	}
	// A successful build put its chain at the bucket's head (a build
	// that dropped every chain instead left the bucket empty): this
	// probe enters it.
	if s := c.sb.idx[slot]; c.sbReady(s, k) {
		return s
	}
	return nil
}

// sbFailEpoch is the build epoch of va: a build that failed at va can
// only succeed once a write drops a chained text frame or, for a
// TLB-mapped va, the TLB is written. A frame the failed build alone
// reads is not in the store-path bitmap, so a write to it goes unseen;
// the stub then only delays a chain until the next epoch, and Step runs
// the text meanwhile.
func (c *CPU) sbFailEpoch(va uint32) uint64 {
	if va-KSeg0Base < KSeg1Base-KSeg0Base {
		return c.sb.frameDrops
	}
	return c.sb.frameDrops + c.tcGen
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
		i, _ := c.lookupTLB(va)
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
// installs it under key k. It returns -1, or the reason (buildEnder,
// buildFetch) no chain could be built.
func (c *CPU) sbBuild(entry uint32, k uint64) int {
	if entry&3 != 0 {
		return buildFetch
	}
	if c.sb.count >= sbMaxBlocks {
		c.sbDropAll()
		// sbDropAll released the tables; the caller's next miss
		// reallocates them and heat re-accumulates.
		return -1
	}
	s := &superblock{key: k}
	kseg0 := entry-KSeg0Base < KSeg1Base-KSeg0Base // keyed without an ASID (sbKey)

	// Page cursor for the walk. Fetching from a new page resolves its
	// translation, records the guards, and binds the frame's RAM. The
	// micro-op is returned by value: a pointer to it would move it to
	// the heap on every step of the walk.
	var curVP, curPP uint32 = 1, 0
	var ram []byte
	fetch := func(va uint32) (uop, uint32, bool) {
		if va&EntryHiVPN != curVP {
			ppage, pram, mapped, kernel, ok := c.sbProbeText(va)
			if !ok || mapped && kseg0 {
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
	wk.steps, wk.pas = wk.steps[:0], wk.pas[:0]
	mkStep := func(u *uop, pc uint32, flags uint8) sbStep {
		return sbStep{
			op: u.op, rs: u.rs, rt: u.rt, rd: u.rd, sh: u.sh,
			flags: flags, imm: u.imm, pc: pc,
		}
	}
	add := func(st sbStep, pa uint32) {
		wk.steps = append(wk.steps, st)
		wk.pas = append(wk.pas, pa)
	}

	va := entry
	fetched := true // every fetch so far succeeded
	// A chain whose last step is a delay slot exits through the slot's
	// delayTarget, not by falling off the end to lastPC+4 (see
	// chainEnd in execSB). If the walk stops at the target of a
	// predicted-taken branch, from whose block nothing is appended yet,
	// that target is the continuation; after a predicted not-taken
	// branch both name the same PC.
walk:
	for len(wk.steps) < sbMaxSteps {
		u, pa, ok := fetch(va)
		if !ok || sbChainEnder(&u) {
			fetched = ok
			break
		}
		if !sbIsBranch(&u) {
			add(mkStep(&u, va, 0), pa)
			va += 4
			continue
		}
		if len(wk.steps)+2 > sbMaxSteps {
			break
		}
		slot, slotPA, ok := fetch(va + 4)
		if !ok || sbChainEnder(&slot) || sbIsBranch(&slot) {
			// A slot the dispatcher can't run linearized (or can't
			// fetch): end the chain before the branch.
			fetched = ok
			break
		}
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
		add(st, pa)
		add(mkStep(&slot, va+4, sbSlot), slotPA)
		switch {
		case ends:
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
				break walk
			}
			if target < va {
				// Backward branch into other code: stop here rather
				// than unrolling; the target gets its own superblock.
				break walk
			}
			if len(wk.steps) >= sbMaxSteps {
				// No room to keep walking past the jump: the chain
				// must exit through the slot's delayTarget, not fall
				// off the end to lastPC+4 (a self-spin J unrolls to
				// exactly this shape).
				break walk
			}
			va = target
		default:
			va += 8 // predicted not-taken: fall through past the slot
		}
	}

	switch {
	case len(wk.steps) > 0:
	case !fetched:
		return buildFetch
	default:
		return buildEnder
	}
	s.steps = append([]sbStep(nil), wk.steps...)
	s.pas = append([]uint32(nil), wk.pas...)
	sbStampRuns(s)

	s.gen = c.tcGen
	s.valid = true
	if c.sb.deps == nil {
		c.sb.deps = make(map[uint32][]*superblock)
	}
	slot := sbBucket(k)
	s.next = c.sb.idx[slot]
	c.sb.idx[slot] = s
	for _, fn := range s.frames {
		c.sb.deps[fn] = append(c.sb.deps[fn], s)
		w := int(fn >> 6)
		if w >= len(c.sb.bitmap) {
			c.sb.bitmap = append(c.sb.bitmap, make([]uint64, w+1-len(c.sb.bitmap))...)
		}
		c.sb.bitmap[w] |= 1 << (fn & 63)
	}
	c.sb.count++
	c.sb.built++
	if c.sb.chainHist != nil {
		c.sb.chainHist.Observe(uint64(len(s.steps)))
	}
	return -1
}

// sbStampRuns marks the chain's fetch runs: maximal spans of steps
// whose fetches are sequential within one page and that dispatch can
// report to an observer as one FetchRun ahead of running them. Every
// step holds its distance to the end of its run, so a pass may start
// anywhere in one: at a run's first step, or where an extended budget
// stop (see execSB) resumed mid-run. A run ends after any step
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
		for ; i < j; i++ {
			s.steps[i].run = uint8(j - i)
		}
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
// already completed. CP0.Random advances once at exit, and
// Stat.Instret is stored from nb+i before every slow path (device
// timestamps read it) and at exit.
//
// The step loop's only bookkeeping is i++ and one test against stop:
// min(len(steps), the budget's index), clamped further to the end of
// the current fetch run when an observer is attached, and to the end
// of the delay slot when a branch mispredicts. Reaching stop is a
// mispredict link (the slot retired), a chain end or loop wrap, the
// budget, or the start of the next fetch run. At the budget, the
// Extend hook may grant more (the machine does when nothing would
// happen between its bursts), and the pass resumes where it stopped;
// else it is a budget exit, restoring inDelay if the next step is a
// slot. pdExit and Halted can only be raised by a step that called out
// of the loop, so they are tested only there: after the load, store
// and exec slow paths, and after an inline store whose frame drop
// invalidated the dispatching chain. A mispredicted slot that raised
// pdExit still resumes at the branch target.
//
// An attached observer gets each fetch run (see sbStampRuns) as one
// FetchRun when a pass reaches the run's first step, clamped to the
// budget so a budget stop reports exactly the fetches it retired, and
// the rest of the run as one more when an extended pass resumes in it;
// the inline loads and stores report themselves, and the slow paths
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
	// dispatch.
	var nb uint64
	// linkPending marks a mispredicted branch whose delay slot is about
	// to run inline; after the slot retires, dispatch leaves this chain
	// and tries to link into the superblock at the real target.
	linkPending := false
	i, stop := 0, 0
	var next *superblock // the chain the next pass runs

run:
	// A pass starts or resumes at steps[i]: i is 0 (a chain entry or a
	// loop wrap) or the stop of a pass cut short of the chain end, which
	// is the budget or, when observed, the next fetch run. At the
	// budget, dispatch goes on if Extend grants more, anywhere in a
	// fetch run and between a branch and its slot too; else it exits.
	if nb+uint64(i) >= max {
		g := c.sbExtend(steps[i].pc, base+nb+uint64(i))
		if g == 0 {
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
		max += g
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
				if fn := e.ppage >> PageShift; int(fn>>6) < len(c.sb.bitmap) && c.sb.bitmap[fn>>6]&(1<<(fn&63)) != 0 {
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
				if fn := e.ppage >> PageShift; int(fn>>6) < len(c.sb.bitmap) && c.sb.bitmap[fn>>6]&(1<<(fn&63)) != 0 {
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
	// A chain ending in a delay slot continues where its branch sent it.
	if steps[len(steps)-1].flags&sbSlot != 0 {
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
	// starts there, enter it without surrendering the batch (asking
	// Extend for more first if the budget is used up).
	if c.pdExit || c.Halted {
		goto out
	}
	if nb+uint64(i) >= max {
		g := c.sbExtend(c.PC, base+nb+uint64(i))
		if g == 0 {
			goto out
		}
		max += g
	}
	if next = c.sbEnterable(c.PC); next == nil {
		goto out
	}

pass:
	// The pass over steps[:i] is complete: account for it and start the
	// next one at the head of next (s itself on a loop wrap).
	nb += uint64(i)
	s = next
	steps = s.steps
	c.sb.cur = s
	i = 0
	goto run

out:
	n := nb + uint64(i)
	c.CP0.Random = advanceRandom(r0, n)
	c.Stat.Instret = base + n
	c.sb.instrs += n
	c.sb.cur = nil
	return n
}

// sbExtend asks the Extend hook for more budget at a budget stop at pc
// with instret instructions retired, materializing both for it first.
// It returns the instructions granted: 0 with no hook, or while a
// profiler is attached (the budget then ends at a sample boundary, not
// where the caller's does).
func (c *CPU) sbExtend(pc uint32, instret uint64) uint64 {
	if c.Extend == nil || c.prof.fn != nil {
		return 0
	}
	c.PC = pc
	c.Stat.Instret = instret
	return c.Extend()
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
