// Package dataflow is an iterative-fixpoint analysis engine over the
// guest program's control-flow graph. It computes per-basic-block
// register liveness (live-in/live-out over the full flow-register
// space: GPRs, HI/LO, and the FP condition flag), point liveness
// within a block, and a reaching stack-height, with a conservative
// interprocedural summary at call and return edges (unknown targets
// are treated as all-live).
//
// Two front ends feed the same engine: AnalyzeObjects builds the CFG
// from relocatable object files before instrumentation (this is what
// epoxie consults to elide dead-register save/restore traffic), and
// AnalyzeExecutable builds it from a linked image (this is what the
// static verifier uses to re-derive liveness independently over the
// rewritten text).
//
// Soundness convention: the analysis over-approximates liveness. A
// register reported dead is guaranteed never read-before-write on any
// modeled path; a register reported live may in fact be dead. Every
// unknown — indirect calls, computed jumps, unresolved targets,
// fall-off-the-end — therefore degrades to all-live, and syscall/break
// add the kernel ABI's argument registers as uses while deliberately
// under-approximating the kernel's defines (fewer defines = more
// liveness = safe).
package dataflow

import (
	"fmt"

	"systrace/internal/isa"
)

// termKind classifies how a block hands off control.
type termKind uint8

const (
	termFall        termKind = iota // straight-line into next (includes syscall/break)
	termBranch                      // conditional: target or next
	termJump                        // unconditional resolved jump within the function
	termCall                        // jal with resolved callee; returns to next
	termTailCall                    // j to another function's entry
	termRet                         // jr ra
	termCallUnknown                 // jalr, or jal with unresolved target
	termJumpUnknown                 // jr non-ra, or unresolved jump/branch target
)

// abiUses is the register set a syscall or break hands to the kernel:
// the syscall number in v0, up to four arguments, and the stack
// pointer (the kernel may read the user stack for more arguments).
const abiUses = isa.RegSet(1)<<isa.RegV0 |
	isa.RegSet(1)<<isa.RegA0 | isa.RegSet(1)<<isa.RegA1 |
	isa.RegSet(1)<<isa.RegA2 | isa.RegSet(1)<<isa.RegA3 |
	isa.RegSet(1)<<isa.RegSP

// block is one CFG node.
type block struct {
	key   uint64 // (object index << 32) | text offset; address for executables
	words []isa.Word
	fn    int // index into Program.fns

	kind   termKind
	target int // block index, -1 if none/unknown
	next   int // fall-through / return-point block index, -1 at object end

	// transparent marks words modeled as having no register effect at
	// all (the rewriter's jal bbtrace / jal memtrace calls, which save
	// and restore everything they touch). nil when no word is. The
	// forward value transfer is stricter: it clobbers ra, at, and the
	// two scratch xregs at a transparent call (see valTransferWord).
	transparent []bool

	// relocd marks words whose immediate or target field carries a
	// pending relocation (object front end only): their encoded bits
	// are not what will execute, so the value transfer treats any
	// value they produce as ⊤.
	relocd []bool

	// poisoned marks blocks whose address escapes into data or a
	// non-jump relocation: an indirect jump may enter them with any
	// state, so their value-in joins ⊤.
	poisoned bool

	liveIn, liveOut isa.RegSet

	// kill and gen are the block's word transfers folded into one:
	// live-in = live-out&^kill | gen.
	kill, gen isa.RegSet

	// at indexes the live-before set of the block's first word in
	// Program.live; word k's is live[at+k].
	at int

	// deps are the blocks whose liveOut reads this block's liveIn and
	// must be revisited when it grows.
	deps []int

	// valIn is the abstract register state on entry (nil = ⊥,
	// unreached by the forward value analysis).
	valIn *RegVals
}

// fn is one function: a maximal run of blocks under a function-entry
// symbol.
type fn struct {
	entry int // entry block index, -1 for the synthetic pre-entry region

	// retAll forces the return summary to all-live: the function is
	// address-taken, tail-called, reachable by a non-call edge from
	// another function, or has no statically known call sites (so its
	// callers, if any, are invisible to the analysis).
	retAll bool

	// escaped records that the function's address genuinely escapes —
	// it is address-taken through a relocation or data word, or its
	// entry symbol is not on a block boundary. Unlike retAll (which
	// wire() also sets for pure liveness conservatism, e.g. "no known
	// call sites"), escaped means computed control flow really can
	// enter the function's interior.
	escaped bool

	// afters are the blocks execution resumes at after each known call
	// to this function; the return summary is the union of their
	// live-ins.
	afters []int

	// retDeps are the blocks whose liveOut reads this function's
	// return summary: its jr-ra blocks and its tail-call sites.
	retDeps []int
}

// Stats summarizes an analysis run.
type Stats struct {
	Blocks    int // CFG nodes analyzed
	Funcs     int // functions
	Passes    int // backward (liveness) worklist pops until fixpoint
	ValPasses int // forward (value) worklist pops until fixpoint
}

// Program is the analyzed CFG with its liveness solution.
type Program struct {
	blocks []block
	fns    []fn
	byKey  map[uint64]int
	stats  Stats

	// live holds every block's point liveness, one set per word (see
	// block.at); the set after a block's last word is its liveOut.
	// pointLive fills it once the liveness fixpoint is reached.
	live []isa.RegSet

	// vals backs every reached block's valIn, one state per block.
	vals []RegVals
}

// Facts is the per-object (or per-image) query view of a Program.
// Offsets are text byte offsets within the object for the object
// front end, absolute addresses for the executable front end.
type Facts struct {
	p  *Program
	hi uint64
}

// Object returns the query view for the i'th object file passed to
// AnalyzeObjects.
func (p *Program) Object(i int) *Facts { return &Facts{p: p, hi: uint64(i) << 32} }

// Stats returns the analysis run's summary counters.
func (p *Program) Stats() Stats { return p.stats }

func (f *Facts) lookup(off uint32) *block {
	if i, ok := f.p.byKey[f.hi|uint64(off)]; ok {
		return &f.p.blocks[i]
	}
	return nil
}

// LiveIn returns the registers live on entry to the block at off.
func (f *Facts) LiveIn(off uint32) (isa.RegSet, bool) {
	b := f.lookup(off)
	if b == nil {
		return isa.AllRegs, false
	}
	return b.liveIn, true
}

// LiveOut returns the registers live on exit from the block at off.
func (f *Facts) LiveOut(off uint32) (isa.RegSet, bool) {
	b := f.lookup(off)
	if b == nil {
		return isa.AllRegs, false
	}
	return b.liveOut, true
}

// LiveAt returns the registers live immediately before instruction k
// of the block at off (k == NInstr gives the live-out set). Word order
// within a block is execution order — a branch precedes its delay slot
// both in memory and in time — so the backward pass that fills it is
// exact. The sets are computed when the program is solved; a query is
// a map lookup and an index.
func (f *Facts) LiveAt(off uint32, k int) (isa.RegSet, bool) {
	b := f.lookup(off)
	if b == nil || k < 0 || k > len(b.words) {
		return isa.AllRegs, false
	}
	if k == len(b.words) {
		return b.liveOut, true
	}
	return f.p.live[b.at+k], true
}

// StackHeight returns the stack-pointer displacement in bytes from
// function entry on entry to the block at off (negative once a frame
// has been pushed). The second result is false when the height is
// unknown — the block is unreachable, joins disagree, or sp is
// modified in a way the analysis does not track. It is a projection
// of the forward value analysis: the height is known exactly when
// sp's abstract value is sp+δ (see stack.go).
func (f *Facts) StackHeight(off uint32) (int32, bool) {
	b := f.lookup(off)
	if b == nil || b.valIn == nil {
		return 0, false
	}
	if v := b.valIn[isa.RegSP]; v.Kind == VSP {
		return v.Off, true
	}
	return 0, false
}

// wordEffect returns one instruction's backward liveness transfer as
// the registers it defines and uses: live-before = live-after&^defs |
// uses.
func wordEffect(b *block, i int) (defs, uses isa.RegSet) {
	if isTransparent(b, i) {
		return 0, 0
	}
	w := b.words[i]
	uses = isa.UsesMask(w)
	if w>>26 == isa.OpSpecial {
		if fn := w & 63; fn == isa.FnSYSCALL || fn == isa.FnBREAK {
			uses |= abiUses
		}
	}
	return isa.DefsMask(w), uses
}

// fold composes each block's word transfers, last word first, into
// the block's (kill, gen) pair. Each word maps a set to set&^defs |
// uses, and two such maps compose to one of the same form, so the
// solver never decodes a word again.
func (p *Program) fold() {
	for bi := range p.blocks {
		b := &p.blocks[bi]
		var kill, gen isa.RegSet
		for i := len(b.words) - 1; i >= 0; i-- {
			defs, uses := wordEffect(b, i)
			kill, gen = kill|defs, gen&^defs|uses
		}
		b.kill, b.gen = kill, gen
	}
}

// pointLive walks each block backward once from its solved live-out,
// filling p.live with the live-before set of every word.
func (p *Program) pointLive() {
	n := 0
	for i := range p.blocks {
		p.blocks[i].at = n
		n += len(p.blocks[i].words)
	}
	p.live = make([]isa.RegSet, n)
	for bi := range p.blocks {
		b := &p.blocks[bi]
		live := b.liveOut
		for i := len(b.words) - 1; i >= 0; i-- {
			defs, uses := wordEffect(b, i)
			live = live&^defs | uses
			p.live[b.at+i] = live
		}
	}
}

// liveInOf reads a successor's live-in; -1 (missing successor) is
// all-live: control leaves the modeled region.
func (p *Program) liveInOf(i int) isa.RegSet {
	if i < 0 {
		return isa.AllRegs
	}
	return p.blocks[i].liveIn
}

// retLive is the return summary of function fi: the union of the
// live-ins at every known return point, or all-live when retAll.
func (p *Program) retLive(fi int) isa.RegSet {
	if fi < 0 {
		return isa.AllRegs
	}
	f := &p.fns[fi]
	if f.retAll {
		return isa.AllRegs
	}
	var s isa.RegSet
	for _, a := range f.afters {
		s |= p.liveInOf(a)
	}
	return s
}

// liveOutOf computes a block's live-out from the current solution.
func (p *Program) liveOutOf(b *block) isa.RegSet {
	switch b.kind {
	case termFall:
		return p.liveInOf(b.next)
	case termBranch:
		return p.liveInOf(b.target) | p.liveInOf(b.next)
	case termJump:
		return p.liveInOf(b.target)
	case termCall:
		// Callee entry plus the return point: without a must-define
		// summary for the callee, everything live after the call is
		// assumed to survive it.
		return p.liveInOf(b.target) | p.liveInOf(b.next)
	case termTailCall:
		return p.liveInOf(b.target) | p.retLive(b.fn)
	case termRet:
		return p.retLive(b.fn)
	}
	return isa.AllRegs // termCallUnknown, termJumpUnknown
}

// solve runs the backward worklist to the least fixpoint. All sets
// grow monotonically from empty, so termination is bounded by
// NumFlowRegs bits per block.
func (p *Program) solve() {
	n := len(p.blocks)
	inWL := make([]bool, n)
	wl := make([]int, 0, n)
	for i := n - 1; i >= 0; i-- {
		wl = append(wl, i)
		inWL[i] = true
	}
	for len(wl) > 0 {
		bi := wl[len(wl)-1]
		wl = wl[:len(wl)-1]
		inWL[bi] = false
		p.stats.Passes++

		b := &p.blocks[bi]
		in := b.liveIn | p.liveOutOf(b)&^b.kill | b.gen
		if in != b.liveIn {
			b.liveIn = in
			for _, d := range b.deps {
				if !inWL[d] {
					inWL[d] = true
					wl = append(wl, d)
				}
			}
		}
	}
	for i := range p.blocks {
		b := &p.blocks[i]
		b.liveOut = p.liveOutOf(b)
	}
	p.stats.Blocks = n
	p.stats.Funcs = len(p.fns)
}

// wire builds the reverse dependency lists the worklist uses and the
// per-function return bookkeeping, then marks the conservative retAll
// conditions that need whole-graph knowledge (non-call entry edges).
func (p *Program) wire() {
	dep := func(src, on int) {
		if on >= 0 {
			p.blocks[on].deps = append(p.blocks[on].deps, src)
		}
	}
	for i := range p.blocks {
		b := &p.blocks[i]
		switch b.kind {
		case termFall:
			dep(i, b.next)
		case termBranch:
			dep(i, b.target)
			dep(i, b.next)
		case termJump:
			dep(i, b.target)
		case termCall:
			dep(i, b.target)
			dep(i, b.next)
			if b.target >= 0 {
				cf := &p.fns[p.blocks[b.target].fn]
				cf.afters = append(cf.afters, b.next)
			}
		case termTailCall:
			dep(i, b.target)
			if b.fn >= 0 {
				p.fns[b.fn].retDeps = append(p.fns[b.fn].retDeps, i)
			}
			if b.target >= 0 {
				p.fns[p.blocks[b.target].fn].retAll = true
			}
		case termRet:
			if b.fn >= 0 {
				p.fns[b.fn].retDeps = append(p.fns[b.fn].retDeps, i)
			}
		}
		// Non-call edges into another function (a branch, jump, or
		// fall-through crossing a function boundary) mean that code
		// runs under callers the call-summary machinery cannot see.
		if b.kind == termBranch || b.kind == termJump || b.kind == termFall {
			for _, t := range []int{b.target, b.next} {
				if t >= 0 && p.blocks[t].fn >= 0 && p.blocks[t].fn != b.fn {
					p.fns[p.blocks[t].fn].retAll = true
				}
			}
		}
	}
	// A function with no known call sites may still have invisible
	// callers (vectors, computed calls the address-taken scan missed);
	// give it the all-live return summary. Its liveness stays precise —
	// only its jr-ra blocks pay.
	for i := range p.fns {
		f := &p.fns[i]
		if len(f.afters) == 0 {
			f.retAll = true
		}
	}
	// Return-summary dependencies: when a return point's live-in grows,
	// the owning function's return blocks and tail-call sites must be
	// revisited.
	for i := range p.fns {
		f := &p.fns[i]
		for _, a := range f.afters {
			if a >= 0 {
				p.blocks[a].deps = append(p.blocks[a].deps, f.retDeps...)
			}
		}
	}
}

func (p *Program) finish() *Program {
	p.wire()
	p.fold()
	p.solve()
	p.pointLive()
	p.solveValues()
	return p
}

func (p *Program) check() error {
	for i := range p.blocks {
		if len(p.blocks[i].words) == 0 {
			return fmt.Errorf("dataflow: empty block %d", i)
		}
	}
	return nil
}
