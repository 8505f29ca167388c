package verify

import (
	"fmt"

	"systrace/internal/dataflow"
	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/obj"
	"systrace/internal/trace"
)

const (
	xr1 = isa.XReg1
	xr2 = isa.XReg2
	xr3 = isa.XReg3
)

// prologueBytes returns the trace prologue size of a block with the
// given flags: the full compact prologue is three words (`sw ra; jal
// bbtrace; li zero,N`), the lean form drops the ra save, hand-traced
// blocks have none. The basic-block record address is the jal-return
// address, i.e. head + prologueBytes.
func prologueBytes(fl obj.BBFlags) uint32 {
	switch {
	case fl&obj.BBHandTraced != 0:
		return 0
	case fl&obj.BBLeanPrologue != 0:
		return 8
	}
	return 12
}

// walker carries the per-executable verification state.
type walker struct {
	e        *obj.Executable
	res      *Result
	bb, mt   uint32          // bbtrace / memtrace entry addresses
	mtsp     uint32          // memtrace_sp entry address (when present)
	hasSP    bool            // runtime provides memtrace_sp
	heads    map[uint32]bool // every post-rewrite block head
	instrSet map[uint32]bool // heads of instrumented blocks
	byRecord map[uint32]*obj.InstrBlock
	scratch  map[int]bool // registers the steal idiom may borrow
	// flow is the verifier's own liveness and value analysis over the
	// rewritten image (trace-runtime calls modeled transparent); nil
	// when the image is too damaged to analyze — the structural rules
	// still run.
	flow *dataflow.Facts
	// vals walks flow's value states; the rules query each block's
	// points in increasing order.
	vals *dataflow.ValCursor
}

func newWalker(e *obj.Executable, bb, mt, mtsp uint32, hasSP bool) *walker {
	w := &walker{
		e:        e,
		res:      &Result{Name: e.Name, Checks: make(map[string]int)},
		bb:       bb,
		mt:       mt,
		mtsp:     mtsp,
		hasSP:    hasSP,
		heads:    make(map[uint32]bool, len(e.Blocks)),
		instrSet: make(map[uint32]bool),
		byRecord: make(map[uint32]*obj.InstrBlock, len(e.Instr.Blocks)),
		scratch:  make(map[int]bool),
	}
	for i := range e.Blocks {
		b := &e.Blocks[i]
		w.heads[b.Addr] = true
		if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) == 0 {
			w.instrSet[b.Addr] = true
		}
	}
	for _, r := range epoxie.ScratchRegs() {
		w.scratch[r] = true
	}
	return w
}

func (w *walker) check(rule string) { w.res.Checks[rule]++ }

func (w *walker) diag(addr, block uint32, rule, format string, args ...any) {
	w.res.Diags = append(w.res.Diags,
		Diag{Addr: addr, Block: block, Rule: rule, Msg: fmt.Sprintf(format, args...)})
}

// sideTable checks the static side table against the image: record
// addresses must be unique jal-return addresses of instrumented block
// heads (or hand-traced heads), original addresses must fall inside
// the uninstrumented text, and the trace parsing library's lookup
// table must resolve each record to the same entry.
func (w *walker) sideTable() {
	ii := w.e.Instr
	origLo := w.e.TextBase
	origHi := w.e.TextBase + ii.OrigTextSize
	st := trace.NewSideTable(ii.Blocks)
	for i := range ii.Blocks {
		ib := &ii.Blocks[i]
		w.check(RuleSideTable)
		if prev, dup := w.byRecord[ib.RecordAddr]; dup {
			w.diag(ib.RecordAddr, ib.RecordAddr, RuleSideTable,
				"duplicate record address (also maps original block 0x%08x)", prev.OrigAddr)
			continue
		}
		w.byRecord[ib.RecordAddr] = ib
		if got := st.Lookup(ib.RecordAddr); got == nil || got.OrigAddr != ib.OrigAddr {
			w.diag(ib.RecordAddr, ib.RecordAddr, RuleSideTable,
				"trace side table does not resolve the record address to this block")
		}
		if ib.OrigAddr < origLo || ib.OrigAddr >= origHi {
			w.diag(ib.RecordAddr, ib.RecordAddr, RuleSideTable,
				"original address 0x%08x outside uninstrumented text", ib.OrigAddr)
		}
		if ib.NInstr < 1 {
			w.diag(ib.RecordAddr, ib.RecordAddr, RuleSideTable, "empty basic block in side table")
		}
		if ib.Flags&obj.BBHandTraced != 0 {
			if !w.heads[ib.RecordAddr] {
				w.diag(ib.RecordAddr, ib.RecordAddr, RuleSideTable,
					"hand-traced record address is not a block head")
			}
			continue
		}
		if !w.instrSet[ib.RecordAddr-prologueBytes(ib.Flags)] {
			w.diag(ib.RecordAddr, ib.RecordAddr, RuleSideTable,
				"record address is not the jal return of an instrumented block head")
		}
	}
	// The converse: every instrumented block must be recorded.
	for i := range w.e.Blocks {
		b := &w.e.Blocks[i]
		if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) != 0 {
			continue
		}
		w.check(RuleSideTable)
		if w.byRecord[b.Addr+prologueBytes(b.Flags)] == nil {
			w.diag(b.Addr, b.Addr, RuleSideTable, "instrumented block missing from side table")
		}
	}
}

// block walks one instrumented basic block.
func (w *walker) block(b *obj.ExeBlock) {
	n := int(b.NInstr)
	start := (b.Addr - w.e.TextBase) / 4
	if int(start)+n > len(w.e.Text) {
		w.diag(b.Addr, b.Addr, RuleBBHead, "block extends past end of text")
		return
	}
	ws := w.e.Text[start : int(start)+n]
	lean := b.Flags&obj.BBLeanPrologue != 0
	pw := int(prologueBytes(b.Flags)) / 4 // prologue words: 2 lean, 3 full
	ib := w.byRecord[b.Addr+uint32(pw)*4]

	// Prologue: sw ra,124(xreg3); jal bbtrace; li zero,N — the ra save
	// elided in the lean form.
	w.check(RuleBBHead)
	if n < pw {
		w.diag(b.Addr, b.Addr, RuleBBHead, "block too short to hold the trace prologue")
		return
	}
	k := 0
	if !lean {
		if ws[0] != isa.SW(isa.RegRA, xr3, trace.BookSavedRA) {
			w.diag(b.Addr, b.Addr, RuleBBHead, "block head does not save ra to the bookkeeping area")
		}
		k = 1
	}
	if !w.jalTo(ws[k], w.bb) {
		w.diag(b.Addr+uint32(k)*4, b.Addr, RuleBBHead, "no jal bbtrace at block head")
	}
	if v := isa.LINopValue(ws[k+1]); v < 0 {
		w.diag(b.Addr+uint32(k+1)*4, b.Addr, RuleBBHead, "jal bbtrace delay slot is not a trace-word LINop")
	} else if ib != nil && v != 1+len(ib.Mem) {
		w.diag(b.Addr+uint32(k+1)*4, b.Addr, RuleBBHead,
			"LINop trace-word count %d does not match side table (%d)", v, 1+len(ib.Mem))
	}

	// A lean prologue is the rewriter asserting ra is dead on entry
	// (bbtrace and any memtrace call before the first in-block ra
	// refresh restore a stale ra). Re-derive that from the verifier's
	// own liveness and reject the block if ra is in fact live.
	if lean && w.flow != nil {
		w.check(RuleDeadReg)
		if live, ok := w.flow.LiveAt(b.Addr, pw); ok && live.Has(isa.RegRA) {
			w.diag(b.Addr, b.Addr, RuleDeadReg,
				"lean prologue but ra is live on entry (a stale bbtrace restore would be read)")
		}
	}

	// Terminator pair: the last two words, when the penultimate word
	// is a control transfer that is not itself a memtrace call.
	bodyEnd := n
	hasPair := n >= pw+2 && isa.HasDelaySlot(ws[n-2]) && !w.memJal(ws[n-2])
	if hasPair {
		bodyEnd = n - 2
	}

	// Unbracketed borrowed-scratch loads (`lw cand, shadow` with no
	// BookTmp save/restore around them) clobber cand; the rewriter may
	// only do that when cand is dead once the rewritten group ends.
	// A pending load's consumer is the first non-bookkeeping item after
	// it (further shadow loads for the same site may intervene); loads
	// still pending at body end feed the terminator's delay slot.
	type clobber struct {
		reg  int
		addr uint32
	}
	var clobbers []clobber
	resolve := func(endIdx int) {
		for _, c := range clobbers {
			w.check(RuleLiveClobber)
			if live, ok := w.flow.LiveAt(b.Addr, endIdx); ok && live.Has(c.reg) {
				w.diag(c.addr, b.Addr, RuleLiveClobber,
					"scratch %s clobbered without restore but live past the rewritten group", isa.RegName(c.reg))
			}
		}
		clobbers = clobbers[:0]
	}

	memSeen := 0
	var lastMem isa.Word
	prev := isa.NOP
	for i := pw; i < bodyEnd; {
		word := ws[i]
		addr := b.Addr + uint32(i)*4
		bookItem := false
		switch {
		case w.memJal(word):
			i += w.memGroup(b, ib, ws, i, bodyEnd, &memSeen, &lastMem)
		case w.jalTo(word, w.bb):
			w.diag(addr, b.Addr, RuleBBHead, "stray jal bbtrace inside block body")
			i++
		case w.bookkeeping(word):
			w.check(RuleSteal)
			bookItem = true
			if d := isa.Decode(word); w.flow != nil && d.Op == isa.OpLW && w.scratch[d.Rt] &&
				d.Imm != trace.BookTmp && prev != isa.SW(d.Rt, xr3, trace.BookTmp) {
				clobbers = append(clobbers, clobber{reg: d.Rt, addr: addr})
			}
			i++
		default:
			w.plain(addr, b.Addr, word)
			i++
		}
		prev = word
		if !bookItem {
			resolve(i)
		}
	}

	if hasPair {
		// Pending clobbers feed the delay slot across the terminator:
		// the terminator itself must not read them, and nothing after
		// the block may (the slot's own read is the substitute use).
		for _, c := range clobbers {
			w.check(RuleLiveClobber)
			if isa.UsesMask(ws[n-2]).Has(c.reg) {
				w.diag(c.addr, b.Addr, RuleLiveClobber,
					"scratch %s clobbered without restore but read by the terminator", isa.RegName(c.reg))
			}
		}
	}
	resolve(n)

	if hasPair {
		term, slot := ws[n-2], ws[n-1]
		termAddr := b.Addr + uint32(n-2)*4
		w.xregCheck(termAddr, b.Addr, term)
		w.branchTarget(termAddr, b.Addr, term)

		// The original delay slot held a memory instruction exactly
		// when the side table's last reference is the block's last
		// instruction; the rewriter must then have hoisted it.
		hoisted := ib != nil && len(ib.Mem) > 0 &&
			int(ib.Mem[len(ib.Mem)-1].Index) == int(ib.NInstr)-1
		if hoisted {
			w.check(RuleHoist)
			if slot != isa.NOP {
				w.diag(termAddr+4, b.Addr, RuleHoist,
					"delay slot not cleared after hoisting its memory instruction")
			}
			if memSeen == 0 {
				w.diag(termAddr+4, b.Addr, RuleHoist,
					"no memtrace group found for the hoisted delay-slot reference")
			} else if !isa.SafeToHoist(term, lastMem) {
				w.diag(termAddr+4, b.Addr, RuleHoist,
					"hoisted memory instruction writes a register the transfer reads")
			}
		} else if isa.IsMem(slot) && !w.bookkeeping(slot) {
			w.check(RuleMemTrace)
			w.diag(termAddr+4, b.Addr, RuleMemTrace, "untraced memory instruction in delay slot")
		} else if w.bookkeeping(slot) {
			w.check(RuleSteal)
		} else {
			w.plain(termAddr+4, b.Addr, slot)
		}
	}

	if ib != nil {
		w.check(RuleMemTrace)
		if memSeen != len(ib.Mem) {
			w.diag(b.Addr, b.Addr, RuleMemTrace,
				"block traces %d memory references, side table expects %d", memSeen, len(ib.Mem))
		}
	}
}

// memJal reports whether word calls one of the memory-trace entries
// (the general memtrace or the specialized memtrace_sp).
func (w *walker) memJal(word isa.Word) bool {
	return w.jalTo(word, w.mt) || (w.hasSP && w.jalTo(word, w.mtsp))
}

// memGroup consumes one memory-trace call sequence starting at ws[i]
// and returns the number of words consumed. The group is either
// [jal, mem] (the reference in the delay slot) or [jal, ea-nop, mem]
// (the hazard form, §3.2). A group routed to memtrace_sp must have sp
// as its slot base — that entry skips the 32-way dispatch and adds the
// displacement straight to the live sp.
func (w *walker) memGroup(b *obj.ExeBlock, ib *obj.InstrBlock, ws []isa.Word, i, limit int, memSeen *int, lastMem *isa.Word) int {
	w.check(RuleMemTrace)
	addr := b.Addr + uint32(i)*4
	if i+1 >= limit {
		w.diag(addr, b.Addr, RuleMemTrace, "jal memtrace truncated at block end")
		return 1
	}
	next := ws[i+1]
	size := 2
	mem := next
	if isa.IsLoad(next) && isa.Defs(next) < 0 && isa.Decode(next).Rt == isa.RegZero && next>>26 != isa.OpLWC1 {
		// EA no-op in the slot; the real instruction issues after the
		// call.
		if i+2 >= limit {
			w.diag(addr, b.Addr, RuleMemTrace, "hazard-form memtrace group truncated at block end")
			return 2
		}
		mem = ws[i+2]
		size = 3
		if !isa.IsMem(mem) {
			w.diag(addr+8, b.Addr, RuleMemTrace, "EA no-op not followed by its memory instruction")
			return size
		}
		mi := isa.Decode(mem)
		if next != isa.EANop(mi.Rs, mi.Imm, isa.MemSize(mem)) {
			w.diag(addr+4, b.Addr, RuleMemTrace,
				"EA no-op base/offset/width disagrees with the displaced memory instruction")
		}
	} else {
		if !isa.IsMem(next) {
			w.diag(addr+4, b.Addr, RuleMemTrace, "jal memtrace delay slot is not a memory instruction")
			return size
		}
		mi := isa.Decode(next)
		if isa.Touches(next, isa.RegRA) || (isa.IsLoad(next) && mi.Rt == mi.Rs) {
			w.diag(addr+4, b.Addr, RuleMemTrace,
				"hazard instruction traced in delay-slot form (memtrace would decode a stale base)")
		}
	}
	if w.hasSP && w.jalTo(ws[i], w.mtsp) {
		w.check(RuleAddrClass)
		if sb := isa.Decode(ws[i+1]).Rs; sb != isa.RegSP {
			w.diag(addr+4, b.Addr, RuleAddrClass,
				"memtrace_sp group whose slot base is %s, not sp (the runtime would add the wrong register)",
				isa.RegName(sb))
		}
	}
	w.addrClass(addr+4, b, i+1, ws[i+1], mem)
	w.xregCheck(addr+uint32(size-1)*4, b.Addr, mem)
	*memSeen++
	*lastMem = mem
	if ib != nil && *memSeen <= len(ib.Mem) {
		want := ib.Mem[*memSeen-1]
		if isa.IsLoad(mem) != want.Load || int8(isa.MemSize(mem)) != want.Size {
			w.diag(addr, b.Addr, RuleMemTrace,
				"traced reference %d kind/width disagrees with side table", *memSeen-1)
		}
	}
	return size
}

// addrClass checks a traced reference whose effective address the
// verifier's own value analysis proves constant: the address must not
// fall in the null page, a store must not target text, and the access
// must be aligned for its width. slot is the word encoding base+imm
// (the reference itself or its EA no-op) at index k of block b; mem is
// the real memory instruction.
func (w *walker) addrClass(addr uint32, b *obj.ExeBlock, k int, slot, mem isa.Word) {
	if w.flow == nil {
		return
	}
	st, ok := w.vals.At(b.Addr, k)
	if !ok {
		return
	}
	ea := dataflow.EA(st, slot)
	if ea.Kind != dataflow.VConst {
		return
	}
	w.check(RuleAddrClass)
	a := uint32(ea.Off)
	sz := uint32(isa.MemSize(mem))
	switch {
	case a < 0x1000:
		w.diag(addr, b.Addr, RuleAddrClass,
			"traced reference through provably constant address 0x%08x in the null page", a)
	case !isa.IsLoad(mem) && a >= w.e.TextBase && a < w.e.TextEnd():
		w.diag(addr, b.Addr, RuleAddrClass,
			"traced store through provably constant address 0x%08x inside text", a)
	case sz > 1 && a%sz != 0:
		w.diag(addr, b.Addr, RuleAddrClass,
			"traced %d-byte reference through provably constant address 0x%08x is misaligned", sz, a)
	}
}

// rebases re-proves every EA strength reduction the rewriter recorded:
// the slot word at each record must encode the rebased operand, and
// the verifier's own value analysis must prove the original and
// rebased forms compute the same address at that point.
func (w *walker) rebases() {
	for _, reb := range w.e.Instr.Flow.EARebases {
		w.check(RuleRedundantEA)
		b := w.e.BlockFor(reb.Addr)
		if b == nil {
			w.diag(reb.Addr, reb.Addr, RuleRedundantEA, "rebase record points outside every block")
			continue
		}
		word := w.e.Text[(reb.Addr-w.e.TextBase)/4]
		d := isa.Decode(word)
		if !isa.IsMem(word) || d.Rs != int(reb.NewBase) || d.Imm != reb.NewImm {
			w.diag(reb.Addr, b.Addr, RuleRedundantEA,
				"slot word does not encode the recorded rebased operand %s%+d",
				isa.RegName(int(reb.NewBase)), int32(int16(reb.NewImm)))
			continue
		}
		if w.flow == nil {
			continue
		}
		st, ok := w.vals.At(b.Addr, int(reb.Addr-b.Addr)/4)
		if !ok {
			w.diag(reb.Addr, b.Addr, RuleRedundantEA, "no value state at the rebased slot")
			continue
		}
		oldEA := st.Reg(int(reb.OrigBase)).Add(int32(int16(reb.OrigImm)))
		newEA := st.Reg(int(reb.NewBase)).Add(int32(int16(reb.NewImm)))
		if diff, ok := oldEA.Diff(newEA); !ok || diff != 0 {
			w.diag(reb.Addr, b.Addr, RuleRedundantEA,
				"cannot re-prove %s%+d == %s%+d at the rebased slot",
				isa.RegName(int(reb.OrigBase)), int32(int16(reb.OrigImm)),
				isa.RegName(int(reb.NewBase)), int32(int16(reb.NewImm)))
		}
	}
}

// bookkeeping reports whether word is part of the register-stealing
// idiom: a shadow or scratch access through xreg3, or the saved-ra
// refresh. Anything else that touches the stolen registers violates
// the steal rule.
func (w *walker) bookkeeping(word isa.Word) bool {
	i := isa.Decode(word)
	if i.Rs != xr3 {
		return false
	}
	off := int(i.Imm)
	switch i.Op {
	case isa.OpSW:
		switch off {
		case trace.BookSavedRA:
			return i.Rt == isa.RegRA
		case trace.BookTmp:
			return w.scratch[i.Rt]
		case trace.BookShadow1, trace.BookShadow2, trace.BookShadow3:
			return i.Rt == isa.RegAT
		}
	case isa.OpLW:
		switch off {
		case trace.BookTmp:
			return w.scratch[i.Rt]
		case trace.BookShadow1, trace.BookShadow2, trace.BookShadow3:
			return i.Rt == isa.RegAT || w.scratch[i.Rt]
		}
	}
	return false
}

// plain checks an ordinary rewritten instruction: no stolen-register
// references, no untraced memory access, no control transfer inside
// the block body.
func (w *walker) plain(addr, block uint32, word isa.Word) {
	w.xregCheck(addr, block, word)
	if isa.IsMem(word) {
		w.check(RuleMemTrace)
		w.diag(addr, block, RuleMemTrace, "memory instruction without a memtrace call")
	}
	if isa.HasDelaySlot(word) {
		w.check(RuleBranchTarget)
		w.diag(addr, block, RuleBranchTarget, "control transfer inside rewritten block body")
	}
}

// xregCheck flags any stolen-register reference in rewritten code.
func (w *walker) xregCheck(addr, block uint32, word isa.Word) {
	w.check(RuleSteal)
	for _, r := range [3]int{xr1, xr2, xr3} {
		if isa.Touches(word, r) {
			w.diag(addr, block, RuleSteal,
				"rewritten code references stolen register %s", isa.RegName(r))
		}
	}
}

// branchTarget checks that a block terminator's static target is a
// post-rewrite block head (register jumps are dynamic and skipped).
func (w *walker) branchTarget(addr, block uint32, term isa.Word) {
	var target uint32
	switch {
	case isa.IsBranch(term):
		target = addr + 4 + isa.SignExt16(isa.Decode(term).Imm)<<2
	case term>>26 == isa.OpJ || term>>26 == isa.OpJAL:
		target = (addr+4)&0xf0000000 | isa.Decode(term).Target<<2
	default:
		return // jr/jalr: dynamic target
	}
	w.check(RuleBranchTarget)
	if !w.heads[target] && target != w.e.TextEnd() {
		w.diag(addr, block, RuleBranchTarget,
			"transfer target 0x%08x is not a rewritten block head", target)
	}
}

func (w *walker) jalTo(word isa.Word, dst uint32) bool {
	return word>>26 == isa.OpJAL && isa.Decode(word).Target == isa.JTarget(dst)
}
