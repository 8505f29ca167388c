// Package epoxie implements the paper's central tool: a link-time
// object-code rewriter that inserts address-tracing code. Epoxie
// "rewrites object files at link time. Modifying object code at link
// time is easier than modifying an executable, because the symbol and
// relocation tables present in object code allow epoxie to distinguish
// unambiguously between uses of addresses and uses of coincidentally
// similar constants. This information also allows all address
// correction to be done statically, incurring no runtime overhead"
// (§3.2).
//
// Each basic block is preceded by a three-instruction sequence
//
//	sw   ra, 124(xreg3)
//	jal  bbtrace
//	li   zero, N          ; words of trace this block generates
//
// and each memory instruction becomes `jal memtrace` with the memory
// instruction in the branch delay slot — or, in hazard cases, an
// effective-address no-op in the slot with the real instruction issued
// after the call. Three stolen registers (xreg1..xreg3) carry tracing
// state; uses of them in the original binary are rewritten against
// shadow values in memory.
package epoxie

import (
	"fmt"

	"systrace/internal/dataflow"
	"systrace/internal/isa"
	"systrace/internal/obj"
	"systrace/internal/trace"
)

// FlowMode selects how the rewriter uses dataflow liveness.
type FlowMode uint8

const (
	// FlowOn (the default) elides save/restore traffic that liveness
	// proves dead: blocks whose live-in excludes ra get the two-word
	// lean prologue, and borrowed scratch registers proven dead skip
	// the bookkeeping save/restore bracket.
	FlowOn FlowMode = iota
	// FlowOff disables the analysis entirely; every site uses the
	// conservative idiom. This is the paper's original emission.
	FlowOff
	// FlowPadded makes the same liveness decisions as FlowOn but
	// replaces each elided save/restore with a NOP, so the image has
	// the exact layout of FlowOff while exhibiting FlowOn's register
	// semantics (the stale ra restore, the clobbered scratch). The
	// differential oracle runs this variant against FlowOff to prove
	// the liveness claims dynamically; it is never verified or
	// flagged lean.
	FlowPadded
)

// Config selects the instrumentation variant.
type Config struct {
	// Orig selects the original-epoxie emission style: inline
	// trace-collection sequences instead of the compact out-of-line
	// jal forms, expanding text by 4-6x rather than 1.9-2.3x (§3.2
	// footnote). Used for the text-growth comparison (experiment E7).
	Orig bool
	// Flow selects the dataflow-elision mode. It has effect only
	// through BuildInstrumented, which runs the analysis; a direct
	// Rewrite call has no liveness facts and always emits the
	// conservative idiom.
	Flow FlowMode

	// facts carries this object's liveness solution; set by
	// BuildInstrumented, nil for standalone Rewrite calls.
	facts *dataflow.Facts
}

// Rewritten pairs a rewritten object with the mapping information the
// linker needs to build the instrumented executable's side table.
type Rewritten struct {
	File *obj.File
	// Map has one entry per original basic block, in order.
	Map []BlockMap
	// OrigWords / NewWords measure text growth for this object.
	OrigWords int
	NewWords  int
	// Flow counts what liveness-driven elision did in this object.
	Flow obj.FlowStats
}

// BlockMap correlates one original block with its rewritten form.
type BlockMap struct {
	OldOff    uint32      // block offset in original text
	NewOff    uint32      // block offset (prologue start) in rewritten text
	RecordOff uint32      // jal-return offset within rewritten text; ^0 if the block emits no records
	Flags     obj.BBFlags // original flags plus any rewrite markers (BBLeanPrologue)
	Orig      obj.BasicBlock
}

// NoRecord marks blocks that generate no trace records.
const NoRecord = ^uint32(0)

const (
	xr1 = isa.XReg1
	xr2 = isa.XReg2
	xr3 = isa.XReg3
)

// rw is the per-object rewriting state.
type rw struct {
	cfg Config
	in  *obj.File
	out []isa.Word
	// instrNew maps original instruction byte offset to the new byte
	// offset of the (possibly rewritten) instruction itself.
	instrNew map[uint32]uint32
	// leaderNew maps original block offsets to new block starts.
	leaderNew map[uint32]uint32
	maps      []BlockMap
	newRelocs []obj.Reloc
	symBB     int                 // symbol index of bbtrace
	symMT     int                 // symbol index of memtrace
	symMTSP   int                 // symbol index of memtrace_sp
	curBlock  uint32              // original offset of the block being rewritten
	vals      *dataflow.ValCursor // value facts, walked in rewrite order; nil without facts
	flow      obj.FlowStats
	err       error
}

// liveAt returns the original program's liveness immediately before
// instruction k of the current block, or (AllRegs, false) when no
// facts are available (standalone Rewrite, FlowOff, or Orig mode).
func (r *rw) liveAt(k int) (isa.RegSet, bool) {
	if r.cfg.facts == nil || r.cfg.Flow == FlowOff || r.cfg.Orig {
		return isa.AllRegs, false
	}
	live, ok := r.cfg.facts.LiveAt(r.curBlock, k)
	if !ok {
		return isa.AllRegs, false
	}
	return live, true
}

// Rewrite instruments one object file. The returned object references
// the runtime symbols bbtrace and memtrace, which RuntimeObj (or the
// kernel's variant) provides at link time.
func Rewrite(f *obj.File, cfg Config) (*Rewritten, error) {
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("epoxie: %w", err)
	}
	r := &rw{
		cfg:       cfg,
		in:        f,
		instrNew:  make(map[uint32]uint32, len(f.Text)),
		leaderNew: make(map[uint32]uint32, len(f.Blocks)),
	}
	if cfg.facts != nil {
		r.vals = cfg.facts.Values()
	}

	// Clone symbol table; intern runtime symbols.
	nf := &obj.File{
		Name:    f.Name,
		Data:    append([]byte(nil), f.Data...),
		BSSSize: f.BSSSize,
		Syms:    append([]obj.Symbol(nil), f.Syms...),
	}
	r.symBB = nf.AddSym(obj.Symbol{Name: "bbtrace", Section: obj.SecText})
	r.symMT = nf.AddSym(obj.Symbol{Name: "memtrace", Section: obj.SecText})
	r.symMTSP = nf.AddSym(obj.Symbol{Name: "memtrace_sp", Section: obj.SecText})

	for bi := range f.Blocks {
		r.block(&f.Blocks[bi], nf)
		if r.err != nil {
			return nil, fmt.Errorf("epoxie %s: %w", f.Name, r.err)
		}
	}

	// Address correction: remap defined text symbols and, for
	// relocations against them, addends.
	oldSymOff := make([]uint32, len(f.Syms))
	for si := range nf.Syms {
		s := &nf.Syms[si]
		if si < len(f.Syms) {
			oldSymOff[si] = f.Syms[si].Off
		}
		if s.Defined && s.Section == obj.SecText && si < len(f.Syms) {
			s.Off = r.mapOff(oldSymOff[si])
		}
	}
	mapReloc := func(rl obj.Reloc, inText bool) obj.Reloc {
		if inText {
			no, ok := r.instrNew[rl.Off]
			if !ok {
				r.err = fmt.Errorf("reloc at unmapped offset 0x%x", rl.Off)
				return rl
			}
			rl.Off = no
		}
		// Addend remap for intra-object text references.
		if rl.Sym < len(f.Syms) {
			s := f.Syms[rl.Sym]
			if s.Defined && s.Section == obj.SecText {
				oldTarget := uint32(int64(s.Off) + int64(rl.Addend))
				rl.Addend = int32(r.mapOff(oldTarget)) - int32(r.mapOff(s.Off))
			}
		}
		return rl
	}
	for _, rl := range f.Relocs {
		nf.Relocs = append(nf.Relocs, mapReloc(rl, true))
	}
	for _, rl := range f.DataRelocs {
		nf.DataRelocs = append(nf.DataRelocs, mapReloc(rl, false))
	}
	if r.err != nil {
		return nil, fmt.Errorf("epoxie %s: %w", f.Name, r.err)
	}
	nf.Relocs = append(nf.Relocs, r.newRelocs...)

	// Re-encode branches against the new layout.
	r.fixBranches()
	if r.err != nil {
		return nil, fmt.Errorf("epoxie %s: %w", f.Name, r.err)
	}
	nf.Text = r.out

	// Rebuild the block table: one block per original block, spanning
	// its rewritten extent, with memory ops rescanned.
	for mi := range r.maps {
		m := &r.maps[mi]
		end := uint32(len(r.out)) * 4
		if mi+1 < len(r.maps) {
			end = r.maps[mi+1].NewOff
		}
		nb := obj.BasicBlock{
			Off:    m.NewOff,
			NInstr: int32((end - m.NewOff) / 4),
			Flags:  m.Flags,
		}
		for k := int32(0); k < nb.NInstr; k++ {
			w := r.out[m.NewOff/4+uint32(k)]
			if isa.IsMem(w) {
				nb.Mem = append(nb.Mem, obj.MemOp{Index: int16(k), Load: isa.IsLoad(w), Size: int8(isa.MemSize(w))})
			}
		}
		nf.Blocks = append(nf.Blocks, nb)
	}
	if err := nf.Validate(); err != nil {
		return nil, fmt.Errorf("epoxie %s: rewritten object invalid: %w", f.Name, err)
	}
	return &Rewritten{
		File:      nf,
		Map:       r.maps,
		OrigWords: len(f.Text),
		NewWords:  len(r.out),
		Flow:      r.flow,
	}, nil
}

// mapOff maps an original text offset to its new offset, preferring
// block starts (branch targets always land on leaders; a block's new
// start includes its trace prologue).
func (r *rw) mapOff(old uint32) uint32 {
	if n, ok := r.leaderNew[old]; ok {
		return n
	}
	if n, ok := r.instrNew[old]; ok {
		return n
	}
	if old == uint32(len(r.in.Text))*4 {
		return uint32(len(r.out)) * 4 // end-of-text marker
	}
	r.err = fmt.Errorf("unmapped text offset 0x%x", old)
	return 0
}

func (r *rw) emit(w isa.Word) uint32 {
	off := uint32(len(r.out)) * 4
	r.out = append(r.out, w)
	return off
}

// fault records a rewriting error.
func (r *rw) fault(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// block rewrites one basic block.
func (r *rw) block(b *obj.BasicBlock, nf *obj.File) {
	newStart := uint32(len(r.out)) * 4
	m := BlockMap{OldOff: b.Off, NewOff: newStart, RecordOff: NoRecord, Flags: b.Flags, Orig: *b}
	r.leaderNew[b.Off] = newStart
	r.curBlock = b.Off

	instrument := b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) == 0
	if b.Flags&obj.BBHandTraced != 0 {
		// Hand-traced code records its own entries, keyed by the
		// (relocated) address of the block start.
		m.RecordOff = newStart
	}

	if instrument {
		if r.cfg.Orig {
			m.RecordOff = r.emitOrigPrologue(b)
		} else {
			// Full prologue: sw ra, 124(xreg3); jal bbtrace; li zero, N.
			// When liveness proves ra dead on entry, the save is elided
			// (lean prologue) — bbtrace's restore then loads a stale
			// value into a register nothing will read.
			r.flow.SaveSites++
			lean := false
			if in, ok := r.liveAt(0); ok && !in.Has(isa.RegRA) {
				lean = true
			}
			switch {
			case lean && r.cfg.Flow == FlowPadded:
				// Oracle layout: keep the three-word shape, drop only
				// the save's effect.
				r.flow.SavesElided++
				r.emit(isa.NOP)
			case lean:
				r.flow.SavesElided++
				r.flow.BytesSaved += 4
				m.Flags |= obj.BBLeanPrologue
			default:
				r.flow.Fallbacks++
				r.emit(isa.SW(isa.RegRA, xr3, trace.BookSavedRA))
			}
			jal := r.emit(isa.JAL(0))
			r.newRelocs = append(r.newRelocs, obj.Reloc{Off: jal, Kind: obj.RelJ26, Sym: r.symBB})
			r.emit(isa.LINop(b.TraceWords()))
			m.RecordOff = jal + 8
		}
	}

	// Find the terminator pair: [..., term, slot] when the block ends
	// with a control transfer.
	n := int(b.NInstr)
	words := r.in.Text[b.Off/4 : b.Off/4+uint32(n)]
	bodyEnd := n
	hasPair := false
	if n >= 2 && isa.HasDelaySlot(words[n-2]) {
		bodyEnd = n - 2
		hasPair = true
	}

	for k := 0; k < bodyEnd; k++ {
		r.instruction(b.Off+uint32(k)*4, words[k], instrument)
	}
	if hasPair {
		r.terminatorPair(b.Off+uint32(bodyEnd)*4, words[n-2], words[n-1], instrument)
	}
	r.maps = append(r.maps, m)
}

// instruction rewrites one non-terminator instruction. Register
// stealing applies only to instrumented code: uninstrumented blocks
// (the tracing runtime, delicate handlers) use the xregs on purpose.
func (r *rw) instruction(oldOff uint32, w isa.Word, instrument bool) {
	var pre, post []isa.Word
	main := w
	if instrument {
		pre, main, post = r.steal(w, int(oldOff-r.curBlock)/4)
	}
	for _, p := range pre {
		r.emit(p)
	}
	if instrument && isa.IsMem(main) {
		r.memRef(oldOff, main)
	} else {
		r.instrNew[oldOff] = r.emit(main)
	}
	for _, p := range post {
		r.emit(p)
	}
	if instrument && isa.Defs(main) == isa.RegRA {
		// Keep the shadow copy of ra fresh so memtrace's ra dispatch
		// and block-end restores stay correct.
		r.emit(isa.SW(isa.RegRA, xr3, trace.BookSavedRA))
	}
}

// memHazard reports whether w cannot sit live in the jal delay slot:
// its base is ra (clobbered by the call convention) or it is a load
// overwriting its own base before memtrace decodes it.
func memHazard(w isa.Word) bool {
	i := isa.Decode(w)
	return isa.Touches(w, isa.RegRA) || (isa.IsLoad(w) && i.Rt == i.Rs)
}

// memRef emits the memtrace call for a memory instruction.
func (r *rw) memRef(oldOff uint32, w isa.Word) {
	if r.cfg.Orig {
		r.instrNew[oldOff] = r.emitOrigMemRef(w)
		return
	}
	r.flow.EASites++
	w2, reb := r.rebaseEA(oldOff, w)
	i2 := isa.Decode(w2)

	if r.cfg.Flow == FlowPadded {
		// Layout parity with FlowOff: the group keeps the pre-rebase
		// hazard shape and the general memtrace entry; only the
		// addressing operand carries the rebase, so the differential
		// oracle proves each rebased EA dynamically without moving a
		// single address.
		if reb != nil {
			r.flow.EARebased++
		}
		jal := r.emit(isa.JAL(0))
		r.newRelocs = append(r.newRelocs, obj.Reloc{Off: jal, Kind: obj.RelJ26, Sym: r.symMT})
		if memHazard(w) {
			r.emit(isa.EANop(i2.Rs, i2.Imm, isa.MemSize(w2)))
		}
		r.instrNew[oldOff] = r.emit(w2)
		return
	}

	// FlowOn (or no facts, where w2 == w): the group takes the
	// post-rebase hazard shape, and a slot whose base is sp routes to
	// the specialized memtrace_sp entry — sp is never stolen and never
	// touched by instrumentation, so that entry skips the 32-way base
	// dispatch.
	hazard := memHazard(w2)
	sym := r.symMT
	if i2.Rs == isa.RegSP && r.cfg.facts != nil && r.cfg.Flow == FlowOn {
		sym = r.symMTSP
		r.flow.EASpecial++
	}
	jal := r.emit(isa.JAL(0))
	r.newRelocs = append(r.newRelocs, obj.Reloc{Off: jal, Kind: obj.RelJ26, Sym: sym})
	var slot uint32
	if hazard {
		// EA no-op in the slot; real instruction after the call.
		slot = r.emit(isa.EANop(i2.Rs, i2.Imm, isa.MemSize(w2)))
		r.instrNew[oldOff] = r.emit(w2)
	} else {
		slot = r.emit(w2)
		r.instrNew[oldOff] = slot
	}
	if reb != nil {
		r.flow.EARebased++
		reb.Addr = slot
		r.flow.EARebases = append(r.flow.EARebases, *reb)
	}
}

// rebaseEA rewrites w's addressing operand onto a provably equal
// anchor register when that strengthens the trace group: routing it to
// the specialized sp runtime entry, or clearing a hazard so the EA
// no-op word disappears. Requires value facts proving the original
// base equals the anchor plus a 16-bit displacement at this point.
func (r *rw) rebaseEA(oldOff uint32, w isa.Word) (isa.Word, *obj.EARebase) {
	if r.cfg.facts == nil || r.cfg.Flow == FlowOff || r.cfg.Orig {
		return w, nil
	}
	op := isa.Decode(r.in.Text[oldOff/4])
	i := isa.Decode(w)
	if i.Rs != op.Rs {
		// Register stealing moved the base onto a shadow load; the
		// facts describe the guest register, not the replacement.
		return w, nil
	}
	switch op.Rs {
	case isa.RegAT, isa.RegRA, isa.RegK0, isa.RegK1, xr1, xr2, xr3:
		// Registers whose instrumented-image value at the slot is not
		// the guest's: the verifier's redundant-ea rule could never
		// re-prove the equality there.
		return w, nil
	}
	st, ok := r.vals.At(r.curBlock, int(oldOff-r.curBlock)/4)
	if !ok {
		return w, nil
	}
	v := st.Reg(op.Rs)
	for _, nb := range [2]int{isa.RegSP, isa.RegGP} {
		if nb == op.Rs {
			break // already anchored; nothing to gain
		}
		d, ok := v.Diff(st.Reg(nb))
		if !ok {
			continue
		}
		newImm := int32(int16(i.Imm)) + d
		if newImm < -0x8000 || newImm > 0x7fff {
			continue
		}
		if isa.IsLoad(w) && i.Rt == nb {
			continue // would recreate the load hazard on the new base
		}
		w2 := w&^isa.Word(0x03e0ffff) | isa.Word(nb)<<21 | isa.Word(uint16(newImm))
		// Benefit test: the sp anchor enables memtrace_sp; the gp
		// anchor pays off only when it clears a hazard form.
		if nb != isa.RegSP && !(memHazard(w) && !memHazard(w2)) {
			continue
		}
		return w2, &obj.EARebase{
			OrigBase: uint8(op.Rs), NewBase: uint8(nb),
			OrigImm: i.Imm, NewImm: uint16(newImm),
		}
	}
	return w, nil
}

// terminatorPair rewrites a control transfer and its delay slot. Both
// halves are steal-rewritten against the liveness point before the
// terminator: everything emitted here (hoisted slot pre-loads, the
// terminator's own shadow loads) executes from that point on.
func (r *rw) terminatorPair(termOff uint32, term, slot isa.Word, instrument bool) {
	if !instrument {
		r.instrNew[termOff] = r.emit(term)
		r.instrNew[termOff+4] = r.emit(slot)
		return
	}
	termIdx := int(termOff-r.curBlock) / 4
	live, haveLive := r.liveAt(termIdx)
	pad := r.cfg.Flow == FlowPadded

	// Steal-rewrite the terminator (pre-loads only; terminators never
	// write xregs in our code, but jr xreg / beq xreg are possible).
	tplan, err := planSteal(term, isa.RegAT, isa.NOP, live, haveLive, pad)
	if err != nil {
		r.fault("%v", err)
		return
	}
	r.account(tplan)
	tpre, tmain, tpost := tplan.pre, tplan.main, tplan.post
	if len(tpost) != 0 {
		r.fault("terminator at 0x%x writes a stolen register", termOff)
		return
	}

	// The slot's borrowed scratch must also stay clear of the
	// terminator: its pre-loads are hoisted above it, and (when the
	// bracket is elided) its clobber survives past it.
	splan, err := planSteal(slot, isa.RegAT, tmain, live, haveLive, pad)
	if err != nil {
		r.fault("%v", err)
		return
	}

	if isa.IsMem(splan.main) {
		// The slot holds a memory instruction: hoist it (with its
		// memtrace call) above the terminator when that is safe. The
		// whole group — including a bracketed restore — completes
		// before the terminator issues.
		r.account(splan)
		if !isa.SafeToHoist(tmain, splan.main) {
			r.fault("memory instruction in delay slot at 0x%x cannot be hoisted", termOff+4)
			return
		}
		for _, p := range splan.pre {
			r.emit(p)
		}
		r.memRef(termOff+4, splan.main)
		for _, p := range splan.post {
			r.emit(p)
		}
		for _, p := range tpre {
			r.emit(p)
		}
		r.instrNew[termOff] = r.emit(tmain)
		r.emit(isa.NOP)
		return
	}

	if len(splan.post) != 0 {
		// A restore could only issue after the transfer takes effect.
		r.fault("delay slot at 0x%x writes a stolen register", termOff+4)
		return
	}
	if len(splan.pre) != 0 && len(tpre) != 0 {
		// Both rewrites claimed `at`, and the slot's load is hoisted
		// above the terminator's. If they shadow the same stolen
		// register one load serves both; otherwise the slot must move
		// to a scratch register proven dead across the pair (there is
		// nowhere to put a restore).
		sx := firstStolenRead(slot)
		tx := firstStolenRead(term)
		switch {
		case sx == tx && len(splan.pre) == 1 && len(tpre) == 1:
			splan.pre = nil
		default:
			cand := -1
			if haveLive {
				for _, c := range scratchCandidates {
					if !live.Has(c) && !isa.Touches(slot, c) && !isa.Touches(term, c) {
						cand = c
						break
					}
				}
			}
			if cand < 0 {
				r.fault("delay slot and terminator at 0x%x both need the assembler scratch and no register is provably dead", termOff)
				return
			}
			splan, err = planSteal(slot, cand, tmain, live, haveLive, pad)
			if err != nil || len(splan.post) != 0 {
				r.fault("delay slot at 0x%x cannot be re-registered around its terminator", termOff+4)
				return
			}
			r.flow.SaveSites++
			r.flow.SavesElided++
		}
	}
	r.account(splan)
	for _, p := range splan.pre {
		r.emit(p)
	}
	for _, p := range tpre {
		r.emit(p)
	}
	r.instrNew[termOff] = r.emit(tmain)
	r.instrNew[termOff+4] = r.emit(splan.main)
}

// firstStolenRead returns the first stolen register w reads, or -1.
func firstStolenRead(w isa.Word) int {
	if rs := xregReads(w); len(rs) > 0 {
		return rs[0]
	}
	return -1
}

// fixBranches re-encodes PC-relative branches against the new layout.
func (r *rw) fixBranches() {
	for oldOff, newOff := range r.instrNew {
		w := r.out[newOff/4]
		if !isa.IsBranch(w) {
			continue
		}
		imm := int32(int16(w))
		oldTarget := uint32(int64(oldOff) + 4 + int64(imm)*4)
		newTarget := r.mapOff(oldTarget)
		diff := (int64(newTarget) - int64(newOff) - 4) / 4
		if diff > 32767 || diff < -32768 {
			r.fault("branch at 0x%x out of range after expansion (%d words)", oldOff, diff)
			return
		}
		r.out[newOff/4] = w&0xffff0000 | uint32(uint16(int16(diff)))
	}
}
