// Package pixie implements the contrast tool the paper measures epoxie
// against: an *executable-level* rewriter in the style of the MIPS
// pixie tool [Smith 91]. Because it runs after linking, it has no
// relocation information, so it "does some of this address correction
// statically ... but it must do part of it dynamically, by including a
// complete address translation table in the instrumented executable
// and doing lookups in this table during execution" (§3.2): direct
// calls plant *original* return addresses, every indirect jump
// translates through the table, and the inline trace-collection
// sequences are the bulky early-tool style — which is why pixie-style
// instrumentation "expands the text by a factor of 4-6" against
// epoxie's 1.9-2.3.
//
// The package also provides the basic-block counting mode the paper
// uses for Table 2's arithmetic-stall term ("Pixie was used to
// estimate arithmetic stalls, as the tracing system does not measure
// these events", §5.1).
package pixie

import (
	"encoding/binary"
	"fmt"

	"systrace/internal/epoxie"
	"systrace/internal/isa"
	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/trace"
)

// RAM is the slice of physical memory the counter reader needs.
type RAM interface {
	ReadWord(p uint32) uint32
}

// ReadCounts extracts the per-block execution counters after a
// ModeCount run. The machine's RAM is indexed physically; count-mode
// images run bare (kseg0), so the counter VA maps directly.
func ReadCounts(ram RAM, res *Result) []uint32 {
	out := make([]uint32, res.NBlocks)
	for i := range out {
		out[i] = ram.ReadWord(res.CountsVA + uint32(i)*4 - 0x80000000)
	}
	return out
}

// Mode selects what the rewriter inserts.
type Mode int

const (
	// ModeTrace inserts address-tracing code.
	ModeTrace Mode = iota
	// ModeCount inserts per-basic-block execution counters.
	ModeCount
)

const (
	xr1 = isa.XReg1
	xr3 = isa.XReg3
	at  = isa.RegAT
)

// Result is a pixie-instrumented executable.
type Result struct {
	Exe *obj.Executable
	// TableVA is the address of the runtime translation table.
	TableVA uint32
	// CountsVA is the address of the counter array (ModeCount);
	// counter i belongs to block i of the original executable.
	CountsVA uint32
	NBlocks  int
}

type rw struct {
	in           *obj.Executable
	mode         Mode
	out          []isa.Word
	instrNew     map[uint32]uint32 // original VA -> new text byte offset
	leader       map[uint32]uint32 // original block VA -> new byte offset
	pendingJumps []pendingJump
	bookVA       uint32
	countsVA     uint32
	tableVA      uint32
	err          error
}

func (r *rw) fault(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("pixie %s: %s", r.in.Name, fmt.Sprintf(format, args...))
	}
}

// Rewrite instruments a linked executable.
func Rewrite(e *obj.Executable, mode Mode) (*Result, error) {
	return RewriteWithBook(e, mode, 0)
}

// RewriteWithBook is Rewrite with a startup stub prepended that points
// xreg3 at the bookkeeping area bookVA and initializes the buffer
// bounds — pixie's own initialization code, needed when the input
// binary was not built for tracing. bookVA 0 omits the stub (the
// caller's startup code owns the bookkeeping).
func RewriteWithBook(e *obj.Executable, mode Mode, bookVA uint32) (*Result, error) {
	sp := obs.BeginDetail("pixie_rewrite", e.Name)
	defer sp.End()
	if e.Instr != nil {
		return nil, fmt.Errorf("pixie: %s is already instrumented", e.Name)
	}
	r := &rw{
		in:       e,
		mode:     mode,
		bookVA:   bookVA,
		instrNew: make(map[uint32]uint32, len(e.Text)),
		leader:   make(map[uint32]uint32, len(e.Blocks)),
	}

	// Data layout: original data, zero fill through the old BSS, then
	// the counter array, then the translation table. Data addresses
	// are unchanged; only the image grows past the old program break.
	dataLen := e.BSSEnd() - e.DataBase
	dataLen = (dataLen + 7) &^ 7
	r.countsVA = e.DataBase + dataLen
	nctr := uint32(0)
	if mode == ModeCount {
		nctr = uint32(len(e.Blocks)) * 4
	}
	r.tableVA = r.countsVA + nctr

	// Optional startup stub: establish the bookkeeping register and
	// buffer bounds, then jump to the original entry.
	var stubEntry uint32
	if bookVA != 0 {
		stubEntry = uint32(len(r.out)) * 4
		r.li32(xr3, bookVA)
		r.li32(at, bookVA+trace.BookSize)
		r.emit(isa.SW(at, xr3, trace.BookBufPtr))
		r.li32(at, bookVA+trace.BookSize+trace.UserBufBytes)
		r.emit(isa.SW(at, xr3, trace.BookBufEnd))
		r.pendingJumps = append(r.pendingJumps, pendingJump{
			off:    r.emit(isa.J(0)),
			target: e.Entry,
		})
		r.emit(isa.NOP)
	}

	for bi := range e.Blocks {
		r.block(&e.Blocks[bi])
		if r.err != nil {
			return nil, r.err
		}
	}
	r.fixBranches()
	if r.err != nil {
		return nil, r.err
	}

	// Translation table: one word per original text word.
	table := make([]byte, len(e.Text)*4)
	for i := 0; i < len(e.Text); i++ {
		va := e.TextBase + uint32(i)*4
		var nw uint32
		if off, ok := r.leader[va]; ok {
			nw = e.TextBase + off
		} else if off, ok := r.instrNew[va]; ok {
			nw = e.TextBase + off
		}
		binary.BigEndian.PutUint32(table[i*4:], nw)
	}

	data := make([]byte, dataLen+nctr)
	copy(data, e.Data)
	data = append(data, table...)

	entry := e.TextBase + r.mapVA(e.Entry)
	if bookVA != 0 {
		entry = e.TextBase + stubEntry
	}
	ne := &obj.Executable{
		Name:     e.Name + ".pixie",
		Entry:    entry,
		TextBase: e.TextBase,
		Text:     r.out,
		DataBase: e.DataBase,
		Data:     data,
		BSSBase:  e.DataBase + uint32(len(data)),
		BSSSize:  0,
		Traced:   mode == ModeTrace || bookVA != 0,
	}
	for _, s := range e.Syms {
		ns := s
		if s.Section == obj.SecText {
			ns.Off = e.TextBase + r.mapVA(s.Off)
		}
		ne.Syms = append(ne.Syms, ns)
	}
	if mode == ModeTrace {
		ii := &obj.InstrInfo{
			Tool:         "pixie",
			OrigTextSize: uint32(len(e.Text)) * 4,
			TextSize:     uint32(len(r.out)) * 4,
		}
		for bi := range e.Blocks {
			b := &e.Blocks[bi]
			if b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) != 0 {
				continue
			}
			// pixie records the *original* block address directly.
			ii.Blocks = append(ii.Blocks, obj.InstrBlock{
				RecordAddr: b.Addr,
				OrigAddr:   b.Addr,
				NInstr:     b.NInstr,
				Flags:      b.Flags,
				Mem:        b.Mem,
			})
		}
		ne.Instr = ii
	}
	// The rewritten image has no meaningful block table; leave it
	// empty (nothing instruments a pixie output further).
	return &Result{Exe: ne, TableVA: r.tableVA, CountsVA: r.countsVA, NBlocks: len(e.Blocks)}, nil
}

func (r *rw) mapVA(va uint32) uint32 {
	rel := va
	if off, ok := r.leader[rel]; ok {
		return off
	}
	if off, ok := r.instrNew[rel]; ok {
		return off
	}
	return 0
}

func (r *rw) emit(w isa.Word) uint32 {
	off := uint32(len(r.out)) * 4
	r.out = append(r.out, w)
	return off
}

// li32 emits a lui/ori pair loading v into reg.
func (r *rw) li32(reg int, v uint32) {
	r.emit(isa.LUI(reg, uint16(v>>16)))
	r.emit(isa.ORI(reg, reg, uint16(v)))
}

func (r *rw) block(b *obj.ExeBlock) {
	newStart := uint32(len(r.out)) * 4
	r.leader[b.Addr] = newStart
	instrument := b.Flags&(obj.BBNoInstrument|obj.BBHandTraced) == 0

	if instrument {
		switch r.mode {
		case ModeTrace:
			// Inline block record: bounds check, then store the
			// original block address.
			r.emit(isa.LW(xr1, xr3, trace.BookBufPtr))
			r.emit(isa.LW(at, xr3, trace.BookBufEnd))
			r.emit(isa.SLTU(at, xr1, at))
			r.emit(isa.BEQ(at, isa.RegZero, 6)) // skip the record when full
			r.emit(isa.NOP)
			r.li32(at, b.Addr)
			r.emit(isa.SW(at, xr1, 0))
			r.emit(isa.ADDIU(xr1, xr1, 4))
			r.emit(isa.SW(xr1, xr3, trace.BookBufPtr))
		case ModeCount:
			bi := r.blockIndex(b)
			r.li32(at, r.countsVA+uint32(bi)*4)
			r.emit(isa.LW(xr1, at, 0))
			r.emit(isa.ADDIU(xr1, xr1, 1))
			r.emit(isa.SW(xr1, at, 0))
		}
	}

	n := int(b.NInstr)
	words := r.in.Text[(b.Addr-r.in.TextBase)/4:]
	words = words[:n]
	bodyEnd := n
	hasPair := n >= 2 && isa.HasDelaySlot(words[n-2])
	if hasPair {
		bodyEnd = n - 2
	}
	for k := 0; k < bodyEnd; k++ {
		r.instruction(b.Addr+uint32(k)*4, words[k], instrument)
	}
	if hasPair {
		r.terminator(b.Addr+uint32(bodyEnd)*4, words[n-2], words[n-1], instrument)
	}
}

func (r *rw) blockIndex(b *obj.ExeBlock) int {
	for i := range r.in.Blocks {
		if &r.in.Blocks[i] == b {
			return i
		}
	}
	return 0
}

func (r *rw) steal(w isa.Word, instrument bool) (pre []isa.Word, main isa.Word, post []isa.Word) {
	if !instrument {
		return nil, w, nil
	}
	pre, main, post, err := epoxie.StealRewrite(w)
	if err != nil {
		r.fault("%v", err)
	}
	return pre, main, post
}

func (r *rw) instruction(va uint32, w isa.Word, instrument bool) {
	pre, main, post := r.steal(w, instrument)
	for _, p := range pre {
		r.emit(p)
	}
	if instrument && r.mode == ModeTrace && isa.IsMem(main) {
		r.instrNew[va] = r.memRef(main)
	} else {
		r.instrNew[va] = r.emit(main)
	}
	for _, p := range post {
		r.emit(p)
	}
}

// memRef emits the inline trace store (eleven instructions) followed
// by the original memory instruction, returning the latter's offset.
func (r *rw) memRef(w isa.Word) uint32 {
	i := isa.Decode(w)
	r.emit(isa.SW(at, xr3, trace.BookTmp)) // preserve at (may be the base)
	r.emit(isa.ADDIU(at, i.Rs, i.Imm))     // effective address
	r.emit(isa.LW(xr1, xr3, trace.BookBufPtr))
	r.emit(isa.SW(at, xr3, trace.BookImm)) // park EA across the check
	r.emit(isa.LW(at, xr3, trace.BookBufEnd))
	r.emit(isa.SLTU(at, xr1, at))
	r.emit(isa.BEQ(at, isa.RegZero, 4)) // full: skip the store
	r.emit(isa.LW(at, xr3, trace.BookImm))
	r.emit(isa.SW(at, xr1, 0))
	r.emit(isa.ADDIU(xr1, xr1, 4))
	r.emit(isa.SW(xr1, xr3, trace.BookBufPtr))
	r.emit(isa.LW(at, xr3, trace.BookTmp))
	return r.emit(w)
}

// translate emits the table lookup turning an original code address in
// src into the rewritten address, left in at. Delta addressing folds
// the table base and text base into one constant. When the source is
// `at` itself (a steal-rewritten jump register), xreg1 carries the
// delta instead.
func (r *rw) translate(src int) {
	delta := r.tableVA - r.in.TextBase
	if src == at {
		r.li32(xr1, delta)
		r.emit(isa.ADDU(at, xr1, at))
		r.emit(isa.LW(at, at, 0))
		return
	}
	r.li32(at, delta)
	r.emit(isa.ADDU(at, at, src))
	r.emit(isa.LW(at, at, 0))
}

// terminator rewrites a control transfer and its delay slot. Address
// correction applies to *all* blocks; tracing only to instrumented
// ones.
func (r *rw) terminator(va uint32, term, slot isa.Word, instrument bool) {
	tpre, tmain, tpost := r.steal(term, instrument)
	if len(tpost) != 0 {
		r.fault("terminator at 0x%x writes a stolen register", va)
		return
	}
	spre, smain, spost := r.steal(slot, instrument)

	emitSlot := func() {
		// The (possibly rewritten) delay slot, hoisted above the jump
		// when it expands to more than one instruction.
		if instrument && r.mode == ModeTrace && isa.IsMem(smain) {
			if !safeToHoist(tmain, smain) {
				r.fault("memory instruction in delay slot at 0x%x cannot be hoisted", va+4)
				return
			}
			for _, p := range spre {
				r.emit(p)
			}
			r.instrNew[va+4] = r.memRef(smain)
			for _, p := range spost {
				r.emit(p)
			}
			return
		}
		if len(spre) != 0 || len(spost) != 0 {
			if !safeToHoist(tmain, smain) || len(spost) != 0 {
				r.fault("delay slot at 0x%x cannot be hoisted", va+4)
				return
			}
			for _, p := range spre {
				r.emit(p)
			}
			r.instrNew[va+4] = r.emit(smain)
			return
		}
		r.instrNew[va+4] = 0xffffffff // placed below, in the jump's slot
	}

	i := isa.Decode(tmain)
	switch {
	case tmain>>26 == isa.OpJAL:
		// jal X -> plant the *original* return address, jump to the
		// corrected target.
		origRet := va + 8
		target := va&0xf0000000 | i.Target<<2
		emitSlot()
		r.li32(isa.RegRA, origRet)
		r.jumpStatic(va, target)
	case tmain>>26 == isa.OpJ:
		target := va&0xf0000000 | i.Target<<2
		emitSlot()
		r.jumpStatic(va, target)
	case tmain>>26 == isa.OpSpecial && i.Funct == isa.FnJALR:
		emitSlot()
		for _, p := range tpre {
			r.emit(p)
		}
		r.translate(i.Rs)
		r.li32(i.Rd, va+8)
		r.instrNew[va] = r.emit(isa.JR(at))
		r.emit(isa.NOP)
	case tmain>>26 == isa.OpSpecial && i.Funct == isa.FnJR:
		emitSlot()
		for _, p := range tpre {
			r.emit(p)
		}
		r.translate(i.Rs)
		r.instrNew[va] = r.emit(isa.JR(at))
		r.emit(isa.NOP)
	default:
		// Conditional branch: fixed up after layout.
		emitSlot()
		for _, p := range tpre {
			r.emit(p)
		}
		r.instrNew[va] = r.emit(tmain)
		if r.instrNew[va+4] == 0xffffffff {
			r.instrNew[va+4] = r.emit(smain)
		} else {
			r.emit(isa.NOP)
		}
		return
	}
	if r.instrNew[va+4] == 0xffffffff {
		// Simple slot: place it in the rewritten jump's own delay
		// slot. The jump was emitted with a trailing NOP; put the
		// instruction there instead.
		r.out[len(r.out)-1] = smain
		r.instrNew[va+4] = uint32(len(r.out)-1) * 4
	}
}

// jumpStatic emits a statically corrected jump to the original target
// address (resolved after layout for forward targets).
func (r *rw) jumpStatic(va, origTarget uint32) {
	off := r.emit(isa.J(0))
	r.emit(isa.NOP)
	r.pendingJumps = append(r.pendingJumps, pendingJump{off: off, target: origTarget})
	r.instrNew[va] = off
}

type pendingJump struct {
	off    uint32 // new text offset of the j instruction
	target uint32 // original VA
}

func safeToHoist(term, slot isa.Word) bool { return isa.SafeToHoist(term, slot) }

func (r *rw) fixBranches() {
	// Conditional branches.
	for va, newOff := range r.instrNew {
		w := r.out[newOff/4]
		if !isa.IsBranch(w) {
			continue
		}
		imm := int32(int16(w))
		oldTarget := uint32(int64(va) + 4 + int64(imm)*4)
		nt, ok := r.leader[oldTarget]
		if !ok {
			nt, ok = r.instrNew[oldTarget]
		}
		if !ok {
			r.fault("branch at 0x%x targets unmapped 0x%x", va, oldTarget)
			return
		}
		diff := (int64(nt) - int64(newOff) - 4) / 4
		if diff > 32767 || diff < -32768 {
			r.fault("branch at 0x%x out of range after expansion", va)
			return
		}
		r.out[newOff/4] = w&0xffff0000 | uint32(uint16(int16(diff)))
	}
	// Static jumps.
	for _, pj := range r.pendingJumps {
		nt, ok := r.leader[pj.target]
		if !ok {
			nt, ok = r.instrNew[pj.target]
		}
		if !ok {
			r.fault("jump to unmapped 0x%x", pj.target)
			return
		}
		abs := r.in.TextBase + nt
		r.out[pj.off/4] = isa.J(0) | abs>>2&0x03ffffff
	}
}
