package verify

import (
	"fmt"
	"sort"
	"sync"

	"systrace/internal/isa"
	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/trace"
)

// This file derives the post-rewrite static control-flow graph of an
// epoxie-instrumented image, for consumers that need to know which
// trace records may legally follow which — primarily
// internal/tracecheck's conformance pass. It reuses the same decoding
// conventions as the block walker (prologue shape, terminator-pair
// detection, static target computation) but exposes the result as a
// queryable graph instead of diagnostics.

// TermKind classifies how a recorded block transfers control.
type TermKind uint8

const (
	// TermFall: no terminator pair; execution falls into the next
	// block in address order (straight-line splits and syscall-ended
	// blocks, which resume at the next instruction after the trap).
	TermFall TermKind = iota
	// TermBranch: conditional branch; target or fallthrough.
	TermBranch
	// TermJump: unconditional j to a static target.
	TermJump
	// TermCall: jal to a static target; returns to the fallthrough.
	TermCall
	// TermCallReg: jalr; dynamic callee, returns to the fallthrough.
	TermCallReg
	// TermRet: jr ra.
	TermRet
	// TermJumpReg: jr through a non-ra register (jump tables,
	// trampolines); dynamic target.
	TermJumpReg
	// TermHalt: the block ends in a break with no delay slot;
	// execution does not continue past it in the traced image.
	TermHalt
)

func (k TermKind) String() string {
	switch k {
	case TermFall:
		return "fall"
	case TermBranch:
		return "branch"
	case TermJump:
		return "jump"
	case TermCall:
		return "call"
	case TermCallReg:
		return "call-reg"
	case TermRet:
		return "ret"
	case TermJumpReg:
		return "jump-reg"
	case TermHalt:
		return "halt"
	}
	return fmt.Sprintf("TermKind(%d)", int(k))
}

// CFGNode is one recorded basic block of the instrumented image: a
// block that emits a trace record when executed (instrumented blocks
// and hand-traced blocks; BBNoInstrument code is silent and appears
// only as edges walked by Reach).
type CFGNode struct {
	ID     int    // the block's index in Exe.Instr.Blocks, as in trace.SideTable
	Head   uint32 // post-rewrite block head address
	Record uint32 // record address bbtrace writes (head+12, or head if hand-traced)
	Info   *obj.InstrBlock
	Term   TermKind
	Target uint32 // static target for TermBranch/TermJump/TermCall
	Next   uint32 // fallthrough: first address past the block
}

// ReachSet is the set of trace records observable next when execution
// enters silent (unrecorded) code at some address: the records of the
// first recorded blocks reachable without crossing another recorded
// block.
type ReachSet struct {
	// Top means the closure lost track (dynamic transfer inside
	// silent code, or execution left the text segment): any record
	// may follow.
	Top bool
	// MayReturn means a `jr ra` is reachable without crossing a
	// recorded block: silent code may return to its caller without
	// emitting anything.
	MayReturn bool
	// Records holds the reachable record addresses, sorted.
	Records []uint32
}

// Has reports whether rec is in the set (Top matches everything).
func (s *ReachSet) Has(rec uint32) bool {
	if s == nil {
		return false
	}
	if s.Top {
		return true
	}
	i := sort.Search(len(s.Records), func(i int) bool { return s.Records[i] >= rec })
	return i < len(s.Records) && s.Records[i] == rec
}

// CFG is the post-rewrite control-flow graph of one instrumented
// executable. It is safe for concurrent use: the graph is read-only
// after NewCFG, and Reach serializes its memo behind a mutex. Hot
// callers keep their own memo in front of Reach (tracecheck does, per
// checked address space and node ID), so the lock is taken once per
// distinct query, not once per record.
type CFG struct {
	Exe *obj.Executable
	// Nodes holds the recorded blocks by ID: Nodes[i] is
	// Exe.Instr.Blocks[i].
	Nodes []CFGNode
	// MaxMem is the largest per-block memory-reference count in the
	// side table: an upper bound on the orphan words an interrupted
	// block can leave behind (§4.3's resynchronization "dirt").
	MaxMem int

	recs  *trace.SideTable // record address → node ID
	heads map[uint32]*CFGNode

	bb, mt, mtsp uint32
	hasSP        bool

	mu   sync.Mutex // guards memo
	memo map[uint32]*ReachSet
}

// reachCap bounds the instruction closure of one Reach query; silent
// regions are small (the tracing runtime and a few delicate handlers),
// so hitting the cap means something is wrong and the set degrades to
// Top rather than looping.
const reachCap = 16384

// NewCFG derives the recorded-block graph of an epoxie-instrumented
// image. It fails for images that cannot be interpreted at all (not
// instrumented, unknown tool, missing runtime symbols) — the same
// preconditions as Executable.
func NewCFG(e *obj.Executable) (*CFG, error) {
	if e == nil {
		return nil, fmt.Errorf("verify: nil executable")
	}
	sp := obs.BeginDetail("verify_cfg", e.Name)
	defer sp.End()
	if e.Instr == nil {
		return nil, fmt.Errorf("verify: %s is not instrumented", e.Name)
	}
	if e.Instr.Tool != "epoxie" {
		return nil, fmt.Errorf("verify: %s: unsupported instrumentation tool %q", e.Name, e.Instr.Tool)
	}
	bb, okBB := e.Symbol("bbtrace")
	mt, okMT := e.Symbol("memtrace")
	if !okBB || !okMT {
		return nil, fmt.Errorf("verify: %s: tracing runtime symbols missing (bbtrace %v, memtrace %v)",
			e.Name, okBB, okMT)
	}
	mtsp, okSP := e.Symbol("memtrace_sp")
	g := &CFG{
		Exe:   e,
		Nodes: make([]CFGNode, len(e.Instr.Blocks)),
		recs:  trace.NewSideTable(e.Instr.Blocks),
		heads: make(map[uint32]*CFGNode, len(e.Instr.Blocks)),
		bb:    bb,
		mt:    mt,
		mtsp:  mtsp,
		hasSP: okSP,
		memo:  make(map[uint32]*ReachSet),
	}
	for i := range e.Instr.Blocks {
		ib := &e.Instr.Blocks[i]
		head := ib.RecordAddr - prologueBytes(ib.Flags)
		if len(ib.Mem) > g.MaxMem {
			g.MaxMem = len(ib.Mem)
		}
		n := &g.Nodes[i]
		*n = CFGNode{ID: i, Head: head, Record: ib.RecordAddr, Info: ib}
		g.classify(n)
		g.heads[head] = n
	}
	return g, nil
}

// Record returns the node whose record address is rec (what the trace
// stream carries), or nil.
func (g *CFG) Record(rec uint32) *CFGNode {
	if id, ok := g.recs.ID(rec); ok {
		return &g.Nodes[id]
	}
	return nil
}

// classify decodes the block's terminator into Term/Target/Next.
func (g *CFG) classify(n *CFGNode) {
	e := g.Exe
	b := e.BlockFor(n.Head)
	if b == nil || b.Addr != n.Head {
		// Side table out of step with the block table; degrade to an
		// untracked transfer (verify's side-table rule reports this).
		n.Term = TermJumpReg
		return
	}
	cnt := int(b.NInstr)
	start := (b.Addr - e.TextBase) / 4
	if int(start)+cnt > len(e.Text) {
		n.Term = TermJumpReg
		return
	}
	ws := e.Text[start : int(start)+cnt]
	n.Next = b.Addr + uint32(cnt)*4

	// Terminator pair, as in the walker: the penultimate word is a
	// control transfer that is not a memtrace call. Instrumented
	// blocks need at least their prologue before the pair.
	minPair := int(prologueBytes(b.Flags))/4 + 2
	if cnt < minPair || !isa.HasDelaySlot(ws[cnt-2]) ||
		jalTarget(ws[cnt-2], g.mt) || jalTarget(ws[cnt-2], g.bb) ||
		(g.hasSP && jalTarget(ws[cnt-2], g.mtsp)) {
		// No pair. A trailing lone break never resumes in the traced
		// image; a trailing syscall resumes at the next instruction.
		if cnt > 0 {
			w := ws[cnt-1]
			if w>>26 == isa.OpSpecial && int(w&0x3f) == isa.FnBREAK {
				n.Term = TermHalt
				return
			}
		}
		n.Term = TermFall
		return
	}

	term := ws[cnt-2]
	termAddr := b.Addr + uint32(cnt-2)*4
	switch {
	case isa.IsBranch(term):
		n.Term = TermBranch
		n.Target = termAddr + 4 + isa.SignExt16(isa.Decode(term).Imm)<<2
	case term>>26 == isa.OpJ:
		n.Term = TermJump
		n.Target = (termAddr+4)&0xf0000000 | isa.Decode(term).Target<<2
	case term>>26 == isa.OpJAL:
		n.Term = TermCall
		n.Target = (termAddr+4)&0xf0000000 | isa.Decode(term).Target<<2
	default: // SPECIAL: jr / jalr
		i := isa.Decode(term)
		switch i.Funct {
		case isa.FnJALR:
			n.Term = TermCallReg
		case isa.FnJR:
			if i.Rs == isa.RegRA {
				n.Term = TermRet
			} else {
				n.Term = TermJumpReg
			}
		default:
			n.Term = TermJumpReg
		}
	}
}

// Reach computes which records may be observed next when control
// enters addr. Entering a recorded block yields exactly its record;
// entering silent code walks the instruction closure until recorded
// blocks (collected), a silent return (MayReturn), or a dynamic
// transfer (Top). Results are memoized on the CFG; the returned set is
// shared and must not be modified.
func (g *CFG) Reach(addr uint32) *ReachSet {
	g.mu.Lock()
	defer g.mu.Unlock()
	if s, ok := g.memo[addr]; ok {
		return s
	}
	s := g.reach(addr)
	sort.Slice(s.Records, func(i, j int) bool { return s.Records[i] < s.Records[j] })
	g.memo[addr] = s
	return s
}

func (g *CFG) reach(start uint32) *ReachSet {
	e := g.Exe
	s := &ReachSet{}
	seen := make(map[uint32]bool)
	found := make(map[uint32]bool)
	work := []uint32{start}
	for len(work) > 0 {
		a := work[len(work)-1]
		work = work[:len(work)-1]
		if seen[a] {
			continue
		}
		seen[a] = true
		if len(seen) > reachCap {
			s.Top = true
			break
		}
		if n := g.heads[a]; n != nil {
			if !found[n.Record] {
				found[n.Record] = true
				s.Records = append(s.Records, n.Record)
			}
			continue
		}
		if a < e.TextBase || a >= e.TextEnd() {
			// Left the known text (another segment, the exception
			// vectors of a different image): no static answer.
			s.Top = true
			continue
		}
		w := e.Text[(a-e.TextBase)/4]
		switch {
		case jalTarget(w, g.bb) || jalTarget(w, g.mt) || (g.hasSP && jalTarget(w, g.mtsp)):
			// A trace-runtime call in code we thought silent; give up
			// on this path rather than guess its record.
			s.Top = true
		case isa.IsBranch(w):
			work = append(work, a+4+isa.SignExt16(isa.Decode(w).Imm)<<2, a+8)
		case w>>26 == isa.OpJ:
			work = append(work, (a+4)&0xf0000000|isa.Decode(w).Target<<2)
		case w>>26 == isa.OpJAL:
			tgt := (a+4)&0xf0000000 | isa.Decode(w).Target<<2
			if n := g.heads[tgt]; n != nil {
				// A call into recorded code: its record is observed
				// before anything after the call can run, and recorded
				// code never returns silently — the path ends here.
				if !found[n.Record] {
					found[n.Record] = true
					s.Records = append(s.Records, n.Record)
				}
			} else {
				// Silent callee: walk it, and assume it may return.
				work = append(work, tgt, a+8)
			}
		case w>>26 == isa.OpSpecial && int(w&0x3f) == isa.FnJALR:
			s.Top = true
			work = append(work, a+8)
		case w>>26 == isa.OpSpecial && int(w&0x3f) == isa.FnJR:
			if isa.Decode(w).Rs == isa.RegRA {
				s.MayReturn = true
			} else {
				// Dynamic jump in silent code (exception return via
				// jr k0, jump tables): no static answer.
				s.Top = true
			}
		case w>>26 == isa.OpSpecial && int(w&0x3f) == isa.FnBREAK:
			// Either a halt or a trap the kernel services before
			// resuming at the next instruction; cover the resumption.
			work = append(work, a+4)
		default:
			work = append(work, a+4)
		}
	}
	return s
}

// jalTarget reports whether word is a jal to dst.
func jalTarget(word isa.Word, dst uint32) bool {
	return word>>26 == isa.OpJAL && isa.Decode(word).Target == isa.JTarget(dst)
}
