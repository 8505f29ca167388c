package trace

import (
	"fmt"
	"sort"

	"systrace/internal/obj"
)

// EventKind classifies parsed trace events.
type EventKind uint8

const (
	EvIFetch EventKind = iota
	EvLoad
	EvStore
)

func (k EventKind) String() string {
	switch k {
	case EvIFetch:
		return "I"
	case EvLoad:
		return "L"
	case EvStore:
		return "S"
	}
	return "?"
}

// Event is one reconstructed memory reference, at uninstrumented
// addresses. Pid identifies the trace stream (0 = kernel); AS is the
// user address space in whose context the reference happened — for
// kernel references to kuseg (copyin/copyout), AS names the process
// whose pages are touched.
type Event struct {
	Kind   EventKind
	Addr   uint32
	Size   int8
	Pid    int16
	AS     int16
	Kernel bool
	Idle   bool // reference made by the kernel idle loop
}

// SideTable is the trace parsing library's static lookup table: from
// the record address written by bbtrace to the static description of
// the basic block ("A lookup table is used in the trace parsing
// library to find static information for a given basic block address",
// §3.5).
type SideTable struct {
	byAddr map[uint32]*obj.InstrBlock
	// text ranges for the redundancy check "that each basic block
	// address is valid for the address space in question" (§4.3).
	lo, hi uint32
	// Original text segment bounds, when known: a recorded *store*
	// into text space fails the simulator-style sanity checks of §4.3
	// (programs do not write their own code).
	textLo, textHi uint32
}

// SetTextRange enables the store-into-text sanity check for addresses
// in [lo, hi).
func (t *SideTable) SetTextRange(lo, hi uint32) { t.textLo, t.textHi = lo, hi }

// NewSideTable builds a lookup table from an instrumented image's side
// information. An empty blocks slice yields a well-defined empty table
// (range [0,0], every Lookup misses, Blocks returns nothing).
func NewSideTable(blocks []obj.InstrBlock) *SideTable {
	t := &SideTable{byAddr: make(map[uint32]*obj.InstrBlock, len(blocks))}
	if len(blocks) > 0 {
		t.lo = ^uint32(0)
	}
	for i := range blocks {
		b := &blocks[i]
		t.byAddr[b.RecordAddr] = b
		if b.RecordAddr < t.lo {
			t.lo = b.RecordAddr
		}
		if b.RecordAddr > t.hi {
			t.hi = b.RecordAddr
		}
	}
	return t
}

// Lookup resolves a record address.
func (t *SideTable) Lookup(rec uint32) *obj.InstrBlock { return t.byAddr[rec] }

// Range returns the [lo, hi] record-address bounds the redundancy
// check accepts. An empty table reports [0, 0].
func (t *SideTable) Range() (lo, hi uint32) { return t.lo, t.hi }

// Blocks returns the table's blocks sorted by original address (for
// reference-counting tools).
func (t *SideTable) Blocks() []*obj.InstrBlock {
	out := make([]*obj.InstrBlock, 0, len(t.byAddr))
	for _, b := range t.byAddr {
		out = append(out, b)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OrigAddr < out[j].OrigAddr })
	return out
}

// ParseError reports a violated redundancy check, with enough context
// to find the corruption ("missing words of trace or erroneous writes
// into the trace are detected with a very high probability", §4.3).
type ParseError struct {
	Index int // word index in the raw trace
	Word  uint32
	Msg   string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("trace: word %d (0x%08x): %s", e.Index, e.Word, e.Msg)
}

// blockState is the progress of a partially-consumed basic block: the
// parser expects the block's remaining memory references before the
// next record. Context switches and exceptions can interrupt a block
// mid-stream; the parser keeps one pending state per address space
// plus a stack for nested kernel exceptions (§3.5: "nested interrupts
// require the tracing system to use a stack").
type blockState struct {
	block   *obj.InstrBlock
	nextMem int // index into block.Mem
	instrAt int // instructions already emitted
}

func (s *blockState) done() bool {
	return s.block == nil || (s.nextMem >= len(s.block.Mem) && s.instrAt >= int(s.block.NInstr))
}

// nestFrame remembers the interrupted stream context across a nested
// kernel exception: a nested exception can interrupt the kernel's own
// trace, or land during the entry path while the stream is still
// attributed to the user.
type nestFrame struct {
	st     blockState
	inKern bool
}

// Parser reconstructs the interleaved reference stream from raw trace
// words. Tables are per address space: pid 0 is the kernel.
type Parser struct {
	kernel  *SideTable
	user    map[int]*SideTable
	cur     int  // current pid
	inKern  bool // kernel-mode trace in progress
	perProc map[int]*blockState
	kstack  []nestFrame // kernel exception nesting
	kcur    *blockState

	// resync: after a generation->analysis boundary the kernel stream
	// may resume with a few orphan references from the block the mode
	// switch interrupted ("a certain amount of 'dirt' is introduced
	// into the trace", §4.3); the parser skips words until the next
	// valid kernel record.
	resync bool
	// Counters for the special block behaviors (§3.5).
	IdleInstr   uint64 // idle-loop instructions (I/O delay estimation)
	CounterOn   bool
	CountedInst uint64

	// Statistics.
	Words   uint64 // raw trace words consumed
	Records uint64
	MemRefs uint64
	Fetches uint64 // instruction-fetch events reconstructed
	Markers uint64
	ModeSws uint64
	CtxSws  uint64
	// DirtWords counts words skipped while resynchronizing after a
	// mode switch: side-table lookups that failed on the orphan tail
	// of an interrupted block (the §4.3 "dirt").
	DirtWords uint64
	// ProcExits counts MarkProcExit markers; after one, records in
	// that process's address space are no longer parseable (its side
	// table is dropped, as the kernel drops its trace pages).
	ProcExits uint64
	ExcDepth  int
	MaxDepth  int

	// blockCounts is the reference-counting tool of §4.3 ("a dynamic
	// count of the number of times each instruction in the kernel was
	// executed" — kept per basic block here): enabled by
	// CountBlocks.
	blockCounts map[uint32]uint64
}

// CountBlocks enables per-block execution counting (the paper's
// reference-counting debugging aid, §4.3).
func (p *Parser) CountBlocks() { p.blockCounts = map[uint32]uint64{} }

// BlockCounts returns execution counts keyed by original block
// address; nil unless CountBlocks was called.
func (p *Parser) BlockCounts() map[uint32]uint64 { return p.blockCounts }

// NewParser builds a parser. kernel may be nil for user-only traces;
// when a kernel table is present, parsing starts in kernel mode (the
// first trace in the buffer is boot-time kernel activity).
func NewParser(kernel *SideTable) *Parser {
	return &Parser{
		kernel:  kernel,
		user:    map[int]*SideTable{},
		perProc: map[int]*blockState{},
		kcur:    &blockState{},
		inKern:  kernel != nil,
	}
}

// AddProcess registers a traced process's side table.
func (p *Parser) AddProcess(pid int, t *SideTable) {
	p.user[pid] = t
	p.perProc[pid] = &blockState{}
}

// state returns the active block state.
func (p *Parser) state() *blockState {
	if p.inKern {
		return p.kcur
	}
	s := p.perProc[p.cur]
	if s == nil {
		s = &blockState{}
		p.perProc[p.cur] = s
	}
	return s
}

func (p *Parser) table() *SideTable {
	if p.inKern {
		return p.kernel
	}
	return p.user[p.cur]
}

// Sink consumes a reconstructed reference stream. A block's fetch
// addresses are static — the record address plus the side table's
// block description (§3.5) — so sequential fetches travel as runs, not
// one event each: Fetch is a run of n sequential instruction fetches,
// the first at ev.Addr (the rest at ev.Addr+4, ev.Addr+8, ... with the
// same attribution). Ref is one load or store. A run never spans a
// memory reference: the parser ends it at every load or store.
type Sink interface {
	Fetch(ev Event, n int)
	Ref(ev Event)
}

// Parse consumes raw trace words and appends reconstructed events to
// out, one per reference (fetch runs expanded), returning it; on error
// out holds the events reconstructed before the bad word. It is
// ParseTo with a slice-appending sink.
func (p *Parser) Parse(words []uint32, out []Event) ([]Event, error) {
	es := eventSlice(out)
	err := p.ParseTo(words, &es)
	return es, err
}

// eventSlice is the Sink behind Parse.
type eventSlice []Event

func (es *eventSlice) Fetch(ev Event, n int) {
	for ; n > 0; n-- {
		*es = append(*es, ev)
		ev.Addr += 4
	}
}

func (es *eventSlice) Ref(ev Event) { *es = append(*es, ev) }

// ParseTo consumes raw trace words and feeds the reconstructed stream
// to sink in trace order. Parsing is incremental: call it once per
// analysis phase with the same Parser to preserve pending block state
// across buffer flush boundaries.
func (p *Parser) ParseTo(words []uint32, sink Sink) error {
	p.Words += uint64(len(words))
	for i, w := range words {
		if IsMarker(w) {
			p.Markers++
			if err := p.marker(i, w); err != nil {
				return err
			}
			continue
		}
		if p.resync {
			t := p.table()
			if t == nil || t.Lookup(w) == nil {
				p.DirtWords++
				continue // still dirt
			}
			p.resync = false
		}
		s := p.state()
		if !s.done() {
			// Expecting a memory reference for the open block.
			m := s.block.Mem[s.nextMem]
			if !m.Load {
				if t := p.table(); t != nil && t.textHi > t.textLo && w >= t.textLo && w < t.textHi {
					return &ParseError{i, w, "store into text segment (trace slipped?)"}
				}
			}
			// Fetches up to and including the memory instruction.
			p.fetchTo(sink, s, int(m.Index)+1)
			sink.Ref(p.event(kindOf(m.Load), w, m.Size, s))
			s.nextMem++
			p.MemRefs++
			if s.nextMem >= len(s.block.Mem) {
				// Tail fetches after the last memory reference.
				p.fetchTo(sink, s, int(s.block.NInstr))
			}
			continue
		}
		// Expecting a block record.
		t := p.table()
		if t == nil {
			return &ParseError{i, w, fmt.Sprintf("no side table for address space %d", p.curSpace())}
		}
		b := t.Lookup(w)
		if b == nil {
			return &ParseError{i, w, fmt.Sprintf("not a valid basic block record for address space %d", p.curSpace())}
		}
		p.Records++
		if p.blockCounts != nil {
			p.blockCounts[b.OrigAddr]++
		}
		if b.Flags&obj.BBCounterStart != 0 {
			p.CounterOn = true
		}
		if b.Flags&obj.BBCounterStop != 0 {
			p.CounterOn = false
		}
		*s = blockState{block: b}
		if len(b.Mem) == 0 {
			p.fetchTo(sink, s, int(b.NInstr))
		}
	}
	return nil
}

func kindOf(load bool) EventKind {
	if load {
		return EvLoad
	}
	return EvStore
}

func (p *Parser) curSpace() int {
	if p.inKern {
		return 0
	}
	return p.cur
}

func (p *Parser) event(k EventKind, addr uint32, size int8, s *blockState) Event {
	return Event{
		Kind:   k,
		Addr:   addr,
		Size:   size,
		Pid:    int16(p.curSpace()),
		AS:     int16(p.cur),
		Kernel: p.inKern,
		Idle:   s.block.Flags&obj.BBIdleLoop != 0,
	}
}

// fetchTo emits the open block's fetches up to (not including)
// instruction index upto as one run.
func (p *Parser) fetchTo(sink Sink, s *blockState, upto int) {
	n := upto - s.instrAt
	if n <= 0 {
		return
	}
	ev := p.event(EvIFetch, s.block.OrigAddr+uint32(s.instrAt)*4, 4, s)
	s.instrAt = upto
	p.Fetches += uint64(n)
	if ev.Idle {
		p.IdleInstr += uint64(n)
	}
	if p.CounterOn {
		p.CountedInst += uint64(n)
	}
	sink.Fetch(ev, n)
}

// TruncatedNestError reports a trace that ended while one or more
// nested kernel exceptions were still open: every MarkExcEnter must be
// matched by a MarkExcExit before the stream ends (§3.5's trace-state
// stack), so an unbalanced stream means the capture was truncated
// mid-nest. The fields identify the innermost open frame — the stream
// context the unmatched exception interrupted.
type TruncatedNestError struct {
	Depth  int    // exception frames still open at end of trace
	InKern bool   // whether the interrupted context was the kernel stream
	Orig   uint32 // interrupted block's original address (0 if between blocks)
	Got    int    // memory references seen for that block
	Want   int    // memory references the side table expects
}

func (e *TruncatedNestError) Error() string {
	ctx := "user"
	if e.InKern {
		ctx = "kernel"
	}
	if e.Want == 0 && e.Orig == 0 {
		return fmt.Sprintf("trace: ended inside %d open nested exception(s) (interrupted %s stream between blocks)",
			e.Depth, ctx)
	}
	return fmt.Sprintf("trace: ended inside %d open nested exception(s) (interrupted %s stream mid-block orig 0x%08x: %d of %d refs seen)",
		e.Depth, ctx, e.Orig, e.Got, e.Want)
}

// Finish verifies no block is left partially consumed: a truncated or
// word-dropped trace that still parsed shows up here as a block whose
// recorded memory references never all arrived, and a trace cut off
// inside a nested exception as a TruncatedNestError for the frame
// still open.
func (p *Parser) Finish() error {
	if n := len(p.kstack); n > 0 {
		fr := &p.kstack[n-1]
		e := &TruncatedNestError{Depth: n, InKern: fr.inKern}
		if fr.st.block != nil && !fr.st.done() {
			e.Orig = fr.st.block.OrigAddr
			e.Got = fr.st.nextMem
			e.Want = len(fr.st.block.Mem)
		}
		return e
	}
	check := func(s *blockState, what string) error {
		if s != nil && s.block != nil && !s.done() {
			return fmt.Errorf("trace: %s ended mid-block (orig 0x%08x: %d of %d refs seen)",
				what, s.block.OrigAddr, s.nextMem, len(s.block.Mem))
		}
		return nil
	}
	if err := check(p.kcur, "kernel stream"); err != nil {
		return err
	}
	for pid, s := range p.perProc {
		if err := check(s, fmt.Sprintf("process %d stream", pid)); err != nil {
			return err
		}
	}
	return nil
}

// marker handles control words.
func (p *Parser) marker(i int, w uint32) error {
	switch MarkerKind(w) {
	case MarkCtxSw:
		p.CtxSws++
		p.cur = int(MarkerArg(w))
		p.inKern = false
	case MarkKernEnter:
		p.inKern = true
	case MarkKernExit:
		p.inKern = false
		p.cur = int(MarkerArg(w))
	case MarkExcEnter:
		// Push the interrupted stream context.
		p.kstack = append(p.kstack, nestFrame{st: *p.kcur, inKern: p.inKern})
		*p.kcur = blockState{}
		p.inKern = true
		p.ExcDepth++
		if p.ExcDepth > p.MaxDepth {
			p.MaxDepth = p.ExcDepth
		}
	case MarkExcExit:
		if len(p.kstack) == 0 {
			return &ParseError{i, w, "exception exit with empty nesting stack"}
		}
		fr := p.kstack[len(p.kstack)-1]
		p.kstack = p.kstack[:len(p.kstack)-1]
		*p.kcur = fr.st
		p.inKern = fr.inKern
		p.ExcDepth--
	case MarkModeSw:
		p.ModeSws++
		// The mode switch interrupts the current kernel block; its
		// remaining references are lost to the analysis window.
		*p.kcur = blockState{}
		p.kstack = p.kstack[:0]
		p.ExcDepth = 0
		p.resync = true
	case MarkProcExit:
		p.ProcExits++
		delete(p.perProc, int(MarkerArg(w)))
		delete(p.user, int(MarkerArg(w)))
	default:
		return &ParseError{i, w, "unknown marker"}
	}
	return nil
}

// Pending reports the open block state of a stream (pid 0 = kernel)
// for diagnostics: the block's original address and how many of its
// memory references have arrived. ok is false when the stream is
// between blocks.
func (p *Parser) Pending(pid int) (orig uint32, got, want int, ok bool) {
	s := p.kcur
	if pid != 0 {
		s = p.perProc[pid]
	}
	if s == nil || s.block == nil || s.done() {
		return 0, 0, 0, false
	}
	return s.block.OrigAddr, s.nextMem, len(s.block.Mem), true
}
