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
//
// A block's ID is its index in the image's block list. Record
// addresses are instruction addresses inside a few dense text ranges,
// so the table is a direct index over the word-aligned records in
// [lo, hi] rather than a hash map: one int32 per word of that range,
// holding 1 + the ID of the block recorded there, or 0.
type SideTable struct {
	blocks []obj.InstrBlock
	idx    []int32 // idx[rec>>2 - lo>>2] = 1 + ID, 0 = no block
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
// information; it keeps blocks, which must not change afterwards. An
// empty blocks slice yields a well-defined empty table (range [0,0],
// every Lookup misses, Blocks returns nothing). Where two blocks share
// a record address the later one wins; a block whose record address is
// not word-aligned (no instruction's is) is never found.
func NewSideTable(blocks []obj.InstrBlock) *SideTable {
	t := &SideTable{blocks: blocks}
	if len(blocks) == 0 {
		return t
	}
	t.lo = ^uint32(0)
	for i := range blocks {
		t.lo = min(t.lo, blocks[i].RecordAddr)
		t.hi = max(t.hi, blocks[i].RecordAddr)
	}
	t.idx = make([]int32, t.hi>>2-t.lo>>2+1)
	for i := range blocks {
		if r := blocks[i].RecordAddr; r&3 == 0 {
			t.idx[r>>2-t.lo>>2] = int32(i + 1)
		}
	}
	return t
}

// ID returns the ID of the block recorded at rec; ok is false when no
// block is.
func (t *SideTable) ID(rec uint32) (id int, ok bool) {
	n := t.ref(rec)
	return int(n) - 1, n != 0
}

// ref is 1 + the ID of the block recorded at rec, or 0. A word outside
// [lo, hi] wraps to an index past the end.
func (t *SideTable) ref(rec uint32) int32 {
	i := rec>>2 - t.lo>>2
	if rec&3 != 0 || uint64(i) >= uint64(len(t.idx)) {
		return 0
	}
	return t.idx[i]
}

// Lookup resolves a record address.
func (t *SideTable) Lookup(rec uint32) *obj.InstrBlock {
	if n := t.ref(rec); n != 0 {
		return &t.blocks[n-1]
	}
	return nil
}

// Block returns the block with the given ID.
func (t *SideTable) Block(id int) *obj.InstrBlock { return &t.blocks[id] }

// Len returns the number of block IDs: one past the largest.
func (t *SideTable) Len() int { return len(t.blocks) }

// Range returns the [lo, hi] record-address bounds the redundancy
// check accepts. An empty table reports [0, 0].
func (t *SideTable) Range() (lo, hi uint32) { return t.lo, t.hi }

// Blocks returns the blocks Lookup can find, sorted by original
// address (for reference-counting tools).
func (t *SideTable) Blocks() []*obj.InstrBlock {
	var out []*obj.InstrBlock
	for _, n := range t.idx {
		if n != 0 {
			out = append(out, &t.blocks[n-1])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].OrigAddr < out[j].OrigAddr })
	return out
}

// ParseError reports a violated redundancy check, with enough context
// to find the corruption ("missing words of trace or erroneous writes
// into the trace are detected with a very high probability", §4.3).
type ParseError struct {
	Index int // word offset from the start of the stream, however it was chunked
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

// stream is one address space's side of the parse: its side table,
// the block it has open, and, while counting, its per-block entry
// counts.
type stream struct {
	table  *SideTable
	st     blockState
	counts []uint64 // by block ID; nil unless counting
}

// Parser reconstructs the interleaved reference stream from raw trace
// words. Tables are per address space: pid 0 is the kernel.
type Parser struct {
	kern   *stream // pid 0; its table is nil for user-only traces
	user   map[int]*stream
	cur    int  // current pid
	inKern bool // kernel-mode trace in progress
	// act is the stream words are attributed to: kern in kernel mode,
	// else user[cur], or nil when that pid has no side table. Markers
	// re-resolve it, so the per-word path never consults user.
	act    *stream
	kstack []nestFrame // kernel exception nesting

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

	// counted is the reference-counting tool of §4.3 ("a dynamic
	// count of the number of times each instruction in the kernel was
	// executed", kept per basic block here), enabled by CountBlocks:
	// one entry per registered side table.
	counting bool
	counted  []TableCounts
}

// TableCounts is one registered side table's block entry counts.
type TableCounts struct {
	Table  *SideTable
	Counts []uint64 // indexed by block ID
}

// CountBlocks enables per-block execution counting (the paper's
// reference-counting debugging aid, §4.3), for the tables registered
// so far and every one AddProcess registers later.
func (p *Parser) CountBlocks() {
	if p.counting {
		return
	}
	p.counting = true
	p.count(p.kern)
	pids := make([]int, 0, len(p.user))
	for pid := range p.user {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		p.count(p.user[pid])
	}
}

// count gives s its block counters when counting is on.
func (p *Parser) count(s *stream) {
	if p.counting && s.table != nil {
		s.counts = make([]uint64, s.table.Len())
		p.counted = append(p.counted, TableCounts{s.table, s.counts})
	}
}

// BlockCounts returns the block entry counts of every side table
// registered while counting, the kernel's first and then in
// registration order; nil unless CountBlocks was called. A table
// registered for several pids appears once per registration, and a
// process's counts outlive its exit. Counts are per table because
// images may share addresses (Mach's UX server and its client).
func (p *Parser) BlockCounts() []TableCounts { return p.counted }

// NewParser builds a parser. kernel may be nil for user-only traces;
// when a kernel table is present, parsing starts in kernel mode (the
// first trace in the buffer is boot-time kernel activity).
func NewParser(kernel *SideTable) *Parser {
	p := &Parser{
		kern:   &stream{table: kernel},
		user:   map[int]*stream{},
		inKern: kernel != nil,
	}
	p.resolve()
	return p
}

// AddProcess registers a traced process's side table.
func (p *Parser) AddProcess(pid int, t *SideTable) {
	s := &stream{table: t}
	p.count(s)
	p.user[pid] = s
	p.resolve()
}

// resolve points act at the stream the current context attributes
// words to.
func (p *Parser) resolve() {
	if p.inKern {
		p.act = p.kern
	} else {
		p.act = p.user[p.cur]
	}
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
	base := int(p.Words) // a ParseError's Index counts from the stream's start
	p.Words += uint64(len(words))
	for i, w := range words {
		if IsMarker(w) {
			p.Markers++
			if err := p.marker(base+i, w); err != nil {
				return err
			}
			p.resolve()
			continue
		}
		a := p.act
		var t *SideTable
		if a != nil {
			t = a.table
		}
		if p.resync {
			if t == nil || t.ref(w) == 0 {
				p.DirtWords++
				continue // still dirt
			}
			p.resync = false
		}
		if t == nil {
			// No table means no block was ever opened here either.
			return &ParseError{base + i, w, fmt.Sprintf("no side table for address space %d", p.curSpace())}
		}
		s := &a.st
		if !s.done() {
			// Expecting a memory reference for the open block.
			m := s.block.Mem[s.nextMem]
			if !m.Load && t.textHi > t.textLo && w >= t.textLo && w < t.textHi {
				return &ParseError{base + i, w, "store into text segment (trace slipped?)"}
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
		ref := t.ref(w)
		if ref == 0 {
			return &ParseError{base + i, w, fmt.Sprintf("not a valid basic block record for address space %d", p.curSpace())}
		}
		b := &t.blocks[ref-1]
		p.Records++
		if a.counts != nil {
			a.counts[ref-1]++
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
		if s.block != nil && !s.done() {
			return fmt.Errorf("trace: %s ended mid-block (orig 0x%08x: %d of %d refs seen)",
				what, s.block.OrigAddr, s.nextMem, len(s.block.Mem))
		}
		return nil
	}
	if err := check(&p.kern.st, "kernel stream"); err != nil {
		return err
	}
	for pid, s := range p.user {
		if err := check(&s.st, fmt.Sprintf("process %d stream", pid)); err != nil {
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
		p.kstack = append(p.kstack, nestFrame{st: p.kern.st, inKern: p.inKern})
		p.kern.st = blockState{}
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
		p.kern.st = fr.st
		p.inKern = fr.inKern
		p.ExcDepth--
	case MarkModeSw:
		p.ModeSws++
		// The mode switch interrupts the current kernel block; its
		// remaining references are lost to the analysis window.
		p.kern.st = blockState{}
		p.kstack = p.kstack[:0]
		p.ExcDepth = 0
		p.resync = true
	case MarkProcExit:
		p.ProcExits++
		delete(p.user, int(MarkerArg(w)))
	default:
		return &ParseError{i, w, "unknown marker"}
	}
	return nil
}
