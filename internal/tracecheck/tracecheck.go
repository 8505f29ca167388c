// Package tracecheck statically checks an encoded trace stream for
// conformance against the epoxie build that produced it: the trace
// must be a legal observation of the post-rewrite control-flow graph
// plus the kernel's stream protocol. Where internal/verify proves the
// *image* emits well-formed records, tracecheck proves a captured
// *stream* could have come from that image — the offline half of the
// §4.3 redundancy checks ("missing words of trace or erroneous writes
// into the trace are detected with a very high probability"), made
// deterministic and exhaustive instead of probabilistic.
//
// Rules:
//
//   - record: every word in record position resolves in the side
//     table of the address space it is attributed to — a real
//     post-rewrite block record (§3.2/§3.5 lookup table).
//   - cfg-edge: consecutive records within one stream follow the
//     static successor/call/return edges of the derived CFG; silent
//     (uninstrumented) code between records is closed over
//     statically (§3.3's untraced runtime never breaks the chain).
//   - mem-count: a block's memory references all arrive before its
//     stream ends — truncation and dropped words surface as a block
//     whose side-table count was never satisfied (§4.3).
//   - mem-addr: effective addresses obey the reference's static
//     width (alignment) and stores never land in the instrumented
//     text segment (§4.3: programs do not write their own code).
//   - nest: kernel entry/exit and the nested-exception trace-state
//     stack stay balanced (§3.5: "nested interrupts require the
//     tracing system to use a stack").
//   - sched: records only appear for address spaces that exist and
//     are scheduled, and user streams only reference user addresses
//     (§3.6 per-process trace pages; kuseg/kseg split).
//   - epoch: generation→analysis boundaries appear only in kernel
//     context and the §4.3 resynchronization "dirt" after one is
//     bounded by the largest block's reference count.
//   - special: idle-loop, UTLB-handler, and counter-toggle flagged
//     blocks are observed only where the parser's special behaviors
//     allow (§3.5, §4.1).
//
// Findings are deterministic structured diagnostics in the style of
// verify.Diag: a corrupted stream fails the same way every time.
package tracecheck

import (
	"fmt"
	"sort"

	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/trace"
	"systrace/internal/verify"
)

// Rule identifiers, in report order.
const (
	RuleRecord   = "record"
	RuleCFGEdge  = "cfg-edge"
	RuleMemCount = "mem-count"
	RuleMemAddr  = "mem-addr"
	RuleNest     = "nest"
	RuleSched    = "sched"
	RuleEpoch    = "epoch"
	RuleSpecial  = "special"
)

// Rule positions in Rules: the Checker counts checks into an array
// indexed by them.
const (
	ruleRecord = iota
	ruleCFGEdge
	ruleMemCount
	ruleMemAddr
	ruleNest
	ruleSched
	ruleEpoch
	ruleSpecial
	nRules
)

// Rules lists every rule identifier in report order.
var Rules = []string{
	ruleRecord:   RuleRecord,
	ruleCFGEdge:  RuleCFGEdge,
	ruleMemCount: RuleMemCount,
	ruleMemAddr:  RuleMemAddr,
	ruleNest:     RuleNest,
	ruleSched:    RuleSched,
	ruleEpoch:    RuleEpoch,
	ruleSpecial:  RuleSpecial,
}

// Diag is one conformance finding.
type Diag struct {
	Offset int    `json:"offset"` // word index in the stream (across Check calls)
	Pid    int    `json:"pid"`    // address space the word was attributed to (0 = kernel)
	Block  uint32 `json:"block"`  // original address of the block involved (0 if none)
	Rule   string `json:"rule"`
	Msg    string `json:"msg"`
}

func (d Diag) String() string {
	return fmt.Sprintf("word %d [%s] pid %d: %s (block 0x%08x)", d.Offset, d.Rule, d.Pid, d.Msg, d.Block)
}

// maxDiags bounds the report: past it the stream is garbage and more
// findings carry no information.
const maxDiags = 1000

// Result is the outcome of checking one stream.
type Result struct {
	Name      string         `json:"name"`
	Words     uint64         `json:"words"`
	Records   uint64         `json:"records"`
	MemRefs   uint64         `json:"mem_refs"`
	Markers   uint64         `json:"markers"`
	Checks    map[string]int `json:"checks"` // rule -> checks performed
	Diags     []Diag         `json:"diags"`  // sorted by (Offset, Rule, Msg)
	Truncated bool           `json:"truncated,omitempty"`
}

// Clean reports whether the stream conformed.
func (r *Result) Clean() bool { return len(r.Diags) == 0 && !r.Truncated }

// Fails returns the number of diagnostics per rule.
func (r *Result) Fails() map[string]int {
	out := make(map[string]int, len(Rules))
	for _, d := range r.Diags {
		out[d.Rule]++
	}
	return out
}

// expectSet is the set of records legal at the next record position
// of a stream: the union of up to two reach closures, or everything.
type expectSet struct {
	top  bool
	a, b *verify.ReachSet
}

func (e expectSet) has(rec uint32) bool {
	if e.top {
		return true
	}
	if e.a != nil && (e.a.Top || e.a.Has(rec)) {
		return true
	}
	return e.b != nil && (e.b.Top || e.b.Has(rec))
}

func top() expectSet { return expectSet{top: true} }

// streamState is the conformance state of one address space's stream.
type streamState struct {
	open   *verify.CFGNode // block with outstanding memory references
	mem    int             // references consumed of open
	exp    expectSet       // legal next records (valid when no block is open)
	ret    []*verify.ReachSet
	resync bool // re-anchoring after a record diagnostic
}

// space is one checked address space: its CFG plus stream state.
type space struct {
	cfg   *verify.CFG
	entry expectSet // expectation for the stream's first record
	st    streamState
	// next and target cache cfg.Reach of each node's fallthrough and
	// static target, by node ID, so the per-record expectation is a
	// slice load even when concurrent checkers share the CFG; only a
	// node's first use takes the CFG's lock.
	next, target []*verify.ReachSet
}

func newSpace(g *verify.CFG) *space {
	return &space{
		cfg:    g,
		next:   make([]*verify.ReachSet, len(g.Nodes)),
		target: make([]*verify.ReachSet, len(g.Nodes)),
	}
}

// reach is cfg.Reach(addr) through cache[id], where cache is next or
// target and addr is node id's fallthrough or target.
func (sp *space) reach(cache []*verify.ReachSet, id int, addr uint32) *verify.ReachSet {
	s := cache[id]
	if s == nil {
		s = sp.cfg.Reach(addr)
		cache[id] = s
	}
	return s
}

// frame saves the kernel stream context across a nested exception,
// mirroring the parser's nestFrame.
type frame struct {
	st     streamState
	inKern bool
}

// Checker consumes raw trace words incrementally and accumulates
// conformance diagnostics. Attribution of words to streams mirrors
// trace.Parser exactly: pid 0 is the kernel, markers switch context.
type Checker struct {
	kernel *space
	procs  map[int]*space
	cur    int
	inKern bool
	// act is the space words are attributed to: kernel in kernel
	// context, else procs[cur] (nil if unknown). Markers and
	// registration re-resolve it, so the per-word path never consults
	// procs.
	act    *space
	kstack []frame

	// kentry is the kernel's post-entry expectation: the records
	// reachable from the general exception entry point. Reset on
	// every kernel entry marker.
	kentry expectSet

	// resync mirrors the parser's post-mode-switch state: skip words
	// until a valid kernel record re-anchors the stream.
	resync      bool
	dirt        int
	dirtFlagged bool

	counterOn bool
	off       int
	schedMute map[int]bool // unknown-space episodes already reported

	decWords []uint32 // CheckCompressed's decoded epoch

	checks [nRules]int // checks performed per rule, by position in Rules
	res    *Result
}

// New builds a checker for a stream with no kernel (bare-runtime
// traces). Use SetKernelCFG/AddProcessCFG before the first Check call.
func New(name string) *Checker {
	return &Checker{
		procs:     map[int]*space{},
		kentry:    top(),
		schedMute: map[int]bool{},
		res:       &Result{Name: name, Checks: make(map[string]int)},
	}
}

// SetKernelCFG switches the checker to whole-system mode with the
// kernel's CFG (verify.NewCFG): the stream starts in kernel context
// (tracing begins mid-boot, so the first kernel record is
// unconstrained). A CFG may be shared by any number of checkers,
// including ones running on other goroutines.
func (c *Checker) SetKernelCFG(g *verify.CFG) {
	sp := newSpace(g)
	sp.entry = top()
	sp.st.exp = sp.entry
	if addr, ok := g.Exe.Symbol("kentry"); ok {
		c.kentry = expectSet{a: g.Reach(addr)}
	}
	c.kernel = sp
	c.inKern = true
	c.resolve()
}

// AddProcessCFG registers a traced process's CFG (verify.NewCFG,
// shareable like SetKernelCFG's). The process's first record must be
// reachable from its entry point.
func (c *Checker) AddProcessCFG(pid int, g *verify.CFG) {
	sp := newSpace(g)
	sp.entry = expectSet{a: g.Reach(g.Exe.Entry)}
	sp.st.exp = sp.entry
	c.procs[pid] = sp
	c.resolve()
}

// resolve points act at the space the current context attributes
// words to.
func (c *Checker) resolve() {
	if c.inKern {
		c.act = c.kernel
	} else {
		c.act = c.procs[c.cur]
	}
}

func (c *Checker) curSpace() int {
	if c.inKern {
		return 0
	}
	return c.cur
}

func (c *Checker) check(rule int) { c.checks[rule]++ }

func (c *Checker) diag(block uint32, rule, format string, args ...any) {
	if len(c.res.Diags) >= maxDiags {
		c.res.Truncated = true
		return
	}
	c.res.Diags = append(c.res.Diags, Diag{
		Offset: c.off,
		Pid:    c.curSpace(),
		Block:  block,
		Rule:   rule,
		Msg:    fmt.Sprintf(format, args...),
	})
	// A conformance diagnostic deep in a long run is exactly what the
	// flight recorder exists for: dump the machine's recent notable
	// events alongside the first diagnostic of the process.
	obs.Failure("tracecheck_diag",
		fmt.Sprintf("%s: rule %s at trace offset %d (pid %d): %s",
			c.res.Name, rule, c.off, c.curSpace(), fmt.Sprintf(format, args...)))
}

// origOf returns the block's original address for diagnostics.
func origOf(n *verify.CFGNode) uint32 {
	if n == nil {
		return 0
	}
	return n.Info.OrigAddr
}

// Check consumes raw trace words. It is incremental: call it once per
// flushed buffer with the same Checker to preserve stream state
// across flush boundaries, then Finish once.
func (c *Checker) Check(words []uint32) {
	for _, w := range words {
		c.word(w)
		c.off++
	}
}

// CheckCompressed consumes one epoch of the compressed on-the-wire
// trace encoding (the internal/trace stream codec). Each epoch is
// self-contained, encoded from a fresh codec state as the kernel's
// streaming drain does, but the stream rules span epochs: feed them in
// handoff order. A malformed epoch is returned as an error — its words
// cannot be reconstructed, so no conformance rule applies to them —
// and the stream rules continue from the last good epoch. The
// kernel's streaming consumer already decodes every epoch before
// OnTrace, where the experiment runs attach Check; only the perfbench
// harness, which times its own decode through kernel.System's OnEpoch
// hook, calls this.
func (c *Checker) CheckCompressed(data []byte) error {
	words, err := trace.DecodeEpoch(data, c.decWords[:0])
	c.decWords = words
	if err != nil {
		return err
	}
	c.Check(words)
	return nil
}

func (c *Checker) word(w uint32) {
	c.res.Words++
	if trace.IsMarker(w) {
		c.res.Markers++
		c.marker(w)
		c.resolve()
		return
	}
	if c.resync {
		// Post-mode-switch: the §4.3 "dirt" — orphan words from the
		// block the analysis phase interrupted — until a valid kernel
		// record re-anchors the stream.
		if sp := c.act; sp == nil || sp.cfg.Record(w) == nil {
			c.dirt++
			c.check(ruleEpoch)
			if !c.dirtFlagged && c.kernel != nil && c.dirt > c.kernel.cfg.MaxMem {
				c.dirtFlagged = true
				c.diag(0, RuleEpoch,
					"resynchronization dirt exceeds the largest block's %d references",
					c.kernel.cfg.MaxMem)
			}
			return
		}
		c.resync = false
	}
	sp := c.act
	if sp == nil {
		c.check(ruleSched)
		if !c.schedMute[c.cur] {
			c.schedMute[c.cur] = true
			c.diag(0, RuleSched, "trace words attributed to unknown address space %d", c.curSpace())
		}
		return
	}
	st := &sp.st
	if st.open != nil {
		c.memRef(sp, w)
		return
	}
	c.record(sp, w)
}

// memRef consumes one effective-address word of the open block.
func (c *Checker) memRef(sp *space, w uint32) {
	st := &sp.st
	m := st.open.Info.Mem[st.mem]
	c.res.MemRefs++
	c.check(ruleMemAddr)
	switch m.Size {
	case 2:
		if w&1 != 0 {
			c.diag(origOf(st.open), RuleMemAddr,
				"halfword reference %d at unaligned address 0x%08x", st.mem, w)
		}
	case 4, 8:
		if w&3 != 0 {
			c.diag(origOf(st.open), RuleMemAddr,
				"word reference %d at unaligned address 0x%08x", st.mem, w)
		}
	}
	e := sp.cfg.Exe
	if !m.Load && w >= e.TextBase && w < e.TextEnd() {
		c.diag(origOf(st.open), RuleMemAddr,
			"store into instrumented text at 0x%08x (trace slipped?)", w)
	}
	// A kuseg process only ever references user addresses; kernel and
	// bare (kseg0-linked) streams may touch anything.
	c.check(ruleSched)
	if !c.inKern && e.TextBase < 0x80000000 && w >= 0x80000000 {
		c.diag(origOf(st.open), RuleSched,
			"user stream references kernel address 0x%08x", w)
	}
	st.mem++
	if st.mem >= len(st.open.Info.Mem) {
		st.open = nil
	}
}

// record consumes one word in record position.
func (c *Checker) record(sp *space, w uint32) {
	st := &sp.st
	n := sp.cfg.Record(w)
	if st.resync {
		// Recovering from a record diagnostic: skip silently until a
		// word resolves again, then anchor with no edge expectation.
		if n == nil {
			return
		}
		st.resync = false
		st.exp = top()
	}
	c.check(ruleRecord)
	if n == nil {
		c.diag(0, RuleRecord,
			"0x%08x is not a record of address space %d", w, c.curSpace())
		st.resync = true
		return
	}
	c.res.Records++

	c.check(ruleCFGEdge)
	if !st.exp.has(w) {
		c.diag(origOf(n), RuleCFGEdge,
			"record 0x%08x (orig 0x%08x) is not a legal successor in this stream", w, n.Info.OrigAddr)
	}

	c.special(n)

	st.open = n
	st.mem = 0
	if len(n.Info.Mem) == 0 {
		st.open = nil
	}
	c.advance(sp, n)
}

// special checks the §3.5 special-block behaviors at a record.
func (c *Checker) special(n *verify.CFGNode) {
	c.check(ruleSpecial)
	fl := n.Info.Flags
	if fl&obj.BBIdleLoop != 0 && !c.inKern {
		c.diag(origOf(n), RuleSpecial, "idle-loop block recorded in a user stream")
	}
	if fl&obj.BBUTLBHandler != 0 {
		c.diag(origOf(n), RuleSpecial, "UTLB-handler block recorded (the handler is never traced)")
	}
	if fl&obj.BBCounterStart != 0 {
		if c.counterOn {
			c.diag(origOf(n), RuleSpecial, "counter-start block while the counter is already on")
		}
		c.counterOn = true
	}
	if fl&obj.BBCounterStop != 0 {
		if !c.counterOn {
			c.diag(origOf(n), RuleSpecial, "counter-stop block while the counter is off")
		}
		c.counterOn = false
	}
}

// advance computes the stream's next-record expectation from the
// accepted block's terminator.
func (c *Checker) advance(sp *space, n *verify.CFGNode) {
	st := &sp.st
	switch n.Term {
	case verify.TermFall:
		st.exp = expectSet{a: sp.reach(sp.next, n.ID, n.Next)}
	case verify.TermBranch:
		st.exp = expectSet{a: sp.reach(sp.target, n.ID, n.Target), b: sp.reach(sp.next, n.ID, n.Next)}
	case verify.TermJump:
		st.exp = expectSet{a: sp.reach(sp.target, n.ID, n.Target)}
	case verify.TermCall:
		callee := sp.reach(sp.target, n.ID, n.Target)
		ret := sp.reach(sp.next, n.ID, n.Next)
		if !callee.Top && len(callee.Records) == 0 {
			// Call into invisible code (a silent helper like
			// idle_pause): no record, no visible return — the next
			// record is whatever follows the call site.
			st.exp = expectSet{a: ret}
			return
		}
		st.ret = append(st.ret, ret)
		if callee.Top || !callee.MayReturn {
			st.exp = expectSet{a: callee}
		} else {
			st.exp = expectSet{a: callee, b: ret}
		}
	case verify.TermCallReg:
		st.ret = append(st.ret, sp.reach(sp.next, n.ID, n.Next))
		st.exp = top()
	case verify.TermRet:
		if len(st.ret) == 0 {
			// Returning past the oldest tracked call (the stream was
			// anchored mid-execution): no static expectation.
			st.exp = top()
		} else {
			st.exp = expectSet{a: st.ret[len(st.ret)-1]}
			st.ret = st.ret[:len(st.ret)-1]
		}
	default: // TermJumpReg, TermHalt
		st.exp = top()
	}
}

// marker handles control words, mirroring trace.Parser.marker.
func (c *Checker) marker(w uint32) {
	switch trace.MarkerKind(w) {
	case trace.MarkCtxSw:
		c.cur = int(trace.MarkerArg(w))
		c.inKern = false
	case trace.MarkKernEnter:
		c.check(ruleNest)
		if c.inKern {
			c.diag(0, RuleNest, "kernel-enter marker while already in kernel context")
		}
		c.inKern = true
		if c.kernel != nil {
			c.kernel.st = streamState{exp: c.kentry}
		}
	case trace.MarkKernExit:
		c.check(ruleNest)
		if !c.inKern {
			c.diag(0, RuleNest, "kernel-exit marker while not in kernel context")
		}
		if c.kernel != nil && c.kernel.st.open != nil {
			c.diag(origOf(c.kernel.st.open), RuleNest,
				"kernel stream exits to user mid-block (%d of %d references seen)",
				c.kernel.st.mem, len(c.kernel.st.open.Info.Mem))
			c.kernel.st.open = nil
		}
		c.inKern = false
		c.cur = int(trace.MarkerArg(w))
	case trace.MarkExcEnter:
		c.kstack = append(c.kstack, frame{st: c.kernelState(), inKern: c.inKern})
		if c.kernel != nil {
			c.kernel.st = streamState{exp: c.kentry}
		}
		c.inKern = true
	case trace.MarkExcExit:
		c.check(ruleNest)
		if len(c.kstack) == 0 {
			c.diag(0, RuleNest, "exception-exit marker with empty nesting stack")
			return
		}
		if c.kernel != nil && c.kernel.st.open != nil {
			c.diag(origOf(c.kernel.st.open), RuleNest,
				"nested exception exits mid-block (%d of %d references seen)",
				c.kernel.st.mem, len(c.kernel.st.open.Info.Mem))
		}
		fr := c.kstack[len(c.kstack)-1]
		c.kstack = c.kstack[:len(c.kstack)-1]
		if c.kernel != nil {
			c.kernel.st = fr.st
		}
		c.inKern = fr.inKern
	case trace.MarkModeSw:
		c.check(ruleEpoch)
		if !c.inKern {
			c.diag(0, RuleEpoch, "mode-switch marker outside kernel context")
		}
		if len(c.kstack) > 0 {
			c.diag(0, RuleEpoch, "mode-switch marker inside %d open nested exception(s)", len(c.kstack))
			c.kstack = c.kstack[:0]
		}
		// The interrupted kernel block's remaining references are
		// lost; re-anchor at the next valid kernel record.
		if c.kernel != nil {
			c.kernel.st = streamState{exp: top()}
		}
		c.resync = true
		c.dirt = 0
		c.dirtFlagged = false
	case trace.MarkProcExit:
		pid := int(trace.MarkerArg(w))
		if sp := c.procs[pid]; sp != nil {
			c.check(ruleMemCount)
			if sp.st.open != nil {
				cp, ck := c.cur, c.inKern
				c.cur, c.inKern = pid, false
				c.diag(origOf(sp.st.open), RuleMemCount,
					"process exits mid-block (%d of %d references seen)",
					sp.st.mem, len(sp.st.open.Info.Mem))
				c.cur, c.inKern = cp, ck
			}
			delete(c.procs, pid)
		}
		delete(c.schedMute, pid)
	default:
		c.check(ruleEpoch)
		c.diag(0, RuleEpoch, "unknown marker 0x%08x", w)
	}
}

// kernelState snapshots the kernel stream state for the nesting stack.
func (c *Checker) kernelState() streamState {
	if c.kernel == nil {
		return streamState{exp: top()}
	}
	return c.kernel.st
}

// Finish checks end-of-stream invariants and returns the result. The
// checker must not be used after Finish.
func (c *Checker) Finish() *Result {
	c.check(ruleNest)
	if len(c.kstack) > 0 {
		c.diag(0, RuleNest, "stream ends inside %d open nested exception(s)", len(c.kstack))
	}
	if c.kernel != nil {
		c.check(ruleMemCount)
		if s := &c.kernel.st; s.open != nil {
			c.diag(origOf(s.open), RuleMemCount,
				"kernel stream ends mid-block (%d of %d references seen)",
				s.mem, len(s.open.Info.Mem))
		}
	}
	pids := make([]int, 0, len(c.procs))
	for pid := range c.procs {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		c.check(ruleMemCount)
		if s := &c.procs[pid].st; s.open != nil {
			c.cur, c.inKern = pid, false
			c.diag(origOf(s.open), RuleMemCount,
				"process %d stream ends mid-block (%d of %d references seen)",
				pid, s.mem, len(s.open.Info.Mem))
		}
	}
	for rule, n := range c.checks {
		if n != 0 {
			c.res.Checks[Rules[rule]] = n
		}
	}
	sort.Slice(c.res.Diags, func(i, j int) bool {
		a, b := c.res.Diags[i], c.res.Diags[j]
		if a.Offset != b.Offset {
			return a.Offset < b.Offset
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		return a.Msg < b.Msg
	})
	return c.res
}
