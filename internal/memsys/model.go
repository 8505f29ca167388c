// Package memsys models the DECstation 5000/200 memory system: 64 KB
// direct-mapped instruction and data caches, a write-through data path
// with a six-entry write buffer, a 64-entry software-managed TLB with
// random replacement, and the R3010-like floating-point latencies. The
// same models serve both sides of the paper's validation: an
// execution-driven instance attached to the CPU measures the
// "real" machine, and a trace-driven instance consumes parsed traces
// to produce the predictions of Tables 2 and 3.
package memsys

import "systrace/internal/cpu"

// Config describes the machine model. Penalties are in CPU cycles.
type Config struct {
	ICacheSize uint32
	DCacheSize uint32
	LineSize   uint32
	// ReadMissPenalty is charged per I- or D-cache read miss.
	ReadMissPenalty int
	// UncachedPenalty is charged per uncached (kseg1) reference.
	UncachedPenalty int
	// WriteBufferDepth entries drain one per WriteRetireCycles.
	WriteBufferDepth  int
	WriteRetireCycles int
	// ExceptionEntryCycles models pipeline drain on exception entry;
	// the trace-driven simulator deliberately does NOT include it
	// (§5.1: "the simulator does not account for cycles required to
	// enter and exit exception handlers").
	ExceptionEntryCycles int
	// ModelFPOverlap lets floating-point latency overlap write-buffer
	// drain, as the real pipeline does; the trace-driven predictor
	// does not model this either (§5.1, the liv error).
	ModelFPOverlap bool
}

// DECstation5000 is the validated machine model.
func DECstation5000() Config {
	return Config{
		ICacheSize:           64 << 10,
		DCacheSize:           64 << 10,
		LineSize:             16,
		ReadMissPenalty:      15,
		UncachedPenalty:      15,
		WriteBufferDepth:     6,
		WriteRetireCycles:    5,
		ExceptionEntryCycles: 10,
		ModelFPOverlap:       true,
	}
}

// Cache is a direct-mapped, physically indexed cache.
type Cache struct {
	tags      []uint32
	lineShift uint32
	mask      uint32

	Accesses uint64
	Misses   uint64
}

// NewCache builds a direct-mapped cache of size bytes with the given
// line size (both powers of two).
func NewCache(size, line uint32) *Cache {
	nlines := size / line
	c := &Cache{tags: make([]uint32, nlines), mask: nlines - 1}
	for l := line; l > 1; l >>= 1 {
		c.lineShift++
	}
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
	}
	return c
}

// Access looks up pa; on a miss the line is filled. Reports hit.
func (c *Cache) Access(pa uint32) bool {
	c.Accesses++
	lineAddr := pa >> c.lineShift
	idx := lineAddr & c.mask
	if c.tags[idx] == lineAddr {
		return true
	}
	c.tags[idx] = lineAddr
	c.Misses++
	return false
}

// accessRun is n Access calls at pa, pa+4, ...: it looks up each line
// the span touches once, filling the ones that miss, and counts n
// accesses. It returns the misses.
func (c *Cache) accessRun(pa uint32, n int) uint64 {
	if n <= 0 {
		return 0
	}
	c.Accesses += uint64(n)
	var miss uint64
	for l, last := pa>>c.lineShift, (pa+4*uint32(n-1))>>c.lineShift; l <= last; l++ {
		if t := &c.tags[l&c.mask]; *t != l {
			*t = l
			miss++
		}
	}
	c.Misses += miss
	return miss
}

// Probe looks up pa without filling.
func (c *Cache) Probe(pa uint32) bool {
	lineAddr := pa >> c.lineShift
	return c.tags[lineAddr&c.mask] == lineAddr
}

// Update refreshes a line only if present (write-through,
// no-write-allocate stores).
func (c *Cache) Update(pa uint32) bool { return c.Probe(pa) }

// Flush invalidates everything.
func (c *Cache) Flush() {
	for i := range c.tags {
		c.tags[i] = ^uint32(0)
	}
}

// MissRate returns misses/accesses.
func (c *Cache) MissRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Misses) / float64(c.Accesses)
}

// WriteBuffer models the write-through path: entries retire at a fixed
// rate; a store arriving with the buffer full stalls the CPU until a
// slot frees.
type WriteBuffer struct {
	depth  int
	retire uint64
	// doneAt is a ring of depth slots holding the completion cycles of
	// in-flight writes: n of them, oldest at head.
	doneAt  []uint64
	head, n int
	last    uint64

	Writes      uint64
	StallCycles uint64
}

// NewWriteBuffer builds a buffer of the given depth and per-entry
// retire time.
func NewWriteBuffer(depth, retireCycles int) *WriteBuffer {
	return &WriteBuffer{depth: depth, retire: uint64(retireCycles), doneAt: make([]uint64, depth)}
}

// pop retires the oldest in-flight write and returns its completion
// cycle.
func (w *WriteBuffer) pop() uint64 {
	d := w.doneAt[w.head]
	w.head++
	if w.head == w.depth {
		w.head = 0
	}
	w.n--
	return d
}

// Write records a store issued at cycle now and returns the stall.
func (w *WriteBuffer) Write(now uint64) (stall uint64) {
	w.Writes++
	// Drain retired entries.
	for w.n > 0 && w.doneAt[w.head] <= now {
		w.pop()
	}
	if w.n >= w.depth {
		d := w.pop()
		stall = d - now
		now = d
		w.StallCycles += stall
	}
	start := now
	if w.last > start {
		start = w.last
	}
	w.last = start + w.retire
	tail := w.head + w.n
	if tail >= w.depth {
		tail -= w.depth
	}
	w.doneAt[tail] = w.last
	w.n++
	return stall
}

// PendingCycles estimates how many cycles of drain work remain at now
// (used for FP overlap modeling).
func (w *WriteBuffer) PendingCycles(now uint64) uint64 {
	if w.last <= now {
		return 0
	}
	return w.last - now
}

// rng is a deterministic xorshift32.
type rng struct{ s uint32 }

func newRNG(seed uint32) *rng {
	if seed == 0 {
		seed = 0x9e3779b9
	}
	return &rng{seed}
}

func (r *rng) next() uint32 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 17
	r.s ^= r.s << 5
	return r.s
}

// TLBSim models the 64-entry fully associative TLB with random
// replacement among the unwired entries, as the trace-driven simulator
// must ("we simulate the TLB, and use misses in the simulator to
// synthesize the activity of the UTLB miss handler", §4.1). The
// simulator "does not know about" explicit kernel TLB writes, so "all
// TLB fills are caused by TLB misses" (§5.2) — the acknowledged source
// of Table 3's prediction error.
type TLBSim struct {
	entries [cpu.NTLB]uint64 // (asid<<32 | vpn), ^0 = invalid
	// hint maps a hash of the key to the entry that last held it;
	// Access probes that entry before the scan and trusts it only if
	// the key matches, so a stale hint (the entry was replaced or
	// flushed since) costs the scan and nothing else. Keys are unique
	// among the entries, so a hint hit is the entry the scan would
	// find. Hints depend only on the sequence of pages accessed.
	hint [tlbHints]uint8
	r    *rng

	Accesses uint64
	Misses   uint64
}

// tlbHints is the size of TLBSim's direct-mapped hint table, four
// slots per entry. On an Ultrix Predict of sed, egrep, lisp and liv
// (seed 1) at most 0.9% of probes miss it and scan, where a single
// last-hit slot missed 8–50%.
const tlbHints = 256

// hintSlot hashes a TLB key to its hint slot (Fibonacci hashing: the
// top bits of the product mix the ASID and every VPN bit).
func hintSlot(key uint64) int {
	return int(key * 0x9e3779b97f4a7c15 >> 56)
}

// NewTLBSim builds a TLB simulator with a deterministic replacement
// stream.
func NewTLBSim(seed uint32) *TLBSim {
	t := &TLBSim{r: newRNG(seed)}
	for i := range t.entries {
		t.entries[i] = ^uint64(0)
	}
	return t
}

// Access looks up (asid, va); on a miss a random unwired entry is
// replaced. Reports hit.
func (t *TLBSim) Access(asid uint32, va uint32) bool {
	t.Accesses++
	key := uint64(asid)<<32 | uint64(va>>cpu.PageShift)
	h := &t.hint[hintSlot(key)]
	if t.entries[*h%cpu.NTLB] == key {
		return true
	}
	for i := range t.entries {
		if t.entries[i] == key {
			*h = uint8(i)
			return true
		}
	}
	t.Misses++
	idx := cpu.TLBWired + int(t.r.next()%(cpu.NTLB-cpu.TLBWired))
	t.entries[idx] = key
	*h = uint8(idx)
	return false
}

// Flush invalidates all entries (context-switch-free ASIDs make this
// rare; provided for completeness). The hints may stay: no key matches
// an invalid entry.
func (t *TLBSim) Flush() {
	for i := range t.entries {
		t.entries[i] = ^uint64(0)
	}
}

// PagePolicy selects virtual-to-physical page placement, which "can
// have significant impact on memory system behavior" (§4.2) because
// the caches are physically indexed.
type PagePolicy int

const (
	// PolicySequential allocates frames in first-touch order
	// (Ultrix-like).
	PolicySequential PagePolicy = iota
	// PolicyRandom picks random frames (Mach 3.0's random page
	// mapping, the repeatability hazard of §5.1).
	PolicyRandom
	// PolicyColoring picks frames whose cache color matches the
	// virtual page (Kessler/Hill-style page coloring).
	PolicyColoring
)

// PageMap implements a placement policy over a frame pool.
type PageMap struct {
	policy PagePolicy
	nframe uint32
	colors uint32
	r      *rng
	next   uint32
	// m holds every assignment. The random and coloring policies
	// draw a frame on first touch, so m is the source of truth; front
	// is a direct-mapped copy of recently used entries in front of it.
	// A frame never moves once assigned, so front needs no
	// invalidation.
	m     map[uint64]uint32
	front [pageFrontSets]pageFront
}

// pageFront is one PageMap front-cache entry.
type pageFront struct {
	key   uint64 // asid<<32 | vpage
	frame uint32
	ok    bool
}

// pageFrontBits sizes PageMap's front cache.
const (
	pageFrontBits = 9
	pageFrontSets = 1 << pageFrontBits
)

// pageFrontSet is the front-cache set of an asid<<32|vpage key: the top
// bits of a Fibonacci hash, which mixes the ASID into the index so the
// same page of different address spaces (Mach's server and client
// share text addresses) rarely shares a set.
func pageFrontSet(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 >> (64 - pageFrontBits) }

// NewPageMap builds a map over nframe frames; colors is the number of
// page colors in the cache (cacheSize/pageSize) for PolicyColoring.
func NewPageMap(policy PagePolicy, nframe, colors uint32, seed uint32) *PageMap {
	return &PageMap{
		policy: policy,
		nframe: nframe,
		colors: colors,
		r:      newRNG(seed),
		m:      map[uint64]uint32{},
	}
}

// Frame returns the physical frame for (asid, vpage), assigning one on
// first touch.
func (p *PageMap) Frame(asid uint32, vpage uint32) uint32 {
	key := uint64(asid)<<32 | uint64(vpage)
	e := &p.front[pageFrontSet(key)]
	if e.ok && e.key == key {
		return e.frame
	}
	f, ok := p.m[key]
	if !ok {
		f = p.assign(vpage)
		p.m[key] = f
	}
	*e = pageFront{key: key, frame: f, ok: true}
	return f
}

// assign draws the frame for a first-touched vpage under the policy.
func (p *PageMap) assign(vpage uint32) uint32 {
	var f uint32
	switch p.policy {
	case PolicySequential:
		f = p.next % p.nframe
		p.next++
	case PolicyRandom:
		f = p.r.next() % p.nframe
	case PolicyColoring:
		want := vpage % p.colors
		f = (p.r.next()%(p.nframe/p.colors))*p.colors + want
		f %= p.nframe
	}
	return f
}
