package memsys_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/memsys"
	"systrace/internal/obj"
	"systrace/internal/trace"
)

// sinkTables builds a kernel and a user side table whose blocks
// exercise every case the run-granular TraceSim.Fetch must get right:
// runs that cross 16-byte lines and 4 KB pages, blocks in kuseg, kseg0,
// kseg1 and kseg2, the idle loop, the instruction counter toggles, a
// user block with dozens of data references mid-block (to far more
// distinct pages than the TLB holds, so replacement happens between
// fetches of one block), and a kseg0 block that shares I-cache lines
// with the UTLB refill handler, so a data reference's synthesized
// refill evicts the block's current line mid-block.
func sinkTables(r *rand.Rand) (kern, user *trace.SideTable) {
	seq := func(first, last, step int, load bool) []obj.MemOp {
		var m []obj.MemOp
		for i := first; i <= last; i += step {
			m = append(m, obj.MemOp{Index: int16(i), Load: load || i%3 == 0, Size: 4})
		}
		return m
	}
	// randBlocks adds blocks at random word addresses in [lo, lo+span)
	// with random memory operations.
	randBlocks := func(bs []obj.InstrBlock, n int, lo, span uint32) []obj.InstrBlock {
		for i := 0; i < n; i++ {
			b := obj.InstrBlock{OrigAddr: lo + uint32(r.Intn(int(span/4)))*4, NInstr: int32(1 + r.Intn(24))}
			for j := 0; j < int(b.NInstr); j++ {
				if r.Intn(4) == 0 {
					b.Mem = append(b.Mem, obj.MemOp{Index: int16(j), Load: r.Intn(2) == 0, Size: []int8{1, 2, 4, 8}[r.Intn(4)]})
				}
			}
			bs = append(bs, b)
		}
		return bs
	}
	ub := []obj.InstrBlock{
		{OrigAddr: 0x00400ff4, NInstr: 9},                             // crosses a page
		{OrigAddr: 0x00401008, NInstr: 40, Mem: seq(2, 37, 1, false)}, // TLB replacement mid-block
		{OrigAddr: 0x00402ffc, NInstr: 5, Mem: []obj.MemOp{{Index: 0, Size: 4}, {Index: 4, Load: true, Size: 2}}},
		{OrigAddr: 0x00403000, NInstr: 1, Mem: []obj.MemOp{{Index: 0, Load: true, Size: 1}}},
	}
	ub = randBlocks(ub, 8, 0x00404000, 0x8000)
	kb := []obj.InstrBlock{
		{OrigAddr: 0x80030000, NInstr: 3, Flags: obj.BBIdleLoop},
		{OrigAddr: 0x80010000, NInstr: 16, Mem: seq(1, 13, 2, true)}, // shares lines with the UTLB handler
		{OrigAddr: 0x80020000, NInstr: 2, Flags: obj.BBCounterStart},
		{OrigAddr: 0x80020010, NInstr: 2, Flags: obj.BBCounterStop},
		{OrigAddr: 0xbfc00ff8, NInstr: 6, Mem: []obj.MemOp{{Index: 2, Load: true, Size: 4}}}, // kseg1, crosses a page
		{OrigAddr: 0xc0000ff4, NInstr: 7, Mem: []obj.MemOp{{Index: 4, Size: 4}}},             // kseg2, crosses a page
		{OrigAddr: 0x00000ff8, NInstr: 4, Mem: []obj.MemOp{{Index: 1, Load: true, Size: 4}}}, // kernel fetch from kuseg
	}
	kb = randBlocks(kb, 6, 0x80040000, 0x4000)
	for i := range ub {
		ub[i].RecordAddr = 0x00500000 + uint32(i)*0x40
	}
	for i := range kb {
		kb[i].RecordAddr = 0x80500000 + uint32(i)*0x40
	}
	return trace.NewSideTable(kb), trace.NewSideTable(ub)
}

// sinkStream generates a well-formed raw trace of about n words over
// the tables: user processes 1 and 2 interleaved with kernel entries,
// nested exceptions and mode switches, each stream's blocks possibly
// interrupted mid-block by another stream.
func sinkStream(r *rand.Rand, kern, user *trace.SideTable, n int) []uint32 {
	type open struct {
		b    *obj.InstrBlock
		next int
	}
	type frame struct {
		k      open
		inKern bool
	}
	var (
		words  []uint32
		inKern = true
		cur    = 1
		kcur   open
		ucur   = map[int]*open{1: {}, 2: {}}
		stack  []frame
	)
	kblocks, ublocks := kern.Blocks(), user.Blocks()
	dataAddr := func(size int8) uint32 {
		var a uint32
		switch k := r.Intn(8); {
		case !inKern || k < 3: // kuseg: 300 pages, far more than the TLB holds
			a = 0x10000000 + uint32(r.Intn(300))<<cpu.PageShift + uint32(r.Intn(cpu.PageSize))
		case k < 5:
			a = 0x80100000 + uint32(r.Intn(1<<20))
		case k < 6:
			a = 0xa0000000 + uint32(r.Intn(1<<16))
		default:
			a = 0xc0000000 + uint32(r.Intn(64))<<cpu.PageShift + uint32(r.Intn(cpu.PageSize))
		}
		return a &^ uint32(size-1)
	}
	for len(words) < n {
		switch k := r.Intn(100); {
		case k < 4:
			cur = 1 + r.Intn(2)
			inKern = false
			words = append(words, trace.MarkCtxSw|uint32(cur))
		case k < 8 && !inKern:
			inKern = true
			words = append(words, trace.MarkKernEnter)
		case k < 8 && len(stack) == 0:
			cur, inKern = 1+r.Intn(2), false
			words = append(words, trace.MarkKernExit|uint32(cur))
		case k < 11 && len(stack) < 3:
			stack = append(stack, frame{kcur, inKern})
			kcur, inKern = open{}, true
			words = append(words, trace.MarkExcEnter)
		case k < 14 && len(stack) > 0:
			fr := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			kcur, inKern = fr.k, fr.inKern
			words = append(words, trace.MarkExcExit)
		case k < 15 && inKern:
			// The parser resynchronizes on the next kernel record, so
			// one follows the mode switch directly.
			kcur, stack = open{b: kblocks[r.Intn(len(kblocks))]}, nil
			words = append(words, trace.MarkModeSw, kcur.b.RecordAddr)
		default:
			o, bs := &kcur, kblocks
			if !inKern {
				o, bs = ucur[cur], ublocks
			}
			if o.b != nil && o.next < len(o.b.Mem) {
				words = append(words, dataAddr(o.b.Mem[o.next].Size))
				o.next++
				continue
			}
			*o = open{b: bs[r.Intn(len(bs))]}
			words = append(words, o.b.RecordAddr)
		}
	}
	return words
}

// sinkProbe forwards to a TraceSim and counts the situations the
// soundness argument has to cover: a fetch run that continues the
// previous run's line but misses in the TLB (a data reference's TLB
// miss replaced the instruction page) or, without a TLB miss, in the
// I-cache (a synthesized refill handler evicted the line).
type sinkProbe struct {
	sim                   *memsys.TraceSim
	last                  uint64
	tlbRefetch, icRefetch int
	pageCross             int
}

func lineKey(ev trace.Event, a uint32) uint64 {
	as := uint64(0xffff)
	if a < cpu.KUSegEnd {
		as = uint64(ev.AS)
	}
	return as<<32 | uint64(a>>4)
}

func (p *sinkProbe) Fetch(ev trace.Event, n int) {
	tlb, ic := p.sim.TLB.Misses, p.sim.IC.Misses
	p.sim.Fetch(ev, n)
	if lineKey(ev, ev.Addr) == p.last {
		if p.sim.TLB.Misses > tlb {
			p.tlbRefetch++
		} else if p.sim.IC.Misses > ic {
			p.icRefetch++
		}
	}
	end := ev.Addr + uint32(n-1)*4
	if end>>cpu.PageShift != ev.Addr>>cpu.PageShift {
		p.pageCross++
	}
	p.last = lineKey(ev, end)
}

func (p *sinkProbe) Ref(ev trace.Event) { p.sim.Ref(ev) }

// TestParseToMatchesPerEventSimulation is the soundness proof of the
// line-granular fetch path: a parser feeding fetch runs straight into
// TraceSim (ParseTo) must leave both the simulator and the parser in
// exactly the state that Parse plus one TraceSim.Event per reference
// does, over random well-formed streams fed in random-sized chunks.
func TestParseToMatchesPerEventSimulation(t *testing.T) {
	var total sinkProbe
	for seed := int64(1); seed <= 8; seed++ {
		r := rand.New(rand.NewSource(seed))
		kern, user := sinkTables(r)
		words := sinkStream(r, kern, user, 40000)

		newParser := func() *trace.Parser {
			p := trace.NewParser(kern)
			p.AddProcess(1, user)
			p.AddProcess(2, user)
			return p
		}
		newSim := func() *memsys.TraceSim {
			return memsys.NewTraceSim(memsys.DECstation5000(), memsys.PolicyRandom, 1<<12, uint32(seed))
		}
		pRun, pEv := newParser(), newParser()
		probe := &sinkProbe{sim: newSim()}
		simEv := newSim()
		var buf []trace.Event
		for len(words) > 0 {
			k := 1 + r.Intn(4000)
			if k > len(words) {
				k = len(words)
			}
			chunk := words[:k]
			words = words[k:]
			if err := pRun.ParseTo(chunk, probe); err != nil {
				t.Fatalf("seed %d: ParseTo: %v", seed, err)
			}
			var err error
			buf, err = pEv.Parse(chunk, buf[:0])
			if err != nil {
				t.Fatalf("seed %d: Parse: %v", seed, err)
			}
			simEv.Events(buf)
			if !reflect.DeepEqual(pRun, pEv) {
				t.Fatalf("seed %d: parser state diverged:\n ParseTo %s\n Parse   %s",
					seed, parserCounts(pRun), parserCounts(pEv))
			}
			if !reflect.DeepEqual(probe.sim, simEv) {
				t.Fatalf("seed %d: simulator state diverged:\n runs   %s\n events %s",
					seed, simCounts(probe.sim), simCounts(simEv))
			}
		}
		if probe.sim.Instr == 0 || probe.sim.IdleInstr == 0 || probe.sim.UncachedStalls == 0 ||
			probe.sim.WB.Writes == 0 || pRun.CountedInst == 0 || pRun.MaxDepth == 0 {
			t.Errorf("seed %d: stream missed a case: %s; %s", seed, simCounts(probe.sim), parserCounts(pRun))
		}
		total.tlbRefetch += probe.tlbRefetch
		total.icRefetch += probe.icRefetch
		total.pageCross += probe.pageCross
	}
	t.Logf("TLB refetch misses %d, I-cache refetch misses %d, page-crossing runs %d",
		total.tlbRefetch, total.icRefetch, total.pageCross)
	// The cases that make per-line probing necessary must occur.
	if total.tlbRefetch == 0 || total.icRefetch == 0 || total.pageCross == 0 {
		t.Errorf("streams never exercised mid-block replacement: TLB refetch misses %d, "+
			"I-cache refetch misses %d, page-crossing runs %d",
			total.tlbRefetch, total.icRefetch, total.pageCross)
	}
}

func simCounts(s *memsys.TraceSim) string {
	return fmt.Sprintf("instr %d idle %d stalls ic/dc/wb/unc %d/%d/%d/%d ic %d/%d dc %d/%d tlb %d/%d wb writes %d",
		s.Instr, s.IdleInstr, s.ICacheStalls, s.DCacheStalls, s.WBStalls, s.UncachedStalls,
		s.IC.Accesses, s.IC.Misses, s.DC.Accesses, s.DC.Misses, s.TLB.Accesses, s.TLB.Misses, s.WB.Writes)
}

func parserCounts(p *trace.Parser) string {
	return fmt.Sprintf("words %d records %d memrefs %d fetches %d markers %d modesw %d ctxsw %d idle %d counted %d depth %d",
		p.Words, p.Records, p.MemRefs, p.Fetches, p.Markers, p.ModeSws, p.CtxSws, p.IdleInstr, p.CountedInst, p.MaxDepth)
}
