package memsys

import (
	"systrace/internal/cpu"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
)

// TraceSim is the trace-driven memory system simulator — the analysis
// program of Figure 1. It consumes parsed trace events (uninstrumented
// virtual addresses), applies its own page-mapping policy ("the most
// straightforward approach is to implement the desired page mapping
// policy in the simulator", §4.2), simulates the TLB and synthesizes
// the UTLB miss handler's activity (§4.1), and runs the same cache and
// write-buffer models as the execution-driven side.
type TraceSim struct {
	cfg Config
	IC  *Cache
	DC  *Cache
	WB  *WriteBuffer
	TLB *TLBSim
	PM  *PageMap

	// UTLBHandler is the address of the nine-instruction refill
	// handler whose activity is synthesized per simulated miss.
	UTLBHandler  uint32
	UTLBHandlerN int

	// Instr counts trace instructions plus synthesized handler
	// instructions; IdleInstr counts idle-loop instructions for the
	// I/O stall estimate.
	Instr     uint64
	IdleInstr uint64

	ICacheStalls   uint64
	DCacheStalls   uint64
	WBStalls       uint64
	UncachedStalls uint64

	// kseg2 (page-table) pages get frames from the same pool under a
	// reserved ASID.
	kseg2ASID uint32

	// wbStallHist, when registered, observes the length of each
	// write-buffer stall (nil-safe; plain adds).
	wbStallHist *telemetry.Histogram
}

// NewTraceSim builds the analysis-side simulator. nframe bounds the
// simulated frame pool (physical memory size / page size).
func NewTraceSim(cfg Config, policy PagePolicy, nframe uint32, seed uint32) *TraceSim {
	colors := cfg.DCacheSize >> cpu.PageShift
	if colors == 0 {
		colors = 1
	}
	return &TraceSim{
		cfg:          cfg,
		IC:           NewCache(cfg.ICacheSize, cfg.LineSize),
		DC:           NewCache(cfg.DCacheSize, cfg.LineSize),
		WB:           NewWriteBuffer(cfg.WriteBufferDepth, cfg.WriteRetireCycles),
		TLB:          NewTLBSim(seed*2 + 1),
		PM:           NewPageMap(policy, nframe, colors, seed),
		UTLBHandler:  cpu.VecUTLB,
		UTLBHandlerN: 9,
		kseg2ASID:    0xff,
	}
}

// MemStalls returns total memory-system stall cycles.
func (s *TraceSim) MemStalls() uint64 {
	return s.ICacheStalls + s.DCacheStalls + s.WBStalls + s.UncachedStalls
}

func (s *TraceSim) now() uint64 { return s.Instr + s.MemStalls() }

// translate maps an event address to a simulated physical address,
// simulating the TLB for mapped segments.
func (s *TraceSim) translate(ev *trace.Event) (pa uint32, cached bool) {
	a := ev.Addr
	switch {
	case a < cpu.KUSegEnd:
		asid := uint32(ev.AS)
		if !s.TLB.Access(asid, a) {
			s.synthesizeUTLB(asid, a)
		}
		return s.PM.Frame(asid, a>>cpu.PageShift)<<cpu.PageShift | a&(cpu.PageSize-1), true
	case a < cpu.KSeg1Base:
		return a - cpu.KSeg0Base, true
	case a < cpu.KSeg2Base:
		return a - cpu.KSeg1Base, false
	default:
		return s.PM.Frame(s.kseg2ASID, a>>cpu.PageShift)<<cpu.PageShift | a&(cpu.PageSize-1), true
	}
}

// synthesizeUTLB feeds the refill handler's references through the
// model: its instructions (kseg0) and its page-table load (kseg2).
// The handler itself is never traced; "rather than tracing the UTLB
// miss handler, we simulate the TLB, and use misses in the simulator
// to synthesize the activity of the UTLB miss handler" (§4.1).
func (s *TraceSim) synthesizeUTLB(asid uint32, va uint32) {
	for k := 0; k < s.UTLBHandlerN; k++ {
		s.Instr++
		if !s.IC.Access(s.UTLBHandler - cpu.KSeg0Base + uint32(k)*4) {
			s.ICacheStalls += uint64(s.cfg.ReadMissPenalty)
		}
	}
	// Page-table entry load from the kseg2 linear map.
	pteVA := cpu.KSeg2Base + (uint32(asid)<<10+va>>22)<<cpu.PageShift + va>>10&0xffc
	pa := s.PM.Frame(s.kseg2ASID, pteVA>>cpu.PageShift)<<cpu.PageShift | pteVA&(cpu.PageSize-1)
	if !s.DC.Access(pa) {
		s.DCacheStalls += uint64(s.cfg.ReadMissPenalty)
	}
}

// Fetch consumes a run of n sequential instruction fetches starting at
// ev.Addr (trace.Sink). It translates and probes the I-cache once per
// cache line the run touches and charges the line's other fetches to
// the counters directly: a TLB or cache hit changes nothing but the
// access count, a page crossing is always a line crossing (lines are
// smaller than pages), and no other reference falls between fetches of
// one run, so the rest of a line's fetches would all hit what the
// first one loaded.
func (s *TraceSim) Fetch(ev trace.Event, n int) {
	line := s.cfg.LineSize
	for n > 0 {
		// Fetches of the run that fall in ev.Addr's line (≥ 1).
		k := int((line - ev.Addr&(line-1) + 3) / 4)
		if k > n {
			k = n
		}
		s.Instr += uint64(k)
		if ev.Idle {
			s.IdleInstr += uint64(k)
		}
		pa, cached := s.translate(&ev)
		if ev.Addr < cpu.KUSegEnd {
			s.TLB.Accesses += uint64(k - 1)
		}
		if !cached {
			s.UncachedStalls += uint64(k) * uint64(s.cfg.UncachedPenalty)
		} else {
			if !s.IC.Access(pa) {
				s.ICacheStalls += uint64(s.cfg.ReadMissPenalty)
			}
			s.IC.Accesses += uint64(k - 1)
		}
		ev.Addr += uint32(k) * 4
		n -= k
	}
}

// Ref consumes one load or store (trace.Sink).
func (s *TraceSim) Ref(ev trace.Event) {
	pa, cached := s.translate(&ev)
	if !cached {
		s.UncachedStalls += uint64(s.cfg.UncachedPenalty)
		return
	}
	switch ev.Kind {
	case trace.EvLoad:
		if !s.DC.Access(pa) {
			s.DCacheStalls += uint64(s.cfg.ReadMissPenalty)
		}
	case trace.EvStore:
		s.DC.Update(pa)
		if st := s.WB.Write(s.now()); st > 0 {
			s.WBStalls += st
			s.wbStallHist.Observe(st)
		}
	}
}

// Event consumes one parsed trace event: a fetch is a run of one.
// Feeding a parse's expanded events through Event is the
// per-reference oracle for the run-granular Fetch.
func (s *TraceSim) Event(ev trace.Event) {
	if ev.Kind == trace.EvIFetch {
		s.Fetch(ev, 1)
		return
	}
	s.Ref(ev)
}

// Events consumes a batch.
func (s *TraceSim) Events(evs []trace.Event) {
	for _, ev := range evs {
		s.Event(ev)
	}
}
