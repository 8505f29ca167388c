package memsys_test

import (
	"testing"
	"testing/quick"

	"systrace/internal/memsys"
	"systrace/internal/trace"
)

func TestCacheDirectMapped(t *testing.T) {
	c := memsys.NewCache(1024, 16) // 64 lines
	if c.Access(0x0000) {
		t.Error("cold miss reported as hit")
	}
	if !c.Access(0x0004) {
		t.Error("same line must hit")
	}
	if c.Access(0x0000 + 1024) {
		t.Error("conflicting line must miss")
	}
	if c.Access(0x0000) {
		t.Error("evicted line must miss")
	}
	if c.Misses != 3 || c.Accesses != 4 {
		t.Errorf("misses=%d accesses=%d", c.Misses, c.Accesses)
	}
}

func TestCacheProbeAndUpdateDontFill(t *testing.T) {
	c := memsys.NewCache(1024, 16)
	if c.Probe(0x40) {
		t.Error("probe hit on empty cache")
	}
	c.Update(0x40)
	if c.Probe(0x40) {
		t.Error("update of absent line must not fill (no write allocate)")
	}
}

func TestCacheInvariantHitAfterAccess(t *testing.T) {
	// Property: immediately re-accessing any address hits.
	c := memsys.NewCache(64<<10, 16)
	f := func(pa uint32) bool {
		c.Access(pa)
		return c.Access(pa)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestWriteBufferStalls(t *testing.T) {
	wb := memsys.NewWriteBuffer(2, 10)
	if s := wb.Write(0); s != 0 {
		t.Errorf("first write stalled %d", s)
	}
	if s := wb.Write(1); s != 0 {
		t.Errorf("second write stalled %d", s)
	}
	// Buffer full: the third write at t=2 must wait for the first
	// retirement at t=10.
	if s := wb.Write(2); s != 8 {
		t.Errorf("third write stall = %d, want 8", s)
	}
	if wb.StallCycles != 8 {
		t.Errorf("accumulated stalls %d", wb.StallCycles)
	}
	// Far in the future everything has drained.
	if s := wb.Write(1000); s != 0 {
		t.Errorf("drained buffer stalled %d", s)
	}
}

// TestWriteBufferWriteAllocationFree: the in-flight FIFO is a fixed
// ring, so a store on the measured path never allocates.
func TestWriteBufferWriteAllocationFree(t *testing.T) {
	wb := memsys.NewWriteBuffer(6, 5)
	now := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		wb.Write(now)
		now += 3 // slower than the drain: the buffer fills and stalls
	})
	if allocs != 0 {
		t.Errorf("Write allocates %.1f times per call, want 0", allocs)
	}
	if wb.StallCycles == 0 {
		t.Error("buffer never filled: the full-buffer path was not exercised")
	}
}

func TestTLBSimBasics(t *testing.T) {
	tl := memsys.NewTLBSim(7)
	if tl.Access(1, 0x1000) {
		t.Error("cold TLB hit")
	}
	if !tl.Access(1, 0x1fff) {
		t.Error("same page must hit")
	}
	if tl.Access(2, 0x1000) {
		t.Error("different asid must miss")
	}
	if tl.Misses != 2 {
		t.Errorf("misses=%d", tl.Misses)
	}
}

func TestTLBSimCapacity(t *testing.T) {
	tl := memsys.NewTLBSim(3)
	// Touch far more pages than entries; then a re-walk must miss
	// sometimes (random replacement), i.e. misses strictly grow.
	for i := uint32(0); i < 200; i++ {
		tl.Access(1, i<<12)
	}
	before := tl.Misses
	for i := uint32(0); i < 200; i++ {
		tl.Access(1, i<<12)
	}
	if tl.Misses == before {
		t.Error("200 pages cannot all fit a 64-entry TLB")
	}
}

func TestPageMapPolicies(t *testing.T) {
	for _, pol := range []memsys.PagePolicy{memsys.PolicySequential, memsys.PolicyRandom, memsys.PolicyColoring} {
		pm := memsys.NewPageMap(pol, 1024, 16, 5)
		a := pm.Frame(1, 100)
		if pm.Frame(1, 100) != a {
			t.Errorf("policy %v: placement not stable", pol)
		}
		if pm.Frame(2, 100) == a && pol == memsys.PolicySequential {
			// Sequential gives distinct frames to distinct spaces.
			t.Errorf("policy %v: spaces share frames", pol)
		}
		if f := pm.Frame(1, 200); f >= 1024 {
			t.Errorf("frame %d out of pool", f)
		}
	}
	// Coloring preserves the page color.
	pm := memsys.NewPageMap(memsys.PolicyColoring, 1024, 16, 9)
	for vp := uint32(0); vp < 64; vp++ {
		if f := pm.Frame(1, vp); f%16 != vp%16 {
			t.Errorf("coloring: vpage %d -> frame %d (color %d != %d)", vp, f, f%16, vp%16)
		}
	}
}

func TestTraceSimSynthesizesUTLB(t *testing.T) {
	sim := memsys.NewTraceSim(memsys.DECstation5000(), memsys.PolicySequential, 4096, 1)
	// One user fetch: TLB miss, so the simulator adds the refill
	// handler's instructions on top of the traced one.
	sim.Event(trace.Event{Kind: trace.EvIFetch, Addr: 0x400000, Size: 4, AS: 1})
	if sim.TLB.Misses != 1 {
		t.Fatalf("expected 1 simulated miss, got %d", sim.TLB.Misses)
	}
	if sim.Instr != 1+uint64(sim.UTLBHandlerN) {
		t.Errorf("instr=%d want %d (traced + synthesized handler)", sim.Instr, 1+sim.UTLBHandlerN)
	}
	// Second fetch on the same page: no synthesis.
	before := sim.Instr
	sim.Event(trace.Event{Kind: trace.EvIFetch, Addr: 0x400004, Size: 4, AS: 1})
	if sim.Instr != before+1 {
		t.Error("synthesis on a TLB hit")
	}
}

func TestTraceSimIdleCounting(t *testing.T) {
	sim := memsys.NewTraceSim(memsys.DECstation5000(), memsys.PolicySequential, 4096, 1)
	sim.Event(trace.Event{Kind: trace.EvIFetch, Addr: 0x80030000, Size: 4, Kernel: true, Idle: true})
	sim.Event(trace.Event{Kind: trace.EvIFetch, Addr: 0x80030004, Size: 4, Kernel: true})
	if sim.IdleInstr != 1 {
		t.Errorf("idle=%d", sim.IdleInstr)
	}
}

func TestTimingKernelUserSplit(t *testing.T) {
	tm := memsys.NewTiming(memsys.DECstation5000())
	tm.Fetch(0x80030000, 0x30000, true, true)
	tm.Fetch(0x400000, 0x5000, false, true)
	tm.Load(0x10000000, 0x6000, 4, false, true)
	tm.Store(0x10000004, 0x6004, 4, false, true)
	if tm.KernelInstr != 1 || tm.UserInstr != 1 {
		t.Errorf("split %d/%d", tm.KernelInstr, tm.UserInstr)
	}
	if tm.KernelCPI() <= 1.0 {
		t.Error("cold kernel fetch must cost more than one cycle")
	}
}

func TestTimingUncachedPenalty(t *testing.T) {
	cfg := memsys.DECstation5000()
	tm := memsys.NewTiming(cfg)
	tm.Load(0xbf000000, 0x1f000000, 4, true, false)
	if tm.UncachedStalls != uint64(cfg.UncachedPenalty) {
		t.Errorf("uncached stalls %d", tm.UncachedStalls)
	}
}

func TestTimingFPOverlap(t *testing.T) {
	cfg := memsys.DECstation5000()
	cfg.ModelFPOverlap = true
	tm := memsys.NewTiming(cfg)
	// Fill the write buffer so FP latency can hide behind the drain.
	for i := 0; i < 4; i++ {
		tm.Store(0x10000000+uint32(i*64), uint32(0x6000+i*64), 4, false, true)
	}
	tm.FPOp(18)
	if tm.FPOverlapped == 0 {
		t.Error("no FP/write-buffer overlap modeled")
	}
	// The predictor-side config must not overlap.
	cfg.ModelFPOverlap = false
	tm2 := memsys.NewTiming(cfg)
	for i := 0; i < 4; i++ {
		tm2.Store(0x10000000+uint32(i*64), uint32(0x6000+i*64), 4, false, true)
	}
	tm2.FPOp(18)
	if tm2.FPOverlapped != 0 || tm2.FPStalls != 18 {
		t.Error("overlap modeled when disabled")
	}
}
