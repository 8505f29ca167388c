package memsys

import (
	"math/rand"
	"reflect"
	"testing"
)

// replayFetchRun decodes data into a reference stream and drives two
// Timings with it: one gets each fetch run as a FetchRun, the other as
// the run's Fetch calls. The runs (1–255 fetches from any word of a
// line, kernel or user, cached or uncached, within one page) are
// interleaved with loads, stores, FP ops and exceptions, so the write
// buffer and the FP overlap read now() between runs. The two models
// must end in the same state, unexported cache tags and write-buffer
// ring included.
func replayFetchRun(t *testing.T, data []byte) *Timing {
	t.Helper()
	cfg := DECstation5000()
	if len(data) > 0 && data[0]&1 != 0 {
		cfg.LineSize = 32
	}
	run, loop := NewTiming(cfg), NewTiming(cfg)
	next := func() uint32 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return uint32(b)
	}
	for len(data) > 0 {
		op := next()
		kernel, cached := op&0x10 != 0, op&0x20 != 0
		// 256 pages of 4 KB: four times the cache, so lines conflict.
		pa := next()<<12 | next()<<4&0xff0 | next()&0xc
		va := 0x00400000 | pa
		switch op % 8 {
		case 0, 1, 2, 3:
			n := 1 + int(next()%255)
			if max := int(0x1000-pa&0xfff) / 4; n > max {
				n = max // one page
			}
			run.FetchRun(va, pa, n, kernel, cached)
			for k := uint32(0); k < uint32(n); k++ {
				loop.Fetch(va+4*k, pa+4*k, kernel, cached)
			}
		case 4:
			run.Load(va, pa, 4, kernel, cached)
			loop.Load(va, pa, 4, kernel, cached)
		case 5:
			// A burst of 1–4 stores; bursts close together fill the buffer.
			for k := op>>6 + 1; k > 0; k-- {
				run.Store(va, pa, 4, kernel, cached)
				loop.Store(va, pa, 4, kernel, cached)
			}
		case 6:
			run.FPOp(int(op >> 6 * 5))
			loop.FPOp(int(op >> 6 * 5))
		default:
			run.Exception(int(op>>6), 0x80000080)
			loop.Exception(int(op>>6), 0x80000080)
		}
	}
	if run.StallCycles() != loop.StallCycles() || run.Instructions() != loop.Instructions() {
		t.Fatalf("stalls/instructions: FetchRun %d/%d, Fetch loop %d/%d",
			run.StallCycles(), run.Instructions(), loop.StallCycles(), loop.Instructions())
	}
	if !reflect.DeepEqual(run, loop) {
		t.Fatalf("models diverge:\nFetchRun   %+v IC %+v DC %+v WB %+v\nFetch loop %+v IC %+v DC %+v WB %+v",
			*run, run.IC.Accesses, run.DC.Accesses, *run.WB, *loop, loop.IC.Accesses, loop.DC.Accesses, *loop.WB)
	}
	return run
}

// FuzzTimingFetchRun: FetchRun is, by the cpu.Observer contract, its
// run of Fetch calls; the Timing model must not be able to tell them
// apart.
func FuzzTimingFetchRun(f *testing.F) {
	f.Add([]byte{})
	// One full-length cached run from mid-line, then a store.
	f.Add([]byte{0x20, 1, 2, 4, 254, 0x25, 1, 2, 8})
	// Uncached kernel run, an FP op, an exception, a user run over
	// 32-byte lines.
	f.Add([]byte{0x11, 3, 0xff, 0xc, 200, 0x46, 0, 0, 0, 0x37, 0, 0, 0, 0x21, 3, 0, 0, 40})
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 8; i++ {
		b := make([]byte, 64+r.Intn(512))
		r.Read(b)
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, data []byte) { replayFetchRun(t, data) })
}

// TestTimingFetchRunMatchesFetch runs the fuzz property over a fixed
// random corpus, so every tier-1 test run checks it at volume.
func TestTimingFetchRunMatchesFetch(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	var sum Timing
	for i := 0; i < 200; i++ {
		b := make([]byte, 1024)
		r.Read(b)
		tm := replayFetchRun(t, b)
		sum.ICacheStalls += tm.ICacheStalls
		sum.UncachedStalls += tm.UncachedStalls
		sum.WBStalls += tm.WBStalls
		sum.FPOverlapped += tm.FPOverlapped
	}
	// The corpus must reach every stall the order of events could
	// change: misses, uncached runs, a full write buffer, FP overlap.
	if sum.ICacheStalls == 0 || sum.UncachedStalls == 0 || sum.WBStalls == 0 || sum.FPOverlapped == 0 {
		t.Errorf("corpus left a stall path unexercised: %+v", sum)
	}
}
