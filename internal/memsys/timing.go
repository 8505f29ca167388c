package memsys

import (
	"systrace/internal/cpu"
	"systrace/internal/telemetry"
)

// Timing is the execution-driven machine model: attached as a
// cpu.Observer it sees every reference with its real physical address
// (the running kernel's actual page map), accumulates stall cycles,
// and contributes them to machine time. This is the "direct
// measurement" side of the paper's validation.
type Timing struct {
	cfg Config
	IC  *Cache
	DC  *Cache
	WB  *WriteBuffer

	instr  uint64
	stalls uint64

	// Per-category stalls.
	ICacheStalls   uint64
	DCacheStalls   uint64
	WBStalls       uint64
	UncachedStalls uint64
	FPStalls       uint64
	FPOverlapped   uint64
	ExcStalls      uint64

	// Kernel/user split for the CPI measurements (§3.4: kernel CPI
	// was three times user CPI on Tunix).
	KernelInstr  uint64
	UserInstr    uint64
	KernelStalls uint64
	UserStalls   uint64

	// wbStallHist, when registered, observes the length of each
	// write-buffer stall (nil-safe; plain adds).
	wbStallHist *telemetry.Histogram
}

var _ cpu.Observer = (*Timing)(nil)

// NewTiming builds the execution-driven model.
func NewTiming(cfg Config) *Timing {
	return &Timing{
		cfg: cfg,
		IC:  NewCache(cfg.ICacheSize, cfg.LineSize),
		DC:  NewCache(cfg.DCacheSize, cfg.LineSize),
		WB:  NewWriteBuffer(cfg.WriteBufferDepth, cfg.WriteRetireCycles),
	}
}

// StallCycles implements machine.Staller.
func (t *Timing) StallCycles() uint64 { return t.stalls }

// Instructions returns instructions observed (fetches).
func (t *Timing) Instructions() uint64 { return t.instr }

func (t *Timing) now() uint64 { return t.instr + t.stalls }

func (t *Timing) charge(c uint64, kernel bool) {
	t.stalls += c
	if kernel {
		t.KernelStalls += c
	} else {
		t.UserStalls += c
	}
}

// Fetch implements cpu.Observer. It is the per-reference oracle that
// FuzzTimingFetchRun holds FetchRun to.
func (t *Timing) Fetch(va, pa uint32, kernel, cached bool) {
	t.instr++
	if kernel {
		t.KernelInstr++
	} else {
		t.UserInstr++
	}
	if !cached {
		t.UncachedStalls += uint64(t.cfg.UncachedPenalty)
		t.charge(uint64(t.cfg.UncachedPenalty), kernel)
		return
	}
	if !t.IC.Access(pa) {
		t.ICacheStalls += uint64(t.cfg.ReadMissPenalty)
		t.charge(uint64(t.cfg.ReadMissPenalty), kernel)
	}
}

// FetchRun implements cpu.Observer: n sequential fetches from pa, all
// in one page. It probes each line of [pa, pa+4(n-1)] once, as the
// range of line addresses it spans, and adds n to IC.Accesses: no
// other reference falls between the fetches of one run, so every
// fetch after a line's first hits the line that one loaded, and a hit
// changes nothing but the access count. Stalls land in the same
// counters as n Fetch calls, and nothing in a run reads now(), so the
// order of the charges does not matter.
func (t *Timing) FetchRun(va, pa uint32, n int, kernel, cached bool) {
	t.instr += uint64(n)
	if kernel {
		t.KernelInstr += uint64(n)
	} else {
		t.UserInstr += uint64(n)
	}
	if !cached {
		c := uint64(n) * uint64(t.cfg.UncachedPenalty)
		t.UncachedStalls += c
		t.charge(c, kernel)
		return
	}
	if miss := t.IC.accessRun(pa, n); miss > 0 {
		c := miss * uint64(t.cfg.ReadMissPenalty)
		t.ICacheStalls += c
		t.charge(c, kernel)
	}
}

// Load implements cpu.Observer.
func (t *Timing) Load(va, pa uint32, size int, kernel, cached bool) {
	if !cached {
		t.UncachedStalls += uint64(t.cfg.UncachedPenalty)
		t.charge(uint64(t.cfg.UncachedPenalty), kernel)
		return
	}
	if !t.DC.Access(pa) {
		t.DCacheStalls += uint64(t.cfg.ReadMissPenalty)
		t.charge(uint64(t.cfg.ReadMissPenalty), kernel)
	}
}

// Store implements cpu.Observer.
func (t *Timing) Store(va, pa uint32, size int, kernel, cached bool) {
	if !cached {
		t.UncachedStalls += uint64(t.cfg.UncachedPenalty)
		t.charge(uint64(t.cfg.UncachedPenalty), kernel)
		return
	}
	t.DC.Update(pa) // write-through, no-write-allocate
	if s := t.WB.Write(t.now()); s > 0 {
		t.WBStalls += s
		t.charge(s, kernel)
		t.wbStallHist.Observe(s)
	}
}

// FPOp implements cpu.Observer: floating-point latency, optionally
// overlapped with write-buffer drain as on the real pipeline.
func (t *Timing) FPOp(latency int) {
	lat := uint64(latency)
	if lat == 0 {
		return
	}
	if t.cfg.ModelFPOverlap {
		if pend := t.WB.PendingCycles(t.now()); pend > 0 {
			ov := pend
			if ov > lat {
				ov = lat
			}
			t.FPOverlapped += ov
			lat -= ov
		}
	}
	t.FPStalls += lat
	t.charge(lat, false)
}

// Exception implements cpu.Observer.
func (t *Timing) Exception(code int, vector uint32) {
	c := uint64(t.cfg.ExceptionEntryCycles)
	t.ExcStalls += c
	t.charge(c, true)
}

// KernelCPI returns cycles per instruction for kernel-mode execution.
func (t *Timing) KernelCPI() float64 {
	if t.KernelInstr == 0 {
		return 0
	}
	return float64(t.KernelInstr+t.KernelStalls) / float64(t.KernelInstr)
}

// UserCPI returns cycles per instruction for user-mode execution.
func (t *Timing) UserCPI() float64 {
	if t.UserInstr == 0 {
		return 0
	}
	return float64(t.UserInstr+t.UserStalls) / float64(t.UserInstr)
}
