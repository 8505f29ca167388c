package obs

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"

	"systrace/internal/obj"
)

// Guest-PC sampling profiler. The CPU core samples the simulated PC
// on an instruction-count period: StepN clamps its superblock dispatch
// to the next sample boundary and samples once on exit, so the
// per-instruction dispatch loop carries no profiling code at all — the
// cost is one branch per StepN plus one time.Now per sample. Each sample charges
// the host time since the previous sample to the sampled guest PC,
// which is sound for the same reason the pdExit discipline is: StepN
// only runs straight-line guest work between exits, so the PC observed
// at a boundary is representative of the work since the last boundary
// at the sampling period's resolution.

// ProfSample is one profiler sample: where the guest was (PC, mode,
// address-space id = pid under both kernels) and how much host time
// elapsed since the previous sample.
type ProfSample struct {
	PC      uint32
	Kernel  bool
	Pid     uint32
	Instret uint64
	HostNs  int64
}

// Profile accumulates guest-PC samples. Hit is safe to call from the
// machine goroutine while readers snapshot from another (the -serve
// endpoint); samples arrive once per period, so the mutex is cold.
type Profile struct {
	mu      sync.Mutex
	samples []ProfSample
	last    time.Time
	primed  bool
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// Hit records one sample; its signature matches cpu.SetProfiler.
func (p *Profile) Hit(pc uint32, kernel bool, pid uint32, instret uint64) {
	now := time.Now()
	p.mu.Lock()
	var ns int64
	if p.primed {
		ns = now.Sub(p.last).Nanoseconds()
	}
	p.last, p.primed = now, true
	p.samples = append(p.samples, ProfSample{PC: pc, Kernel: kernel, Pid: pid, Instret: instret, HostNs: ns})
	p.mu.Unlock()
}

// Samples returns a copy of the accumulated samples.
func (p *Profile) Samples() []ProfSample {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]ProfSample, len(p.samples))
	copy(out, p.samples)
	return out
}

// Len returns the number of samples taken so far.
func (p *Profile) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.samples)
}

// Resolver maps a sample to a folded stack string, frames separated
// by semicolons, outermost first (the flamegraph convention).
type Resolver func(s ProfSample) string

// funcIndex is a sorted function-symbol table for one image,
// supporting binary-search attribution of a PC to the function that
// contains it.
type funcIndex struct {
	addrs []uint32
	names []string
	limit uint32 // end of the last function's plausible extent
}

func newFuncIndex(e *obj.Executable) *funcIndex {
	if e == nil {
		return nil
	}
	type fn struct {
		addr uint32
		name string
	}
	var fns []fn
	for _, s := range e.Syms {
		if s.Func {
			fns = append(fns, fn{s.Off, s.Name})
		}
	}
	if len(fns) == 0 {
		return nil
	}
	sort.Slice(fns, func(i, j int) bool { return fns[i].addr < fns[j].addr })
	ix := &funcIndex{limit: e.TextEnd()}
	for _, f := range fns {
		ix.addrs = append(ix.addrs, f.addr)
		ix.names = append(ix.names, f.name)
	}
	return ix
}

func (ix *funcIndex) lookup(pc uint32) string {
	if ix == nil || len(ix.addrs) == 0 || pc < ix.addrs[0] || pc >= ix.limit {
		return ""
	}
	i := sort.Search(len(ix.addrs), func(i int) bool { return ix.addrs[i] > pc }) - 1
	return ix.names[i]
}

// NewImageResolver builds a Resolver over the kernel image and the
// per-pid user images (ASID equals pid under both kernels, so the
// sampled address-space id selects the image). Unresolvable samples
// fold to an address literal so they still show up rather than
// silently vanishing from the profile.
func NewImageResolver(kernel *obj.Executable, procs map[uint32]*obj.Executable) Resolver {
	kix := newFuncIndex(kernel)
	uix := make(map[uint32]*funcIndex, len(procs))
	unames := make(map[uint32]string, len(procs))
	for pid, e := range procs {
		uix[pid] = newFuncIndex(e)
		if e != nil {
			unames[pid] = e.Name
		}
	}
	return func(s ProfSample) string {
		if s.Kernel {
			if fn := kix.lookup(s.PC); fn != "" {
				return "kernel;" + fn
			}
			return fmt.Sprintf("kernel;0x%08x", s.PC)
		}
		prog := unames[s.Pid]
		if prog == "" {
			prog = fmt.Sprintf("pid%d", s.Pid)
		}
		if fn := uix[s.Pid].lookup(s.PC); fn != "" {
			return prog + ";" + fn
		}
		return fmt.Sprintf("%s;0x%08x", prog, s.PC)
	}
}

// WriteFolded writes the profile in folded-stack form — one line per
// distinct stack, "frames... value" — with host nanoseconds as the
// value, directly renderable by flamegraph.pl / inferno.
func (p *Profile) WriteFolded(w io.Writer, res Resolver) {
	agg := map[string]int64{}
	for _, s := range p.Samples() {
		agg[res(s)] += s.HostNs
	}
	keys := make([]string, 0, len(agg))
	for k := range agg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s %d\n", k, agg[k])
	}
}

// FuncTime is one row of the per-function host-time table.
type FuncTime struct {
	Name    string `json:"name"`
	Samples int    `json:"samples"`
	HostNs  int64  `json:"host_ns"`
}

// Table aggregates samples per folded stack, heaviest first.
func (p *Profile) Table(res Resolver) []FuncTime {
	type cell struct {
		n  int
		ns int64
	}
	agg := map[string]*cell{}
	for _, s := range p.Samples() {
		k := res(s)
		c := agg[k]
		if c == nil {
			c = &cell{}
			agg[k] = c
		}
		c.n++
		c.ns += s.HostNs
	}
	out := make([]FuncTime, 0, len(agg))
	for k, c := range agg {
		out = append(out, FuncTime{Name: k, Samples: c.n, HostNs: c.ns})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].HostNs != out[j].HostNs {
			return out[i].HostNs > out[j].HostNs
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// WriteTable renders the per-function host-time table as text.
func (p *Profile) WriteTable(w io.Writer, res Resolver) {
	rows := p.Table(res)
	var totalNs int64
	total := 0
	for _, r := range rows {
		totalNs += r.HostNs
		total += r.Samples
	}
	fmt.Fprintf(w, "guest-PC profile: %d samples, %s host time\n", total, time.Duration(totalNs))
	fmt.Fprintf(w, "  %-40s %8s %12s %6s\n", "function", "samples", "host time", "%")
	for _, r := range rows {
		pct := 0.0
		if totalNs > 0 {
			pct = 100 * float64(r.HostNs) / float64(totalNs)
		}
		fmt.Fprintf(w, "  %-40s %8d %12s %5.1f%%\n", r.Name, r.Samples, time.Duration(r.HostNs).Round(time.Microsecond), pct)
	}
}
