package cpu

import "systrace/internal/obs"

// Flight-recorder events the CPU core emits. These are the "notable"
// state transitions a post-hoc debugger wants around a failure — the
// same set of operations the pdExit discipline singles out as able to
// change machine state mid-batch — at a rate (exceptions, TLB writes,
// IRQ edges, frame drops, device accesses) that is thousands of times
// sparser than the instruction stream, so the handful of atomic stores
// per event stays invisible in the MIPS benchmarks.
var (
	// a = exception code, b = faulting PC.
	evException = obs.RegisterEvent("cpu_exception")
	// a = IRQ line, b = 1 raise / 0 clear (edges only).
	evIRQ = obs.RegisterEvent("cpu_irq_edge")
	// a = TLB index written, b = EntryHi (VPN|ASID).
	evTLBWrite = obs.RegisterEvent("cpu_tlb_write")
	// a = physical frame number whose predecode was dropped,
	// b = 1 when it was the executing frame (forced a re-decode).
	evFrameDrop = obs.RegisterEvent("cpu_frame_drop")
	// a = physical address, b = 1 store / 0 load (device space only —
	// the pdExit reason that isn't an exception or COP0 op).
	evDevAccess = obs.RegisterEvent("cpu_device_access")
)

// devAccess records a device-bus access edge-triggered on the target
// page and direction: a driver streaming or polling one device emits
// a single event for the whole run of accesses, not one per word.
// sed's boot makes ~50k device accesses in ~18ms — emitting each one
// is the difference between recorder cost disappearing into benchmark
// noise and a measurable MIPS hit (perfbench/ measures it end to end).
func (c *CPU) devAccess(pa uint32, store uint64) {
	key := uint64(pa)>>12<<1 | store
	if key == c.lastDevKey {
		return
	}
	c.lastDevKey = key
	obs.Emit(evDevAccess, uint64(pa), store)
}

// profiler holds the guest-PC sampling state. StepN clamps its
// superblock dispatch to the next sample boundary and samples once on
// exit, so sampling adds no per-instruction work — one comparison per
// StepN plus the callback every `every` retired instructions.
type profiler struct {
	fn    func(pc uint32, kernel bool, pid uint32, instret uint64)
	every uint64
	next  uint64
}

// SetProfiler attaches (or, with a nil fn or zero period, detaches) a
// guest-PC sampler: fn is called with the simulated PC, mode, and
// address-space id (equal to the guest pid under both kernels) every
// `every` retired instructions. The sample is exact whenever the
// machine runs through StepN (no stall model: StepN cuts its chain at
// the boundary and samples on exit) and lands within one burst of the
// boundary under a stall model, where ProfPoll samples between bursts.
func (c *CPU) SetProfiler(every uint64, fn func(pc uint32, kernel bool, pid uint32, instret uint64)) {
	if fn == nil || every == 0 {
		c.prof = profiler{}
		return
	}
	c.prof = profiler{fn: fn, every: every, next: c.Stat.Instret + every}
}

// profSample fires the sampler and advances the next boundary past
// the current retirement count.
func (c *CPU) profSample() {
	for c.Stat.Instret >= c.prof.next {
		c.prof.next += c.prof.every
	}
	c.prof.fn(c.PC, c.KernelMode(), c.ASID(), c.Stat.Instret)
}

// profClamp takes any due sample and limits a StepN batch so it ends
// exactly on the next sample boundary.
func (c *CPU) profClamp(max uint64) uint64 {
	if c.Stat.Instret >= c.prof.next {
		c.profSample()
	}
	if rem := c.prof.next - c.Stat.Instret; rem < max {
		return rem
	}
	return max
}

// ProfPoll takes a sample if one is due. The machine's stall-model
// loop, which runs one Step at a time rather than StepN, calls it once
// per burst, bounding sample skew by the burst length instead of adding
// a per-Step check.
func (c *CPU) ProfPoll() {
	if c.prof.fn != nil && c.Stat.Instret >= c.prof.next {
		c.profSample()
	}
}
