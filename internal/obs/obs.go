// Package obs is the simulator's own observability layer: the paper's
// discipline — an observation system must measure itself without
// distorting what it measures (§4) — applied to the simulator as a
// host program rather than to the guest it simulates.
//
// It has three faces:
//
//   - a flight recorder (this file): an always-on, lock-free ring of
//     the last few thousand notable events (mode switches, trace-buffer
//     doorbells, pdExit reasons, TLB writes, IRQ edges), dumped
//     automatically on panic, oracle mismatch, or trace-conformance
//     diagnostics so a failure deep into a long run is diagnosable
//     post hoc;
//   - hierarchical phase spans (span.go): Begin/End pairs around
//     machine boot, workload runs, trace drains, analysis phases, and
//     experiment-runner jobs, recorded into a fixed ring and rendered
//     as a JSON timeline or a text Gantt (tracestat spans);
//   - a guest-PC sampling profiler (profile.go): the CPU core samples
//     the simulated PC on an instruction-count period amortized over
//     its superblock dispatch, and samples are attributed to guest
//     functions through the images' symbol tables and emitted as
//     folded stacks (flamegraph input) plus a host-time table.
//
// Everything here is built to stay out of the interpreter's way: event
// emission is a handful of uncontended atomic stores with no locks, no
// allocation, and no time syscalls; span operations take a mutex but
// run only at phase boundaries; the profiler costs one branch per
// StepN. The end-to-end benchmark (perfbench/run.sh) runs
// with the recorder armed, so its cost shows in every workload's
// wall time and guest MIPS.
package obs

import (
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// epoch anchors all span and dump timestamps; times are reported
// relative to process start so documents are stable and compact.
var epoch = time.Now()

// enabled gates event emission and span recording. On by default: the
// whole layer is designed to be affordable in production runs;
// SetEnabled(false) gives the baseline for measuring its own cost.
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns the flight recorder and span layer on or off
// globally. The profiler is separate: it runs only where a CPU has a
// sampler attached.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether the layer is recording.
func Enabled() bool { return enabled.Load() }

// EventID names a registered flight-recorder event kind.
type EventID uint32

// Event-name registry. Registration happens in package init blocks
// (the vet-tracer obsname checks lint the literals), so the lock is
// never contended on a hot path.
var (
	nameMu   sync.Mutex
	names    = []string{"unregistered"} // id 0 is reserved
	nameToID = map[string]EventID{}
)

// RegisterEvent registers a flight-recorder event name and returns its
// id. Names are snake_case identifiers (enforced by the telemetryname
// vettool analyzer); registering the same name twice panics, as that
// is a programming error the analyzer also rejects statically.
func RegisterEvent(name string) EventID {
	nameMu.Lock()
	defer nameMu.Unlock()
	if _, ok := nameToID[name]; ok {
		panic(fmt.Sprintf("obs: event %q registered twice", name))
	}
	return registerLocked(name)
}

// eventIDFor returns the id for name, registering it if new. It backs
// dynamically named failure events, where re-use is expected.
func eventIDFor(name string) EventID {
	nameMu.Lock()
	defer nameMu.Unlock()
	if id, ok := nameToID[name]; ok {
		return id
	}
	return registerLocked(name)
}

func registerLocked(name string) EventID {
	id := EventID(len(names))
	names = append(names, name)
	nameToID[name] = id
	return id
}

// EventName returns the registered name for id.
func EventName(id EventID) string {
	nameMu.Lock()
	defer nameMu.Unlock()
	if int(id) < len(names) {
		return names[id]
	}
	return "unregistered"
}

// ringSize is the flight-recorder capacity (a power of two). Old
// events are overwritten; a dump shows the last ringSize notable
// events before the failure.
const ringSize = 4096

// eventSlot is one ring entry. Every field is atomic so concurrent
// writers (machines on different runner goroutines) and dump readers
// are race-free without a lock; a reader may observe a slot mid-
// overwrite, which the sequence check in Events filters out.
type eventSlot struct {
	seq atomic.Uint64 // 1-based emission sequence; 0 = never written
	id  atomic.Uint64
	a   atomic.Uint64
	b   atomic.Uint64
}

// Recorder is a lock-free flight-recorder ring. The zero value is
// ready to use; the package-level Default instance is what the
// simulator subsystems emit into.
type Recorder struct {
	head atomic.Uint64
	ring [ringSize]eventSlot
}

// Default is the process-wide flight recorder.
var Default = &Recorder{}

// Emit records one event: a sequence claim plus four atomic stores.
// No locks, no allocation, no time syscalls — cheap enough for the
// CPU core's exception and TLB paths.
func (r *Recorder) Emit(id EventID, a, b uint64) {
	if !enabled.Load() {
		return
	}
	seq := r.head.Add(1)
	s := &r.ring[(seq-1)&(ringSize-1)]
	s.id.Store(uint64(id))
	s.a.Store(a)
	s.b.Store(b)
	s.seq.Store(seq)
}

// Emit records one event into the Default recorder.
func Emit(id EventID, a, b uint64) { Default.Emit(id, a, b) }

// Seq returns the total number of events ever emitted into r (the
// ring keeps only the last ringSize of them).
func (r *Recorder) Seq() uint64 { return r.head.Load() }

// Event is one decoded flight-recorder entry.
type Event struct {
	Seq  uint64 `json:"seq"`
	Name string `json:"name"`
	A    uint64 `json:"a"`
	B    uint64 `json:"b"`
}

// Events returns the recorder's current contents, oldest first. Slots
// being overwritten concurrently are dropped (their stored sequence no
// longer falls in the live window).
func (r *Recorder) Events() []Event {
	head := r.head.Load()
	lo := uint64(1)
	if head > ringSize {
		lo = head - ringSize + 1
	}
	evs := make([]Event, 0, ringSize)
	for i := range r.ring {
		s := &r.ring[i]
		seq := s.seq.Load()
		if seq < lo || seq > head {
			continue
		}
		evs = append(evs, Event{Seq: seq, Name: EventName(EventID(s.id.Load())), A: s.a.Load(), B: s.b.Load()})
	}
	sort.Slice(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
	return evs
}

// Events returns the Default recorder's contents.
func Events() []Event { return Default.Events() }

// WriteDump writes a human-readable snapshot of the recorder — the
// event ring plus the current span timeline — to w.
func (r *Recorder) WriteDump(w io.Writer) {
	evs := r.Events()
	fmt.Fprintf(w, "flight recorder: %d events (of %d emitted)\n", len(evs), r.head.Load())
	for _, e := range evs {
		fmt.Fprintf(w, "  %8d  %-28s a=0x%x b=0x%x\n", e.Seq, e.Name, e.A, e.B)
	}
	if sp := Timeline(); len(sp) > 0 {
		fmt.Fprintf(w, "spans:\n")
		WriteGantt(w)
	}
}

// Reset clears the Default recorder and span ring. For tests and CLI
// front-ends that want a run-scoped timeline; not safe to call while
// machines are running.
func Reset() {
	for i := range Default.ring {
		Default.ring[i].seq.Store(0)
	}
	Default.head.Store(0)
	spans.mu.Lock()
	for i := range spans.ring {
		spans.ring[i] = spanRec{}
	}
	spans.next = 0
	spans.stacks = map[int64][]uint64{}
	spans.mu.Unlock()
}

// Failure handling: the first failure of a process dumps the flight
// recorder to the failure writer (stderr unless a test redirects it),
// after recording a failure event named after the kind so the dump
// provably contains its own trigger.
var (
	failMu     sync.Mutex
	failWriter io.Writer = os.Stderr
	failDumped bool
)

// Failure records a failure event (named failure_<kind>) and, once per
// process, dumps the flight recorder to the failure writer. The
// simulator calls it on trace-conformance diagnostics and oracle
// mismatches; DumpOnPanic routes panics here.
func Failure(kind, detail string) {
	Emit(eventIDFor("failure_"+kind), 0, 0)
	failMu.Lock()
	defer failMu.Unlock()
	if failDumped {
		return
	}
	failDumped = true
	fmt.Fprintf(failWriter, "obs: failure (%s): %s\n", kind, detail)
	Default.WriteDump(failWriter)
}

// SetFailureWriter redirects failure dumps to w and re-arms the
// once-per-process dump; it returns a restore function. For tests.
func SetFailureWriter(w io.Writer) (restore func()) {
	failMu.Lock()
	prev, prevDumped := failWriter, failDumped
	failWriter, failDumped = w, false
	failMu.Unlock()
	return func() {
		failMu.Lock()
		failWriter, failDumped = prev, prevDumped
		failMu.Unlock()
	}
}

// DumpOnPanic is a deferred handler for command mains: on panic it
// dumps the flight recorder through Failure and re-panics.
func DumpOnPanic() {
	if r := recover(); r != nil {
		Failure("panic", fmt.Sprint(r))
		panic(r)
	}
}
