package kernel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strconv"

	"systrace/internal/cpu"
	"systrace/internal/dev"
	"systrace/internal/machine"
	"systrace/internal/obj"
	"systrace/internal/obs"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
)

// evDoorbell marks each trace-buffer doorbell the kernel rings: the
// host drains and resets the buffer here, so around a failure these
// events reconstruct the generation/analysis mode switches.
// a = doorbell reason code, b = trace words drained.
var evDoorbell = obs.RegisterEvent("kernel_trace_doorbell")

// BootProc describes one process to start at boot.
type BootProc struct {
	Exe      *obj.Executable
	IsServer bool
}

// BootConfig configures a system instance.
type BootConfig struct {
	Flavor          Flavor
	RAMBytes        uint32
	TraceBufBytes   uint32 // 0 = tracing disabled (untraced kernel)
	ClockInterval   uint32 // cycles between clock interrupts
	PagePolicy      uint32 // 0 sequential, 1 random (frame placement)
	MapSeed         uint32
	TLBDropin       bool
	DiskImage       []byte
	AnalysisPerWord uint64 // analysis-phase cycles charged per trace word
	// Stream enables the epoch-ring streaming drain (see stream.go);
	// the zero value keeps the legacy stop-the-world two-phase drain.
	Stream StreamConfig
	// Engine pins the CPU execution engine for the whole boot. The zero
	// value keeps the machine default (superblock dispatch over the
	// reference Step); the differential oracle pins the reference
	// engine.
	Engine Engine
}

// Engine selects the CPU execution engine a boot runs on.
type Engine int

const (
	// EngineAuto is the machine default: superblock chains under
	// StepN, the reference Step everywhere else.
	EngineAuto Engine = iota
	// EngineReference builds no chains: every instruction is a
	// per-instruction fetch and full decode through the reference
	// interpreter, run under the same machine loop as the default
	// engine.
	EngineReference
)

func (e Engine) String() string {
	if e == EngineReference {
		return "reference"
	}
	return "auto"
}

// DefaultBoot returns a standard configuration for the flavor: Ultrix
// places pages sequentially and pre-drops TLB entries; Mach places
// pages randomly (its documented repeatability hazard, §5.1) and uses
// tlb_map_random-style drop-ins.
func DefaultBoot(f Flavor) BootConfig {
	cfg := BootConfig{
		Flavor:          f,
		RAMBytes:        64 << 20,
		ClockInterval:   20_000, // scheduler tick, scaled with the workloads
		TLBDropin:       true,
		MapSeed:         12345,
		AnalysisPerWord: 8,
	}
	if f == Mach {
		cfg.PagePolicy = 1
	}
	return cfg
}

// System is a booted machine: kernel plus processes, with the
// host-side analysis program attached to the trace doorbell.
type System struct {
	M      *machine.Machine
	Kernel *obj.Executable
	Procs  []BootProc
	Cfg    BootConfig

	// OnTrace receives each drained batch of raw trace words (the
	// analysis program of Figure 1); the words are valid only during
	// the call.
	OnTrace func(words []uint32)

	// OnEpoch receives each compressed epoch's wire bytes before the
	// streaming consumer decodes them for OnTrace. Only the perfbench
	// harness attaches here; analyses attach through OnTrace.
	OnEpoch func(enc []byte)

	DrainedWords uint64
	Doorbells    uint64
	// DrainErrors counts drains rejected on the producer side
	// (corrupt bookkeeping); decode failures on the consumer side are
	// counted in StreamStats.DecodeErrors.
	DrainErrors uint64
	// StreamStats accumulates epoch-ring accounting when Cfg.Stream is
	// enabled (stable once Run returns).
	StreamStats StreamStats

	tel    *sysTelemetry
	stream *streamer
	drain  []uint32 // two-phase copy-out buffer, reused across doorbells

	kbookPA uint32
	tbufPA  uint32
	utlbPA  uint32
	symPA   map[string]uint32
}

// sysTelemetry holds the pre-registered handles the flush path records
// into; all handle operations are plain uint64 adds.
type sysTelemetry struct {
	reg    *telemetry.Registry
	labels []telemetry.Label

	flushesFull   *telemetry.Counter
	flushesFinal  *telemetry.Counter
	flushWords    *telemetry.Histogram
	markers       map[uint32]*telemetry.Counter // by trace.MarkerKind
	markerUnknown *telemetry.Counter            // kinds with no registered name
	perPid        map[uint32]*telemetry.Counter // flushes by current pid
}

// markerNames maps marker kinds to metric label values.
var markerNames = map[uint32]string{
	trace.MarkCtxSw:     "ctx_switch",
	trace.MarkExcEnter:  "exc_enter",
	trace.MarkExcExit:   "exc_exit",
	trace.MarkModeSw:    "mode_switch",
	trace.MarkProcExit:  "proc_exit",
	trace.MarkKernEnter: "kern_enter",
	trace.MarkKernExit:  "kern_exit",
}

// AttachTelemetry registers the kernel-side tracing metrics: flush
// counts by reason and by pid, flush-size histogram, control-marker
// mix of the drained stream, and sampled kernel globals (scheduler
// ticks, generation→analysis mode switches, the §5.2 user-TLB miss
// counter). Call before Run; a nil registry is a no-op.
func (s *System) AttachTelemetry(r *telemetry.Registry, labels ...telemetry.Label) {
	if r == nil {
		return
	}
	t := &sysTelemetry{
		reg:     r,
		labels:  labels,
		markers: map[uint32]*telemetry.Counter{},
		perPid:  map[uint32]*telemetry.Counter{},
	}
	lab := func(extra ...telemetry.Label) []telemetry.Label {
		return append(extra, labels...)
	}
	const flushHelp = "in-kernel trace buffer flushes by doorbell reason"
	t.flushesFull = r.Counter("kernel_trace_flushes_total", flushHelp,
		lab(telemetry.L("reason", "buffer_full"))...)
	t.flushesFinal = r.Counter("kernel_trace_flushes_total", flushHelp,
		lab(telemetry.L("reason", "final"))...)
	t.flushWords = r.Histogram("kernel_trace_flush_words",
		"trace words handed to the analysis program per flush (buffer geometry, §4.3)",
		labels...)
	const markerHelp = "control markers observed in the drained trace stream, by kind"
	for kind, name := range markerNames {
		t.markers[kind] = r.Counter("kernel_trace_markers_total", markerHelp,
			lab(telemetry.L("kind", name))...)
	}
	// Words in 0xfff8xxxx..0xffffxxxx satisfy IsMarker but name no
	// known kind (a wild effective address can land there); they count
	// here instead of faulting the flush path.
	t.markerUnknown = r.Counter("kernel_trace_markers_total", markerHelp,
		lab(telemetry.L("kind", "unknown"))...)
	r.Sample("kernel_trace_drained_words_total",
		"total trace words drained from the in-kernel buffer",
		func() uint64 { return s.DrainedWords }, labels...)
	r.Sample("kernel_trace_doorbells_total",
		"doorbell rings (generation→analysis mode switches)",
		func() uint64 { return s.Doorbells }, labels...)
	r.Sample("kernel_trace_drain_errors_total",
		"trace drains rejected or failed (corrupt bookkeeping, undecodable epochs)",
		func() uint64 { return s.DrainErrors + s.StreamStats.DecodeErrors }, labels...)
	r.Sample("kernel_trace_stream_epochs_total",
		"epochs handed to the streaming-drain consumer",
		func() uint64 { return s.StreamStats.Epochs }, labels...)
	r.Sample("kernel_trace_stream_stall_cycles_total",
		"machine cycles the streaming drain stalled waiting for a ring slot",
		func() uint64 { return s.StreamStats.StallCycles }, labels...)
	r.Sample("kernel_trace_stream_raw_bytes_total",
		"raw trace bytes handed off by the streaming drain",
		func() uint64 { return s.StreamStats.RawBytes }, labels...)
	r.Sample("kernel_trace_stream_encoded_bytes_total",
		"compressed trace bytes handed off by the streaming drain",
		func() uint64 { return s.StreamStats.EncodedBytes }, labels...)
	r.Sample("kernel_ticks_total", "scheduler clock ticks handled",
		func() uint64 { return uint64(s.ReadKernelWord("ticks")) }, labels...)
	r.Sample("kernel_mode_switches_total",
		"generation→analysis transitions counted by the kernel itself",
		func() uint64 { return uint64(s.ReadKernelWord("modesw")) }, labels...)
	r.Sample("kernel_utlb_misses_total",
		"the kernel's user-TLB miss counter (Table 3 measured column, §5.2)",
		func() uint64 { return uint64(s.UTLBCount()) }, labels...)
	s.tel = t
}

// record instruments one flush: the hot-path handles were registered
// up front, so this is counter adds plus one pass over the drained
// words for the marker mix. The per-pid series is created on first
// flush for that pid (flushes are rare; this is not the word path).
func (t *sysTelemetry) record(reason uint32, pid uint32, words []uint32) {
	if reason == dev.DoorbellFlush {
		t.flushesFinal.Inc()
	} else {
		t.flushesFull.Inc()
	}
	t.flushWords.Observe(uint64(len(words)))
	c, ok := t.perPid[pid]
	if !ok {
		c = t.reg.Counter("kernel_trace_flushes_by_pid_total",
			"in-kernel trace buffer flushes by the pid current at flush time",
			append([]telemetry.Label{telemetry.L("pid", strconv.FormatUint(uint64(pid), 10))},
				t.labels...)...)
		t.perPid[pid] = c
	}
	c.Inc()
	for _, w := range words {
		if trace.IsMarker(w) {
			if c, ok := t.markers[trace.MarkerKind(w)]; ok {
				c.Inc()
			} else {
				t.markerUnknown.Inc()
			}
		}
	}
}

// Boot loads the kernel and user images and prepares the machine.
func Boot(kernelExe *obj.Executable, procs []BootProc, cfg BootConfig) (*System, error) {
	sp := obs.BeginDetail("system_boot", cfg.Flavor.String())
	defer sp.End()
	if len(procs) == 0 || len(procs) > MaxProcs {
		return nil, fmt.Errorf("kernel: %d boot processes (1..%d allowed)", len(procs), MaxProcs)
	}
	mach := machine.New(cfg.RAMBytes, cfg.DiskImage)
	if cfg.Engine == EngineReference {
		mach.CPU.SetPredecode(false)
	}
	if err := mach.LoadKernel(kernelExe); err != nil {
		return nil, err
	}
	s := &System{M: mach, Kernel: kernelExe, Procs: procs, Cfg: cfg, symPA: map[string]uint32{}}
	s.kbookPA = kernelExe.MustSymbol("kbook") - cpu.KSeg0Base
	s.utlbPA = kernelExe.MustSymbol("utlb_scratch") - cpu.KSeg0Base
	s.tbufPA = TraceBufVA - cpu.KSeg0Base

	// Boot-time loads go through the RAM API so its write hook sees
	// them (the CPU invalidates any chain drawing from a written frame);
	// the doorbell handler below only reads, so it keeps the raw slice.
	ram := mach.RAM.Bytes()
	put := func(pa uint32, v uint32) { mach.RAM.WriteWord(pa, v) }

	// Boot images: user segments copied to page-aligned physical
	// memory after the trace buffer.
	alloc := s.tbufPA + cfg.TraceBufBytes
	alloc = (alloc + 4095) &^ 4095
	biPA := uint32(BootInfoVA - cpu.KSeg0Base)
	put(biPA+BiMagic, BootMagic)
	put(biPA+BiRAMBytes, cfg.RAMBytes)
	if cfg.TraceBufBytes > 0 {
		put(biPA+BiTraceBufPhys, s.tbufPA)
		put(biPA+BiTraceBufBytes, cfg.TraceBufBytes)
	}
	put(biPA+BiClockInterval, cfg.ClockInterval)
	put(biPA+BiFlavor, uint32(cfg.Flavor))
	put(biPA+BiPagePolicy, cfg.PagePolicy)
	put(biPA+BiMapSeed, cfg.MapSeed)
	if cfg.TLBDropin {
		put(biPA+BiTLBDropin, 1)
	}
	put(biPA+BiNProcs, uint32(len(procs)))

	var segErr error
	copySeg := func(pa uint32, data []byte) uint32 {
		if err := mach.RAM.WriteBytes(pa, data); err != nil && segErr == nil {
			segErr = err
		}
		return (pa + uint32(len(data)) + 4095) &^ 4095
	}
	for i, p := range procs {
		e := p.Exe
		rec := biPA + BiProcBase + uint32(i)*BiProcStride
		textBytes := make([]byte, len(e.Text)*4)
		for wi, w := range e.Text {
			binary.BigEndian.PutUint32(textBytes[wi*4:], w)
		}
		textPA := alloc
		alloc = copySeg(textPA, textBytes)
		dataPA := alloc
		alloc = copySeg(dataPA, e.Data)
		put(rec+BiProcEntry, e.Entry)
		put(rec+BiProcTextVA, e.TextBase)
		put(rec+BiProcTextPhys, textPA)
		put(rec+BiProcTextBytes, uint32(len(textBytes)))
		put(rec+BiProcDataVA, e.DataBase)
		put(rec+BiProcDataPhys, dataPA)
		put(rec+BiProcDataBytes, uint32(len(e.Data)))
		put(rec+BiProcBSSVA, e.BSSBase)
		put(rec+BiProcBSSBytes, e.BSSSize+65536) // slack for sbrk-free heaps
		if e.Traced {
			put(rec+BiProcTraced, 1)
		}
		if p.IsServer {
			put(rec+BiProcIsServer, 1)
		}
	}
	if segErr != nil {
		return nil, segErr
	}
	put(biPA+BiFramePool, alloc)

	// The analysis program: drain the in-kernel buffer when the
	// kernel rings the doorbell.
	mach.TraceCtl.Handler = func(reason uint32) uint64 {
		dsp := obs.Begin("trace_drain")
		defer dsp.End()
		s.Doorbells++
		end := binary.BigEndian.Uint32(ram[s.kbookPA:]) // BufPtr (kseg0 VA)
		start := TraceBufVA
		if end < uint32(start) || end > uint32(start)+cfg.TraceBufBytes {
			// A BufPtr outside the buffer means the bookkeeping word
			// was corrupted (or the kernel is wild); dropping the
			// buffer is the only safe move, but it must be loud.
			s.DrainErrors++
			obs.Failure("trace_drain_corrupt_kbook", fmt.Sprintf(
				"doorbell reason %d: kbook BufPtr 0x%08x outside trace buffer [0x%08x, 0x%08x]",
				reason, end, uint32(start), uint32(start)+cfg.TraceBufBytes))
			obs.Emit(evDoorbell, uint64(reason), 0)
			return 0
		}
		n := (end - uint32(start)) / 4
		obs.Emit(evDoorbell, uint64(reason), uint64(n))
		s.DrainedWords += uint64(n)
		var pid uint32
		if s.tel != nil {
			pid = s.ReadKernelWord("curpid")
		}
		if s.stream != nil {
			return s.stream.handoff(reason, pid, n, mach.Cycles())
		}
		s.drain = s.copyOut(n, s.drain)
		s.deliver(reason, pid, s.drain)
		return uint64(n) * cfg.AnalysisPerWord
	}
	return s, nil
}

// copyOut reads the first n trace-buffer words into dst's storage.
func (s *System) copyOut(n uint32, dst []uint32) []uint32 {
	dst = slices.Grow(dst[:0], int(n))[:n]
	ram := s.M.RAM.Bytes()
	for i := range dst {
		dst[i] = binary.BigEndian.Uint32(ram[s.tbufPA+uint32(i)*4:])
	}
	return dst
}

// deliver hands one drained batch (either drain) to telemetry, then to
// the analysis program.
func (s *System) deliver(reason, pid uint32, words []uint32) {
	if s.tel != nil {
		s.tel.record(reason, pid, words)
	}
	if s.OnTrace != nil {
		s.OnTrace(words)
	}
}

// Run executes until the machine halts or the instruction budget is
// exhausted. With streaming enabled the epoch-ring consumer runs for
// the duration of the call and is joined before Run returns, so every
// OnTrace delivery happens-before the caller reads its results, and
// the first undecodable epoch (a *trace.StreamError) fails the run.
func (s *System) Run(maxInstr uint64) (err error) {
	sp := obs.BeginDetail("machine_run", s.Cfg.Flavor.String())
	defer sp.End()
	if s.Cfg.Stream.Enabled() && s.Cfg.TraceBufBytes > 0 {
		s.stream = newStreamer(s)
		defer func() {
			st := s.stream
			s.stream = nil
			if derr := st.close(); derr != nil && err == nil {
				err = fmt.Errorf("kernel: trace stream: %w", derr)
			}
		}()
	}
	return s.M.Run(maxInstr)
}

// ramWord reads the big-endian word at physical address pa, reporting
// false when pa is outside RAM instead of slicing out of bounds (a bad
// pid or a corrupt page-table entry produces such addresses).
func ramWord(ram []byte, pa uint32) (uint32, bool) {
	if uint64(pa)+4 > uint64(len(ram)) {
		return 0, false
	}
	return binary.BigEndian.Uint32(ram[pa:]), true
}

// UTLBCount reads the kernel's user-TLB miss counter (the
// "kernel with a user TLB miss counter" of §5.2).
func (s *System) UTLBCount() uint32 {
	return binary.BigEndian.Uint32(s.M.RAM.Bytes()[s.utlbPA:])
}

// ReadKernelWordOK reads a kernel global by symbol name; ok is false
// for an unknown symbol or one whose address falls outside RAM.
func (s *System) ReadKernelWordOK(sym string) (uint32, bool) {
	pa, cached := s.symPA[sym]
	if !cached {
		va, ok := s.Kernel.Symbol(sym)
		if !ok {
			return 0, false
		}
		pa = va - cpu.KSeg0Base
		s.symPA[sym] = pa
	}
	return ramWord(s.M.RAM.Bytes(), pa)
}

// ReadKernelWord reads a kernel global by symbol name (zero when the
// symbol is unknown or out of range; see ReadKernelWordOK).
func (s *System) ReadKernelWord(sym string) uint32 {
	v, _ := s.ReadKernelWordOK(sym)
	return v
}

// Console returns console output so far.
func (s *System) Console() string { return s.M.Console.String() }

// ExitStatusOK returns the exit status of process pid (the a0 slot of
// its final trapframe); ok is false when pid names no boot-time
// process slot.
func (s *System) ExitStatusOK(pid int) (uint32, bool) {
	if pid < 1 || pid > MaxProcs {
		return 0, false
	}
	pa := s.Kernel.MustSymbol("procs") - cpu.KSeg0Base +
		uint32(pid-1)*ProcStride + PSave + TFRegs + 3*4
	return ramWord(s.M.RAM.Bytes(), pa)
}

// ExitStatus returns the exit status of process pid (zero when pid is
// out of range; see ExitStatusOK).
func (s *System) ExitStatus(pid int) uint32 {
	v, _ := s.ExitStatusOK(pid)
	return v
}

// ReadUserWord reads a word of a process's memory by walking the
// kernel's page tables from the host side. Every step of the walk is
// bounds-checked: a bad pid or an out-of-range page-table entry
// returns false rather than faulting the host.
func (s *System) ReadUserWord(pid int, va uint32) (uint32, bool) {
	if pid < 1 || pid > MaxProcs {
		return 0, false
	}
	km := s.Kernel.MustSymbol("kseg2map") - cpu.KSeg0Base
	ram := s.M.RAM.Bytes()
	off := uint32(pid)<<PTSpanShift + (va>>12)<<2
	pt, ok := ramWord(ram, km+(off>>12)*4)
	if !ok || pt&cpu.EloV == 0 {
		return 0, false
	}
	pte, ok := ramWord(ram, pt&cpu.EloPFN|off&0xfff)
	if !ok || pte&cpu.EloV == 0 {
		return 0, false
	}
	return ramWord(ram, pte&cpu.EloPFN|va&0xfff)
}
