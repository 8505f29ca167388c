package kernel_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/dev"
	"systrace/internal/kernel"
	m "systrace/internal/mahler"
	"systrace/internal/obs"
	"systrace/internal/telemetry"
	"systrace/internal/trace"
	"systrace/internal/userland"
)

// bootHarness boots an untraced hello system with a trace buffer
// attached but never runs it: tests inject crafted streams into the
// buffer and ring the doorbell handler by hand.
func bootHarness(t *testing.T, bufBytes uint32) *kernel.System {
	t.Helper()
	kexe, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix})
	if err != nil {
		t.Fatalf("kernel build: %v", err)
	}
	prog, err := userland.Build("hello", []*m.Module{helloModule()}, m.Options{})
	if err != nil {
		t.Fatalf("user build: %v", err)
	}
	disk, err := kernel.BuildDiskImage(nil)
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(kernel.Ultrix)
	cfg.DiskImage = disk
	cfg.TraceBufBytes = bufBytes
	sys, err := kernel.Boot(kexe, []kernel.BootProc{{Exe: prog.Orig}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// setBufPtr writes the kbook BufPtr bookkeeping word (a kseg0 VA).
func setBufPtr(t testing.TB, sys *kernel.System, end uint32) {
	t.Helper()
	kb := symbol(t, sys.Kernel, "kbook") - cpu.KSeg0Base
	sys.M.RAM.WriteWord(kb, end)
}

// fillTraceWords plants a crafted stream in the trace buffer and sets
// BufPtr past its last word.
func fillTraceWords(t testing.TB, sys *kernel.System, words []uint32) {
	t.Helper()
	pa := uint32(kernel.TraceBufVA) - cpu.KSeg0Base
	for i, w := range words {
		sys.M.RAM.WriteWord(pa+uint32(i)*4, w)
	}
	setBufPtr(t, sys, uint32(kernel.TraceBufVA)+uint32(len(words))*4)
}

// snapVal reads one series value from a registry snapshot; -1 if the
// series (with the given label subset) is absent.
func snapVal(reg *telemetry.Registry, name string, labels map[string]string) float64 {
	for _, mt := range reg.Snapshot().Metrics {
		if mt.Name != name {
			continue
		}
		match := true
		for k, v := range labels {
			if mt.Labels[k] != v {
				match = false
				break
			}
		}
		if match {
			return mt.Value
		}
	}
	return -1
}

// TestDrainPathTable drives the doorbell drain over the boundary
// geometries of §4.3 — an empty buffer, a fill exactly at the soft
// limit, a fill deep in the slack region, and the final flush after
// halt — asserting drained-word counts, charged analysis cycles, and
// the marker mix the telemetry pass observed.
func TestDrainPathTable(t *testing.T) {
	bufBytes := uint32(trace.KernelBufSlack + 64<<10)
	mkWords := func(n int) ([]uint32, int, int) {
		words := make([]uint32, n)
		var enters, exits int
		for i := range words {
			switch {
			case i%64 == 8:
				words[i] = trace.MarkKernEnter
				enters++
			case i%64 == 9:
				words[i] = trace.MarkKernExit | 1
				exits++
			default:
				words[i] = 0x00400000 + uint32(i)*4
			}
		}
		return words, enters, exits
	}
	cases := []struct {
		name   string
		nWords int
		reason uint32
		halted bool
	}{
		{"empty", 0, dev.DoorbellBufferFull, false},
		{"soft_limit", int((bufBytes - trace.KernelBufSlack) / 4), dev.DoorbellBufferFull, false},
		{"deep_slack", int((bufBytes - 16) / 4), dev.DoorbellBufferFull, false},
		{"final_flush_after_halt", 1000, dev.DoorbellFlush, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sys := bootHarness(t, bufBytes)
			reg := telemetry.New()
			sys.AttachTelemetry(reg)
			var got []uint32
			sys.OnTrace = func(words []uint32) { got = append(got, words...) }
			words, enters, exits := mkWords(tc.nWords)
			fillTraceWords(t, sys, words)
			if tc.halted {
				sys.M.Halted = true
				sys.M.CPU.Halted = true
			}
			cycles := sys.M.TraceCtl.Handler(tc.reason)
			if len(got) != tc.nWords || sys.DrainedWords != uint64(tc.nWords) {
				t.Fatalf("drained %d words to OnTrace, DrainedWords=%d, want %d",
					len(got), sys.DrainedWords, tc.nWords)
			}
			if want := uint64(tc.nWords) * sys.Cfg.AnalysisPerWord; cycles != want {
				t.Errorf("charged %d analysis cycles, want %d", cycles, want)
			}
			for i, w := range got {
				if w != words[i] {
					t.Fatalf("word %d: got 0x%08x want 0x%08x", i, w, words[i])
				}
			}
			reason := "buffer_full"
			if tc.reason == dev.DoorbellFlush {
				reason = "final"
			}
			if v := snapVal(reg, "kernel_trace_flushes_total", map[string]string{"reason": reason}); v != 1 {
				t.Errorf("flushes{reason=%q} = %v, want 1", reason, v)
			}
			if v := snapVal(reg, "kernel_trace_markers_total", map[string]string{"kind": "kern_enter"}); v != float64(enters) {
				t.Errorf("markers{kern_enter} = %v, want %d", v, enters)
			}
			if v := snapVal(reg, "kernel_trace_markers_total", map[string]string{"kind": "kern_exit"}); v != float64(exits) {
				t.Errorf("markers{kern_exit} = %v, want %d", v, exits)
			}
			if v := snapVal(reg, "kernel_trace_drain_errors_total", nil); v != 0 {
				t.Errorf("drain errors = %v on a clean drain", v)
			}
		})
	}
}

// TestUnknownMarkerKindCounted: words in 0xfff8xxxx..0xffffxxxx pass
// IsMarker but name no registered kind. The telemetry pass used to hit
// a nil counter and panic the host; they must count as kind="unknown".
func TestUnknownMarkerKindCounted(t *testing.T) {
	sys := bootHarness(t, 4<<20)
	reg := telemetry.New()
	sys.AttachTelemetry(reg)
	fillTraceWords(t, sys, []uint32{
		0x00400010,
		0xfff80000, // smallest unregistered kind
		0xffff1234, // largest kind, nonzero payload
		trace.MarkKernEnter,
		0xfffeabcd,
	})
	sys.M.TraceCtl.Handler(dev.DoorbellBufferFull) // panicked before the fix
	if v := snapVal(reg, "kernel_trace_markers_total", map[string]string{"kind": "unknown"}); v != 3 {
		t.Errorf("markers{unknown} = %v, want 3", v)
	}
	if v := snapVal(reg, "kernel_trace_markers_total", map[string]string{"kind": "kern_enter"}); v != 1 {
		t.Errorf("markers{kern_enter} = %v, want 1", v)
	}
}

// TestCorruptKbookDrainError: a BufPtr outside the trace buffer must
// drop the drain loudly — flight-recorder failure dump, DrainErrors,
// the kernel_trace_drain_errors_total series — instead of silently
// returning zero.
func TestCorruptKbookDrainError(t *testing.T) {
	sys := bootHarness(t, 4<<20)
	reg := telemetry.New()
	sys.AttachTelemetry(reg)
	var dump bytes.Buffer
	restore := obs.SetFailureWriter(&dump)
	defer restore()
	var analyzed bool
	sys.OnTrace = func([]uint32) { analyzed = true }

	setBufPtr(t, sys, 0x12345678) // far past the buffer end
	if got := sys.M.TraceCtl.Handler(dev.DoorbellBufferFull); got != 0 {
		t.Errorf("corrupt drain charged %d cycles, want 0", got)
	}
	if analyzed {
		t.Error("analysis program ran over a corrupt drain")
	}
	if sys.DrainErrors != 1 {
		t.Fatalf("DrainErrors = %d, want 1", sys.DrainErrors)
	}
	if !strings.Contains(dump.String(), "trace_drain_corrupt_kbook") {
		t.Errorf("failure dump missing trace_drain_corrupt_kbook: %q", dump.String())
	}
	if v := snapVal(reg, "kernel_trace_drain_errors_total", nil); v != 1 {
		t.Errorf("drain error series = %v, want 1", v)
	}

	setBufPtr(t, sys, uint32(kernel.TraceBufVA)-4) // below the buffer start
	if got := sys.M.TraceCtl.Handler(dev.DoorbellBufferFull); got != 0 {
		t.Errorf("below-start drain charged %d cycles, want 0", got)
	}
	if sys.DrainErrors != 2 {
		t.Errorf("DrainErrors = %d, want 2", sys.DrainErrors)
	}
}

// TestHostReadBounds: the host-side RAM readers must reject bad pids,
// unknown symbols, and corrupt page-table entries instead of slicing
// out of bounds.
func TestHostReadBounds(t *testing.T) {
	sys := bootHarness(t, 0)
	if _, ok := sys.ExitStatusOK(0); ok {
		t.Error("ExitStatusOK(0) = ok")
	}
	if _, ok := sys.ExitStatusOK(1 << 20); ok { // sliced past RAM before the fix
		t.Error("ExitStatusOK(1<<20) = ok")
	}
	if _, ok := sys.ExitStatusOK(1); !ok {
		t.Error("ExitStatusOK(1) rejected a valid pid")
	}
	if sys.ExitStatus(1<<20) != 0 {
		t.Error("ExitStatus out of range must read as zero")
	}
	if _, ok := sys.ReadUserWord(0, 0x00400000); ok {
		t.Error("ReadUserWord(pid 0) = ok")
	}
	if _, ok := sys.ReadUserWord(kernel.MaxProcs+1, 0x00400000); ok {
		t.Error("ReadUserWord(pid > MaxProcs) = ok")
	}
	if _, ok := sys.ReadKernelWordOK("no_such_symbol_anywhere"); ok {
		t.Error("ReadKernelWordOK(unknown symbol) = ok")
	}
	if sys.ReadKernelWord("no_such_symbol_anywhere") != 0 {
		t.Error("ReadKernelWord(unknown symbol) must read as zero")
	}

	// Corrupt page tables: a first-level entry whose page-table page
	// lies past RAM, then a valid first level whose PTE points past
	// RAM. Both sliced out of bounds before the fix.
	km := symbol(t, sys.Kernel, "kseg2map") - cpu.KSeg0Base
	va := uint32(0x00400000)
	off := uint32(1)<<kernel.PTSpanShift + (va>>12)<<2
	sys.M.RAM.WriteWord(km+(off>>12)*4, 0x7ffff000|cpu.EloV)
	if _, ok := sys.ReadUserWord(1, va); ok {
		t.Error("ReadUserWord with out-of-range page-table page = ok")
	}
	const ptPage = uint32(0x00300000) // scratch page inside RAM
	sys.M.RAM.WriteWord(km+(off>>12)*4, ptPage|cpu.EloV)
	sys.M.RAM.WriteWord(ptPage|off&0xfff, 0x7ffff000|cpu.EloV)
	if _, ok := sys.ReadUserWord(1, va); ok {
		t.Error("ReadUserWord with out-of-range PTE = ok")
	}
}

// tracedFilesum boots the traced filesum workload with a small trace
// buffer (many epochs) and the given drain configuration.
func tracedFilesum(t *testing.T, data []byte, analysisPerWord uint64, stream kernel.StreamConfig) *kernel.System {
	t.Helper()
	kexe, err := kernel.Build(kernel.Config{Flavor: kernel.Ultrix, Traced: true})
	if err != nil {
		t.Fatal(err)
	}
	prog, err := userland.Build("filesum", []*m.Module{fileSumModule()}, m.Options{})
	if err != nil {
		t.Fatal(err)
	}
	disk, err := kernel.BuildDiskImage(map[string][]byte{"data.bin": data})
	if err != nil {
		t.Fatal(err)
	}
	cfg := kernel.DefaultBoot(kernel.Ultrix)
	cfg.DiskImage = disk
	cfg.TraceBufBytes = trace.KernelBufSlack + 128<<10
	cfg.ClockInterval *= 15
	cfg.AnalysisPerWord = analysisPerWord
	cfg.Stream = stream
	sys, err := kernel.Boot(kexe, []kernel.BootProc{{Exe: prog.Instr}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func collectRun(t *testing.T, sys *kernel.System) []uint32 {
	t.Helper()
	var all []uint32
	sys.OnTrace = func(words []uint32) { all = append(all, words...) }
	if err := sys.Run(2_000_000_000); err != nil {
		t.Fatalf("run: %v (console %q)", err, sys.Console())
	}
	if !sys.M.Halted {
		t.Fatal("machine did not halt")
	}
	return all
}

// TestStreamingDrainFidelity: at one analysis cycle a word the
// two-phase drain charges what a stall-free epoch handoff does (one
// cycle a word), so machine timing is identical across modes, and the
// epoch-ring consumer — raw and compressed — must deliver exactly the
// word stream the two-phase drain delivers, in order.
func TestStreamingDrainFidelity(t *testing.T) {
	data, sum := testData()
	base := collectRun(t, tracedFilesum(t, data, 1, kernel.StreamConfig{}))
	if len(base) == 0 {
		t.Fatal("baseline drained no trace")
	}
	cases := map[string]kernel.StreamConfig{
		"raw":        {Ring: true},
		"compressed": {Ring: true, Compress: true},
	}
	for name, sc := range cases {
		t.Run(name, func(t *testing.T) {
			sys := tracedFilesum(t, data, 1, sc)
			got := collectRun(t, sys)
			if sys.StreamStats.StallCycles != 0 {
				t.Fatalf("%d stall cycles: timing differs from the two-phase drain's", sys.StreamStats.StallCycles)
			}
			if status := sys.ExitStatus(1); status != sum {
				t.Errorf("exit status %d, want %d", status, sum)
			}
			if len(got) != len(base) {
				t.Fatalf("streamed %d words, two-phase drained %d", len(got), len(base))
			}
			for i := range got {
				if got[i] != base[i] {
					t.Fatalf("word %d: streamed 0x%08x, two-phase 0x%08x", i, got[i], base[i])
				}
			}
			if sys.StreamStats.Epochs != sys.Doorbells {
				t.Errorf("epochs %d != doorbells %d", sys.StreamStats.Epochs, sys.Doorbells)
			}
			if sys.StreamStats.DecodeErrors != 0 {
				t.Errorf("decode errors: %d", sys.StreamStats.DecodeErrors)
			}
			if sc.Compress {
				if sys.StreamStats.EncodedBytes == 0 ||
					sys.StreamStats.EncodedBytes >= sys.StreamStats.RawBytes {
					t.Errorf("compression did nothing: %d raw -> %d encoded",
						sys.StreamStats.RawBytes, sys.StreamStats.EncodedBytes)
				}
			}
		})
	}
}

// TestStreamingDrainOverlap: under the standard analysis cost, the
// epoch ring must beat the stop-the-world two-phase drain on simulated
// wall clock, with the hidden analysis share recorded on the machine's
// overlapped-cycle counter.
func TestStreamingDrainOverlap(t *testing.T) {
	data, _ := testData()
	two := tracedFilesum(t, data, 8, kernel.StreamConfig{})
	collectRun(t, two)
	st := tracedFilesum(t, data, 8, kernel.DefaultStream())
	collectRun(t, st)

	if st.M.Cycles() >= two.M.Cycles() {
		t.Errorf("streaming %d cycles, two-phase %d: overlap did not pay",
			st.M.Cycles(), two.M.Cycles())
	}
	if want := st.DrainedWords * 8; st.M.OverlapCycles() != want {
		t.Errorf("overlap cycles %d, want drained*8 = %d", st.M.OverlapCycles(), want)
	}
	if two.M.OverlapCycles() != 0 {
		t.Errorf("two-phase recorded %d overlap cycles", two.M.OverlapCycles())
	}
	if st.StreamStats.Epochs == 0 {
		t.Fatal("no epochs handed off")
	}
	t.Logf("two-phase=%d cycles (analysis %d), stream=%d cycles (handoff+stall %d, overlapped %d, stalls %d)",
		two.M.Cycles(), two.M.ExtraCycles(), st.M.Cycles(), st.M.ExtraCycles(),
		st.M.OverlapCycles(), st.StreamStats.StallCycles)
}

// TestStreamingSlicedRun: the streaming drain's ring model outlives a
// Run, so running a boot to halt in one Run and in Runs of 20,000
// instructions simulates the same machine time and the same stream.
// Four copies of the file give the ring enough epochs to fill its
// three in-flight slots, and an analysis cost of 200 cycles a word
// keeps them full, so a model rebuilt at every Run would forget the
// epochs in flight and stall less.
func TestStreamingSlicedRun(t *testing.T) {
	data, sum := testData()
	data, sum = bytes.Repeat(data, 4), sum*4
	cfg := kernel.DefaultStream()
	whole := tracedFilesum(t, data, 200, cfg)
	collectRun(t, whole)

	sliced := tracedFilesum(t, data, 200, cfg)
	runs := 0
	for !sliced.M.Halted {
		if runs++; runs > 100_000 {
			t.Fatal("sliced run did not halt")
		}
		if err := sliced.Run(20_000); err != nil && !strings.Contains(err.Error(), "instruction budget") {
			t.Fatalf("run %d: %v", runs, err)
		}
	}
	if status := sliced.ExitStatus(1); status != sum {
		t.Errorf("exit status %d, want %d", status, sum)
	}
	if whole.StreamStats.StallCycles == 0 {
		t.Fatal("the one-Run reference never stalled: the ring model is not exercised")
	}
	if got, want := sliced.M.Cycles(), whole.M.Cycles(); got != want {
		t.Errorf("%d Runs simulated %d cycles, one Run %d", runs, got, want)
	}
	if sliced.StreamStats != whole.StreamStats {
		t.Errorf("%d Runs: stream stats %+v, one Run %+v", runs, sliced.StreamStats, whole.StreamStats)
	}
	if sliced.DrainedWords != whole.DrainedWords {
		t.Errorf("%d Runs drained %d words, one Run %d", runs, sliced.DrainedWords, whole.DrainedWords)
	}
	t.Logf("%d Runs: %d cycles, %d stall cycles", runs, sliced.M.Cycles(), sliced.StreamStats.StallCycles)
}

// TestStreamingDecodeFailure: an epoch that reaches the consumer
// undecodable is counted, dumped to the flight recorder and never
// delivered, and Run reports it as a *trace.StreamError. Every epoch is
// encoded from a fresh codec state, so the epochs after it still
// decode and are delivered.
func TestStreamingDecodeFailure(t *testing.T) {
	data, _ := testData()
	sys := tracedFilesum(t, data, 0, kernel.DefaultStream())
	var dump bytes.Buffer
	restore := obs.SetFailureWriter(&dump)
	defer restore()
	var epochs, delivered int
	sys.OnEpoch = func(enc []byte) {
		if epochs++; epochs == 2 {
			enc[0] = 0xe0 // a reserved token
		}
	}
	sys.OnTrace = func([]uint32) { delivered++ }
	err := sys.Run(2_000_000_000)
	var se *trace.StreamError
	if !errors.As(err, &se) {
		t.Fatalf("Run = %v, want a *trace.StreamError", err)
	}
	if sys.StreamStats.DecodeErrors != 1 {
		t.Errorf("DecodeErrors = %d, want 1: every epoch decodes on its own", sys.StreamStats.DecodeErrors)
	}
	if epochs < 3 || delivered != epochs-1 {
		t.Errorf("OnTrace saw %d of %d epochs, want all but the corrupted one (%d undecodable)",
			delivered, epochs, sys.StreamStats.DecodeErrors)
	}
	if !strings.Contains(dump.String(), "trace_stream_decode") {
		t.Errorf("failure dump missing trace_stream_decode: %q", dump.String())
	}
	t.Logf("%d epochs, %d delivered, %d decode errors", epochs, delivered, sys.StreamStats.DecodeErrors)
}
