package experiment_test

import (
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
)

// TestPinnedCounts pins the simulated counts of one measurement per
// kernel, two predictions (two-phase Ultrix, streaming Mach) down to
// the trace-driven simulator's counters and the streaming ring's
// accounting, and two buffer-sizing boots.
// The differential oracle compares engines against each other with no
// stall model attached; these numbers additionally hold the
// execution-driven Timing model's event timing (Measure), the traced
// pipelines (Predict, PredictStream) and the trace analysis that
// consumes them fixed, so a change to the run loops or the execution
// tiers that shifts an interrupt or a doorbell by one instruction, or
// a change to the parser or the simulator that moves one cache or TLB
// probe, shows up here. The buffer-sizing rows hold its traced boots
// (Ultrix, page-mapping seed 0, two-phase drain, non-default buffers)
// to the same counts.
func TestPinnedCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload boots")
	}
	sed := specsFor(t, "sed")[0]
	for _, want := range []struct {
		flavor       kernel.Flavor
		cycles, inst uint64
		utlb         uint32
	}{
		{kernel.Ultrix, 4226900, 3365003, 1},
		{kernel.Mach, 5149983, 4207180, 11},
	} {
		m, err := experiment.Measure(sed, want.flavor, 1)
		if err != nil {
			t.Fatal(err)
		}
		if m.Cycles != want.cycles || m.Instr != want.inst || m.UTLBMisses != want.utlb {
			t.Errorf("Measure(sed, %v): cycles %d instr %d utlb %d, want %d %d %d",
				want.flavor, m.Cycles, m.Instr, m.UTLBMisses, want.cycles, want.inst, want.utlb)
		}
	}
	p, err := experiment.Predict(sed, kernel.Ultrix, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.Cycles != 4119458 || p.TracedCycles != 32853918 || p.TraceWords != 883222 || p.Events != 3633285 {
		t.Errorf("Predict(sed, Ultrix): cycles %d traced cycles %d trace words %d events %d, "+
			"want 4119458 32853918 883222 3633285",
			p.Cycles, p.TracedCycles, p.TraceWords, p.Events)
	}
	checkSim(t, "Predict(sed, Ultrix)", p, simCounts{
		instr: 3301173, idle: 61,
		ic: [2]uint64{3301173, 632}, dc: [2]uint64{258705, 1334}, tlb: [2]uint64{2220267, 3},
		wbWrites: 21065,
	})
	// The streaming drain runs the same analysis on the consumer
	// goroutine, over a compressed four-epoch ring.
	ps, err := experiment.PredictStream(sed, kernel.Mach, 1, 1<<20, kernel.DefaultStream())
	if err != nil {
		t.Fatal(err)
	}
	if ps.Cycles != 4991656 || ps.TraceWords != 1250439 || ps.Events != 4698242 ||
		ps.UTLBMisses != 15 || ps.ModeSwitches != 6 {
		t.Errorf("PredictStream(sed, Mach, 1 MB): cycles %d trace words %d events %d utlb %d mode switches %d, "+
			"want 4991656 1250439 4698242 15 6",
			ps.Cycles, ps.TraceWords, ps.Events, ps.UTLBMisses, ps.ModeSwitches)
	}
	// The ring's accounting, the compressed bytes among it: each epoch
	// encodes to the same bytes whatever the codec's code shape.
	if want := (kernel.StreamStats{Epochs: 6, RawBytes: 5001756, EncodedBytes: 750089}); ps.Stream != want {
		t.Errorf("PredictStream(sed, Mach, 1 MB) stream stats %+v, want %+v", ps.Stream, want)
	}
	checkSim(t, "PredictStream(sed, Mach, 1 MB)", ps, simCounts{
		instr: 4125818, idle: 145,
		ic: [2]uint64{4125818, 2141}, dc: [2]uint64{422214, 2832}, tlb: [2]uint64{2521750, 15},
		wbWrites: 98003,
	})
	rows, err := experiment.BufferSizing(sed, []uint32{256 << 10, 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []experiment.BufferRow{
		{BufBytes: 256 << 10, ModeSwitches: 25, TracedInstr: 25843651, Cycles: 32877075},
		{BufBytes: 1 << 20, ModeSwitches: 4, TracedInstr: 25838197, Cycles: 32902413},
	} {
		r := rows[i]
		if r.ModeSwitches != want.ModeSwitches || r.TracedInstr != want.TracedInstr || r.Cycles != want.Cycles {
			t.Errorf("BufferSizing(sed, %d): mode switches %d traced instr %d cycles %d, want %d %d %d",
				want.BufBytes, r.ModeSwitches, r.TracedInstr, r.Cycles,
				want.ModeSwitches, want.TracedInstr, want.Cycles)
		}
	}
	// E13 corrupts the stream's first 4096 words, whichever deliveries
	// carry them.
	if detected, total, err := experiment.CorruptionDetection(sed); err != nil {
		t.Fatal(err)
	} else if detected != 237 || total != 586 {
		t.Errorf("CorruptionDetection(sed): %d of %d rejected, want 237 of 586", detected, total)
	}
}

// simCounts pins a prediction's trace-driven simulator: instructions,
// idle-loop instructions, {accesses, misses} of each cache and the TLB,
// and write-buffer writes.
type simCounts struct {
	instr, idle uint64
	ic, dc, tlb [2]uint64
	wbWrites    uint64
}

func checkSim(t *testing.T, what string, p *experiment.Predicted, want simCounts) {
	t.Helper()
	s := p.Sim
	got := simCounts{
		instr: s.Instr, idle: s.IdleInstr,
		ic:       [2]uint64{s.IC.Accesses, s.IC.Misses},
		dc:       [2]uint64{s.DC.Accesses, s.DC.Misses},
		tlb:      [2]uint64{s.TLB.Accesses, s.TLB.Misses},
		wbWrites: s.WB.Writes,
	}
	if got != want {
		t.Errorf("%s simulator: got %+v, want %+v", what, got, want)
	}
}
