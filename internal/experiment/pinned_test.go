package experiment_test

import (
	"testing"

	"systrace/internal/experiment"
	"systrace/internal/kernel"
)

// TestPinnedCounts pins the simulated counts of one measurement per
// kernel, one prediction, and two buffer-sizing boots. The differential oracle compares engines
// against each other with no stall model attached; these numbers
// additionally hold the execution-driven Timing model's event timing
// (Measure) and the traced two-phase pipeline (Predict) fixed, so a
// change to the run loops or the execution tiers that shifts an
// interrupt or a doorbell by one instruction shows up here. The
// buffer-sizing rows hold its traced boots (Ultrix, page-mapping
// seed 0, two-phase drain, non-default buffers) to the same counts.
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
	rows, err := experiment.BufferSizing(sed, []uint32{256 << 10, 1 << 20}, kernel.StreamConfig{})
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
}
