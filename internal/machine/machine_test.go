package machine_test

import (
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/dev"
	"systrace/internal/isa"
	"systrace/internal/machine"
	"systrace/internal/memsys"
	"systrace/internal/obj"
)

func TestHaltRegisterStopsMachine(t *testing.T) {
	m := machine.New(1<<20, nil)
	va := uint32(0x80001000)
	words := []isa.Word{
		isa.LUI(isa.RegT0, 0xbf00),
		isa.ORI(isa.RegT0, isa.RegT0, uint16(dev.TraceCtlBase+8)),
		isa.ORI(isa.RegT1, isa.RegZero, 42),
		isa.SW(isa.RegT1, isa.RegT0, 0),
		isa.NOP,
	}
	for i, w := range words {
		m.RAM.WriteWord(va-cpu.KSeg0Base+uint32(i)*4, uint32(w))
	}
	m.CPU.PC = va
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if !m.Halted || m.ExitStatus != 42 {
		t.Fatalf("halted=%v status=%d", m.Halted, m.ExitStatus)
	}
}

func TestDoorbellAddsAnalysisTime(t *testing.T) {
	m := machine.New(1<<20, nil)
	m.TraceCtl.Handler = func(reason uint32) uint64 { return 9999 }
	va := uint32(0x80001000)
	words := []isa.Word{
		isa.LUI(isa.RegT0, 0xbf00),
		isa.ORI(isa.RegT0, isa.RegT0, uint16(dev.TraceCtlBase+dev.TraceDoorbell)),
		isa.ORI(isa.RegT1, isa.RegZero, 1),
		isa.SW(isa.RegT1, isa.RegT0, 0),
		isa.BREAK(0),
	}
	for i, w := range words {
		m.RAM.WriteWord(va-cpu.KSeg0Base+uint32(i)*4, uint32(w))
	}
	m.CPU.PC = va
	m.CPU.HaltOnBreak = true
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.ExtraCycles() != 9999 {
		t.Errorf("extra cycles %d", m.ExtraCycles())
	}
	if m.Cycles() <= m.CPU.Stat.Instret {
		t.Error("analysis time not in machine time")
	}
}

func TestBudgetExhaustionIsAnError(t *testing.T) {
	m := machine.New(1<<20, nil)
	// Infinite loop at the vector.
	m.RAM.WriteWord(0x1000, uint32(isa.J((0x80001000)>>2)))
	m.RAM.WriteWord(0x1004, 0)
	m.CPU.PC = 0x80001000
	if err := m.Run(1000); err == nil {
		t.Error("budget exhaustion must error")
	}
}

func TestSecondsConversion(t *testing.T) {
	if machine.Seconds(machine.ClockHz) != 1.0 {
		t.Error("one second of cycles is one second")
	}
}

// TestDeviceBusAndTiming drives the uncached device window through
// CPU loads/stores with an execution-driven timing model attached:
// device reads must return register state (not bus-error), and every
// kseg1 reference must be charged the uncached penalty.
func TestDeviceBusAndTiming(t *testing.T) {
	m := machine.New(1<<20, nil)
	tm := memsys.NewTiming(memsys.DECstation5000())
	m.AttachTiming(tm, tm)

	devBase := cpu.KSeg1Base + dev.DevBase
	va := uint32(0x80001000)
	words := []isa.Word{
		// Read the disk status register (idle = 0).
		isa.LUI(isa.RegT0, uint16((devBase+dev.DiskBase+dev.DiskStatus)>>16)),
		isa.ORI(isa.RegT0, isa.RegT0, uint16(devBase+dev.DiskBase+dev.DiskStatus)),
		isa.LW(isa.RegT1, isa.RegT0, 0),
		// Write then read back the clock interval register.
		isa.LUI(isa.RegT2, uint16((devBase+dev.ClockBase+dev.ClockInterval)>>16)),
		isa.ORI(isa.RegT2, isa.RegT2, uint16(devBase+dev.ClockBase+dev.ClockInterval)),
		isa.ORI(isa.RegT3, isa.RegZero, 5000),
		isa.SW(isa.RegT3, isa.RegT2, 0),
		isa.BREAK(0),
	}
	for i, w := range words {
		m.RAM.WriteWord(va-cpu.KSeg0Base+uint32(i)*4, uint32(w))
	}
	m.CPU.PC = va
	m.CPU.HaltOnBreak = true
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU.GPR[isa.RegT1]; got != 0 {
		t.Errorf("disk status = %d want 0 (idle)", got)
	}
	if tm.UncachedStalls == 0 {
		t.Error("uncached device references not charged by the timing model")
	}
	if m.Cycles() <= m.CPU.Stat.Instret {
		t.Error("stall cycles not included in machine time")
	}
	if m.ExtraCycles() != 0 {
		t.Errorf("extra cycles %d with no doorbell", m.ExtraCycles())
	}
}

// TestLoadKernelPlacesImage: text lands at the kseg0 physical mirror
// and entry becomes the PC; non-kseg0 bases are rejected.
func TestLoadKernelPlacesImage(t *testing.T) {
	m := machine.New(1<<20, nil)
	k := &obj.Executable{
		TextBase: 0x80001000,
		DataBase: 0x80002000,
		Entry:    0x80001000,
		Text:     []uint32{uint32(isa.ORI(isa.RegT0, 0, 7)), uint32(isa.BREAK(0))},
		Data:     []byte{1, 2, 3, 4},
	}
	if err := m.LoadKernel(k); err != nil {
		t.Fatal(err)
	}
	m.CPU.HaltOnBreak = true
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if m.CPU.GPR[isa.RegT0] != 7 {
		t.Error("kernel text did not execute")
	}
	if got := m.RAM.ReadWord(0x2000); got != 0x01020304 {
		t.Errorf("kernel data = 0x%08x", got)
	}
	bad := &obj.Executable{TextBase: 0x00400000}
	if err := machine.New(1<<20, nil).LoadKernel(bad); err == nil {
		t.Error("user-space kernel base accepted")
	}
}
