package cpu_test

import (
	"fmt"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/isa"
	"systrace/internal/machine"
)

// put assembles a word sequence into kseg0 memory at va.
func put(m *machine.Machine, va uint32, ws ...isa.Word) {
	for i, w := range ws {
		m.RAM.WriteWord(va-cpu.KSeg0Base+uint32(i)*4, uint32(w))
	}
}

func newM() *machine.Machine {
	m := machine.New(1<<20, nil)
	m.CPU.HaltOnBreak = true
	return m
}

func TestDelaySlotSemantics(t *testing.T) {
	m := newM()
	// li t0, 1; beq zero,zero,+2 (to target); addiu t0, t0, 10 (slot);
	// addiu t0, t0, 100 (skipped); target: break
	put(m, 0x80001000,
		isa.ORI(isa.RegT0, 0, 1),
		isa.BEQ(0, 0, 2),
		isa.ADDIU(isa.RegT0, isa.RegT0, 10),
		isa.ADDIU(isa.RegT0, isa.RegT0, 100),
		isa.BREAK(0),
	)
	m.CPU.PC = 0x80001000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU.GPR[isa.RegT0]; got != 11 {
		t.Errorf("delay slot executed wrong: t0=%d want 11", got)
	}
}

func TestJALReturnAddress(t *testing.T) {
	m := newM()
	put(m, 0x80001000,
		isa.JAL(0x80001010>>2),
		isa.NOP,
		isa.BREAK(0), // return lands here
		isa.NOP,
		// 0x1010: leaf: jr ra; nop
		isa.JR(isa.RegRA),
		isa.NOP,
	)
	m.CPU.PC = 0x80001000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.CPU.PC != 0x80001008 {
		t.Errorf("returned to 0x%x, want 0x80001008", m.CPU.PC)
	}
}

func TestExceptionInDelaySlotSetsBD(t *testing.T) {
	m := newM()
	// General vector at 0x80000080: just record and return skipping.
	// Handler: mfc0 k0, EPC; addiu k0, 8 (skip branch + slot); jr k0; rfe
	put(m, 0x80000080,
		isa.MFC0(isa.RegK0, isa.C0EPC),
		isa.ADDIU(isa.RegK0, isa.RegK0, 8),
		isa.JR(isa.RegK0),
		isa.RFE(),
	)
	// Program: jal target with a syscall in the delay slot.
	put(m, 0x80001000,
		isa.JAL(0x80001010>>2),
		isa.SYSCALL(), // delay slot: traps with BD set
		isa.BREAK(0),
		isa.NOP,
		isa.BREAK(1), // jal target (skipped by handler)
		isa.NOP,
	)
	m.CPU.PC = 0x80001000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if m.CPU.CP0.Cause&cpu.CauseBD == 0 {
		t.Error("BD not set for delay-slot exception")
	}
	if m.CPU.CP0.EPC != 0x80001000 {
		t.Errorf("EPC=0x%x, want the branch address 0x80001000", m.CPU.CP0.EPC)
	}
}

func TestTLBRefillAndASIDs(t *testing.T) {
	m := newM()
	c := m.CPU
	// Map user page 0x1000 for asid 1 -> phys 0x5000 via TLBWR.
	c.CP0.EntryHi = 0x1000 | 1<<cpu.ASIDShift
	c.CP0.EntryLo = 0x5000 | cpu.EloV | cpu.EloD
	c.TLB[8] = cpu.TLBEntry{Hi: c.CP0.EntryHi, Lo: c.CP0.EntryLo}
	m.RAM.WriteWord(0x5000, 0xdeadbeef)

	// Kernel-mode load through the mapping with asid 1.
	put(m, 0x80001000,
		isa.LUI(isa.RegT0, 0),
		isa.ORI(isa.RegT0, isa.RegT0, 0x1000),
		isa.LW(isa.RegT1, isa.RegT0, 0),
		isa.BREAK(0),
	)
	c.PC = 0x80001000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.GPR[isa.RegT1] != 0xdeadbeef {
		t.Errorf("mapped load got 0x%x", c.GPR[isa.RegT1])
	}

	// Different ASID must miss (vector to 0x80000000).
	c2 := machine.New(1<<20, nil)
	c2.CPU.HaltOnBreak = true
	c2.CPU.TLB[8] = cpu.TLBEntry{Hi: 0x1000 | 1<<cpu.ASIDShift, Lo: 0x5000 | cpu.EloV | cpu.EloD}
	c2.CPU.CP0.EntryHi = 2 << cpu.ASIDShift    // asid 2
	put(c2, 0x80000000, isa.BREAK(2), isa.NOP) // UTLB vector: stop here
	put(c2, 0x80001000,
		isa.ORI(isa.RegT0, 0, 0x1000),
		isa.LW(isa.RegT1, isa.RegT0, 0),
		isa.BREAK(0),
	)
	c2.CPU.PC = 0x80001000
	if err := c2.Run(100); err != nil {
		t.Fatal(err)
	}
	if c2.CPU.Stat.UTLBMisses != 1 {
		t.Errorf("expected a UTLB miss for foreign asid, got %d", c2.CPU.Stat.UTLBMisses)
	}
}

func TestGlobalTLBEntryIgnoresASID(t *testing.T) {
	m := newM()
	c := m.CPU
	c.TLB[9] = cpu.TLBEntry{Hi: 0x2000, Lo: 0x6000 | cpu.EloV | cpu.EloD | cpu.EloG}
	c.CP0.EntryHi = 5 << cpu.ASIDShift
	m.RAM.WriteWord(0x6004, 77)
	put(m, 0x80001000,
		isa.ORI(isa.RegT0, 0, 0x2000),
		isa.LW(isa.RegT1, isa.RegT0, 4),
		isa.BREAK(0),
	)
	c.PC = 0x80001000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if c.GPR[isa.RegT1] != 77 {
		t.Errorf("global entry load got %d", c.GPR[isa.RegT1])
	}
	if c.Stat.UTLBMisses != 0 {
		t.Error("global entry must match any asid")
	}
}

func TestStatusStackRFE(t *testing.T) {
	m := newM()
	c := m.CPU
	// Status: user prev, kernel cur after an exception push.
	c.CP0.Status = cpu.StKUp | cpu.StIEp
	// The RFE sits in the delay slot of the jump to user text: kseg0
	// text is not fetchable once the stack pops to user mode.
	c.TLB[8] = cpu.TLBEntry{Hi: 0x00400000, Lo: 0x4000 | cpu.EloV | cpu.EloG}
	m.RAM.WriteWord(0x4000, uint32(isa.BREAK(0)))
	put(m, 0x80001000,
		isa.LUI(isa.RegK0, 0x0040),
		isa.JR(isa.RegK0),
		isa.RFE(),
	)
	c.PC = 0x80001000
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.CP0.Status&cpu.StKUc == 0 || c.CP0.Status&cpu.StIEc == 0 {
		t.Errorf("rfe did not pop KU/IE: status=0x%x", c.CP0.Status)
	}
}

// TestUserModeProtection: a user-mode fetch from kseg0 raises AdEL,
// both with cold translation caches and after kernel code on the same
// page left its translation cached (the mode switch here is a direct
// Status write, so no exception or COP0 op intervenes).
func TestUserModeProtection(t *testing.T) {
	for _, warm := range []bool{false, true} {
		t.Run(fmt.Sprintf("warm=%v", warm), func(t *testing.T) {
			bothEngines(t, func(t *testing.T, pd bool) {
				m := newM()
				c := m.CPU
				c.SetSuperblocks(pd)
				// General handler: halt (break).
				put(m, 0x80000080, isa.BREAK(3), isa.NOP)
				put(m, 0x80001000,
					isa.ORI(isa.RegT0, 0, 1),
					isa.BREAK(0),
				)
				if warm {
					c.PC = 0x80001000
					if err := m.Run(10); err != nil {
						t.Fatal(err)
					}
					if c.GPR[isa.RegT0] != 1 {
						t.Fatal("kernel run did not execute the page")
					}
					c.Halted = false
				}
				c.CP0.Status = cpu.StKUc // user mode
				// In user mode the PC itself is in kseg0 -> AdEL on fetch.
				c.PC = 0x80001000
				if err := m.Run(10); err != nil {
					t.Fatal(err)
				}
				code := int(c.CP0.Cause >> cpu.CauseExcShift & 31)
				if code != cpu.ExcAdEL || c.CP0.BadVAddr != 0x80001000 {
					t.Errorf("user kseg0 fetch cause=%d BadVAddr=0x%08x, want AdEL at 0x80001000", code, c.CP0.BadVAddr)
				}
			})
		})
	}
}

func TestInterruptDelivery(t *testing.T) {
	m := newM()
	c := m.CPU
	put(m, 0x80000080, isa.BREAK(4), isa.NOP) // general vector
	put(m, 0x80001000,
		isa.ORI(isa.RegT0, 0, 0), // spin
		isa.BEQ(0, 0, -2),
		isa.NOP,
	)
	c.PC = 0x80001000
	c.CP0.Status = cpu.StIEc | 1<<(cpu.StIMShift) // enable line 0
	c.SetIRQ(0, true)
	if err := m.Run(20); err != nil {
		t.Fatal(err)
	}
	if c.Stat.Interrupts != 1 {
		t.Errorf("interrupts=%d want 1", c.Stat.Interrupts)
	}
	if int(c.CP0.Cause>>cpu.CauseExcShift&31) != cpu.ExcInt {
		t.Error("cause is not interrupt")
	}
}

func TestFloatingPoint(t *testing.T) {
	m := newM()
	c := m.CPU
	c.FPR[4] = 6.0
	c.FPR[6] = 7.0
	put(m, 0x80001000,
		isa.FMUL(2, 4, 6),
		isa.CVTWD(8, 2),
		isa.MFC1(isa.RegT0, 8),
		isa.BREAK(0),
	)
	c.PC = 0x80001000
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.GPR[isa.RegT0] != 42 {
		t.Errorf("6*7 = %d", c.GPR[isa.RegT0])
	}
}

func TestFPMemoryIs8Bytes(t *testing.T) {
	m := newM()
	c := m.CPU
	c.FPR[2] = 3.25
	put(m, 0x80001000,
		isa.LUI(isa.RegT0, 0x8000),
		isa.ORI(isa.RegT0, isa.RegT0, 0x2000),
		isa.SWC1(2, isa.RegT0, 0),
		isa.LWC1(4, isa.RegT0, 0),
		isa.BREAK(0),
	)
	c.PC = 0x80001000
	if err := m.Run(10); err != nil {
		t.Fatal(err)
	}
	if c.FPR[4] != 3.25 {
		t.Errorf("fp round trip got %v", c.FPR[4])
	}
}
