// Package sim provides a bare-metal harness: it links objects against
// a minimal kseg0 startup stub and runs them with no kernel, halting
// at a break instruction. The toolchain test suites (mahler, epoxie,
// pixie) use it to validate generated and rewritten code against the
// interpreter — the same tool-vs-independent-simulator cross-check the
// paper used to establish the correctness of epoxie instrumentation
// (§4.3: "validated by comparing epoxie trace for deterministic user
// programs to trace from a CPU simulator").
package sim

import (
	"fmt"

	"systrace/internal/asm"
	"systrace/internal/cpu"
	"systrace/internal/isa"
	"systrace/internal/link"
	"systrace/internal/machine"
	"systrace/internal/obj"
	"systrace/internal/trace"
)

// Bare-metal layout: everything in kseg0 so no TLB is involved.
const (
	BareTextBase = 0x80001000
	BareDataBase = 0x80100000
	BareStackTop = 0x80380000
	// BareBook is the trace bookkeeping area for bare traced runs; the
	// trace buffer follows it.
	BareBook     = 0x80400000
	BareBufBytes = 0x00380000
	BareRAM      = 8 << 20
)

// StartObj builds the `_start` stub: set sp, call main, break. main's
// return value is left in v0.
func StartObj() *obj.File {
	a := asm.New("crt0")
	a.Func("_start", asm.NoInstrument)
	a.LI(29, BareStackTop) // sp
	a.JalSym("main")
	a.I(0)          // nop (delay slot)
	a.I(0x0000000d) // break 0
	a.I(0)
	return a.MustFinish()
}

// TracedStartObj builds the `_start` stub for bare traced runs: it
// initializes the stack, points xreg3 at the bookkeeping area, sets
// the buffer pointer and limit, calls main, and breaks. The buffer
// occupies [BareBook+BookSize, BareBook+BareBufBytes).
func TracedStartObj() *obj.File {
	a := asm.New("crt0t")
	a.Func("_start", asm.NoInstrument)
	a.LI(isa.RegSP, BareStackTop)
	a.LI(isa.XReg3, BareBook)
	a.LI(isa.RegAT, BareBook+trace.BookSize)
	a.I(isa.SW(isa.RegAT, isa.XReg3, trace.BookBufPtr))
	a.LI(isa.RegAT, BareBook+BareBufBytes)
	a.I(isa.SW(isa.RegAT, isa.XReg3, trace.BookBufEnd))
	a.JalSym("main")
	a.I(isa.NOP)
	a.I(isa.BREAK(0))
	a.I(isa.NOP)
	return a.MustFinish()
}

// TraceWords extracts the raw trace words a bare traced run produced.
func TraceWords(m *machine.Machine) []uint32 {
	end := ReadWord(m, BareBook+trace.BookBufPtr)
	start := uint32(BareBook + trace.BookSize)
	out := make([]uint32, 0, (end-start)/4)
	for p := start; p < end; p += 4 {
		out = append(out, ReadWord(m, p))
	}
	return out
}

// BuildBare links objs (plus the startup stub) into a bare executable.
func BuildBare(name string, objs ...*obj.File) (*obj.Executable, error) {
	all := append([]*obj.File{StartObj()}, objs...)
	return link.Link(all, link.Options{
		Name:     name,
		TextBase: BareTextBase,
		DataBase: BareDataBase,
	})
}

// BuildBareObjs links the given objects (the first of which must
// provide _start) at the bare layout.
func BuildBareObjs(name string, objs []*obj.File) (*obj.Executable, error) {
	return link.Link(objs, link.Options{
		Name:     name,
		TextBase: BareTextBase,
		DataBase: BareDataBase,
	})
}

// NewBareMachine loads a bare executable into a fresh machine without
// running it. The machine halts at the first break instruction.
func NewBareMachine(e *obj.Executable) *machine.Machine {
	m := machine.New(BareRAM, nil)
	if err := loadBare(m, e); err != nil {
		panic(err) // bare images always fit BareRAM by construction
	}
	m.CPU.HaltOnBreak = true
	return m
}

// Run executes a bare executable and returns the machine (for memory
// and register inspection).
func Run(e *obj.Executable, maxInstr uint64) (*machine.Machine, error) {
	m := machine.New(BareRAM, nil)
	if err := loadBare(m, e); err != nil {
		return nil, err
	}
	m.CPU.HaltOnBreak = true
	if err := m.Run(maxInstr); err != nil {
		return m, err
	}
	if !m.CPU.Halted {
		return m, fmt.Errorf("sim: %s did not halt", e.Name)
	}
	return m, nil
}

// RunResult builds, runs, and returns main's return value (v0).
func RunResult(e *obj.Executable, maxInstr uint64) (uint32, *machine.Machine, error) {
	m, err := Run(e, maxInstr)
	if err != nil {
		return 0, m, err
	}
	return m.CPU.GPR[2], m, nil
}

func loadBare(m *machine.Machine, e *obj.Executable) error {
	text := make([]byte, len(e.Text)*4)
	for i, w := range e.Text {
		text[i*4] = byte(w >> 24)
		text[i*4+1] = byte(w >> 16)
		text[i*4+2] = byte(w >> 8)
		text[i*4+3] = byte(w)
	}
	if err := m.RAM.WriteBytes(e.TextBase-cpu.KSeg0Base, text); err != nil {
		return err
	}
	if err := m.RAM.WriteBytes(e.DataBase-cpu.KSeg0Base, e.Data); err != nil {
		return err
	}
	m.CPU.PC = e.Entry
	return nil
}

// ReadWord reads a word of guest memory at a kseg0 virtual address
// (zero when the word is not inside RAM).
func ReadWord(m *machine.Machine, va uint32) uint32 {
	return m.RAM.ReadWord(va - cpu.KSeg0Base)
}

// ReadBytes copies n bytes of guest memory at a kseg0 virtual address;
// it returns nil when n is negative or the range is not kseg0 memory
// inside RAM.
func ReadBytes(m *machine.Machine, va uint32, n int) []byte {
	pa := va - cpu.KSeg0Base
	if va < cpu.KSeg0Base || n < 0 || uint64(pa)+uint64(n) > uint64(m.RAM.Size()) {
		return nil
	}
	out := make([]byte, n)
	m.RAM.ReadAt(pa, out)
	return out
}
