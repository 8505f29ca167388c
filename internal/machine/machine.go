// Package machine composes the simulated DECstation-like computer:
// CPU, physical memory, and devices, with a cycle-accurate run loop.
// Machine time (cycles) is instructions retired plus memory-system
// stall cycles (when an execution-driven memory model is attached)
// plus the wall time of trace-analysis phases. Devices — most
// importantly the disk and the interval clock — run on machine time,
// which is what makes instrumentation-induced time dilation behave as
// it did on real hardware (paper §4.1).
package machine

import (
	"fmt"

	"systrace/internal/cpu"
	"systrace/internal/dev"
	"systrace/internal/mem"
	"systrace/internal/obj"
)

// Staller reports accumulated memory stall cycles; the execution-driven
// memory system simulator implements it (along with cpu.Observer).
type Staller interface {
	StallCycles() uint64
}

// ClockHz is the processor frequency: 25 MHz, as on the DECstation
// 5000/200.
const ClockHz = 25_000_000

// Halt register: a store here stops the machine (the kernel's final
// act). The value is the exit status.
const haltOffset = dev.TraceCtlBase + 0x8

// Machine is one simulated computer.
type Machine struct {
	RAM      *mem.RAM
	CPU      *cpu.CPU
	Clock    *dev.Clock
	Console  *dev.Console
	Disk     *dev.Disk
	TraceCtl *dev.TraceCtl

	extraCycles   uint64 // analysis-phase time
	overlapCycles uint64 // analysis retired concurrently with generation
	stall         Staller
	nextEvent     uint64

	Halted     bool
	ExitStatus uint32
}

// New builds a machine with the given RAM size and disk image.
func New(ramSize uint32, diskImage []byte) *Machine {
	m := &Machine{RAM: mem.NewRAM(ramSize)}
	m.CPU = cpu.New(m, 0)
	// Every store path that bypasses the CPU's own write port must
	// still invalidate predecoded text: host-side writes through the
	// RAM API report here, and the disk DMAs through the machine (see
	// Bytes/DMAWrote) so raw-slice transfers report too.
	m.RAM.SetWriteHook(m.CPU.InvalidatePhys)
	m.Clock = dev.NewClock(m.CPU)
	m.Console = &dev.Console{}
	m.Disk = dev.NewDisk(m.CPU, m, diskImage, dev.DefaultDiskParams)
	m.TraceCtl = &dev.TraceCtl{}
	m.nextEvent = ^uint64(0)
	return m
}

// Bytes implements dev.DMA.
func (m *Machine) Bytes() []byte { return m.RAM.Bytes() }

// DMAWrote implements dev.WriteNotifier: device writes into physical
// memory invalidate any predecoded frames under the transfer.
func (m *Machine) DMAWrote(p, n uint32) { m.CPU.InvalidatePhys(p, n) }

// AttachTiming connects an execution-driven memory model: obs sees
// every reference; stall contributes to machine time.
func (m *Machine) AttachTiming(obs cpu.Observer, stall Staller) {
	m.CPU.Obs = obs
	m.stall = stall
}

// Cycles returns current machine time.
func (m *Machine) Cycles() uint64 {
	c := m.CPU.Stat.Instret + m.extraCycles
	if m.stall != nil {
		c += m.stall.StallCycles()
	}
	return c
}

// ExtraCycles returns time consumed by analysis phases.
func (m *Machine) ExtraCycles() uint64 { return m.extraCycles }

// AddExtraCycles advances machine time without executing instructions
// (used by the analysis doorbell).
func (m *Machine) AddExtraCycles(c uint64) { m.extraCycles += c }

// AddOverlapCycles records analysis work retired concurrently with
// generation (the streaming drain's consumer). Unlike extra cycles it
// does not advance machine time — that is the point of overlapping —
// but keeps the hidden analysis share observable.
func (m *Machine) AddOverlapCycles(c uint64) { m.overlapCycles += c }

// OverlapCycles returns analysis cycles retired concurrently with
// generation (zero outside streaming mode).
func (m *Machine) OverlapCycles() uint64 { return m.overlapCycles }

func (m *Machine) isDev(p uint32) bool {
	return p >= dev.DevBase && p < dev.DevBase+dev.DevSize
}

// Read implements cpu.Bus.
func (m *Machine) Read(p uint32, size int) (uint32, bool) {
	if m.isDev(p) {
		off := p - dev.DevBase
		switch {
		case off < dev.ConsoleBase:
			return m.Clock.Read(off - dev.ClockBase), true
		case off < dev.DiskBase:
			return m.Console.Read(off - dev.ConsoleBase), true
		case off < dev.TraceCtlBase:
			return m.Disk.Read(off - dev.DiskBase), true
		default:
			return m.TraceCtl.Read(off - dev.TraceCtlBase), true
		}
	}
	return m.RAM.Read(p, size)
}

// Write implements cpu.Bus.
func (m *Machine) Write(p uint32, size int, v uint32) bool {
	if m.isDev(p) {
		off := p - dev.DevBase
		now := m.Cycles()
		switch {
		case off == haltOffset:
			m.Halted = true
			m.ExitStatus = v
			m.CPU.Halted = true
		case off < dev.ConsoleBase:
			m.Clock.Write(now, off-dev.ClockBase, v)
		case off < dev.DiskBase:
			m.Console.Write(off-dev.ConsoleBase, v)
		case off < dev.TraceCtlBase:
			m.Disk.Write(now, off-dev.DiskBase, v)
		default:
			extra := m.TraceCtl.Write(off-dev.TraceCtlBase, v)
			m.extraCycles += extra
		}
		m.refreshNextEvent()
		return true
	}
	return m.RAM.Write(p, size, v)
}

// FetchWord implements cpu.Bus.
func (m *Machine) FetchWord(p uint32) (uint32, bool) {
	if m.isDev(p) {
		return 0, false
	}
	return m.RAM.Read(p, 4)
}

// RAMPage implements cpu.Bus.
func (m *Machine) RAMPage(p uint32) []byte {
	if m.isDev(p) {
		return nil
	}
	return m.RAM.Page(p)
}

func (m *Machine) refreshNextEvent() {
	n := m.Clock.NextEvent()
	if d := m.Disk.NextEvent(); d < n {
		n = d
	}
	m.nextEvent = n
}

// Run executes until the machine halts or maxInstr instructions have
// retired. It returns an error for simulator-level faults (a bug in
// guest code generation, never normal operation).
func (m *Machine) Run(maxInstr uint64) error {
	c := m.CPU
	limit := c.Stat.Instret + maxInstr
	m.refreshNextEvent()
	// Step in bursts between device events to keep the per-instruction
	// loop overhead low. Two loops, chosen by whether a stall model is
	// attached:
	//
	// A stall model adds time on every instruction, so only the burst
	// bound keeps event delivery close: bursts stay at 64 instructions
	// and run one Step at a time (the observer that feeds the model
	// keeps StepN off superblock chains anyway). Events are checked
	// only between bursts: the measured numbers depend on it.
	//
	// Without one, machine time advances in instruction-sized steps
	// except at doorbell writes (an active analysis handler adds cycles
	// there), so bursts run long and the mid-burst checks deliver any
	// overdue event right after the doorbell or device write that made
	// it due. Each StepN is one superblock dispatch or one Step, and a
	// chain leaves at every exception, COP0 op, and device access, so
	// the check after each call is as close as stepping one at a time.
	maxBurst := uint64(64)
	if m.stall == nil {
		maxBurst = 16384
	}
	for !m.Halted && !c.Halted && c.Stat.Instret < limit {
		burst := maxBurst
		now := m.Cycles()
		if m.nextEvent > now && m.nextEvent-now < burst {
			burst = m.nextEvent - now
		}
		if burst == 0 {
			burst = 1
		}
		if c.Stat.Instret+burst > limit {
			burst = limit - c.Stat.Instret
		}
		if m.stall != nil {
			for i := uint64(0); i < burst; i++ {
				if !c.Step() {
					break
				}
			}
			// Guest-PC sampling for the stepped burst: skew bounded by
			// the burst (StepN samples exactly on its own).
			c.ProfPoll()
		} else {
			ne := m.nextEvent
			for i := uint64(0); i < burst && !c.Halted; {
				i += c.StepN(burst - i)
				if m.nextEvent != ne || m.Cycles() >= ne {
					break
				}
			}
		}
		if c.FaultMsg != "" {
			return fmt.Errorf("machine fault at pc=0x%08x: %s", c.PC, c.FaultMsg)
		}
		if now = m.Cycles(); now >= m.nextEvent {
			m.Clock.Advance(now)
			m.Disk.Advance(now)
			m.refreshNextEvent()
		}
	}
	if !m.Halted && !c.Halted && c.Stat.Instret >= limit {
		return fmt.Errorf("machine: instruction budget %d exhausted at pc=0x%08x (livelock?)",
			maxInstr, c.PC)
	}
	return nil
}

// LoadKernel copies a kernel executable (linked for kseg0) into
// physical memory and points the CPU at its entry.
func (m *Machine) LoadKernel(k *obj.Executable) error {
	if k.TextBase < cpu.KSeg0Base || k.TextBase >= cpu.KSeg1Base {
		return fmt.Errorf("machine: kernel text base 0x%x not in kseg0", k.TextBase)
	}
	text := make([]byte, len(k.Text)*4)
	for i, w := range k.Text {
		text[i*4] = byte(w >> 24)
		text[i*4+1] = byte(w >> 16)
		text[i*4+2] = byte(w >> 8)
		text[i*4+3] = byte(w)
	}
	if err := m.RAM.WriteBytes(k.TextBase-cpu.KSeg0Base, text); err != nil {
		return err
	}
	if err := m.RAM.WriteBytes(k.DataBase-cpu.KSeg0Base, k.Data); err != nil {
		return err
	}
	m.CPU.PC = k.Entry
	return nil
}

// Seconds converts machine cycles to simulated seconds at ClockHz.
func Seconds(cycles uint64) float64 { return float64(cycles) / ClockHz }
