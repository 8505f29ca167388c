// Package dev implements the memory-mapped devices of the simulated
// machine: the programmable interval clock (whose rate the traced
// systems retune to 1/15th to compensate for time dilation, paper
// §4.1), a DMA disk with seek/transfer latency (whose read-ahead
// interactions with tracing the paper analyzes in §5.1), a console,
// and the trace-control doorbell through which the kernel hands the
// in-kernel buffer to the analysis program.
//
// Device time is the machine cycle counter; the machine calls Advance
// as cycles accumulate and devices raise CPU interrupt lines.
package dev

import "math"

// IRQ lines.
const (
	IRQClock = 0
	IRQDisk  = 1
)

// Physical device window. The kernel reaches it through kseg1
// (uncached) at va = 0xa0000000 + DevBase.
const (
	DevBase = 0x1f000000
	DevSize = 0x10000

	ClockBase    = 0x0000
	ConsoleBase  = 0x0100
	DiskBase     = 0x0200
	TraceCtlBase = 0x0300
)

// Clock register offsets (from ClockBase).
const (
	ClockAck      = 0x0 // write: acknowledge interrupt
	ClockInterval = 0x4 // write: set interval in cycles (0 = off)
	ClockCount    = 0x8 // read: interrupts raised so far
)

// Console register offsets.
const (
	ConsolePutc = 0x0 // write: emit byte
	ConsoleGetc = 0x4 // read: next input byte or 0xffffffff
)

// Disk register offsets.
const (
	DiskSector = 0x00 // write: starting sector
	DiskAddr   = 0x04 // write: physical DMA address
	DiskNSect  = 0x08 // write: sector count
	DiskCmd    = 0x0c // write: 1=read, 2=write; queues the operation
	DiskStatus = 0x10 // read: bit0 busy, bit1 interrupt pending
	DiskAck    = 0x14 // write: acknowledge completion interrupt
	// DiskDone counts completed operations. Interrupts coalesce when
	// several operations finish before the handler acknowledges; the
	// kernel drains its queue mirror against this counter instead of
	// assuming one completion per interrupt.
	DiskDone = 0x18
)

// TraceCtl register offsets.
const (
	TraceDoorbell = 0x0 // write: invoke the analysis program (value = reason)
	TraceExtra    = 0x4 // read: cycles consumed by the last analysis phase (high word dropped)
)

// Doorbell reason codes.
const (
	DoorbellBufferFull = 1 // in-kernel buffer full: run trace analysis
	DoorbellFlush      = 2 // final drain at end of experiment
)

// Raiser is the interrupt input of the CPU.
type Raiser interface {
	SetIRQ(line int, on bool)
}

// DMA is the disk's path to physical memory. Transfers go through the
// RAM API a sector run at a time, so they split on frame boundaries,
// allocate the frames a read lands in, and report every write to the
// RAM's write hook (the machine's predecode invalidation), exactly as
// a host-side loader's writes do. Both report false, moving nothing,
// when the range leaves RAM.
type DMA interface {
	ReadAt(p uint32, dst []byte) bool
	WriteAt(p uint32, src []byte) bool
}

const never = math.MaxUint64

// Clock is the programmable interval timer.
type Clock struct {
	irq      Raiser
	interval uint64
	next     uint64
	pending  bool
	Raised   uint64 // statistics: interrupts raised
}

// NewClock returns a stopped clock.
func NewClock(irq Raiser) *Clock { return &Clock{irq: irq, next: never} }

// SetInterval programs the period; 0 stops the clock.
func (c *Clock) SetInterval(now, cycles uint64) {
	c.interval = cycles
	if cycles == 0 {
		c.next = never
	} else {
		c.next = now + cycles
	}
}

// NextEvent returns the cycle of the next pending event.
func (c *Clock) NextEvent() uint64 { return c.next }

// Advance fires the clock if due.
func (c *Clock) Advance(now uint64) {
	if now < c.next {
		return
	}
	c.pending = true
	c.Raised++
	c.irq.SetIRQ(IRQClock, true)
	if c.interval == 0 {
		c.next = never
	} else {
		// Keep phase: schedule from the deadline, not from now, so a
		// long analysis phase yields a burst no larger than one tick
		// (ticks don't accumulate while acknowledged late).
		c.next = now + c.interval
	}
}

// Write handles a register store.
func (c *Clock) Write(now uint64, off uint32, v uint32) {
	switch off {
	case ClockAck:
		c.pending = false
		c.irq.SetIRQ(IRQClock, false)
	case ClockInterval:
		c.SetInterval(now, uint64(v))
	}
}

// Read handles a register load.
func (c *Clock) Read(off uint32) uint32 {
	if off == ClockCount {
		return uint32(c.Raised)
	}
	return 0
}

// Console is the character device.
type Console struct {
	Out []byte
	In  []byte
}

// Write handles a register store.
func (c *Console) Write(off uint32, v uint32) {
	if off == ConsolePutc {
		c.Out = append(c.Out, byte(v))
	}
}

// Read handles a register load.
func (c *Console) Read(off uint32) uint32 {
	if off == ConsoleGetc {
		if len(c.In) == 0 {
			return 0xffffffff
		}
		b := c.In[0]
		c.In = c.In[1:]
		return uint32(b)
	}
	return 0
}

// String returns the console output so far.
func (c *Console) String() string { return string(c.Out) }

const (
	// SectorSize is the disk sector size in bytes.
	SectorSize = 512
	diskQueue  = 16
)

// DiskParams model latency. The numbers are scaled for the scaled-down
// workloads (see DESIGN.md): what matters for the validation is that
// disk latency is *constant in cycles* regardless of instrumentation,
// which is what produces the paper's time-dilation effects — a traced
// run executes ~15x the instructions per disk operation, so operations
// that induce idle time in the untraced system complete "for free"
// under tracing (the compress read-ahead effect, §5.1).
type DiskParams struct {
	SeekCycles     uint64 // charged when the head moves
	PerSectorCycle uint64 // transfer time per sector
}

// DefaultDiskParams approximates a fast 1990 SCSI disk against a
// 25 MHz CPU, scaled by the same ~100x factor as the workloads.
var DefaultDiskParams = DiskParams{SeekCycles: 12000, PerSectorCycle: 400}

type diskOp struct {
	sector uint32
	addr   uint32
	nsect  uint32
	write  bool
	done   uint64 // completion cycle (0 while queued)
}

// Disk is the DMA disk controller. Operations queue behind one another
// and complete in order; each completion raises IRQDisk until
// acknowledged.
type Disk struct {
	irq    Raiser
	ram    DMA
	Image  []byte
	params DiskParams

	sector, addr, nsect uint32
	queue               []diskOp
	pending             bool
	lastEnd             uint32 // sector after the last op, for seek model
	next                uint64

	Reads, Writes   uint64 // statistics: operations completed
	Done            uint64 // total completions (read by the kernel)
	SectorsMoved    uint64
	SeeksPerformed  uint64
	BytesTransfered uint64
}

// NewDisk returns a disk over the given image.
func NewDisk(irq Raiser, ram DMA, image []byte, p DiskParams) *Disk {
	return &Disk{irq: irq, ram: ram, Image: image, params: p, next: never}
}

// Busy reports whether operations are in flight.
func (d *Disk) Busy() bool { return len(d.queue) > 0 }

// NextEvent returns the cycle of the next completion.
func (d *Disk) NextEvent() uint64 { return d.next }

func (d *Disk) schedule(now uint64) {
	if len(d.queue) == 0 {
		d.next = never
		return
	}
	op := &d.queue[0]
	if op.done == 0 {
		lat := d.params.PerSectorCycle * uint64(op.nsect)
		if op.sector != d.lastEnd {
			lat += d.params.SeekCycles
			d.SeeksPerformed++
		}
		op.done = now + lat
	}
	d.next = op.done
}

// Advance completes due operations.
func (d *Disk) Advance(now uint64) {
	for len(d.queue) > 0 && d.queue[0].done != 0 && d.queue[0].done <= now {
		op := d.queue[0]
		d.queue = d.queue[1:]
		d.complete(op)
		d.schedule(op.done)
	}
	if len(d.queue) > 0 {
		d.schedule(now)
	}
}

func (d *Disk) complete(op diskOp) {
	n := int(op.nsect) * SectorSize
	imgOff := int(op.sector) * SectorSize
	if imgOff+n <= len(d.Image) {
		img := d.Image[imgOff : imgOff+n]
		switch {
		case op.write && d.ram.ReadAt(op.addr, img):
			d.Writes++
			d.BytesTransfered += uint64(n)
		case !op.write && d.ram.WriteAt(op.addr, img):
			d.Reads++
			d.BytesTransfered += uint64(n)
		}
	}
	d.lastEnd = op.sector + op.nsect
	d.SectorsMoved += uint64(op.nsect)
	d.Done++
	d.pending = true
	d.irq.SetIRQ(IRQDisk, true)
}

// Write handles a register store.
func (d *Disk) Write(now uint64, off uint32, v uint32) {
	switch off {
	case DiskSector:
		d.sector = v
	case DiskAddr:
		d.addr = v
	case DiskNSect:
		d.nsect = v
	case DiskCmd:
		if len(d.queue) < diskQueue {
			d.queue = append(d.queue, diskOp{
				sector: d.sector, addr: d.addr, nsect: d.nsect, write: v == 2,
			})
			d.schedule(now)
		}
	case DiskAck:
		d.pending = false
		d.irq.SetIRQ(IRQDisk, false)
	}
}

// Read handles a register load.
func (d *Disk) Read(off uint32) uint32 {
	switch off {
	case DiskStatus:
		var s uint32
		if len(d.queue) > 0 {
			s |= 1
		}
		if d.pending {
			s |= 2
		}
		return s
	case DiskDone:
		return uint32(d.Done)
	}
	return 0
}

// AnalysisFunc is the host-side analysis program: invoked when the
// kernel rings the trace doorbell. It drains the in-kernel buffer
// (reading guest memory directly, like the paper's memory special file
// or mapped buffer) and returns the number of machine cycles the
// analysis phase takes — during which devices keep running, producing
// the mode-transition "dirt" of §4.3.
type AnalysisFunc func(reason uint32) (extraCycles uint64)

// TraceCtl is the doorbell device.
type TraceCtl struct {
	Handler   AnalysisFunc
	ExtraOut  uint64 // cycles consumed by the last analysis
	Doorbells uint64
}

// Write handles a register store; a doorbell write runs the handler
// synchronously (traced processes are descheduled by the kernel before
// ringing).
func (t *TraceCtl) Write(off uint32, v uint32) uint64 {
	if off == TraceDoorbell {
		t.Doorbells++
		if t.Handler != nil {
			t.ExtraOut = t.Handler(v)
			return t.ExtraOut
		}
	}
	return 0
}

// Read handles a register load.
func (t *TraceCtl) Read(off uint32) uint32 {
	if off == TraceExtra {
		return uint32(t.ExtraOut)
	}
	return 0
}
