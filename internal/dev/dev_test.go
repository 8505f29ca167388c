package dev_test

import (
	"bytes"
	"testing"

	"systrace/internal/dev"
	"systrace/internal/mem"
)

type fakeIRQ struct{ lines [8]bool }

func (f *fakeIRQ) SetIRQ(line int, on bool) { f.lines[line] = on }

// fakeRAM is flat DMA memory.
type fakeRAM struct{ b []byte }

func (f *fakeRAM) ReadAt(p uint32, dst []byte) bool {
	if uint64(p)+uint64(len(dst)) > uint64(len(f.b)) {
		return false
	}
	copy(dst, f.b[p:])
	return true
}

func (f *fakeRAM) WriteAt(p uint32, src []byte) bool {
	if uint64(p)+uint64(len(src)) > uint64(len(f.b)) {
		return false
	}
	copy(f.b[p:], src)
	return true
}

func TestClockPeriodAndAck(t *testing.T) {
	irq := &fakeIRQ{}
	c := dev.NewClock(irq)
	c.SetInterval(0, 100)
	c.Advance(50)
	if irq.lines[dev.IRQClock] {
		t.Error("fired early")
	}
	c.Advance(100)
	if !irq.lines[dev.IRQClock] {
		t.Error("did not fire at deadline")
	}
	c.Write(100, dev.ClockAck, 1)
	if irq.lines[dev.IRQClock] {
		t.Error("ack did not clear")
	}
	c.Advance(200)
	if !irq.lines[dev.IRQClock] || c.Raised != 2 {
		t.Errorf("periodic refire failed (raised=%d)", c.Raised)
	}
	// Interval 0 stops the clock.
	c.Write(200, dev.ClockAck, 1)
	c.Write(200, dev.ClockInterval, 0)
	c.Advance(10_000)
	if irq.lines[dev.IRQClock] {
		t.Error("stopped clock fired")
	}
}

func TestDiskTransferAndOrdering(t *testing.T) {
	irq := &fakeIRQ{}
	ram := &fakeRAM{b: make([]byte, 1<<16)}
	img := make([]byte, 1<<16)
	for i := range img {
		img[i] = byte(i * 7)
	}
	d := dev.NewDisk(irq, ram, img, dev.DiskParams{SeekCycles: 100, PerSectorCycle: 10})
	now := uint64(0)
	d.Write(now, dev.DiskSector, 2)
	d.Write(now, dev.DiskAddr, 0x1000)
	d.Write(now, dev.DiskNSect, 4)
	d.Write(now, dev.DiskCmd, 1)
	if !d.Busy() {
		t.Fatal("not busy after command")
	}
	// First op: seek (100) + 4 sectors (40).
	d.Advance(139)
	if !d.Busy() {
		t.Fatal("completed early")
	}
	d.Advance(140)
	if d.Busy() || !irq.lines[dev.IRQDisk] {
		t.Fatal("did not complete at deadline")
	}
	for i := 0; i < 4*dev.SectorSize; i++ {
		if ram.b[0x1000+i] != img[2*dev.SectorSize+i] {
			t.Fatalf("dma byte %d wrong", i)
		}
	}
	d.Write(140, dev.DiskAck, 1)

	// Sequential follow-up has no seek; a distant one does.
	d.Write(140, dev.DiskSector, 6) // sequential after sectors 2..5
	d.Write(140, dev.DiskAddr, 0x3000)
	d.Write(140, dev.DiskNSect, 2)
	d.Write(140, dev.DiskCmd, 1)
	if next := d.NextEvent(); next != 160 {
		t.Errorf("sequential op completes at %d, want 160 (no seek)", next)
	}
}

func TestDiskWriteBack(t *testing.T) {
	irq := &fakeIRQ{}
	ram := &fakeRAM{b: make([]byte, 4096)}
	for i := range ram.b {
		ram.b[i] = 0xAB
	}
	img := make([]byte, 8192)
	d := dev.NewDisk(irq, ram, img, dev.DiskParams{SeekCycles: 1, PerSectorCycle: 1})
	d.Write(0, dev.DiskSector, 0)
	d.Write(0, dev.DiskAddr, 0)
	d.Write(0, dev.DiskNSect, 1)
	d.Write(0, dev.DiskCmd, 2) // write
	d.Advance(1000)
	if img[0] != 0xAB || img[dev.SectorSize-1] != 0xAB {
		t.Error("write DMA did not reach the image")
	}
	if d.Writes != 1 {
		t.Errorf("writes=%d", d.Writes)
	}
}

func TestDiskQueueFIFO(t *testing.T) {
	irq := &fakeIRQ{}
	ram := &fakeRAM{b: make([]byte, 1<<14)}
	img := make([]byte, 1<<14)
	img[0], img[512] = 1, 2
	d := dev.NewDisk(irq, ram, img, dev.DiskParams{SeekCycles: 10, PerSectorCycle: 10})
	for i := uint32(0); i < 2; i++ {
		d.Write(0, dev.DiskSector, i)
		d.Write(0, dev.DiskAddr, 0x100*i+0x1000)
		d.Write(0, dev.DiskNSect, 1)
		d.Write(0, dev.DiskCmd, 1)
	}
	d.Advance(100000)
	if d.Reads != 2 {
		t.Fatalf("reads=%d", d.Reads)
	}
	if ram.b[0x1000] != 1 || ram.b[0x1100] != 2 {
		t.Error("FIFO order broken")
	}
}

// TestDiskDMAFrameBoundary runs disk DMA across a 4 KB frame boundary
// of real RAM, in both directions, over frames that were never
// allocated. A read allocates exactly the frames it lands in and
// reports the whole range to the write hook once; a write-back reads
// never-allocated frames as zero and allocates nothing.
func TestDiskDMAFrameBoundary(t *testing.T) {
	irq := &fakeIRQ{}
	ram := mem.NewRAM(64 << 10)
	type span struct{ p, n uint32 }
	var hooked []span
	ram.SetWriteHook(func(p, n uint32) { hooked = append(hooked, span{p, n}) })
	img := make([]byte, 8*dev.SectorSize)
	for i := range img {
		img[i] = byte(i*13 + 1)
	}
	d := dev.NewDisk(irq, ram, img, dev.DiskParams{SeekCycles: 1, PerSectorCycle: 1})
	op := func(sector, addr, nsect, cmd uint32) {
		d.Write(0, dev.DiskSector, sector)
		d.Write(0, dev.DiskAddr, addr)
		d.Write(0, dev.DiskNSect, nsect)
		d.Write(0, dev.DiskCmd, cmd)
		d.Advance(1 << 20)
	}

	// Read 3 sectors to 0x2e00: 0x200 bytes in frame 2, 0x400 in frame 3.
	op(1, 0x2e00, 3, 1)
	if d.Reads != 1 {
		t.Fatalf("reads = %d, want 1", d.Reads)
	}
	got := make([]byte, 3*dev.SectorSize)
	ram.ReadAt(0x2e00, got)
	if !bytes.Equal(got, img[dev.SectorSize:4*dev.SectorSize]) {
		t.Error("read DMA across the frame boundary landed wrong bytes")
	}
	if r := ram.ResidentBytes(); r != 2*mem.FrameSize {
		t.Errorf("resident = %d bytes after the read, want the 2 frames it landed in", r)
	}
	if len(hooked) != 1 || hooked[0] != (span{0x2e00, 3 * dev.SectorSize}) {
		t.Errorf("write hook saw %v, want one call for the whole transfer", hooked)
	}

	// Write 4 sectors back from 0x3e00: the last 0x200 bytes of frame
	// 3, then 0x600 bytes of frame 4, which was never allocated.
	op(4, 0x3e00, 4, 2)
	if d.Writes != 1 {
		t.Fatalf("writes = %d, want 1", d.Writes)
	}
	want := make([]byte, 4*dev.SectorSize)
	ram.ReadAt(0x3e00, want[:dev.SectorSize])
	if !bytes.Equal(img[4*dev.SectorSize:], want) {
		t.Error("write DMA across the frame boundary moved wrong bytes")
	}
	if r := ram.ResidentBytes(); r != 2*mem.FrameSize {
		t.Errorf("resident = %d bytes after the write-back, want it unchanged", r)
	}
	if len(hooked) != 1 {
		t.Errorf("write-back to the image reported a RAM write: %v", hooked)
	}

	// A transfer that would leave RAM moves nothing.
	op(0, 64<<10-dev.SectorSize, 2, 1)
	if d.Reads != 1 || d.Done != 3 {
		t.Errorf("out-of-range read: reads = %d, done = %d, want 1 and 3", d.Reads, d.Done)
	}
}

func TestConsole(t *testing.T) {
	c := &dev.Console{}
	for _, b := range []byte("ok\n") {
		c.Write(dev.ConsolePutc, uint32(b))
	}
	if c.String() != "ok\n" {
		t.Errorf("console %q", c.String())
	}
	c.In = []byte("x")
	if c.Read(dev.ConsoleGetc) != 'x' || c.Read(dev.ConsoleGetc) != 0xffffffff {
		t.Error("getc wrong")
	}
}

func TestTraceCtlDoorbell(t *testing.T) {
	var got uint32
	tc := &dev.TraceCtl{Handler: func(reason uint32) uint64 {
		got = reason
		return 4242
	}}
	extra := tc.Write(dev.TraceDoorbell, dev.DoorbellBufferFull)
	if got != dev.DoorbellBufferFull || extra != 4242 {
		t.Errorf("doorbell got=%d extra=%d", got, extra)
	}
	if tc.Read(dev.TraceExtra) != 4242 {
		t.Error("extra not latched")
	}
}
