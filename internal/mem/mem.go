// Package mem provides the physical memory of the simulated machine.
// Traces are collected "on a machine with a large physical memory,
// such that pageouts do not occur" (paper §4.1): the machines built
// here are configured the same way, so the kernels never page.
//
// A large physical memory is not a large host allocation: RAM is a
// table of 4 KB frames, and a frame's backing array is allocated the
// first time it is written or handed out through Page. A run touches
// a few hundred kilobytes of its 64 MB (a few megabytes traced, nearly
// all of them the trace buffer), and that is all it pays for.
package mem

import (
	"encoding/binary"
	"fmt"
)

// Frame geometry: RAM is allocated in 4 KB frames, the page size of
// the simulated MMU.
const (
	frameShift = 12
	FrameSize  = 1 << frameShift
	frameMask  = FrameSize - 1
)

// RAM is byte-addressable big-endian physical memory. A frame that was
// never allocated reads as zero; reading it allocates nothing.
type RAM struct {
	frames   []*[FrameSize]byte // by frame number; nil = never allocated
	size     uint32
	resident int // allocated frames
	hook     func(p, n uint32)
}

// SetWriteHook installs fn, called after every successful mutation
// through the RAM API (Write, WriteBytes, WriteWord, WriteAt) with the
// physical range written. The machine registers the CPU's
// predecode-frame invalidation here, so host-side loaders, bus-path
// device stores and disk DMA can never leave stale decoded text
// behind. Stores through a slice returned by Page bypass the hook: the
// CPU's own write port is their only user, and it invalidates for
// itself. A nil fn removes the hook.
func (r *RAM) SetWriteHook(fn func(p, n uint32)) { r.hook = fn }

// NewRAM returns size bytes of zeroed memory (rounded up to 4 KB). No
// frame is allocated until it is first written or handed out.
func NewRAM(size uint32) *RAM {
	n := (uint64(size) + frameMask) >> frameShift
	return &RAM{frames: make([]*[FrameSize]byte, n), size: uint32(n << frameShift)}
}

// Size returns the memory size in bytes.
func (r *RAM) Size() uint32 { return r.size }

// ResidentBytes returns the bytes of allocated frames: what the run
// has touched so far.
func (r *RAM) ResidentBytes() uint64 { return uint64(r.resident) << frameShift }

// frame returns frame i's backing array, allocating it on first use.
func (r *RAM) frame(i uint32) *[FrameSize]byte {
	f := r.frames[i]
	if f == nil {
		f = new([FrameSize]byte)
		r.frames[i] = f
		r.resident++
	}
	return f
}

// inRange reports whether [p, p+n) lies inside RAM. The check is done
// in 64 bits: p near the top of the address space must fail cleanly,
// not wrap.
func (r *RAM) inRange(p uint32, n int) bool {
	return n >= 0 && uint64(p)+uint64(n) <= uint64(r.size)
}

// Page returns the 4 KB frame containing p, or nil if out of range.
// The frame is allocated if it was not already: the slice is always
// the frame's real backing array, so a load bound to it sees every
// later store, however it is made.
func (r *RAM) Page(p uint32) []byte {
	i := p >> frameShift
	if i >= uint32(len(r.frames)) {
		return nil
	}
	return r.frame(i)[:]
}

// zeroFrame stands in for never-allocated frames on the read paths
// (Read, ReadAt), which copy out of it and never hand it out.
var zeroFrame [FrameSize]byte

// Read returns the value of the size-byte field at p.
func (r *RAM) Read(p uint32, size int) (uint32, bool) {
	if size <= 0 || !r.inRange(p, size) {
		return 0, false
	}
	off := p & frameMask
	if int(off)+size > FrameSize {
		return r.readSplit(p, size)
	}
	f := r.frames[p>>frameShift]
	if f == nil {
		f = &zeroFrame
	}
	switch size {
	case 1:
		return uint32(f[off]), true
	case 2:
		return uint32(binary.BigEndian.Uint16(f[off:])), true
	case 4:
		return binary.BigEndian.Uint32(f[off:]), true
	}
	return 0, false
}

// readSplit reads a field that straddles two frames a byte at a time
// (host readers only: guest accesses are aligned).
func (r *RAM) readSplit(p uint32, size int) (uint32, bool) {
	if size != 2 && size != 4 {
		return 0, false
	}
	var v uint32
	for i := uint32(0); i < uint32(size); i++ {
		b, _ := r.Read(p+i, 1)
		v = v<<8 | b
	}
	return v, true
}

// Write stores v into the size-byte field at p.
func (r *RAM) Write(p uint32, size int, v uint32) bool {
	if size != 1 && size != 2 && size != 4 || !r.inRange(p, size) {
		return false
	}
	off := p & frameMask
	if int(off)+size > FrameSize {
		for i := uint32(0); i < uint32(size); i++ {
			pa := p + i
			r.frame(pa >> frameShift)[pa&frameMask] = byte(v >> (8 * (uint32(size) - 1 - i)))
		}
	} else {
		f := r.frame(p >> frameShift)
		switch size {
		case 1:
			f[off] = byte(v)
		case 2:
			binary.BigEndian.PutUint16(f[off:], uint16(v))
		default:
			binary.BigEndian.PutUint32(f[off:], v)
		}
	}
	if r.hook != nil {
		r.hook(p, uint32(size))
	}
	return true
}

// ReadAt copies len(dst) bytes of physical memory at p into dst, frame
// by frame; never-allocated frames read as zero and stay unallocated.
// It copies nothing and reports false when the range leaves RAM.
func (r *RAM) ReadAt(p uint32, dst []byte) bool {
	if !r.inRange(p, len(dst)) {
		return false
	}
	for len(dst) > 0 {
		off := p & frameMask
		n := min(len(dst), FrameSize-int(off))
		f := r.frames[p>>frameShift]
		if f == nil {
			f = &zeroFrame
		}
		copy(dst[:n], f[off:])
		dst = dst[n:]
		p += uint32(n)
	}
	return true
}

// WriteAt copies src into physical memory at p, frame by frame,
// allocating the frames it lands in, and reports the range to the
// write hook. It writes nothing and reports false when the range
// leaves RAM.
func (r *RAM) WriteAt(p uint32, src []byte) bool {
	if !r.inRange(p, len(src)) {
		return false
	}
	start, total := p, uint32(len(src))
	for len(src) > 0 {
		off := p & frameMask
		n := copy(r.frame(p >> frameShift)[off:], src)
		src = src[n:]
		p += uint32(n)
	}
	if r.hook != nil && total > 0 {
		r.hook(start, total)
	}
	return true
}

// WriteBytes copies raw bytes into physical memory (host-side loader).
func (r *RAM) WriteBytes(p uint32, data []byte) error {
	if !r.WriteAt(p, data) {
		return fmt.Errorf("mem: image of %d bytes at 0x%x exceeds %d-byte RAM",
			len(data), p, r.size)
	}
	return nil
}

// ReadWord is a convenience 4-byte read for host-side consumers.
func (r *RAM) ReadWord(p uint32) uint32 {
	v, _ := r.Read(p, 4)
	return v
}

// WriteWord is a convenience 4-byte write for host-side producers.
func (r *RAM) WriteWord(p uint32, v uint32) { r.Write(p, 4, v) }
