package mem_test

import (
	"bytes"
	"encoding/binary"
	"testing"

	"systrace/internal/mem"
)

// FuzzRAM holds the frame table to a flat []byte model under random
// Write, WriteBytes, WriteAt, Read, ReadAt and stores through slices
// returned by Page. Addresses favour frame boundaries, the end of RAM
// and the top of the address space, so ranges straddle frames, run out
// of range and wrap. After every operation each Page slice taken so
// far must still alias its frame (it sees every later write), reads
// must allocate nothing, and the write hook must have seen exactly the
// successful RAM API mutations.
func FuzzRAM(f *testing.F) {
	f.Add(uint8(3), []byte{0, 1, 0, 4, 0xde, 0xad, 0xbe, 0xef})
	f.Add(uint8(1), []byte{5, 1, 0xff, 2, 1, 0, 0, 0, 3, 1, 0xff, 4})
	f.Add(uint8(4), []byte{2, 3, 1, 9, 1, 2, 3, 4, 5, 6, 7, 8, 9, 4, 3, 1, 9})
	f.Add(uint8(2), []byte{1, 2, 0, 4, 1, 2, 3, 4, 0, 2, 0, 4, 9, 9, 9, 9})
	f.Add(uint8(1), []byte{12, 4, 6, 0x11, 0x22, 0x33, 0x44, 13, 4, 6, 7, 4, 7}) // straddling word
	f.Fuzz(func(t *testing.T, frames uint8, prog []byte) {
		nframes := 1 + int(frames%6)
		size := uint32(nframes * mem.FrameSize)
		r := mem.NewRAM(size - uint32(frames/6)%mem.FrameSize) // rounds back up
		if r.Size() != size {
			t.Fatalf("Size = %d, want %d", r.Size(), size)
		}
		model := make([]byte, size)
		type span struct{ p, n uint32 }
		var hooked, want []span
		r.SetWriteHook(func(p, n uint32) { hooked = append(hooked, span{p, n}) })
		pages := map[uint32][]byte{} // frame base -> slice taken through Page

		next := func(n int) []byte {
			if len(prog) < n {
				n = len(prog)
			}
			b := prog[:n]
			prog = prog[n:]
			return b
		}
		addr := func() uint32 {
			b := next(2)
			if len(b) < 2 {
				return 0
			}
			d := uint32(b[1])
			switch b[0] % 4 {
			case 0: // near a frame boundary
				return uint32(b[0]/4%8)*mem.FrameSize + d - 8
			case 1: // near the end of RAM
				return size + d - 128
			case 2: // near the top of the address space
				return ^uint32(0) - d
			}
			return uint32(b[0])<<12 | d<<2
		}
		inRange := func(p uint32, n int) bool { return uint64(p)+uint64(n) <= uint64(size) }

		for len(prog) > 0 {
			op := next(1)[0]
			p := addr()
			resident := r.ResidentBytes()
			switch op % 6 {
			case 0: // Write
				sz := []int{1, 2, 4, 3, 0}[int(op/6)%5]
				var vb [4]byte
				copy(vb[:], next(4))
				v := binary.BigEndian.Uint32(vb[:])
				ok := r.Write(p, sz, v)
				valid := sz == 1 || sz == 2 || sz == 4
				if ok != (valid && inRange(p, sz)) {
					t.Fatalf("Write(%#x, %d) = %v", p, sz, ok)
				}
				if ok {
					for i := 0; i < sz; i++ {
						model[p+uint32(i)] = byte(v >> (8 * (sz - 1 - i)))
					}
					want = append(want, span{p, uint32(sz)})
				}
			case 1: // Read
				sz := []int{1, 2, 4, 3, 0}[int(op/6)%5]
				v, ok := r.Read(p, sz)
				valid := sz == 1 || sz == 2 || sz == 4
				if ok != (valid && inRange(p, sz)) {
					t.Fatalf("Read(%#x, %d) ok = %v", p, sz, ok)
				}
				var m uint32
				for i := 0; ok && i < sz; i++ {
					m = m<<8 | uint32(model[p+uint32(i)])
				}
				if v != m {
					t.Fatalf("Read(%#x, %d) = %#x, model %#x", p, sz, v, m)
				}
			case 2, 3: // WriteAt, WriteBytes
				data := next(int(op/6) * 97 % 9000)
				var ok bool
				if op%6 == 2 {
					ok = r.WriteAt(p, data)
				} else {
					ok = r.WriteBytes(p, data) == nil
				}
				if ok != inRange(p, len(data)) {
					t.Fatalf("write of %d bytes at %#x: ok = %v", len(data), p, ok)
				}
				if ok {
					copy(model[p:], data)
					if len(data) > 0 {
						want = append(want, span{p, uint32(len(data))})
					}
				}
			case 4: // ReadAt
				dst := make([]byte, int(op/6)*97%9000)
				for i := range dst {
					dst[i] = 0xa5 // a failed read must leave dst alone
				}
				ok := r.ReadAt(p, dst)
				if ok != inRange(p, len(dst)) {
					t.Fatalf("ReadAt(%#x, %d bytes) = %v", p, len(dst), ok)
				}
				if ok && !bytes.Equal(dst, model[p:int(p)+len(dst)]) {
					t.Fatalf("ReadAt(%#x, %d bytes) differs from the model", p, len(dst))
				}
				if !ok && bytes.Count(dst, []byte{0xa5}) != len(dst) {
					t.Fatalf("failed ReadAt(%#x) wrote into dst", p)
				}
			case 5: // store through a Page slice
				pg := r.Page(p)
				if (pg != nil) != (p < size) {
					t.Fatalf("Page(%#x) nil = %v", p, pg == nil)
				}
				if pg == nil {
					break
				}
				base := p &^ (mem.FrameSize - 1)
				if len(pg) != mem.FrameSize || !bytes.Equal(pg, model[base:base+mem.FrameSize]) {
					t.Fatalf("Page(%#x) differs from the model", p)
				}
				pg[p-base] = op
				model[p] = op
				pages[base] = pg
			}
			if (op%6 == 1 || op%6 == 4) && r.ResidentBytes() != resident {
				t.Fatalf("read op %d allocated frames: %d -> %d resident bytes", op%6, resident, r.ResidentBytes())
			}
			for base, pg := range pages {
				if !bytes.Equal(pg, model[base:base+mem.FrameSize]) {
					t.Fatalf("Page slice of frame %#x no longer sees the frame's contents", base)
				}
			}
		}
		if r.ResidentBytes() > uint64(size) {
			t.Fatalf("%d bytes resident in %d-byte RAM", r.ResidentBytes(), size)
		}
		whole := make([]byte, size)
		if !r.ReadAt(0, whole) || !bytes.Equal(whole, model) {
			t.Fatal("final contents differ from the model")
		}
		if len(hooked) != len(want) {
			t.Fatalf("write hook saw %d mutations, want %d", len(hooked), len(want))
		}
		for i := range want {
			if hooked[i] != want[i] {
				t.Fatalf("write hook call %d = %v, want %v", i, hooked[i], want[i])
			}
		}
	})
}
