package mem_test

import (
	"testing"
	"testing/quick"

	"systrace/internal/mem"
)

func TestRAMRounding(t *testing.T) {
	r := mem.NewRAM(1)
	if r.Size() != 4096 {
		t.Errorf("size %d want one page", r.Size())
	}
	if got := mem.NewRAM(8192).Size(); got != 8192 {
		t.Errorf("aligned size changed: %d", got)
	}
}

func TestRAMEndianAndBounds(t *testing.T) {
	r := mem.NewRAM(4096)
	r.WriteWord(0x100, 0x01020304)
	// Big-endian byte order.
	for i, want := range []uint32{1, 2, 3, 4} {
		if v, ok := r.Read(0x100+uint32(i), 1); !ok || v != want {
			t.Errorf("byte %d = %d want %d", i, v, want)
		}
	}
	if v, ok := r.Read(0x102, 2); !ok || v != 0x0304 {
		t.Errorf("half = 0x%x", v)
	}
	// Fields straddling two frames, in a frame that was never written.
	r2 := mem.NewRAM(8192)
	if v, ok := r2.Read(4094, 4); !ok || v != 0 {
		t.Errorf("unwritten straddling word = 0x%x, %v", v, ok)
	}
	r2.WriteWord(4094, 0x0a0b0c0d)
	for p, want := range map[uint32]uint32{4093: 0x000a0b0c, 4094: 0x0a0b0c0d, 4095: 0x0b0c0d00} {
		if v, ok := r2.Read(p, 4); !ok || v != want {
			t.Errorf("straddling word at %d = 0x%08x, want 0x%08x", p, v, want)
		}
	}
	if v, ok := r2.Read(4095, 2); !ok || v != 0x0b0c {
		t.Errorf("straddling half = 0x%x", v)
	}
	// Out of range reads and writes fail rather than wrap.
	if _, ok := r.Read(4094, 4); ok {
		t.Error("straddling read succeeded")
	}
	if r.Write(4096, 1, 0) {
		t.Error("out-of-range write succeeded")
	}
	if _, ok := r.Read(0, 3); ok {
		t.Error("3-byte access accepted")
	}
	if err := r.WriteBytes(4090, make([]byte, 10)); err == nil {
		t.Error("overflowing image accepted")
	}
	if p := r.Page(8192); p != nil {
		t.Error("out-of-range page returned")
	}
	if p := r.Page(0x123); p == nil || len(p) != 4096 {
		t.Error("page lookup wrong")
	}
}

// Property: a write followed by a read of the same size and address
// returns the value truncated to the field width, and never disturbs
// bytes outside the field.
func TestQuickRAMWriteRead(t *testing.T) {
	r := mem.NewRAM(64 << 10)
	prop := func(p uint32, v uint32, szSel uint8) bool {
		size := []int{1, 2, 4}[szSel%3]
		p %= (64 << 10) - 8
		p &^= uint32(size - 1) // aligned
		guardLo, _ := r.Read(p-4, 4)
		if p < 4 {
			guardLo = 0
		}
		if !r.Write(p, size, v) {
			return false
		}
		got, ok := r.Read(p, size)
		if !ok {
			return false
		}
		mask := uint32(1)<<(8*size) - 1
		if size == 4 {
			mask = 0xffffffff
		}
		if got != v&mask {
			return false
		}
		if p >= 4 {
			if lo, _ := r.Read(p-4, 4); lo != guardLo {
				return false // neighbor disturbed
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestBoundsCheckNoWraparound(t *testing.T) {
	r := mem.NewRAM(64 * 1024)
	// Addresses near the top of the 32-bit space must fail cleanly: a
	// 32-bit p+size bounds check wraps and then panics slicing.
	for _, p := range []uint32{^uint32(0), ^uint32(0) - 3, 0xfffff000} {
		if _, ok := r.Read(p, 4); ok {
			t.Errorf("Read(%#x, 4) succeeded beyond RAM", p)
		}
		if r.Write(p, 4, 1) {
			t.Errorf("Write(%#x, 4) succeeded beyond RAM", p)
		}
		if r.Page(p) != nil {
			t.Errorf("Page(%#x) returned a frame beyond RAM", p)
		}
	}
}

func TestWriteHook(t *testing.T) {
	r := mem.NewRAM(8192)
	type call struct{ p, n uint32 }
	var calls []call
	r.SetWriteHook(func(p, n uint32) { calls = append(calls, call{p, n}) })

	r.Write(0x10, 4, 0xdeadbeef)
	r.WriteWord(0x20, 1)
	r.Write(0x30, 2, 7)
	r.WriteBytes(0x1000, []byte{1, 2, 3})
	r.WriteBytes(0x40, nil)         // empty: no call
	r.Write(0x5000, 4, 1)           // out of range: no call
	r.WriteBytes(0x5000, []byte{1}) // out of range: no call
	r.Write(0x50, 3, 1)             // unsupported size: no call

	want := []call{{0x10, 4}, {0x20, 4}, {0x30, 2}, {0x1000, 3}}
	if len(calls) != len(want) {
		t.Fatalf("hook calls = %v, want %v", calls, want)
	}
	for i := range want {
		if calls[i] != want[i] {
			t.Errorf("call %d = %v, want %v", i, calls[i], want[i])
		}
	}

	r.SetWriteHook(nil)
	r.Write(0x10, 4, 1)
	if len(calls) != len(want) {
		t.Error("hook fired after removal")
	}
}
