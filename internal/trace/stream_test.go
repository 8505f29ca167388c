package trace

import (
	"math/rand"
	"testing"
)

// roundTrip cuts words into chunk-word epochs, encodes and decodes
// each one on its own (the epoch-ring shape), and requires the exact
// raw sequence back. It returns the concatenated encoded epochs.
func roundTrip(t *testing.T, words []uint32, chunk int) []byte {
	t.Helper()
	var data []byte
	var got []uint32
	for i := 0; i < len(words); i += chunk {
		epoch := EncodeEpoch(words[i:min(i+chunk, len(words))], nil)
		data = append(data, epoch...)
		var err error
		got, err = DecodeEpoch(epoch, got)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
	}
	if len(got) != len(words) {
		t.Fatalf("round trip length: got %d words, want %d", len(got), len(words))
	}
	for i := range words {
		if got[i] != words[i] {
			t.Fatalf("round trip word %d: got 0x%08x, want 0x%08x", i, got[i], words[i])
		}
	}
	return data
}

func TestStreamRoundTripShapes(t *testing.T) {
	cases := map[string][]uint32{
		"empty":        {},
		"zero_first":   {0, 0, 0, 5},
		"single":       {0x00400120},
		"idle_run":     {0x00400120, 0x00400120, 0x00400120, 0x00400120, 0x00400120},
		"markers":      {MarkKernEnter, MarkExcEnter, MarkExcExit, MarkKernExit | 1},
		"loop":         {0x00400120, 0x10000000, 0x00400140, 0x00400120, 0x10000004, 0x00400140},
		"cross_region": {0x00400120, 0x7fffefc8, 0x80812000, 0xfff10002, 0x00400124},
		"wrap_delta":   {0xfffffffc, 0x00000004, 0xf0000000, 0x0fffffff},
	}
	for name, words := range cases {
		t.Run(name, func(t *testing.T) {
			roundTrip(t, words, 3)
			roundTrip(t, words, len(words)+1)
		})
	}
}

func TestStreamRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(4096)
		words := make([]uint32, n)
		last := uint32(0x00400000)
		for i := range words {
			switch rng.Intn(5) {
			case 0: // repeat (run)
				words[i] = last
			case 1: // strided walk
				words[i] = last + 4
			case 2: // marker
				words[i] = MarkCtxSw | uint32(rng.Intn(8))
			case 3: // arbitrary
				words[i] = rng.Uint32()
			default: // nearby record
				words[i] = 0x00400000 + uint32(rng.Intn(1024))*4
			}
			last = words[i]
		}
		roundTrip(t, words, 257)
	}
}

// TestStreamCompressesLoopyTrace pins the headline property on a
// trace-shaped stream: records revisiting a small working set with
// strided data references must compress well past the 4x bar.
func TestStreamCompressesLoopyTrace(t *testing.T) {
	var words []uint32
	base := uint32(0x00400100)
	addr := uint32(0x10000000)
	for iter := 0; iter < 4096; iter++ {
		words = append(words, base+uint32(iter%8)*0x40) // record
		words = append(words, addr)                     // strided load EA
		addr += 4
		if iter%64 == 63 {
			words = append(words, MarkKernEnter, MarkKernExit|1)
		}
	}
	data := roundTrip(t, words, 1024)
	ratio := float64(len(words)*4) / float64(len(data))
	if ratio < 4 {
		t.Fatalf("loopy trace compressed only %.2fx (want >= 4x): %d words -> %d bytes",
			ratio, len(words), len(data))
	}
}

func TestDecodeRejectsMalformed(t *testing.T) {
	cases := map[string][]byte{
		"reserved_token":  {0xe1},
		"truncated_delta": {0xb0 | 0x04, 0x80},
		"overlong_varint": {0xb0, 0xff, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := DecodeEpoch(data, nil); err == nil {
				t.Fatalf("decoder accepted %x", data)
			}
		})
	}
}

// TestDecodeErrorOffsetInEpoch pins the byte offset a decode error
// reports: the offending token's position within the epoch, after the
// words decoded before it.
func TestDecodeErrorOffsetInEpoch(t *testing.T) {
	good := EncodeEpoch([]uint32{0x00400120, 0x00400124}, nil)
	data := append(good, 0xe7)
	got, err := DecodeEpoch(data, nil)
	se, ok := err.(*StreamError)
	if !ok {
		t.Fatalf("got %v, want StreamError", err)
	}
	if se.Offset != len(good) {
		t.Fatalf("error offset %d, want %d", se.Offset, len(good))
	}
	if len(got) != 2 {
		t.Fatalf("decoded %d words before the bad token, want 2", len(got))
	}
}
