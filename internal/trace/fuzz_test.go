package trace_test

import (
	"encoding/binary"
	"reflect"
	"testing"

	"systrace/internal/obj"
	"systrace/internal/trace"
)

// fuzzTable is a small fixed side table: three blocks with memory
// references of each width, like a toy instrumented image.
func fuzzTable() *trace.SideTable {
	return trace.NewSideTable([]obj.InstrBlock{
		{RecordAddr: 0x0040010c, OrigAddr: 0x00400000, NInstr: 4,
			Mem: []obj.MemOp{{Index: 1, Load: true, Size: 4}}},
		{RecordAddr: 0x0040014c, OrigAddr: 0x00400010, NInstr: 3,
			Mem: []obj.MemOp{{Index: 0, Load: false, Size: 1}, {Index: 2, Load: true, Size: 2}}},
		{RecordAddr: 0x00400200, OrigAddr: 0x00400020, NInstr: 2},
	})
}

// FuzzParse feeds arbitrary word streams to the trace parser: it must
// never panic, and whatever events survive must be well-formed. The
// side table must answer lookups for arbitrary words without going
// wrong either.
func FuzzParse(f *testing.F) {
	seed := func(words ...uint32) {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			binary.BigEndian.PutUint32(b[4*i:], w)
		}
		f.Add(b)
	}
	// A well-formed fragment: block record, two data addresses, a
	// context switch, another record.
	seed(0x0040010c, 0x10000004, 0x0040014c, 0x10000100, 0x10000102)
	seed(trace.MarkCtxSw|1, 0x0040010c, 0x10000004)
	seed(trace.MarkModeSw, trace.MarkProcExit|1)
	seed(0xdeadbeef, 0xffffffff, 0)

	table := fuzzTable()
	f.Fuzz(func(t *testing.T, data []byte) {
		n := len(data) / 4
		if n > 4096 {
			n = 4096
		}
		words := make([]uint32, n)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}

		p := trace.NewParser(nil)
		p.AddProcess(0, table)
		p.AddProcess(1, table)
		events, err := p.Parse(words, nil)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		for _, e := range events {
			switch e.Size {
			case 0, 1, 2, 4, 8:
			default:
				t.Errorf("event %+v has impossible size", e)
			}
		}

		// The side table itself stays well-defined under arbitrary
		// probes: Lookup hits only real record addresses.
		for _, w := range words {
			if b := table.Lookup(w); b != nil && b.RecordAddr != w {
				t.Errorf("Lookup(%08x) returned block with RecordAddr %08x", w, b.RecordAddr)
			}
		}
	})
}

// FuzzSideTable holds the dense side table to a map from record
// address to block over random block sets: up to 64 blocks at
// word-aligned records in a 4 KB window based anywhere in the 32-bit
// space short of wrapping (the probe window itself can wrap, at both
// ends), duplicates included (the later block wins, as in a map built
// in order). Every byte address in [lo−8, hi+8] is probed, misaligned
// ones included; an empty table probes around 0.
func FuzzSideTable(f *testing.F) {
	f.Add(uint32(0x00400000), []byte{0, 1, 2, 3})
	f.Add(uint32(0x80000100), []byte{7, 7, 0, 255})
	f.Add(uint32(0xfffff000), []byte{255, 254, 3})
	f.Add(uint32(0), []byte{})
	f.Add(uint32(4), []byte{0, 0})
	f.Fuzz(func(t *testing.T, base uint32, offs []byte) {
		if len(offs) > 64 {
			offs = offs[:64]
		}
		base = min(base, ^uint32(0)-4096) &^ 3
		blocks := make([]obj.InstrBlock, len(offs))
		ref := map[uint32]int{}
		for i, o := range offs {
			rec := base + uint32(o)*16 + uint32(i%4)*4
			blocks[i] = obj.InstrBlock{RecordAddr: rec, OrigAddr: uint32(i), NInstr: int32(1 + i%5)}
			ref[rec] = i
		}
		table := trace.NewSideTable(blocks)
		lo, hi := table.Range()
		if len(blocks) == 0 {
			if lo != 0 || hi != 0 {
				t.Fatalf("empty table Range() = [%#x, %#x], want [0, 0]", lo, hi)
			}
		} else {
			wantLo, wantHi := ^uint32(0), uint32(0)
			for rec := range ref {
				wantLo, wantHi = min(wantLo, rec), max(wantHi, rec)
			}
			if lo != wantLo || hi != wantHi {
				t.Fatalf("Range() = [%#x, %#x], want [%#x, %#x]", lo, hi, wantLo, wantHi)
			}
		}
		for d := uint32(0); d <= hi-lo+16; d++ {
			w := lo - 8 + d
			want, ok := ref[w]
			b := table.Lookup(w)
			id, idOK := table.ID(w)
			switch {
			case !ok && (b != nil || idOK):
				t.Fatalf("word %#x: Lookup %+v, ID (%d, %v); no block records there", w, b, id, idOK)
			case ok && (b != &blocks[want] || !idOK || id != want || table.Block(id) != b):
				t.Fatalf("word %#x: Lookup %p, ID (%d, %v); want block %d at %p", w, b, id, idOK, want, &blocks[want])
			}
		}
		if got := table.Blocks(); len(got) != len(ref) {
			t.Fatalf("Blocks() has %d entries, want %d", len(got), len(ref))
		} else {
			for i, b := range got {
				if ref[b.RecordAddr] != int(b.OrigAddr) || i > 0 && got[i-1].OrigAddr > b.OrigAddr {
					t.Fatalf("Blocks()[%d] = %+v: not the map's block, or out of order", i, b)
				}
			}
		}
		if table.Len() != len(blocks) {
			t.Fatalf("Len() = %d, want %d", table.Len(), len(blocks))
		}
	})
}

// runSink records ParseTo's sink calls expanded to one event per
// reference, checking each call's shape.
type runSink struct {
	t   *testing.T
	evs []trace.Event
}

func (r *runSink) Fetch(ev trace.Event, n int) {
	if n < 1 || ev.Kind != trace.EvIFetch {
		r.t.Fatalf("Fetch(%+v, %d): want a run of at least one instruction fetch", ev, n)
	}
	for i := 0; i < n; i++ {
		r.evs = append(r.evs, ev)
		ev.Addr += 4
	}
}

func (r *runSink) Ref(ev trace.Event) {
	if ev.Kind != trace.EvLoad && ev.Kind != trace.EvStore {
		r.t.Fatalf("Ref(%+v): want a load or store", ev)
	}
	r.evs = append(r.evs, ev)
}

// FuzzParseSink holds the two parse entry points to one stream: for
// arbitrary words, the events Parse returns equal the expansion of
// ParseTo's sink calls, the two return the same error, and they leave
// the parsers in the same state. The words are fed in two calls, so
// block state carried across a call boundary is covered too.
func FuzzParseSink(f *testing.F) {
	seed := func(split uint16, words ...uint32) {
		b := make([]byte, 4*len(words))
		for i, w := range words {
			binary.BigEndian.PutUint32(b[4*i:], w)
		}
		f.Add(split, b)
	}
	seed(2, 0x0040010c, 0x10000004, 0x0040014c, 0x10000100, 0x10000102)
	seed(1, trace.MarkCtxSw|1, 0x0040010c, 0x10000004, 0x00400200)
	seed(0, trace.MarkExcEnter, trace.MarkModeSw, 0x0040014c, trace.MarkExcExit)
	seed(3, 0xdeadbeef, 0xffffffff, 0)

	table := fuzzTable()
	f.Fuzz(func(t *testing.T, split uint16, data []byte) {
		n := len(data) / 4
		if n > 4096 {
			n = 4096
		}
		words := make([]uint32, n)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		cut := int(split) % (n + 1)

		newParser := func() *trace.Parser {
			p := trace.NewParser(nil)
			p.AddProcess(0, table)
			p.AddProcess(1, table)
			return p
		}
		pEv, pRun := newParser(), newParser()
		sink := &runSink{t: t}
		evs, errEv := pEv.Parse(words[:cut], nil)
		errRun := pRun.ParseTo(words[:cut], sink)
		if errEv == nil && errRun == nil {
			evs, errEv = pEv.Parse(words[cut:], evs)
			errRun = pRun.ParseTo(words[cut:], sink)
		}
		if !reflect.DeepEqual(errEv, errRun) {
			t.Fatalf("Parse error %v, ParseTo error %v", errEv, errRun)
		}
		if !reflect.DeepEqual(evs, sink.evs) && (len(evs) != 0 || len(sink.evs) != 0) {
			t.Fatalf("Parse returned %d events, ParseTo's sink calls expand to %d:\n%+v\n%+v",
				len(evs), len(sink.evs), evs, sink.evs)
		}
		if !reflect.DeepEqual(pEv, pRun) {
			t.Fatalf("parser state diverged:\n Parse   %+v\n ParseTo %+v", *pEv, *pRun)
		}
	})
}

// FuzzStreamCodec drives the compressed on-the-wire encoding from both
// ends: any word sequence must round-trip exactly through the
// epoch encoder and decoder, and the decoder must reject or survive
// (never panic on) arbitrary token bytes.
func FuzzStreamCodec(f *testing.F) {
	f.Add([]byte{}, false)
	f.Add([]byte{0x00, 0x40, 0x01, 0x0c, 0x10, 0x00, 0x00, 0x04}, false)
	f.Add([]byte{0xff, 0xf1, 0x00, 0x01, 0xff, 0xf1, 0x00, 0x01}, false)
	f.Add([]byte{0xb0, 0xff, 0xff, 0xff, 0xff, 0x7f}, true)
	f.Add([]byte{0xc0, 0x80, 0x9f, 0xa7}, true)
	f.Fuzz(func(t *testing.T, data []byte, raw bool) {
		if raw {
			// data is a hostile token stream: decode must not panic
			// and must consume without error only whole valid tokens.
			trace.DecodeEpoch(data, nil) //nolint:errcheck
			return
		}
		n := len(data) / 4
		if n > 4096 {
			n = 4096
		}
		words := make([]uint32, n)
		for i := range words {
			words[i] = binary.BigEndian.Uint32(data[4*i:])
		}
		enc := trace.EncodeEpoch(words, nil)
		got, err := trace.DecodeEpoch(enc, nil)
		if err != nil {
			t.Fatalf("decode of fresh encoding failed: %v", err)
		}
		if len(got) != len(words) {
			t.Fatalf("round trip: %d words in, %d out", len(words), len(got))
		}
		for i := range words {
			if got[i] != words[i] {
				t.Fatalf("round trip word %d: got %08x want %08x", i, got[i], words[i])
			}
		}
	})
}
