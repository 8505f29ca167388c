package trace_test

import (
	"errors"
	"strings"
	"testing"

	"systrace/internal/obj"
	"systrace/internal/trace"
)

// table builds a tiny side table: block A (2 instrs, 1 load at index
// 0) and block B (3 instrs, no refs).
func table() *trace.SideTable {
	return trace.NewSideTable([]obj.InstrBlock{
		{RecordAddr: 0x100, OrigAddr: 0x400000, NInstr: 2,
			Mem: []obj.MemOp{{Index: 0, Load: true, Size: 4}}},
		{RecordAddr: 0x200, OrigAddr: 0x400100, NInstr: 3},
		{RecordAddr: 0x300, OrigAddr: 0x400200, NInstr: 1,
			Flags: obj.BBIdleLoop},
	})
}

func ktable() *trace.SideTable {
	return trace.NewSideTable([]obj.InstrBlock{
		{RecordAddr: 0x80000100, OrigAddr: 0x80000100, NInstr: 2,
			Mem: []obj.MemOp{{Index: 1, Load: false, Size: 4}}},
	})
}

func TestParseInterleaving(t *testing.T) {
	p := trace.NewParser(ktable())
	p.AddProcess(1, table())
	words := []uint32{
		// kernel boot block
		0x80000100, 0xdeadbee0,
		// switch to user 1
		trace.MarkKernExit | 1,
		0x100, 0x10000000, // block A with its load EA
		0x200, // block B
		// kernel entry, one kernel block, return
		trace.MarkKernEnter,
		0x80000100, 0x80200000,
		trace.MarkKernExit | 1,
		0x200,
	}
	evs, err := p.Parse(words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	// Expected: 2 kernel fetches + 1 store, then A: fetch, load, fetch;
	// B: 3 fetches; kernel again 3; B again 3.
	var kern, user int
	for _, ev := range evs {
		if ev.Kernel {
			kern++
		} else {
			user++
		}
	}
	if kern != 6 || user != 9 {
		t.Fatalf("kern=%d user=%d events=%d", kern, user, len(evs))
	}
	// The user load's address and position.
	if evs[3].Kind != trace.EvIFetch || evs[3].Addr != 0x400000 {
		t.Errorf("first user event %+v", evs[3])
	}
	if evs[4].Kind != trace.EvLoad || evs[4].Addr != 0x10000000 {
		t.Errorf("user load event %+v", evs[4])
	}
	if evs[5].Kind != trace.EvIFetch || evs[5].Addr != 0x400004 {
		t.Errorf("tail fetch %+v", evs[5])
	}
}

func TestParseNestedExceptions(t *testing.T) {
	p := trace.NewParser(ktable())
	p.AddProcess(1, table())
	// Kernel block interrupted mid-stream by a nested exception.
	words := []uint32{
		0x80000100, // kernel record (expects 1 store EA)
		trace.MarkExcEnter,
		0x80000100, 0x80200004, // complete nested block
		trace.MarkExcExit,
		0x80200008, // the interrupted block's pending EA
	}
	evs, err := p.Parse(words, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if p.MaxDepth != 1 {
		t.Errorf("max depth %d", p.MaxDepth)
	}
	if len(evs) != 6 {
		t.Errorf("events = %d want 6", len(evs))
	}
}

func TestParseIdleCounting(t *testing.T) {
	p := trace.NewParser(nil)
	p.AddProcess(1, table())
	words := []uint32{trace.MarkKernExit | 1, 0x300, 0x300, 0x300}
	if _, err := p.Parse(words, nil); err != nil {
		t.Fatal(err)
	}
	if p.IdleInstr != 3 {
		t.Errorf("idle instructions %d want 3", p.IdleInstr)
	}
}

func TestParseRejectsGarbageRecord(t *testing.T) {
	p := trace.NewParser(nil)
	p.AddProcess(1, table())
	if _, err := p.Parse([]uint32{trace.MarkKernExit | 1, 0x12345678}, nil); err == nil {
		t.Error("garbage record accepted")
	}
}

func TestFinishDetectsTruncation(t *testing.T) {
	p := trace.NewParser(nil)
	p.AddProcess(1, table())
	if _, err := p.Parse([]uint32{trace.MarkKernExit | 1, 0x100}, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err == nil {
		t.Error("mid-block truncation not reported")
	}
}

func TestFinishTruncatedNest(t *testing.T) {
	p := trace.NewParser(ktable())
	p.AddProcess(1, table())
	words := []uint32{
		0x80000100, // kernel block opens (1 EA pending)
		trace.MarkExcEnter,
		0x80000100, 0x80200004, // complete nested block
		// Stream ends without the matching MarkExcExit.
	}
	if _, err := p.Parse(words, nil); err != nil {
		t.Fatal(err)
	}
	err := p.Finish()
	var tn *trace.TruncatedNestError
	if !errors.As(err, &tn) {
		t.Fatalf("Finish() = %v, want *TruncatedNestError", err)
	}
	if tn.Depth != 1 || !tn.InKern {
		t.Errorf("frame = depth %d inKern %v, want 1 kernel", tn.Depth, tn.InKern)
	}
	// The open frame holds the interrupted kernel block: its one store
	// EA never arrived.
	if tn.Orig != 0x80000100 || tn.Got != 0 || tn.Want != 1 {
		t.Errorf("interrupted block = orig %#x got %d want %d", tn.Orig, tn.Got, tn.Want)
	}
	if s := tn.Error(); !strings.Contains(s, "mid-block") || !strings.Contains(s, "kernel") {
		t.Errorf("message %q lacks context", s)
	}
}

func TestFinishTruncatedNestBetweenBlocks(t *testing.T) {
	p := trace.NewParser(ktable())
	// The exception lands between blocks: no partial block to report,
	// but the open frame itself is still an error.
	if _, err := p.Parse([]uint32{trace.MarkExcEnter}, nil); err != nil {
		t.Fatal(err)
	}
	err := p.Finish()
	var tn *trace.TruncatedNestError
	if !errors.As(err, &tn) {
		t.Fatalf("Finish() = %v, want *TruncatedNestError", err)
	}
	if tn.Depth != 1 || tn.Orig != 0 || tn.Want != 0 {
		t.Errorf("frame = %+v, want depth 1 between blocks", tn)
	}
	if s := tn.Error(); !strings.Contains(s, "between blocks") {
		t.Errorf("message %q lacks context", s)
	}
}

func TestModeSwitchResync(t *testing.T) {
	p := trace.NewParser(ktable())
	p.AddProcess(1, table())
	words := []uint32{
		0x80000100, // kernel block opens (1 EA pending)
		trace.MarkModeSw,
		0x80210000, 0x80210004, // orphan dirt (skipped)
		0x80000100, 0x80200000, // clean block resumes
	}
	if _, err := p.Parse(words, nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Finish(); err != nil {
		t.Fatal(err)
	}
	if p.ModeSws != 1 {
		t.Errorf("mode switches %d", p.ModeSws)
	}
}

func TestMarkers(t *testing.T) {
	if !trace.IsMarker(trace.MarkCtxSw | 5) {
		t.Error("CtxSw marker not recognized")
	}
	if trace.IsMarker(0x80001234) || trace.IsMarker(0x00400320) {
		t.Error("addresses misread as markers")
	}
	if trace.MarkerArg(trace.MarkProcExit|9) != 9 {
		t.Error("marker arg wrong")
	}
	if trace.MarkerKind(trace.MarkExcEnter) != trace.MarkExcEnter {
		t.Error("marker kind wrong")
	}
}

func TestReferenceCounting(t *testing.T) {
	p := trace.NewParser(nil)
	p.AddProcess(1, table())
	p.CountBlocks()
	words := []uint32{trace.MarkKernExit | 1, 0x200, 0x200, 0x300}
	if _, err := p.Parse(words, nil); err != nil {
		t.Fatal(err)
	}
	c := countsByOrig(p)
	if c[0x400100] != 2 || c[0x400200] != 1 {
		t.Errorf("counts %v", c)
	}
}

// countsByOrig sums the parser's per-table block counts by original
// block address.
func countsByOrig(p *trace.Parser) map[uint32]uint64 {
	out := map[uint32]uint64{}
	for _, tc := range p.BlockCounts() {
		for id, n := range tc.Counts {
			if n != 0 {
				out[tc.Table.Block(id).OrigAddr] += n
			}
		}
	}
	return out
}

func TestProcExitEndsAttribution(t *testing.T) {
	p := trace.NewParser(ktable())
	p.AddProcess(1, table())
	words := []uint32{
		trace.MarkKernExit | 1,
		0x200, // user block
		trace.MarkKernEnter,
		0x80000100, 0x80200000,
		trace.MarkProcExit | 1,
	}
	if _, err := p.Parse(words, nil); err != nil {
		t.Fatal(err)
	}
	if p.ProcExits != 1 {
		t.Errorf("ProcExits = %d want 1", p.ProcExits)
	}
	// A record attributed to the exited process must now be rejected:
	// its side table is gone, as the kernel's trace pages are.
	if _, err := p.Parse([]uint32{trace.MarkKernExit | 1, 0x200}, nil); err == nil {
		t.Error("record for exited process accepted")
	}
}

func TestEmptySideTable(t *testing.T) {
	for _, blocks := range [][]obj.InstrBlock{nil, {}} {
		st := trace.NewSideTable(blocks)
		if lo, hi := st.Range(); lo != 0 || hi != 0 {
			t.Errorf("empty table Range() = [%#x, %#x], want [0, 0]", lo, hi)
		}
		if b := st.Lookup(0); b != nil {
			t.Errorf("empty table Lookup(0) = %v, want nil", b)
		}
		if b := st.Lookup(0x400100); b != nil {
			t.Errorf("empty table Lookup(0x400100) = %v, want nil", b)
		}
		if bs := st.Blocks(); len(bs) != 0 {
			t.Errorf("empty table Blocks() has %d entries, want 0", len(bs))
		}
	}
}

// TestParseErrorIndexAbsolute: a ParseError's Index counts from the
// start of the stream, so one corrupt word is reported at the same
// Index however the stream is chunked across ParseTo calls: whole, or
// in 1-, 7- and 65536-word chunks. Both error paths are covered: a bad
// block record and a bad marker.
func TestParseErrorIndexAbsolute(t *testing.T) {
	words := []uint32{trace.MarkKernExit | 1}
	for len(words) < 70_000 {
		words = append(words, 0x100, 0x10000000, 0x200)
	}
	for _, tc := range []struct {
		name string
		bad  uint32
	}{
		{"record", 0x12345678},
		{"marker", trace.MarkExcExit},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const at = 69_997 // a block record's slot, past the first 65536 words
			if words[at] != 0x100 {
				t.Fatalf("word %d is 0x%08x, not a block record", at, words[at])
			}
			mut := append([]uint32(nil), words...)
			mut[at] = tc.bad
			for _, chunk := range []int{len(mut), 1, 7, 65536} {
				p := trace.NewParser(nil)
				p.AddProcess(1, table())
				var err error
				for i := 0; i < len(mut) && err == nil; i += chunk {
					err = p.ParseTo(mut[i:min(i+chunk, len(mut))], discard{})
				}
				var pe *trace.ParseError
				if !errors.As(err, &pe) {
					t.Fatalf("chunk %d: err = %v, want a *ParseError", chunk, err)
				}
				if pe.Index != at || pe.Word != tc.bad {
					t.Errorf("chunk %d: error at word %d (0x%08x), want %d (0x%08x)",
						chunk, pe.Index, pe.Word, at, tc.bad)
				}
			}
		})
	}
}

// discard is a Sink that drops every event.
type discard struct{}

func (discard) Fetch(trace.Event, int) {}
func (discard) Ref(trace.Event)        {}
