package trace_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"systrace/internal/obj"
	"systrace/internal/trace"
)

// genTable builds a randomized but well-formed side table: nblk blocks
// with 1..8 instructions each and memory references at strictly
// increasing in-block indices — the same invariants epoxie's rewriter
// guarantees for real binaries.
func genTable(r *rand.Rand, nblk int) *trace.SideTable {
	blocks := make([]obj.InstrBlock, nblk)
	for i := range blocks {
		n := 1 + r.Intn(8)
		b := obj.InstrBlock{
			RecordAddr: 0x00400000 + uint32(i)*64,
			OrigAddr:   0x00401000 + uint32(i)*64,
			NInstr:     int32(n),
		}
		if i%7 == 6 {
			b.Flags |= obj.BBIdleLoop
		}
		idx := 0
		for idx < n && r.Intn(2) == 0 {
			sz := []int{1, 2, 4, 8}[r.Intn(4)]
			b.Mem = append(b.Mem, obj.MemOp{
				Index: int16(idx), Load: r.Intn(2) == 0, Size: int8(sz),
			})
			idx += 1 + r.Intn(3)
		}
		blocks[i] = b
	}
	return trace.NewSideTable(blocks)
}

// emit appends one block record plus its reference words and returns
// the reference and idle-instruction counts the parser must produce
// for it.
func emit(r *rand.Rand, words []uint32, b obj.InstrBlock) (out []uint32, evs, idle int) {
	out = append(words, b.RecordAddr)
	evs = int(b.NInstr) + len(b.Mem)
	if b.Flags&obj.BBIdleLoop != 0 {
		// Idle-loop fetches are emitted (flagged Idle) *and* counted.
		idle = int(b.NInstr)
	}
	for range b.Mem {
		out = append(out, 0x10000000+uint32(r.Intn(1<<24))*4)
	}
	return out, evs, idle
}

// TestQuickParseWellFormed: for any random side table and any random
// sequence of complete block records, the parser accepts the stream,
// produces exactly the event count the table dictates, counts idle
// instructions separately, and its per-block counters reproduce the
// emission multiset.
func TestQuickParseWellFormed(t *testing.T) {
	prop := func(seed int64, nblkRaw, lenRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		nblk := 1 + int(nblkRaw)%40
		streamLen := 1 + int(lenRaw)%200

		table := genTable(r, nblk)
		p := trace.NewParser(nil)
		p.AddProcess(3, table)
		p.CountBlocks()

		var words []uint32
		words = append(words, trace.MarkKernExit|3)
		wantEvents, wantIdle := 0, 0
		wantCounts := map[uint32]uint64{}
		blocks := table.Blocks()
		for i := 0; i < streamLen; i++ {
			b := blocks[r.Intn(len(blocks))]
			var e, id int
			words, e, id = emit(r, words, *b)
			wantEvents += e
			wantIdle += id
			wantCounts[b.OrigAddr]++
		}

		evs, err := p.Parse(words, nil)
		if err != nil {
			t.Logf("seed %d: parse: %v", seed, err)
			return false
		}
		if err := p.Finish(); err != nil {
			t.Logf("seed %d: finish: %v", seed, err)
			return false
		}
		if len(evs) != wantEvents {
			t.Logf("seed %d: events %d want %d", seed, len(evs), wantEvents)
			return false
		}
		if int(p.IdleInstr) != wantIdle {
			t.Logf("seed %d: idle %d want %d", seed, p.IdleInstr, wantIdle)
			return false
		}
		got := countsByOrig(p)
		for addr, n := range wantCounts {
			if got[addr] != n {
				t.Logf("seed %d: block 0x%x count %d want %d", seed, addr, got[addr], n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickParseTruncationDetected: truncating a well-formed stream in
// the middle of a block's reference words must be flagged by Finish —
// the property behind the paper's defensive-tracing claim that a
// dropped word is detected "with a very high probability".
func TestQuickParseTruncationDetected(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		table := genTable(r, 20)
		// Find a block with at least one reference.
		var b obj.InstrBlock
		found := false
		for _, cand := range table.Blocks() {
			if len(cand.Mem) > 0 && cand.Flags&obj.BBIdleLoop == 0 {
				b, found = *cand, true
				break
			}
		}
		if !found {
			return true // vacuous for this table shape
		}
		words := []uint32{trace.MarkKernExit | 3, b.RecordAddr}
		// All but the final reference word present.
		for i := 0; i < len(b.Mem)-1; i++ {
			words = append(words, 0x10000000+uint32(i)*4)
		}
		p := trace.NewParser(nil)
		p.AddProcess(3, table)
		if _, err := p.Parse(words, nil); err != nil {
			return true // already detected at parse time
		}
		return p.Finish() != nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
