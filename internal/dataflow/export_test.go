package dataflow

import (
	"fmt"

	"systrace/internal/isa"
)

// The naive forms of the engine's solver and queries, kept as the
// oracle for the one-pass forms: liveness re-derived by re-walking
// every word with a round-robin solver, and every point query answered
// by re-walking its block from one end.

// naiveTransferWord applies one instruction's backward liveness
// transfer to live.
func naiveTransferWord(b *block, i int, live isa.RegSet) isa.RegSet {
	if isTransparent(b, i) {
		return live
	}
	w := b.words[i]
	live = live&^isa.DefsMask(w) | isa.UsesMask(w)
	if w>>26 == isa.OpSpecial {
		if fn := w & 63; fn == isa.FnSYSCALL || fn == isa.FnBREAK {
			live |= abiUses
		}
	}
	return live
}

// naiveLiveBefore walks block b backward from live to word k.
func naiveLiveBefore(b *block, k int, live isa.RegSet) isa.RegSet {
	for i := len(b.words) - 1; i >= k; i-- {
		live = naiveTransferWord(b, i, live)
	}
	return live
}

// naiveSolve returns the least liveness fixpoint of p's CFG as live-in
// sets, by sweeping every block until nothing changes.
func naiveSolve(p *Program) []isa.RegSet {
	q := *p
	q.blocks = append([]block(nil), p.blocks...)
	for i := range q.blocks {
		q.blocks[i].liveIn = 0
	}
	for changed := true; changed; {
		changed = false
		for i := len(q.blocks) - 1; i >= 0; i-- {
			b := &q.blocks[i]
			if in := naiveLiveBefore(b, 0, q.liveOutOf(b)); in != b.liveIn {
				b.liveIn, changed = in, true
			}
		}
	}
	ins := make([]isa.RegSet, len(q.blocks))
	for i := range q.blocks {
		ins[i] = q.blocks[i].liveIn
	}
	return ins
}

// CheckNaive compares the solution behind f, and every point query on
// every block of it, against the naive forms. It walks each block's
// value states with one cursor forward and another backward, so the
// cursor's advance, its restart and its move to the next block are all
// covered.
func CheckNaive(f *Facts) error {
	p := f.p
	ins := naiveSolve(p)
	fwd, back := f.Values(), f.Values()
	for bi := range p.blocks {
		b := &p.blocks[bi]
		bf := &Facts{p: p, hi: b.key &^ 0xffffffff}
		off, n := uint32(b.key), len(b.words)
		where := fmt.Sprintf("block %#x (%d words)", b.key, n)
		if b.liveIn != ins[bi] {
			return fmt.Errorf("%s: live-in %v, naive solver %v", where, b.liveIn, ins[bi])
		}
		if out := p.liveOutOf(b); b.liveOut != out {
			return fmt.Errorf("%s: live-out %v, successors give %v", where, b.liveOut, out)
		}
		for k := 0; k <= n; k++ {
			want := naiveLiveBefore(b, k, b.liveOut)
			if got, ok := bf.LiveAt(off, k); !ok || got != want {
				return fmt.Errorf("%s: LiveAt(%d) = %v %v, naive %v", where, k, got, ok, want)
			}
		}
		fwd.f, back.f = bf, bf
		for k := 0; k <= n; k++ {
			if err := checkValues(b, fwd, k); err != nil {
				return fmt.Errorf("%s: forward: %w", where, err)
			}
			if err := checkValues(b, back, n-k); err != nil {
				return fmt.Errorf("%s: backward: %w", where, err)
			}
		}
	}
	return nil
}

// checkValues compares cursor c's state before word k of b with a
// forward re-walk from the block's value-in.
func checkValues(b *block, c *ValCursor, k int) error {
	st, ok := c.At(uint32(b.key), k)
	if b.valIn == nil {
		if ok {
			return fmt.Errorf("state at %d of an unreached block", k)
		}
		return nil
	}
	want := *b.valIn
	for i := 0; i < k; i++ {
		valTransferWord(b, i, &want)
	}
	if !ok || *st != want {
		return fmt.Errorf("state at %d differs from the re-walk (ok=%v)", k, ok)
	}
	return nil
}
