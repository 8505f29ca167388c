package epoxie

import (
	"fmt"
	"systrace/internal/isa"
	"systrace/internal/trace"
)

// Register stealing. "Epoxie operates on binaries after compilation,
// so registers reserved for tracing had to be 'stolen.' ... Uses in
// the original binary of these stolen registers are replaced with
// sequences of instructions that use a 'shadow' value for the
// register, in memory" (§3.2/3.5). The shadow slots live in the
// bookkeeping area addressed by xreg3; the assembler temporary `at`
// (never emitted by the compiler) is the primary scratch register, and
// a second scratch is borrowed — with a save/restore through the
// bookkeeping scratch slot — when an instruction reads two stolen
// registers.

func shadowOff(x int) uint16 {
	switch x {
	case xr1:
		return trace.BookShadow1
	case xr2:
		return trace.BookShadow2
	default:
		return trace.BookShadow3
	}
}

func isXReg(r int) bool { return r == xr1 || r == xr2 || r == xr3 }

// xregs is the set of stolen registers.
const xregs = isa.RegSet(1)<<xr1 | isa.RegSet(1)<<xr2 | isa.RegSet(1)<<xr3

// xregReads lists the stolen registers w reads in field order: the
// rs field first, as isa.Uses lists it. An instruction reads at most
// two GPRs, so the rest of the mask is the rt field. The order decides
// which read gets which scratch register.
func xregReads(w isa.Word) []int {
	u := isa.UsesMask(w) & xregs
	if u == 0 {
		return nil
	}
	if rs := int(w >> 21 & 31); u.Has(rs) {
		return append([]int{rs}, u.Without(rs).Regs()...)
	}
	return u.Regs()
}

// stealPlan describes one instruction's stolen-register rewrite.
type stealPlan struct {
	pre, post []isa.Word
	main      isa.Word
	twoRead   bool // a second stolen read needed a borrowed register
	elided    bool // the borrowed register was clobbered bracket-free (proven dead)
}

// steal rewrites one instruction's stolen-register uses at block
// instruction index k, consulting liveness for bracket elision, and
// accounts the site in the flow stats. It returns instructions to
// issue before and after the (possibly re-registered) main instruction.
func (r *rw) steal(w isa.Word, k int) (pre []isa.Word, main isa.Word, post []isa.Word) {
	live, haveLive := r.liveAt(k)
	plan, err := planSteal(w, isa.RegAT, isa.NOP, live, haveLive, r.cfg.Flow == FlowPadded)
	if err != nil {
		r.fault("%v", err)
	}
	r.account(plan)
	return plan.pre, plan.main, plan.post
}

// account tallies one steal plan in the per-object flow stats.
func (r *rw) account(p stealPlan) {
	if !p.twoRead {
		return
	}
	r.flow.SaveSites++
	switch {
	case p.elided && r.cfg.Flow == FlowPadded:
		r.flow.SavesElided++ // padded NOPs keep the layout; no bytes saved
	case p.elided:
		r.flow.SavesElided++
		r.flow.BytesSaved += 8 // the BookTmp save and restore
	default:
		r.flow.Fallbacks++
	}
}

// scratchCandidates are the registers a StealRewrite may borrow for a
// second stolen read, in preference order.
var scratchCandidates = []int{isa.RegV1, isa.RegT9, isa.RegT8, isa.RegA3}

// ScratchRegs returns the registers StealRewrite may borrow (and save
// through the bookkeeping scratch slot). The static verifier uses this
// to recognize the stealing idiom: a bookkeeping save/restore of any
// other register is not part of it.
func ScratchRegs() []int { return append([]int(nil), scratchCandidates...) }

// StealRewrite rewrites one instruction's uses of the stolen registers
// xreg1..xreg3 against their shadow slots, with no liveness facts
// (every borrowed register is saved and restored). It is shared with
// pixie, which steals the same registers.
func StealRewrite(w isa.Word) (pre []isa.Word, main isa.Word, post []isa.Word, err error) {
	plan, err := planSteal(w, isa.RegAT, isa.NOP, isa.AllRegs, false, false)
	return plan.pre, plan.main, plan.post, err
}

// planSteal plans one instruction's stolen-register rewrite.
//
//   - scratch1 substitutes the first stolen read (normally `at`; the
//     delay-slot conflict path passes a register liveness proved dead,
//     which is then clobbered without a bracket).
//   - avoid is an instruction whose registers a borrowed scratch must
//     additionally stay clear of (the terminator, when rewriting its
//     delay slot); pass isa.NOP when there is none.
//   - live/haveLive is the liveness before this instruction: a
//     candidate not in live is clobbered without the BookTmp bracket.
//   - pad replaces elided bracket words with NOPs (FlowPadded).
func planSteal(w isa.Word, scratch1 int, avoid isa.Word, live isa.RegSet, haveLive, pad bool) (stealPlan, error) {
	stolenReads := xregReads(w)
	wr := isa.Defs(w)
	stolenWrite := wr >= 0 && isXReg(wr)
	p := stealPlan{main: w}
	if len(stolenReads) == 0 && !stolenWrite {
		return p, nil
	}

	// Scratch assignment: first read -> scratch1; second read -> a
	// borrowed register, bracketed through the bookkeeping area unless
	// liveness proves it dead here.
	sub := map[int]int{}
	if len(stolenReads) > 0 {
		sub[stolenReads[0]] = scratch1
		p.pre = append(p.pre, isa.LW(scratch1, xr3, shadowOff(stolenReads[0])))
	}
	if len(stolenReads) > 1 {
		p.twoRead = true
		cand := -1
		if haveLive {
			for _, c := range scratchCandidates {
				if c != scratch1 && !isa.Touches(w, c) && !isa.Touches(avoid, c) && !live.Has(c) {
					cand, p.elided = c, true
					break
				}
			}
		}
		if cand < 0 {
			for _, c := range scratchCandidates {
				if c != scratch1 && !isa.Touches(w, c) && !isa.Touches(avoid, c) {
					cand = c
					break
				}
			}
		}
		if cand < 0 {
			return p, fmt.Errorf("no scratch register available for %s", isa.Disassemble(0, w))
		}
		sub[stolenReads[1]] = cand
		switch {
		case p.elided && pad:
			p.pre = append(p.pre, isa.NOP, isa.LW(cand, xr3, shadowOff(stolenReads[1])))
			p.post = append(p.post, isa.NOP)
		case p.elided:
			p.pre = append(p.pre, isa.LW(cand, xr3, shadowOff(stolenReads[1])))
		default:
			p.pre = append(p.pre,
				isa.SW(cand, xr3, trace.BookTmp),
				isa.LW(cand, xr3, shadowOff(stolenReads[1])))
			p.post = append(p.post, isa.LW(cand, xr3, trace.BookTmp))
		}
	}
	if stolenWrite {
		// The result is computed into at and written back to the
		// shadow slot. at may simultaneously serve as the replacement
		// for a read of the same register (reads complete before the
		// write takes effect within one instruction).
		sub[wr] = isa.RegAT
		// Write-back must precede the borrowed-register restore.
		p.post = append([]isa.Word{isa.SW(isa.RegAT, xr3, shadowOff(wr))}, p.post...)
	}
	remap := func(reg int) int {
		if n, ok := sub[reg]; ok {
			return n
		}
		return reg
	}
	p.main = isa.MapRegs(w, remap, remap)
	return p, nil
}
