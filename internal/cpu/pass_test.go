package cpu

// Pass-accounting oracle for superblock dispatch. execSB keeps no
// per-step counters: it derives the retirement count from the step
// index and the passes already completed, advances CP0.Random once at
// exit, and tests pdExit only after steps that called out. These tests
// stop a dispatch at every step position (budgets 1 to 2×len, so every
// stop between a branch and its slot and every loop wrap is reached),
// with and without an observer, and compare the result with the
// reference interpreter's Step at the same retirement count.

import (
	"encoding/binary"
	"fmt"
	"testing"

	"systrace/internal/isa"
)

// passDevice is a kseg0 address past fuzzBus's RAM: device space.
const passDevice = KSeg0Base + fuzzFrames*PageSize

// hashObs folds every observer event into an FNV-1a hash; FetchRun is
// its n Fetch calls, by the Observer contract.
type hashObs struct{ h, n uint64 }

func (o *hashObs) mix(vs ...uint32) {
	for _, v := range vs {
		o.h ^= uint64(v)
		o.h *= 1099511628211
	}
	o.n++
}

func (o *hashObs) Fetch(va, pa uint32, kernel, cached bool) { o.mix(1, va, pa) }
func (o *hashObs) FetchRun(va, pa uint32, n int, kernel, cached bool) {
	for k := uint32(0); k < uint32(n); k++ {
		o.Fetch(va+4*k, pa+4*k, kernel, cached)
	}
}
func (o *hashObs) Load(va, pa uint32, size int, kernel, cached bool) {
	o.mix(2, va, pa, uint32(size))
}
func (o *hashObs) Store(va, pa uint32, size int, kernel, cached bool) {
	o.mix(3, va, pa, uint32(size))
}
func (o *hashObs) Exception(code int, vector uint32) { o.mix(4, uint32(code), vector) }
func (o *hashObs) FPOp(latency int)                  { o.mix(5, uint32(latency)) }

// passCase is one program: its text at passHead, its initial
// registers, and the chain entries the fast engine builds before
// dispatch. The chain at the first entry sets the budget range.
type passCase struct {
	name    string
	prog    []isa.Word
	entries []uint32
	regs    map[int]uint32
	// warm lists words whose load and store translations are cached
	// before dispatch, so the first pass takes the inline paths.
	warm []uint32
	// text places more code: each key is a physical address.
	text map[uint32][]isa.Word
	// tlb fills TLB entries 8, 9, ...; entryHi and Index 8 are set too.
	tlb     []TLBEntry
	entryHi uint32
	// runTo is the retirement count both engines run on to after the
	// first dispatch; 0 means 4×len of the first chain.
	runTo uint64
}

const passHead = 0x80001000

func passCPU(pc passCase, obs bool) (*CPU, *hashObs) {
	bus := &fuzzBus{ram: make([]byte, fuzzFrames*PageSize)}
	put := func(pa uint32, ws []isa.Word) {
		for i, w := range ws {
			binary.BigEndian.PutUint32(bus.ram[pa+uint32(i)*4:], uint32(w))
		}
	}
	put(passHead-KSeg0Base, pc.prog)
	for pa, ws := range pc.text {
		put(pa, ws)
	}
	c := New(bus, passHead)
	c.HaltOnBreak = true
	copy(c.TLB[TLBWired:], pc.tlb)
	c.CP0.EntryHi = pc.entryHi
	c.CP0.Index = TLBWired
	for r, v := range pc.regs {
		c.GPR[r] = v
	}
	for _, va := range pc.warm {
		v, _ := c.load(va, 4)
		c.store(va, 4, v)
	}
	var o *hashObs
	if obs {
		o = &hashObs{}
		c.Obs = o
	}
	return c, o
}

// passDiff describes the first difference between the reference and
// the fast CPU, or returns "".
func passDiff(ref, fast *CPU, oref, ofast *hashObs) string {
	switch {
	case ref.Stat != fast.Stat:
		return fmt.Sprintf("Stat %+v, want %+v", fast.Stat, ref.Stat)
	case ref.PC != fast.PC:
		return fmt.Sprintf("PC 0x%08x, want 0x%08x", fast.PC, ref.PC)
	case ref.CP0 != fast.CP0:
		return fmt.Sprintf("CP0 %+v, want %+v", fast.CP0, ref.CP0)
	case ref.inDelay != fast.inDelay:
		return fmt.Sprintf("inDelay %v, want %v", fast.inDelay, ref.inDelay)
	case ref.inDelay && ref.delayTarget != fast.delayTarget:
		return fmt.Sprintf("delayTarget 0x%08x, want 0x%08x", fast.delayTarget, ref.delayTarget)
	case ref.GPR != fast.GPR:
		return fmt.Sprintf("GPR %x, want %x", fast.GPR, ref.GPR)
	case ref.Halted != fast.Halted:
		return fmt.Sprintf("Halted %v, want %v", fast.Halted, ref.Halted)
	case oref != nil && (oref.n != ofast.n || oref.h != ofast.h):
		return fmt.Sprintf("observer saw %d events (hash %x), want %d (hash %x)", ofast.n, ofast.h, oref.n, oref.h)
	}
	return ""
}

// runPassCase dispatches the case's first chain once for every budget
// from 1 to 2×len, then runs both engines on to a common retirement
// count, comparing with Step after each phase. It returns the fast
// engine's summed superblock counters.
func runPassCase(t *testing.T, pc passCase) SuperblockStats {
	t.Helper()
	var sum SuperblockStats
	probe, _ := passCPU(pc, false)
	probe.SetSuperblockThreshold(1)
	s := passBuild(t, probe, pc.entries[0])
	length := uint64(len(s.steps))
	for _, obs := range []bool{false, true} {
		for budget := uint64(1); budget <= 2*length; budget++ {
			ref, oref := passCPU(pc, obs)
			fast, ofast := passCPU(pc, obs)
			ref.SetSuperblocks(false)
			fast.SetSuperblockThreshold(1)
			for _, va := range pc.entries {
				passBuild(t, fast, va)
			}
			if n := fast.StepN(budget); n == 0 || n > budget {
				t.Fatalf("observer=%v budget %d: StepN retired %d", obs, budget, n)
			}
			for ref.Stat.Instret < fast.Stat.Instret && ref.Step() {
			}
			if d := passDiff(ref, fast, oref, ofast); d != "" {
				t.Fatalf("observer=%v budget %d, after the dispatch: %s", obs, budget, d)
			}
			// Run on: a wrong in-delay restore or PC shows up in the
			// instructions that follow the exit.
			target := 4 * length
			if pc.runTo != 0 {
				target = pc.runTo
			}
			for fast.Stat.Instret < target && !fast.Halted {
				fast.StepN(target - fast.Stat.Instret)
			}
			for ref.Stat.Instret < fast.Stat.Instret && ref.Step() {
			}
			if d := passDiff(ref, fast, oref, ofast); d != "" {
				t.Fatalf("observer=%v budget %d, at %d instructions: %s", obs, budget, ref.Stat.Instret, d)
			}
			st := fast.SuperblockStats()
			sum.ExitEnd += st.ExitEnd
			sum.ExitMispred += st.ExitMispred
			sum.ExitBudget += st.ExitBudget
			sum.ExitPDExit += st.ExitPDExit
			sum.ExitExc += st.ExitExc
			sum.Invalidated += st.Invalidated
			sum.EntryRejects += st.EntryRejects
			sum.Instructions += st.Instructions
		}
	}
	return sum
}

// passBuild builds (or finds) the superblock at va and fails the test
// if none forms: with the threshold at 1, the first probe records the
// address and the second builds.
func passBuild(t *testing.T, c *CPU, va uint32) *superblock {
	t.Helper()
	for k := 0; k < 3; k++ {
		if s := c.sbEnterable(va); s != nil {
			return s
		}
	}
	t.Fatalf("no superblock formed at 0x%08x", va)
	return nil
}

func TestPassAccounting(t *testing.T) {
	T0, T1, T2, T3, T4 := isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3, isa.RegT4
	S0, S1, S2, S3 := isa.RegS0, isa.RegS1, isa.RegS2, isa.RegS3
	K0, K1, T8, RA := isa.RegK0, isa.RegK1, isa.RegT8, isa.RegRA
	const data = 0x80002000
	// The stale-link cases call a routine through JALR, so the kseg0
	// chain at passHead ends by linking into the routine's chain, and
	// change what the routine's entry names before the next call. The
	// routine adds 5 (frame passOld) or 9 (frame passNew) to T1, so a
	// stale chain entered by the link probe shows in T1. Each runs
	// seven calls.
	routine := func(add uint16) []isa.Word {
		return []isa.Word{isa.ADDIU(T1, T1, add), isa.JR(RA), isa.NOP}
	}
	const passOld, passNew = 0x5040, 0x6040
	const mapped = 0x1040 // kuseg VA of the routine
	cases := []struct {
		passCase
		check func(st SuperblockStats) string
	}{{
		// A self-loop of every class the inline path runs: it wraps
		// in place, so budgets past len stop after a wrap.
		passCase: passCase{
			name: "loop",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.LW(T1, S1, 0),
				isa.SW(T0, S1, 4),
				isa.ADDU(T2, T2, T1),
				isa.LH(T3, S1, 4), // through exec
				isa.BNE(T0, S0, -6),
				isa.SLL(T4, T0, 2),
				isa.BREAK(0),
			},
			entries: []uint32{passHead},
			regs:    map[int]uint32{S0: 1000, S1: data},
			warm:    []uint32{data},
		},
		check: func(st SuperblockStats) string {
			if st.ExitBudget == 0 {
				return "no budget exit"
			}
			return ""
		},
	}, {
		// A forward branch predicted not-taken that is taken on the
		// first pass: the slot runs inline and dispatch links into the
		// chain at the target, so budgets past the link stop there.
		passCase: passCase{
			name: "mispredict",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.ADDU(T2, T2, T0),
				isa.BEQ(T0, S0, 4), // to target; S0 = 1: taken
				isa.SLL(T3, T0, 1),
				isa.ADDIU(T4, T4, 1), // fall-through: never runs
				isa.BREAK(0),
				isa.NOP,
				// target (word 7):
				isa.ADDU(T1, T1, T0),
				isa.ORI(T2, T2, 3),
				isa.SW(T1, S1, 0),
				isa.ADDIU(T3, T3, 7),
				isa.BREAK(0),
			},
			entries: []uint32{passHead, passHead + 7*4},
			regs:    map[int]uint32{S0: 1, S1: data},
			warm:    []uint32{data},
		},
		check: func(st SuperblockStats) string {
			if st.ExitMispred == 0 {
				return "no mispredict link"
			}
			return ""
		},
	}, {
		// (a) An inline SW in the loop body patches the next
		// instruction, dropping the executing chain's own frame:
		// dispatch must leave after the store with the PC at the next
		// step, which then runs the patched word, not the stale one.
		passCase: passCase{
			name: "inline-store-drops-own-frame",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.SW(S3, S2, 0),
				isa.ADDU(T2, T2, T0), // patched to S3's ADDIU
				isa.BNE(T0, S0, -4),
				isa.NOP,
				isa.BREAK(0),
			},
			entries: []uint32{passHead},
			regs:    map[int]uint32{S0: 1000, S2: passHead + 2*4, S3: uint32(isa.ADDIU(T4, T4, 1))},
			warm:    []uint32{passHead + 2*4},
		},
		check: func(st SuperblockStats) string {
			if st.ExitPDExit == 0 {
				return "no pdExit exit"
			}
			return ""
		},
	}, {
		// (a') A patching store as the loop branch's delay slot: the
		// chain ends on the slot, and the exit PC is the loop head the
		// branch took, not the word after the slot.
		passCase: passCase{
			name: "inline-store-in-loop-slot",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.ADDU(T2, T2, T0), // patched to S3's ADDIU
				isa.ORI(T3, T0, 4),
				isa.BNE(T0, S0, -4),
				isa.SW(S3, S2, 0),
				isa.BREAK(0),
			},
			entries: []uint32{passHead},
			regs:    map[int]uint32{S0: 1000, S2: passHead + 1*4, S3: uint32(isa.ADDIU(T4, T4, 1))},
			warm:    []uint32{passHead + 1*4},
		},
		check: func(st SuperblockStats) string {
			if st.ExitPDExit == 0 {
				return "no pdExit exit"
			}
			return ""
		},
	}, {
		// (b) A mispredicted branch whose slot is a device store: the
		// slot takes the slow path and raises pdExit, and dispatch
		// must still resume at the branch target.
		passCase: passCase{
			name: "mispredict-slot-pdexit",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.ADDU(T2, T2, T0),
				isa.BEQ(T0, S0, 4), // to target; S0 = 1: taken
				isa.SW(T0, S2, 0),  // device store in the slot
				isa.ADDIU(T4, T4, 1),
				isa.BREAK(0),
				isa.NOP,
				// target (word 7):
				isa.ADDU(T1, T1, T0),
				isa.ORI(T3, T3, 3),
				isa.ADDIU(T3, T3, 7),
				isa.BREAK(0),
			},
			entries: []uint32{passHead, passHead + 7*4},
			regs:    map[int]uint32{S0: 1, S2: passDevice},
		},
		check: func(st SuperblockStats) string {
			if st.ExitMispred == 0 {
				return "no mispredict exit"
			}
			if st.ExitPDExit != 0 {
				return fmt.Sprintf("%d pdExit exits: the slot's pdExit preempted the mispredict link", st.ExitPDExit)
			}
			return ""
		},
	}, {
		// A store between calls rewrites the routine's first word,
		// invalidating the chain the call last linked into.
		passCase: passCase{
			name: "stale-link-store",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.JALR(RA, T8),
				isa.NOP,
				isa.SW(S3, S2, 0), // patch the routine
				isa.XOR(S3, S3, T4),
				isa.BNE(T0, S0, -6),
				isa.NOP,
				isa.BREAK(0),
			},
			text:    map[uint32][]isa.Word{passOld: routine(5)},
			entries: []uint32{passHead, KSeg0Base + passOld},
			regs: map[int]uint32{S0: 7, T8: KSeg0Base + passOld, S2: KSeg0Base + passOld,
				S3: uint32(isa.ADDIU(T1, T1, 9)), T4: uint32(isa.ADDIU(T1, T1, 9) ^ isa.ADDIU(T1, T1, 5))},
			warm:  []uint32{KSeg0Base + passOld},
			runTo: 80,
		},
		check: func(st SuperblockStats) string {
			if st.Invalidated == 0 {
				return "the routine's chain was never invalidated"
			}
			return ""
		},
	}, {
		// A TLBWI between calls remaps the routine's page to the other
		// frame and back: the routine's chain has a stale generation,
		// and revalidation refuses it on every other call.
		passCase: passCase{
			name: "stale-link-tlbwi",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.JALR(RA, T8),
				isa.NOP,
				isa.XOR(K1, K1, T4),
				isa.MTC0(K1, isa.C0EntryLo),
				isa.TLBWI(),
				isa.BNE(T0, S0, -7),
				isa.NOP,
				isa.BREAK(0),
			},
			text:    map[uint32][]isa.Word{passOld: routine(5), passNew: routine(9)},
			entries: []uint32{passHead, mapped},
			tlb:     []TLBEntry{{Hi: mapped &^ (PageSize - 1), Lo: passOld&^(PageSize-1) | EloV | EloD}},
			entryHi: mapped &^ (PageSize - 1),
			regs: map[int]uint32{S0: 7, T8: mapped,
				K1: passOld&^(PageSize-1) | EloV | EloD, T4: (passOld ^ passNew) &^ (PageSize - 1)},
			runTo: 80,
		},
		check: func(st SuperblockStats) string {
			if st.EntryRejects == 0 {
				return "revalidation never refused the routine's chain"
			}
			return ""
		},
	}, {
		// An MTC0 between calls switches the ASID, under which the
		// routine's VA names the other frame: the chain the call last
		// linked into was built under the other ASID, and the probe
		// must answer a miss, not enter it or refuse it.
		passCase: passCase{
			name: "stale-link-asid",
			prog: []isa.Word{
				isa.ADDIU(T0, T0, 1),
				isa.JALR(RA, T8),
				isa.NOP,
				isa.XOR(K0, K0, T4),
				isa.MTC0(K0, isa.C0EntryHi),
				isa.BNE(T0, S0, -6),
				isa.NOP,
				isa.BREAK(0),
			},
			text:    map[uint32][]isa.Word{passOld: routine(5), passNew: routine(9)},
			entries: []uint32{passHead, mapped},
			tlb: []TLBEntry{
				{Hi: mapped&^(PageSize-1) | 1<<ASIDShift, Lo: passOld&^(PageSize-1) | EloV | EloD},
				{Hi: mapped&^(PageSize-1) | 2<<ASIDShift, Lo: passNew&^(PageSize-1) | EloV | EloD},
			},
			entryHi: 1 << ASIDShift,
			regs:    map[int]uint32{S0: 7, T8: mapped, K0: 1 << ASIDShift, T4: 3 << ASIDShift},
			runTo:   80,
		},
		check: func(st SuperblockStats) string {
			if st.EntryRejects != 0 || st.Invalidated != 0 {
				return "an ASID switch refused or dropped a chain"
			}
			return ""
		},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := runPassCase(t, tc.passCase)
			if msg := tc.check(st); msg != "" {
				t.Errorf("%s across the budgets: %+v", msg, st)
			}
		})
	}
}

// TestSuperblockDropLeavesOtherFrames: a chain that spans two frames
// is dropped through the first; it must leave the second frame's
// dependent list, which still holds the chain drawn from that frame
// alone, so dropping the second frame invalidates that one and only
// that one.
func TestSuperblockDropLeavesOtherFrames(t *testing.T) {
	T0, T1 := isa.RegT0, isa.RegT1
	const head = 0x80001ff8 // two words before the frame boundary
	pc := passCase{text: map[uint32][]isa.Word{
		head - KSeg0Base: {
			isa.ADDIU(T0, T0, 1),
			isa.NOP,
			isa.ADDIU(T1, T1, 1), // frame 2
			isa.BREAK(0),
			isa.ADDIU(T1, T1, 2), // the frame-2 chain's entry
			isa.BREAK(0),
		},
	}}
	c, _ := passCPU(pc, false)
	c.SetSuperblockThreshold(1)
	span := passBuild(t, c, head)
	inner := passBuild(t, c, head+16)
	f1, f2 := uint32(head-KSeg0Base)>>PageShift, uint32(head+8-KSeg0Base)>>PageShift
	c.InvalidatePhys(f1<<PageShift, 4)
	if span.valid || !inner.valid {
		t.Fatalf("after dropping frame %d: spanning chain valid=%v, frame-%d chain valid=%v", f1, span.valid, f2, inner.valid)
	}
	if deps := c.sb.deps[f2]; len(deps) != 1 || deps[0] != inner {
		t.Fatalf("frame %d dependents %v, want only the frame-%d chain %p", f2, deps, f2, inner)
	}
	c.InvalidatePhys(f2<<PageShift, 4)
	if inner.valid {
		t.Fatalf("dropping frame %d left its chain valid", f2)
	}
}
