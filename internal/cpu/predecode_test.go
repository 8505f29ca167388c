package cpu_test

// Differential oracle for the decoded fast path: the reference
// interpreter (Step — per-instruction fetch and full decode in exec)
// is run against superblock dispatch (StepN) over random instruction
// sequences and structured loops, asserting identical architectural
// state (GPR/FPR/CP0/TLB/Stat) and identical Observer event streams.
// Invalidation edges (store to the executing page, device DMA over
// chained text) get dedicated regression tests.

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/dev"
	"systrace/internal/isa"
	"systrace/internal/machine"
	"systrace/internal/telemetry"
)

// recObs folds every observer event into a rolling FNV-1a hash so two
// streams can be compared step by step without storing them.
type recObs struct {
	h uint64
	n uint64
}

func (o *recObs) mix(vs ...uint32) {
	for _, v := range vs {
		o.h ^= uint64(v)
		o.h *= 1099511628211
	}
	o.n++
}

func b2u(b bool) uint32 {
	if b {
		return 1
	}
	return 0
}

func (o *recObs) Fetch(va, pa uint32, kernel, cached bool) {
	o.mix(1, va, pa, b2u(kernel), b2u(cached))
}

// FetchRun is its n Fetch calls, by the Observer contract.
func (o *recObs) FetchRun(va, pa uint32, n int, kernel, cached bool) {
	for k := uint32(0); k < uint32(n); k++ {
		o.Fetch(va+4*k, pa+4*k, kernel, cached)
	}
}
func (o *recObs) Load(va, pa uint32, size int, kernel, cached bool) {
	o.mix(2, va, pa, uint32(size), b2u(kernel), b2u(cached))
}
func (o *recObs) Store(va, pa uint32, size int, kernel, cached bool) {
	o.mix(3, va, pa, uint32(size), b2u(kernel), b2u(cached))
}
func (o *recObs) Exception(code int, vector uint32) { o.mix(4, uint32(code), vector) }
func (o *recObs) FPOp(latency int)                  { o.mix(5, uint32(latency)) }

// diffState returns a description of the first architectural
// difference between two CPUs, or "" if they match.
func diffState(a, b *cpu.CPU) string {
	if a.GPR != b.GPR {
		for i := range a.GPR {
			if a.GPR[i] != b.GPR[i] {
				return fmt.Sprintf("GPR[%d] 0x%08x vs 0x%08x", i, a.GPR[i], b.GPR[i])
			}
		}
	}
	for i := range a.FPR {
		if math.Float64bits(a.FPR[i]) != math.Float64bits(b.FPR[i]) {
			return fmt.Sprintf("FPR[%d] %v vs %v", i, a.FPR[i], b.FPR[i])
		}
	}
	if a.FPCond != b.FPCond {
		return fmt.Sprintf("FPCond %v vs %v", a.FPCond, b.FPCond)
	}
	if a.HI != b.HI || a.LO != b.LO {
		return fmt.Sprintf("HI/LO %x/%x vs %x/%x", a.HI, a.LO, b.HI, b.LO)
	}
	if a.PC != b.PC {
		return fmt.Sprintf("PC 0x%08x vs 0x%08x", a.PC, b.PC)
	}
	if a.CP0 != b.CP0 {
		return fmt.Sprintf("CP0 %+v vs %+v", a.CP0, b.CP0)
	}
	if a.TLB != b.TLB {
		return "TLB contents differ"
	}
	if a.Stat != b.Stat {
		return fmt.Sprintf("Stat %+v vs %+v", a.Stat, b.Stat)
	}
	if a.Halted != b.Halted {
		return fmt.Sprintf("Halted %v vs %v", a.Halted, b.Halted)
	}
	if a.FaultMsg != b.FaultMsg {
		return fmt.Sprintf("FaultMsg %q vs %q", a.FaultMsg, b.FaultMsg)
	}
	return ""
}

// randInstr produces one instruction word: a blend of fully random
// words (covering reserved encodings and every primary opcode) and
// templated valid instructions with random fields (covering real
// semantics densely — branches stay short, memory offsets stay small
// so pointer-seeded registers mostly hit RAM).
func randInstr(r *rand.Rand) uint32 {
	reg := func() int { return r.Intn(32) }
	off := func() uint16 { return uint16(r.Intn(64) * 4) }
	boff := func() int16 { return int16(r.Intn(16) - 8) }
	switch r.Intn(22) {
	case 0, 1, 2, 3:
		return r.Uint32()
	case 4:
		return uint32(isa.ADDU(reg(), reg(), reg()))
	case 5:
		return uint32(isa.ADDIU(reg(), reg(), uint16(r.Uint32())))
	case 6:
		return uint32(isa.LW(reg(), reg(), off()))
	case 7:
		return uint32(isa.SW(reg(), reg(), off()))
	case 8:
		return uint32(isa.BEQ(reg(), reg(), boff()))
	case 9:
		return uint32(isa.BNE(reg(), reg(), boff()))
	case 10:
		return uint32(isa.SLL(reg(), reg(), uint32(r.Intn(32))))
	case 11:
		return uint32(isa.MULT(reg(), reg()))
	case 12:
		return uint32(isa.LUI(reg(), uint16(r.Uint32())))
	case 13:
		return uint32(isa.ORI(reg(), reg(), uint16(r.Uint32())))
	case 14:
		return uint32(isa.LB(reg(), reg(), off()))
	case 15:
		return uint32(isa.SB(reg(), reg(), off()))
	case 16:
		return uint32(isa.BLTZ(reg(), boff()))
	case 17:
		return uint32(isa.MTC1(reg(), reg()))
	case 18:
		return uint32(isa.FADD(r.Intn(32), r.Intn(32), r.Intn(32)))
	case 19:
		// Direct jumps stay inside the three text pages so chains keep
		// chaining; JR targets come from the pointer-seeded registers.
		t := (0x80001000 + uint32(r.Intn(0x2000))&^3) >> 2 & 0x03ffffff
		if r.Intn(2) == 0 {
			return uint32(isa.J(t))
		}
		return uint32(isa.JAL(t))
	case 20:
		return uint32(isa.JR(reg()))
	default:
		return uint32(isa.MFC0(reg(), r.Intn(16)))
	}
}

// lockstepPair builds two identical machines, one per engine, with the
// given words loaded from physical address 0 and registers seeded from
// r.
func lockstepPair(r *rand.Rand, words []uint32) (ref, fast *machine.Machine, oref, ofast *recObs) {
	ref = machine.New(1<<20, nil)
	fast = machine.New(1<<20, nil)
	ref.CPU.SetPredecode(false)
	var regs [32]uint32
	for i := 1; i < 32; i++ {
		if r.Intn(2) == 0 {
			// Pointers into the program/data region keep loads,
			// stores, and JR targets mostly on mapped RAM — including
			// stores into the executing text itself.
			regs[i] = 0x80001000 + uint32(r.Intn(0x1800))&^3
		} else {
			regs[i] = r.Uint32()
		}
	}
	oref, ofast = &recObs{}, &recObs{}
	for i, m := range []*machine.Machine{ref, fast} {
		for w := range words {
			m.RAM.WriteWord(uint32(w*4), words[w])
		}
		m.CPU.GPR = regs
		m.CPU.PC = 0x80001000
		m.CPU.HaltOnBreak = true
		if i == 0 {
			m.CPU.Obs = oref
		} else {
			m.CPU.Obs = ofast
		}
	}
	return ref, fast, oref, ofast
}

// lockstepRun runs the reference engine one Step at a time and the
// fast engine one StepN(1) at a time, failing on the first
// architectural or event-stream divergence. With the build threshold
// at 1, every PC reached a second time becomes a superblock entry, so
// a StepN(1) there is a one-instruction chain dispatch: each micro-op
// the walks reach is checked against exec on its own, and each such
// dispatch leaves through the budget exit (restoring inDelay when the
// next step is a delay slot).
func lockstepRun(t *testing.T, steps int, ref, fast *machine.Machine, oref, ofast *recObs) {
	t.Helper()
	fast.CPU.SetSuperblockThreshold(1)
	for s := 0; s < steps; s++ {
		ra := ref.CPU.Step()
		fast.CPU.StepN(1)
		if d := diffState(ref.CPU, fast.CPU); d != "" {
			t.Fatalf("step %d: %s", s, d)
		}
		if oref.n != ofast.n || oref.h != ofast.h {
			t.Fatalf("step %d: observer streams diverge (%d events hash %x vs %d events hash %x)",
				s, oref.n, oref.h, ofast.n, ofast.h)
		}
		if !ra {
			break
		}
	}
}

// TestLockstepRandomPrograms compares Step with one-instruction
// superblock dispatch (see lockstepRun) after every instruction of 40
// random programs.
func TestLockstepRandomPrograms(t *testing.T) {
	var chained uint64
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			// Random words fill the vector pages too, so exception
			// entries land in random handler code; text spans three
			// pages to exercise page crossings.
			words := make([]uint32, 0x3000/4)
			for i := range words {
				words[i] = randInstr(r)
			}
			ref, fast, oref, ofast := lockstepPair(r, words)
			lockstepRun(t, 3000, ref, fast, oref, ofast)
			chained += fast.CPU.SuperblockStats().Instructions
		})
	}
	if chained == 0 {
		t.Fatal("no instruction retired inside superblock dispatch: the fast path was not exercised")
	}
	t.Logf("%d instructions retired inside one-instruction superblock dispatch", chained)
}

// runBatched drives a CPU the way machine.Run's no-stall loop does:
// one StepN per iteration, each a superblock dispatch or one Step.
func runBatched(c *cpu.CPU, target uint64) {
	for c.Stat.Instret < target && !c.Halted {
		c.StepN(target - c.Stat.Instret)
	}
}

// TestLockstepStepNRandomPrograms covers the batched fast path: the
// reference engine runs per-Step while the fast engine runs through
// StepN, and the full architectural state must match at the same
// retirement count.
func TestLockstepStepNRandomPrograms(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			words := make([]uint32, 0x3000/4)
			for i := range words {
				words[i] = randInstr(r)
			}
			ref, fast, _, _ := lockstepPair(r, words)
			// No observers: this face covers unobserved dispatch at
			// the default build threshold; the superblock face below
			// runs observed.
			ref.CPU.Obs = nil
			fast.CPU.Obs = nil
			const target = 3000
			for ref.CPU.Stat.Instret < target {
				if !ref.CPU.Step() {
					break
				}
			}
			runBatched(fast.CPU, target)
			if d := diffState(ref.CPU, fast.CPU); d != "" {
				t.Fatalf("after %d instructions: %s", ref.CPU.Stat.Instret, d)
			}
		})
	}
}

// TestStepNStepsOnceBehindGuards: whenever a chain may not run (an
// enabled interrupt pending, a delay slot pending, an uncached kseg1
// PC, the reference engine, a misaligned PC), one StepN must do exactly
// one Step's work. Each case prepares twin machines, both warmed until
// a superblock is resident at the PC, and compares one StepN on one
// twin with as many Steps on the other as the StepN retired. The
// observer case is not a guard: the chain runs with an observer
// attached, and must leave the same state and event stream as the
// same number of Steps.
func TestStepNStepsOnceBehindGuards(t *testing.T) {
	T0, T1, T2, T3 := isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3
	const head = 0x80001000
	warm := func() *machine.Machine {
		m := newM()
		m.CPU.SetSuperblockThreshold(1)
		put(m, head-4,
			isa.BEQ(0, 0, 5), // delay-slot case only: its slot is the head
			isa.ADDIU(T0, T0, 1),
			isa.ADDU(T1, T1, T0),
			isa.SLTI(T2, T0, 30000),
			isa.BNE(T2, 0, -4), // back to head
			isa.ADDIU(T3, T3, 2),
			isa.BREAK(0),
		)
		m.CPU.PC = head
		runBatched(m.CPU, 200)
		// Stop at the head, which follows a retired delay slot.
		for m.CPU.PC != head {
			m.CPU.Step()
		}
		return m
	}
	if n := warm().CPU.StepN(1000); n <= 1 {
		t.Fatalf("unguarded StepN retired %d instructions; want a superblock dispatch", n)
	}
	for _, tc := range []struct {
		name    string
		setup   func(m *machine.Machine)
		batches bool // StepN dispatches the chain
	}{
		{"observer", func(m *machine.Machine) { m.CPU.Obs = &recObs{} }, true},
		{"irq", func(m *machine.Machine) {
			m.CPU.CP0.Status |= cpu.StIEc | 1<<(cpu.StIMShift+2)
			m.CPU.SetIRQ(2, true)
		}, false},
		{"delay-slot", func(m *machine.Machine) {
			m.CPU.PC = head - 4
			m.CPU.Step() // the BEQ: its slot is the chain's entry
		}, false},
		{"kseg1", func(m *machine.Machine) { m.CPU.PC = head - cpu.KSeg0Base + cpu.KSeg1Base }, false},
		{"reference", func(m *machine.Machine) { m.CPU.SetPredecode(false) }, false},
		{"misaligned", func(m *machine.Machine) { m.CPU.PC = head + 2 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := warm(), warm()
			tc.setup(a)
			tc.setup(b)
			n := a.CPU.StepN(1000)
			if tc.batches && n <= 1 {
				t.Errorf("StepN returned %d, want a superblock dispatch", n)
			}
			if !tc.batches && n != 1 {
				t.Errorf("StepN returned %d, want 1", n)
			}
			for k := uint64(0); k < n; k++ {
				b.CPU.Step()
			}
			if d := diffState(a.CPU, b.CPU); d != "" {
				t.Fatalf("StepN vs Step: %s", d)
			}
			if a.CPU.Stat.Instret != b.CPU.Stat.Instret {
				t.Fatalf("Instret %d vs %d", a.CPU.Stat.Instret, b.CPU.Stat.Instret)
			}
			if oa, ok := a.CPU.Obs.(*recObs); ok {
				ob := b.CPU.Obs.(*recObs)
				if oa.n != ob.n || oa.h != ob.h {
					t.Fatalf("observer streams diverge (%d events hash %x vs %d events hash %x)",
						oa.n, oa.h, ob.n, ob.h)
				}
			}
		})
	}
}

// loopProgram assembles a structured program for 0x80001000 that
// drives every superblock exit path: a counted loop over a pseudo-random
// value (x = 9x+c) whose forward branches go either way by data
// (mispredict links), a JAL into a routine with a counted inner
// self-loop whose final fall-through mispredicts, a JR return into the
// hot chain after the call site (chain-to-chain linking), and a
// data-dependent store that patches an instruction of the chained
// routine (invalidation with pdExit mid-dispatch). r varies the trip
// count, the seed value, the increment and the branch masks.
func loopProgram(r *rand.Rand) []isa.Word {
	S0, S5, T0, T1, T2 := isa.RegS0, isa.RegS5, isa.RegT0, isa.RegT1, isa.RegT2
	T3, T4, T5, T6, T7, T8 := isa.RegT3, isa.RegT4, isa.RegT5, isa.RegT6, isa.RegT7, isa.RegT8
	const base, fn = 0x80001000, 22 // fn: word index of the routine
	patch := uint32(base + (fn+4)*4)
	alt := isa.SLL(T6, T0, uint32(3+r.Intn(4)))
	m1 := uint16(1) << (1 + r.Intn(3))
	m2 := uint16(3) << (4 + r.Intn(3))
	return []isa.Word{
		isa.ORI(S0, 0, uint16(20+r.Intn(40))), // trip count
		isa.ORI(T0, 0, uint16(r.Uint32())),    // x
		isa.LUI(S5, uint16(patch>>16)),
		isa.ORI(S5, S5, uint16(patch)),
		isa.LUI(T7, uint16(uint32(alt)>>16)),
		isa.ORI(T7, T7, uint16(alt)),
		// loop (word 6):
		isa.SLL(T1, T0, 3),
		isa.ADDU(T0, T0, T1),
		isa.ADDIU(T0, T0, uint16(r.Intn(64)*2+1)),
		isa.ANDI(T2, T0, m1),
		isa.BNE(T2, 0, 7), // forward to skip: predicted not-taken
		isa.ADDU(T3, T3, T0),
		isa.JAL((base + fn*4) >> 2 & 0x03ffffff),
		isa.ADDIU(T4, T4, 1),
		// ret (word 14): the JR lands here
		isa.ANDI(T2, T0, m2),
		isa.BNE(T2, 0, 2), // skip the patch store unless both bits clear
		isa.NOP,
		isa.SW(T7, S5, 0), // rewrite the inner loop's delay slot
		// skip (word 18):
		isa.ADDIU(S0, S0, 0xffff),
		isa.BGTZ(S0, -14), // back to loop
		isa.NOP,
		isa.BREAK(0),
		// fn (word 22):
		isa.ORI(T8, 0, uint16(2+r.Intn(3))),
		isa.ADDU(T5, T5, T0), // inner: a self-loop superblock
		isa.ADDIU(T8, T8, 0xffff),
		isa.BGTZ(T8, -3),
		isa.SLL(T6, T0, 2), // slot; patch target
		isa.JR(isa.RegRA),
		isa.ADDU(T5, T5, T6),
	}
}

// memProgram assembles a counted loop for 0x80001000 whose chain runs
// every memory micro-op over an 8-byte-aligned buffer on the data page
// at 0x80002000: the inline ones (LW, LBU, LB, SW, SB), which an
// observed dispatch must report itself, and the ones execSB hands to
// exec (LH, LHU, SH, LWC1, SWC1, and the FP add between them). r varies
// the trip count and the buffer start.
func memProgram(r *rand.Rand) []isa.Word {
	S0, S1, T0, T1, T2, T3 := isa.RegS0, isa.RegS1, isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3
	return []isa.Word{
		isa.ORI(S0, 0, uint16(20+r.Intn(40))), // trip count
		isa.LUI(S1, 0x8000),
		isa.ORI(S1, S1, uint16(0x2000+r.Intn(32)*8)),
		// loop (word 3):
		isa.LW(T0, S1, 0),
		isa.LBU(T1, S1, 1),
		isa.LB(T2, S1, 2),
		isa.LH(T3, S1, 2),
		isa.ADDU(T0, T0, T1),
		isa.ADDU(T0, T0, T2),
		isa.ADDU(T0, T0, T3),
		isa.LHU(T3, S1, 6),
		isa.SW(T0, S1, 4),
		isa.SB(T0, S1, 8),
		isa.SH(T3, S1, 10),
		isa.LWC1(2, S1, 16),
		isa.FADD(4, 2, 2),
		isa.SWC1(4, S1, 24),
		isa.ADDIU(S1, S1, 8),
		isa.ADDIU(S0, S0, 0xffff),
		isa.BGTZ(S0, -17), // back to loop
		isa.NOP,
		isa.BREAK(0),
	}
}

// TestLockstepSuperblockRandomPrograms covers the superblock tier:
// with the build threshold forced to 1, every repeated batch head and
// taken-jump target chains into a superblock, so the programs execute
// almost entirely through execSB. The corpus is 40 random programs
// plus 12 loopPrograms and 12 memPrograms: random words rarely form
// loops, so only the structured programs reach mispredict links,
// mid-dispatch invalidation and the inline memory ops. The reference engine runs per-Step; state and the
// observer event streams (attached on both engines, so chains report
// their fetches as FetchRuns) are compared at 100-instruction
// checkpoints, so a divergence is localized to the chain that caused
// it, and every checkpoint cuts a chain's fetch run at the budget.
func TestLockstepSuperblockRandomPrograms(t *testing.T) {
	var sum cpu.SuperblockStats
	run := func(name string, seed int64, gen func(r *rand.Rand) []uint32) {
		t.Run(name, func(t *testing.T) {
			r := rand.New(rand.NewSource(seed))
			words := gen(r)
			ref, fast, oref, ofast := lockstepPair(r, words)
			fast.CPU.SetSuperblockThreshold(1)
			const target = 3000
			for chk := uint64(100); chk <= target; chk += 100 {
				for ref.CPU.Stat.Instret < chk {
					if !ref.CPU.Step() {
						break
					}
				}
				runBatched(fast.CPU, chk)
				if d := diffState(ref.CPU, fast.CPU); d != "" {
					t.Fatalf("after %d instructions: %s", ref.CPU.Stat.Instret, d)
				}
				if oref.n != ofast.n || oref.h != ofast.h {
					t.Fatalf("after %d instructions: observer streams diverge (%d events hash %x vs %d events hash %x)",
						ref.CPU.Stat.Instret, oref.n, oref.h, ofast.n, ofast.h)
				}
				if ref.CPU.Halted {
					break
				}
			}
			st := fast.CPU.SuperblockStats()
			sum.Built += st.Built
			sum.ExitEnd += st.ExitEnd
			sum.ExitMispred += st.ExitMispred
			sum.ExitBudget += st.ExitBudget
			sum.ExitPDExit += st.ExitPDExit
			sum.ExitExc += st.ExitExc
			sum.Instructions += st.Instructions
		})
	}
	for seed := int64(1); seed <= 40; seed++ {
		run(fmt.Sprintf("seed%d", seed), seed, func(r *rand.Rand) []uint32 {
			words := make([]uint32, 0x3000/4)
			for i := range words {
				words[i] = randInstr(r)
			}
			return words
		})
	}
	for seed := int64(1); seed <= 12; seed++ {
		run(fmt.Sprintf("loop%d", seed), seed, func(r *rand.Rand) []uint32 {
			words := make([]uint32, 0x3000/4)
			for i, w := range loopProgram(r) {
				words[0x1000/4+i] = uint32(w)
			}
			return words
		})
	}
	for seed := int64(1); seed <= 12; seed++ {
		run(fmt.Sprintf("mem%d", seed), seed, func(r *rand.Rand) []uint32 {
			words := make([]uint32, 0x3000/4)
			for i, w := range memProgram(r) {
				words[0x1000/4+i] = uint32(w)
			}
			for i := 0x2000 / 4; i < len(words); i++ {
				words[i] = r.Uint32()
			}
			return words
		})
	}
	if sum.Built == 0 || sum.Instructions == 0 {
		t.Fatalf("%d superblocks built and %d instructions retired in them with observers attached: the tier was not exercised",
			sum.Built, sum.Instructions)
	}
	// Every way out of a dispatch must be taken somewhere in the
	// corpus, or the exit's state restoration goes untested here.
	for _, e := range []struct {
		name string
		n    uint64
	}{
		{"ExitEnd", sum.ExitEnd},
		{"ExitMispred", sum.ExitMispred},
		{"ExitBudget", sum.ExitBudget},
		{"ExitPDExit", sum.ExitPDExit},
		{"ExitExc", sum.ExitExc},
	} {
		if e.n == 0 {
			t.Errorf("%s = 0 across the corpus: that exit path was not exercised", e.name)
		}
	}
	t.Logf("exits across the corpus: %+v", sum)
}

// TestSuperblockChainEndsAtJumpTarget pins the walk's exit PC when a
// chained direct jump lands on a chain-ender: the builder appends the
// (J, slot) pair and then stops because the target's first instruction
// (an MFC0 here) cannot join the chain. Dispatch must leave through
// the slot's delayTarget; falling off the end to lastPC+4 silently
// diverts the jump onto its fall-through path — exactly the shape of
// the kernel's exception prologue, where J over the vector region
// lands on an MFC0 and the wrong exit skips the whole Status capture.
func TestSuperblockChainEndsAtJumpTarget(t *testing.T) {
	T0, T1, T2, T3 := isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3
	T5, T6, T7 := 13, 14, 15
	words := make([]uint32, 0x3000/4)
	put := func(va uint32, w isa.Word) { words[(va-0x80000000)/4] = uint32(w) }
	put(0x80001000, isa.ORI(T6, 0, 0)) // iteration counter
	// loop head (superblock entry after the first backward branch):
	put(0x80001004, isa.ORI(T0, 0, 1))
	put(0x80001008, isa.ORI(T1, 0, 2))
	put(0x8000100c, isa.ADDU(T2, T0, T1))
	put(0x80001010, isa.J(0x80001100>>2&0x03ffffff))
	put(0x80001014, isa.NOP)
	put(0x80001018, isa.ORI(T5, 0, 0xBAD)) // jump fall-through: must never run
	put(0x8000101c, isa.BREAK(0))
	put(0x80001100, isa.MFC0(T3, isa.C0Status)) // chain-ender at the jump target
	put(0x80001104, isa.ADDIU(T6, T6, 1))
	put(0x80001108, isa.SLTI(T7, T6, 8))
	put(0x8000110c, isa.BNE(T7, 0, -67)) // back to 0x80001004
	put(0x80001110, isa.NOP)
	put(0x80001114, isa.BREAK(0))

	r := rand.New(rand.NewSource(7))
	ref, fast, _, _ := lockstepPair(r, words)
	ref.CPU.Obs = nil
	fast.CPU.Obs = nil
	fast.CPU.SetSuperblockThreshold(1)
	const cap = 10000
	for ref.CPU.Stat.Instret < cap && !ref.CPU.Halted {
		ref.CPU.Step()
	}
	runBatched(fast.CPU, cap)
	if !ref.CPU.Halted || !fast.CPU.Halted {
		t.Fatalf("halted: reference=%v superblock=%v (instret %d vs %d)",
			ref.CPU.Halted, fast.CPU.Halted, ref.CPU.Stat.Instret, fast.CPU.Stat.Instret)
	}
	if d := diffState(ref.CPU, fast.CPU); d != "" {
		t.Fatalf("after %d instructions: %s", ref.CPU.Stat.Instret, d)
	}
	if fast.CPU.GPR[T5] == 0xBAD {
		t.Fatal("fall-through path after the jump executed")
	}
	if fast.CPU.SuperblockStats().Built == 0 {
		t.Fatal("no superblock built: the chained-jump exit was not exercised")
	}
}

// FuzzExecEquivalence is the fuzz face of the oracle: arbitrary bytes
// become an instruction stream, and the reference Step must agree with
// one-instruction chain dispatch at every step, with batched StepN at
// the end, and with observed superblock dispatch at checkpoints.
func FuzzExecEquivalence(f *testing.F) {
	f.Add([]byte{}, int64(1))
	f.Add([]byte{0x00, 0x00, 0x00, 0x0d}, int64(2)) // break
	seedProg := []isa.Word{
		isa.ORI(isa.RegT0, 0, 0x1234),
		isa.SW(isa.RegT0, isa.RegT1, 0),
		isa.BEQ(0, 0, -2),
		isa.ADDIU(isa.RegT0, isa.RegT0, 1),
	}
	progBytes := func(ws []isa.Word) []byte {
		var b []byte
		for _, w := range ws {
			b = binary.BigEndian.AppendUint32(b, uint32(w))
		}
		return b
	}
	f.Add(progBytes(seedProg), int64(3))
	// A loop with data-dependent forward branches and a JR return, so
	// the superblock face starts from mispredict and chain-to-chain
	// linking.
	f.Add(progBytes(loopProgram(rand.New(rand.NewSource(1)))), int64(4))
	// A loop over every memory op, inline and exec-routed, so the
	// superblock face starts from chains that run all of them.
	f.Add(progBytes(memProgram(rand.New(rand.NewSource(1)))), int64(5))
	f.Fuzz(func(t *testing.T, data []byte, seed int64) {
		if len(data) > 0x2000 {
			data = data[:0x2000]
		}
		words := make([]uint32, 0x3000/4)
		for i := 0; i+4 <= len(data); i += 4 {
			words[0x1000/4+i/4] = binary.BigEndian.Uint32(data[i:])
		}
		r := rand.New(rand.NewSource(seed))
		ref, fast, oref, ofast := lockstepPair(r, words)
		lockstepRun(t, 500, ref, fast, oref, ofast)

		// Second face: the same program through the batched StepN
		// loop with observers detached, compared against a per-Step
		// reference at the same retirement count.
		r = rand.New(rand.NewSource(seed))
		ref2, fast2, _, _ := lockstepPair(r, words)
		ref2.CPU.Obs = nil
		fast2.CPU.Obs = nil
		const target = 500
		for ref2.CPU.Stat.Instret < target {
			if !ref2.CPU.Step() {
				break
			}
		}
		runBatched(fast2.CPU, target)
		if d := diffState(ref2.CPU, fast2.CPU); d != "" {
			t.Fatalf("batched run diverges: %s", d)
		}

		// Third face: the superblock tier, threshold forced to 1 so
		// every repeated batch head chains immediately — any fuzz
		// input that builds a wrong chain diverges here. Observers
		// stay attached and are compared at checkpoints every stride
		// instructions, which cut fetch runs at the budget. The
		// stride (1 to 97) comes from the seed, so over the corpus the
		// budget exits land at every step position of a chain,
		// between a branch and its slot too.
		r = rand.New(rand.NewSource(seed))
		ref3, fast3, oref3, ofast3 := lockstepPair(r, words)
		fast3.CPU.SetSuperblockThreshold(1)
		stride := uint64(seed%97+97)%97 + 1
		for chk := stride; chk <= target; chk += stride {
			for ref3.CPU.Stat.Instret < chk {
				if !ref3.CPU.Step() {
					break
				}
			}
			runBatched(fast3.CPU, chk)
			if d := diffState(ref3.CPU, fast3.CPU); d != "" {
				t.Fatalf("superblock run diverges after %d instructions: %s", ref3.CPU.Stat.Instret, d)
			}
			if oref3.n != ofast3.n || oref3.h != ofast3.h {
				t.Fatalf("superblock run: observer streams diverge after %d instructions (%d events hash %x vs %d events hash %x)",
					ref3.CPU.Stat.Instret, oref3.n, oref3.h, ofast3.n, ofast3.h)
			}
			if ref3.CPU.Halted {
				break
			}
		}
	})
}

// TestStoreToExecutingPageInvalidates is the self-modifying-code
// regression: a store two slots ahead of the PC must be visible when
// the PC gets there, under both engines.
func TestStoreToExecutingPageInvalidates(t *testing.T) {
	for _, pd := range []bool{true, false} {
		t.Run(fmt.Sprintf("predecode=%v", pd), func(t *testing.T) {
			m := newM()
			m.CPU.SetPredecode(pd)
			newInstr := uint32(isa.ORI(isa.RegT0, 0, 7))
			put(m, 0x80001000,
				isa.LUI(isa.RegT1, uint16(newInstr>>16)),
				isa.ORI(isa.RegT1, isa.RegT1, uint16(newInstr)),
				isa.SW(isa.RegT1, isa.RegT2, 0), // overwrites 0x80001010
				isa.NOP,
				isa.ORI(isa.RegT0, 0, 1), // replaced before execution
				isa.BREAK(0),
			)
			m.CPU.GPR[isa.RegT2] = 0x80001010
			m.CPU.PC = 0x80001000
			if err := m.Run(100); err != nil {
				t.Fatal(err)
			}
			if got := m.CPU.GPR[isa.RegT0]; got != 7 {
				t.Errorf("t0 = %d, want 7 (stale instruction executed)", got)
			}
		})
	}
}

// TestDMAWriteInvalidatesPredecode covers the device write path: disk
// DMA copies into physical memory through RAM.WriteAt, not the CPU's
// write port, and the re-run must execute the new code, not a stale
// decode.
func TestDMAWriteInvalidatesPredecode(t *testing.T) {
	img := make([]byte, dev.SectorSize)
	binary.BigEndian.PutUint32(img[0:], uint32(isa.ORI(isa.RegT0, 0, 2)))
	binary.BigEndian.PutUint32(img[4:], uint32(isa.BREAK(0)))
	m := machine.New(1<<20, img)
	m.CPU.HaltOnBreak = true
	put(m, 0x80003000, isa.ORI(isa.RegT0, 0, 1), isa.BREAK(0))
	m.CPU.PC = 0x80003000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU.GPR[isa.RegT0]; got != 1 {
		t.Fatalf("first run: t0 = %d, want 1", got)
	}

	// DMA one sector of replacement code over the executed page, then
	// run it again.
	now := m.Cycles()
	m.Disk.Write(now, dev.DiskSector, 0)
	m.Disk.Write(now, dev.DiskAddr, 0x3000)
	m.Disk.Write(now, dev.DiskNSect, 1)
	m.Disk.Write(now, dev.DiskCmd, 1)
	m.Disk.Advance(now + 100_000_000)
	if m.Disk.Reads != 1 {
		t.Fatalf("disk read did not complete (reads=%d)", m.Disk.Reads)
	}
	m.CPU.Halted = false
	m.CPU.GPR[isa.RegT0] = 0
	m.CPU.PC = 0x80003000
	if err := m.Run(100); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU.GPR[isa.RegT0]; got != 2 {
		t.Errorf("after DMA: t0 = %d, want 2 (stale decode executed)", got)
	}
}

// TestPredecodeCounters pins the engine economics on a tight loop: one
// superblock built, no frame dropped, and every decoded dispatch inside
// it, so cpu_predecode_hits_total equals the superblock instruction
// count.
func TestPredecodeCounters(t *testing.T) {
	m := newM()
	put(m, 0x80001000,
		isa.ORI(isa.RegT0, 0, 200),
		isa.ADDIU(isa.RegT0, isa.RegT0, 0xffff), // -1
		isa.BNE(isa.RegT0, 0, -2),
		isa.NOP,
		isa.BREAK(0),
	)
	m.CPU.PC = 0x80001000
	reg := telemetry.New()
	m.CPU.RegisterMetrics(reg)
	if err := m.Run(10000); err != nil {
		t.Fatal(err)
	}
	counter := func(name string) uint64 {
		for _, mt := range reg.Snapshot().Metrics {
			if mt.Name == name {
				return uint64(mt.Value)
			}
		}
		t.Fatalf("metric %s not registered", name)
		return 0
	}
	st := m.CPU.SuperblockStats()
	if st.Built != 1 {
		t.Errorf("superblocks built = %d, want 1", st.Built)
	}
	if inv := counter("cpu_predecode_invalidations_total"); inv != 0 {
		t.Errorf("invalidations = %d, want 0", inv)
	}
	hits := counter("cpu_predecode_hits_total")
	if hits != st.Instructions {
		t.Errorf("hits = %d, want the superblock instruction count %d", hits, st.Instructions)
	}
	// 602 instructions retire: ORI, 200 trips of three, BREAK. The
	// loop head's first 16 probes (the build threshold) run on Step.
	if hits != 552 {
		t.Errorf("hits = %d, want 552 of %d instructions", hits, m.CPU.Stat.Instret)
	}
}
