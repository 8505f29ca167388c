package cpu_test

import (
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/isa"
	"systrace/internal/machine"
	"systrace/internal/memsys"
)

// countObs counts events and does nothing else, so an observed run
// measures what dispatch pays to report them.
type countObs struct{ events, fetches uint64 }

func (o *countObs) Fetch(va, pa uint32, kernel, cached bool) { o.fetches++ }
func (o *countObs) FetchRun(va, pa uint32, n int, kernel, cached bool) {
	o.events++
	o.fetches += uint64(n)
}
func (o *countObs) Load(va, pa uint32, size int, kernel, cached bool)  { o.events++ }
func (o *countObs) Store(va, pa uint32, size int, kernel, cached bool) { o.events++ }
func (o *countObs) Exception(code int, vector uint32)                  { o.events++ }
func (o *countObs) FPOp(latency int)                                   { o.events++ }

// BenchmarkSuperblockDispatch times superblock dispatch alone: a fixed
// loop of ALU ops, word and byte loads and stores, and a forward
// branch taken one iteration in eight (a mispredict link into the
// chain at its target), run through StepN in 4096-instruction batches
// after warm-up has built its chains. It reports ns/instr, with no
// observer and with one that only counts events.
func BenchmarkSuperblockDispatch(b *testing.B) {
	const batch = 4096
	for _, bc := range []struct {
		name string
		obs  cpu.Observer
	}{{"obs=nil", nil}, {"obs=count", &countObs{}}} {
		b.Run(bc.name, func(b *testing.B) {
			m := newM()
			putDispatchLoop(m)
			m.CPU.Obs = bc.obs
			run := func(n uint64) {
				for target := m.CPU.Stat.Instret + n; m.CPU.Stat.Instret < target; {
					m.CPU.StepN(target - m.CPU.Stat.Instret)
				}
			}
			run(1 << 14)
			if m.CPU.SuperblockStats().Built == 0 {
				b.Fatal("warm-up built no superblock")
			}
			b.ResetTimer()
			for k := 0; k < b.N; k++ {
				run(batch)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/instr")
		})
	}
}

// putDispatchLoop places BenchmarkSuperblockDispatch's loop at
// 0x80001000, its data at 0x80002000, and points the CPU at the loop.
func putDispatchLoop(m *machine.Machine) {
	T0, T1, T2, T3, T4, T5, T6 := isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3, isa.RegT4, isa.RegT5, isa.RegT6
	S1 := isa.RegS1
	const head, data = 0x80001000, 0x80002000
	put(m, head,
		isa.ADDIU(T0, T0, 1),
		isa.LW(T1, S1, 0),
		isa.ADDU(T2, T2, T1),
		isa.SW(T2, S1, 4),
		isa.ANDI(T3, T0, 7),
		isa.BEQ(T3, 0, 3), // to skip: predicted not-taken
		isa.NOP,
		isa.SLL(T4, T0, 2),
		isa.XOR(T5, T5, T4),
		// skip (word 9):
		isa.LBU(T6, S1, 8),
		isa.SB(T6, S1, 9),
		isa.SLTI(T4, T6, 100),
		isa.BEQ(0, 0, -13), // back to head
		isa.NOP,
	)
	m.CPU.GPR[S1] = data
	m.CPU.PC = head
}

// BenchmarkTimedDispatch times dispatch as experiment.Measure drives
// it: BenchmarkSuperblockDispatch's loop under machine.Run with the
// Timing model attached as observer and staller, so Run's bursts are 64
// instructions and a chain that reaches a burst's end runs on with the
// budget the machine extends. Each Run call ends at its instruction
// limit (the loop never halts). It fails if warm-up left chains at more
// than one burst end in ten, and reports ns/instr over 64K-instruction
// Run calls.
func BenchmarkTimedDispatch(b *testing.B) {
	const warm, batch = 1 << 16, 1 << 16
	m := newM()
	putDispatchLoop(m)
	tm := memsys.NewTiming(memsys.DECstation5000())
	m.AttachTiming(tm, tm)
	run := func(n uint64) {
		_ = m.Run(n) // the instruction limit ends every call
		if m.CPU.FaultMsg != "" || m.CPU.Halted {
			b.Fatalf("run stopped at pc=0x%08x: %q", m.CPU.PC, m.CPU.FaultMsg)
		}
	}
	run(warm)
	if st := m.CPU.SuperblockStats(); st.Built == 0 || st.ExitBudget > warm/64/10 {
		b.Fatalf("warm-up built %d chains and took %d budget exits over %d bursts", st.Built, st.ExitBudget, warm/64)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		run(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/instr")
}

// BenchmarkSuperblockLink times chain-to-chain linking: a kseg0 loop
// of three three-step chains that exit into each other, one of them a
// kuseg routine mapped to a different frame under each of two ASIDs.
// The loop's chain ends at the JALR into the routine, the routine at
// its JR back, and the chain after the call site at the backward
// branch to the loop head, so each nine-instruction trip takes three
// chain links; every 64th trip switches the ASID (on Step, since MTC0
// ends chains), after which the call links into the other address
// space's routine, which stays resident. It reports ns/instr over
// 4096-instruction StepN batches after warm-up.
func BenchmarkSuperblockLink(b *testing.B) {
	T0, T1, T2, T8 := isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT8
	K0, K1, RA := isa.RegK0, isa.RegK1, isa.RegRA
	const head, routine, batch = 0x80001000, 0x1040, 4096
	const asid1, asid2 = 1 << cpu.ASIDShift, 2 << cpu.ASIDShift
	m := newM()
	put(m, head,
		isa.ADDIU(T0, T0, 1), // loop
		isa.JALR(RA, T8),
		isa.NOP,
		isa.ANDI(T1, T0, 63), // the routine returns here
		isa.BNE(T1, 0, -5),   // back to loop: predicted taken
		isa.NOP,
		isa.XOR(K0, K0, K1),
		isa.MTC0(K0, isa.C0EntryHi), // switch the address space
		isa.J(head>>2&0x03ffffff),
		isa.NOP,
	)
	for _, pa := range []uint32{0x5040, 0x6040} {
		put(m, cpu.KSeg0Base+pa,
			isa.ADDIU(T2, T2, 1),
			isa.JR(RA),
			isa.NOP,
		)
	}
	m.CPU.TLB[8] = cpu.TLBEntry{Hi: routine&^0xfff | asid1, Lo: 0x5000 | cpu.EloV | cpu.EloD}
	m.CPU.TLB[9] = cpu.TLBEntry{Hi: routine&^0xfff | asid2, Lo: 0x6000 | cpu.EloV | cpu.EloD}
	m.CPU.CP0.EntryHi = asid1
	m.CPU.GPR[T8] = routine
	m.CPU.GPR[K0] = asid1
	m.CPU.GPR[K1] = asid1 ^ asid2
	m.CPU.PC = head
	run := func(n uint64) {
		for target := m.CPU.Stat.Instret + n; m.CPU.Stat.Instret < target; {
			m.CPU.StepN(target - m.CPU.Stat.Instret)
		}
	}
	run(1 << 14)
	if st := m.CPU.SuperblockStats(); st.Built < 5 || st.ExitEnd == 0 {
		b.Fatalf("warm-up built %d chains and took %d chain-end exits", st.Built, st.ExitEnd)
	}
	b.ResetTimer()
	for k := 0; k < b.N; k++ {
		run(batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/instr")
}
