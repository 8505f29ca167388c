package cpu_test

import (
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/isa"
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
	T0, T1, T2, T3, T4, T5, T6 := isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3, isa.RegT4, isa.RegT5, isa.RegT6
	S1 := isa.RegS1
	const head, data, batch = 0x80001000, 0x80002000, 4096
	for _, bc := range []struct {
		name string
		obs  cpu.Observer
	}{{"obs=nil", nil}, {"obs=count", &countObs{}}} {
		b.Run(bc.name, func(b *testing.B) {
			m := newM()
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
