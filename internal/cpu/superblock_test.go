package cpu_test

// Invalidation regressions for the superblock tier. Each test attacks
// one soundness edge the chains add on top of the reference Step:
// a guest store into a frame another frame's superblock chains into,
// a DMA transfer landing under a resident chain, and a TLB rewrite
// between a mapped superblock's build and its next entry. All three
// run with the build threshold forced to 1 so the first re-entry
// builds, and assert both the architectural outcome and the engine
// counters that prove the guarded path actually ran.

import (
	"encoding/binary"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/dev"
	"systrace/internal/isa"
	"systrace/internal/machine"
)

// crossFrameLoop assembles the two-page loop shared by the cross-frame
// tests: the loop head sits at the end of one text frame and falls
// through into the next, so the superblock built at the head chains
// across the frame boundary. The instruction at 0x80002000 (ORI t3,5)
// is the patch target; iterations accumulate t3 into GPR 12.
func crossFrameLoop(m *machine.Machine, patch bool) {
	T3, T4, T6, T7 := isa.RegT3, 12, 14, 15
	K0, K1, T9 := isa.RegK0, isa.RegK1, isa.RegT9
	put(m, 0x80001ff8,
		isa.ADDIU(T6, T6, 1), // loop head: iteration counter
		isa.NOP,              // last word of the first frame
	)
	if patch {
		put(m, 0x80002000,
			isa.ORI(T3, 0, 5), // patch target (second frame)
			isa.ADDU(T4, T4, T3),
			isa.BNE(T6, T9, 2), // skip the patch except on iteration 4
			isa.NOP,
			isa.SW(K1, K0, 0), // guest store into the chained-in frame
			isa.SLTI(T7, T6, 8),
			isa.BNE(T7, 0, -9), // back to the loop head
			isa.NOP,
			isa.BREAK(0),
		)
		m.CPU.GPR[K0] = 0x80002000
		m.CPU.GPR[K1] = uint32(isa.ORI(T3, 0, 9))
		m.CPU.GPR[T9] = 4
	} else {
		put(m, 0x80002000,
			isa.ORI(T3, 0, 5),
			isa.ADDU(T4, T4, T3),
			isa.SLTI(T7, T6, 8),
			isa.BNE(T7, 0, -6), // back to the loop head
			isa.NOP,
			isa.BREAK(0),
		)
	}
	m.CPU.PC = 0x80001ff8
}

// TestSuperblockCrossFrameInvalidation: a guest store rewrites an
// instruction in the second frame of a superblock whose entry lies in
// the first. The store lands mid-dispatch (the patch path runs inside
// the chain), so the dependent-superblock invalidation must both drop
// the chain and stop the current dispatch before the stale tail
// retires. Iterations 1-4 must see the old instruction (accumulating
// 5), iterations 5-8 the new one (9). The reference engine runs the
// same program for a full-state comparison.
func TestSuperblockCrossFrameInvalidation(t *testing.T) {
	fast := newM()
	fast.CPU.SetSuperblockThreshold(1)
	crossFrameLoop(fast, true)
	if err := fast.Run(1000); err != nil {
		t.Fatal(err)
	}
	ref := newM()
	ref.CPU.SetSuperblocks(false)
	crossFrameLoop(ref, true)
	if err := ref.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := fast.CPU.GPR[12]; got != 4*5+4*9 {
		t.Errorf("accumulator = %d, want %d (stale chained frame executed)", got, 4*5+4*9)
	}
	if d := diffState(ref.CPU, fast.CPU); d != "" {
		t.Errorf("engines diverge: %s", d)
	}
	st := fast.CPU.SuperblockStats()
	if st.Built == 0 {
		t.Error("no superblock built: the cross-frame chain was not exercised")
	}
	if st.Invalidated == 0 {
		t.Error("guest store into a chained frame invalidated no superblock")
	}
}

// TestSuperblockDMAInvalidation: disk DMA copies replacement code over
// the second frame of a resident cross-frame superblock through
// RAM.WriteAt (bypassing the CPU's write port). The RAM write hook
// must drop the dependent chain; re-running the loop must execute the
// DMA'd code, not the stale linearized steps.
func TestSuperblockDMAInvalidation(t *testing.T) {
	T3, T6, T7 := isa.RegT3, 14, 15
	img := make([]byte, dev.SectorSize)
	repl := []isa.Word{
		isa.ORI(T3, 0, 9), // replaces the ORI t3,5 at 0x80002000
		isa.ADDU(12, 12, T3),
		isa.SLTI(T7, T6, 8),
		isa.BNE(T7, 0, -6),
		isa.NOP,
		isa.BREAK(0),
	}
	for i, w := range repl {
		binary.BigEndian.PutUint32(img[i*4:], uint32(w))
	}
	m := machine.New(1<<20, img)
	m.CPU.HaltOnBreak = true
	m.CPU.SetSuperblockThreshold(1)
	crossFrameLoop(m, false)
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU.GPR[12]; got != 8*5 {
		t.Fatalf("first run: accumulator = %d, want %d", got, 8*5)
	}
	if m.CPU.SuperblockStats().Built == 0 {
		t.Fatal("no superblock built over the two-frame loop")
	}

	// DMA one sector over the second frame while the chain is resident.
	now := m.Cycles()
	m.Disk.Write(now, dev.DiskSector, 0)
	m.Disk.Write(now, dev.DiskAddr, 0x2000)
	m.Disk.Write(now, dev.DiskNSect, 1)
	m.Disk.Write(now, dev.DiskCmd, 1)
	m.Disk.Advance(now + 100_000_000)
	if m.Disk.Reads != 1 {
		t.Fatalf("disk read did not complete (reads=%d)", m.Disk.Reads)
	}
	m.CPU.Halted = false
	m.CPU.GPR[12], m.CPU.GPR[T6] = 0, 0
	m.CPU.PC = 0x80001ff8
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU.GPR[12]; got != 8*9 {
		t.Errorf("after DMA: accumulator = %d, want %d (stale superblock executed)", got, 8*9)
	}
	if inv := m.CPU.SuperblockStats().Invalidated; inv == 0 {
		t.Error("DMA under a resident chain invalidated no superblock")
	}
}

// TestSuperblockTLBGenerationGuard: a superblock built over mapped
// text caches its va→pa translations in its page guards. The guest
// then rewrites the mapping with TLBWI (bumping the translation
// generation) so the same virtual entry names different physical
// code. The entry guard must refuse the stale chain — revalidation
// sees the PFN mismatch — and the fetch path must translate afresh.
// Calls 1-4 run the routine at the old frame (adding 5), calls 5-8
// the new frame (adding 9).
func TestSuperblockTLBGenerationGuard(t *testing.T) {
	T3, T4, T5, T6, T7, T8 := isa.RegT3, 12, 13, 14, 15, 24
	K0, K1, T9, RA := isa.RegK0, isa.RegK1, isa.RegT9, isa.RegRA
	m := newM()
	m.CPU.SetSuperblockThreshold(1)
	routine := func(pa uint32, v uint16) {
		m.RAM.WriteWord(pa, uint32(isa.ORI(T3, 0, v)))
		m.RAM.WriteWord(pa+4, uint32(isa.ADDU(T4, T4, T3)))
		m.RAM.WriteWord(pa+8, uint32(isa.JR(RA)))
		m.RAM.WriteWord(pa+12, uint32(isa.NOP))
	}
	// The routine sits 0x40 into its page: at offset 0 it would share
	// a heat slot (va>>2 & 4095) with the loop head at 0x80001000, and
	// since every stepped PC probes the entry table the two would evict
	// each other's heat before the routine ever got built.
	routine(0x5040, 5)
	routine(0x6040, 9)
	m.CPU.TLB[8] = cpu.TLBEntry{Hi: 0x1000, Lo: 0x5000 | eloVD}
	put(m, 0x80001000,
		isa.ADDIU(T6, T6, 1), // loop head: call counter
		isa.JALR(RA, T8),     // into the mapped routine (J cannot leave kseg0's 256MB region)
		isa.NOP,              // return lands right after the slot
		isa.BNE(T6, T9, 5),   // skip the remap except on call 4
		isa.NOP,
		isa.MTC0(K0, isa.C0EntryHi),
		isa.MTC0(K1, isa.C0EntryLo),
		isa.MTC0(T5, isa.C0Index),
		isa.TLBWI(), // page 0x1000 now names the 0x6000 frame
		isa.SLTI(T7, T6, 8),
		isa.BNE(T7, 0, -11), // back to the loop head
		isa.NOP,
		isa.BREAK(0),
	)
	m.CPU.GPR[T8] = 0x1040
	m.CPU.GPR[K0] = 0x1000
	m.CPU.GPR[K1] = 0x6000 | eloVD
	m.CPU.GPR[T5] = 8
	m.CPU.GPR[T9] = 4
	m.CPU.PC = 0x80001000
	if err := m.Run(1000); err != nil {
		t.Fatal(err)
	}
	if got := m.CPU.GPR[T4]; got != 4*5+4*9 {
		t.Errorf("accumulator = %d, want %d (stale mapped superblock executed)", got, 4*5+4*9)
	}
	st := m.CPU.SuperblockStats()
	if st.Built == 0 {
		t.Error("no superblock built over the mapped routine")
	}
	if st.EntryRejects == 0 {
		t.Error("remapped entry was never rejected: the generation guard did not fire")
	}
}

// TestSuperblockDelaySlotFault: a memory op in a chained delay slot
// faults while the chain is dispatching, on an unmapped kuseg address
// or, for the LH that execSB hands to exec, a misaligned one. The slow
// path must raise the exception as a delay-slot one (Cause.BD set, EPC
// on the branch), exactly as the reference engine does. Each loop
// walks a pointer table whose first entries are valid kseg0 data and
// whose seventh is the bad address, so the superblock (threshold 1) is
// resident before the faulting iteration; both vectors hold BREAK, so
// the machines halt on exception entry.
func TestSuperblockDelaySlotFault(t *testing.T) {
	S0, S1, T0, T1, T2, T3 := isa.RegS0, isa.RegS1, isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3
	head := []isa.Word{
		isa.LUI(S1, 0x8000),
		isa.ORI(S1, S1, 0x3000), // pointer table
		isa.ORI(S0, 0, 0),       // iteration counter
		// loop (0x8000100c):
		isa.LW(T1, S1, 0),
		isa.ADDIU(S1, S1, 4),
		isa.ADDIU(S0, S0, 1),
	}
	for _, tc := range []struct {
		name     string
		body     []isa.Word
		branchPC uint32
		bad      uint32 // the seventh pointer
	}{
		{
			// LW in the slot of a forward BNE, predicted (and
			// actually) not taken.
			name: "lw-bne",
			body: []isa.Word{
				isa.ANDI(T2, S0, 0x100),
				isa.BNE(T2, 0, 1), // 0x8000101c
				isa.LW(T3, T1, 0),
				isa.SLTI(T0, S0, 10),
				isa.BNE(T0, 0, -8), // back to loop
				isa.NOP,
				isa.BREAK(0),
			},
			branchPC: 0x8000101c,
			bad:      0x00400000, // unmapped kuseg
		},
		{
			// LH, which execSB runs through exec, in the same slot;
			// the fault is an address error.
			name: "lh-misaligned",
			body: []isa.Word{
				isa.ANDI(T2, S0, 0x100),
				isa.BNE(T2, 0, 1), // 0x8000101c
				isa.LH(T3, T1, 0),
				isa.SLTI(T0, S0, 10),
				isa.BNE(T0, 0, -8), // back to loop
				isa.NOP,
				isa.BREAK(0),
			},
			branchPC: 0x8000101c,
			bad:      0x80002001,
		},
		{
			// SB in the slot of the JR that ends the chain.
			name: "sb-jr",
			body: []isa.Word{
				isa.JAL(0x80001040 >> 2 & 0x03ffffff),
				isa.NOP,
				isa.SLTI(T0, S0, 10),
				isa.BNE(T0, 0, -7), // back to loop
				isa.NOP,
				isa.BREAK(0),
				isa.NOP, isa.NOP, isa.NOP, isa.NOP,
				// 0x80001040:
				isa.ADDU(T3, T3, S0),
				isa.JR(isa.RegRA), // 0x80001044
				isa.SB(T3, T1, 0),
			},
			branchPC: 0x80001044,
			bad:      0x00400000, // unmapped kuseg
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setup := func(m *machine.Machine) {
				put(m, cpu.VecUTLB, isa.BREAK(0))
				put(m, cpu.VecGeneral, isa.BREAK(0))
				put(m, 0x80001000, append(append([]isa.Word{}, head...), tc.body...)...)
				for i := uint32(0); i < 10; i++ {
					p := uint32(0x80002000)
					if i == 6 {
						p = tc.bad
					}
					m.RAM.WriteWord(0x3000+4*i, p)
				}
				m.CPU.PC = 0x80001000
			}
			fast := newM()
			fast.CPU.SetSuperblockThreshold(1)
			setup(fast)
			if err := fast.Run(1000); err != nil {
				t.Fatal(err)
			}
			ref := newM()
			ref.CPU.SetSuperblocks(false)
			setup(ref)
			if err := ref.Run(1000); err != nil {
				t.Fatal(err)
			}
			c := fast.CPU
			if c.CP0.Cause&cpu.CauseBD == 0 {
				t.Error("Cause.BD not set for the faulting delay-slot access")
			}
			if c.CP0.EPC != tc.branchPC {
				t.Errorf("EPC = 0x%08x, want the branch at 0x%08x", c.CP0.EPC, tc.branchPC)
			}
			if c.CP0.BadVAddr != tc.bad {
				t.Errorf("BadVAddr = 0x%08x, want 0x%08x", c.CP0.BadVAddr, tc.bad)
			}
			if st := c.SuperblockStats(); st.ExitExc == 0 {
				t.Errorf("no superblock exception exit (%+v): the fault was not taken inside a chain", st)
			}
			if d := diffState(ref.CPU, c); d != "" {
				t.Errorf("engines diverge: %s", d)
			}
		})
	}
}
