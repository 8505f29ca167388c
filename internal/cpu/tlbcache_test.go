package cpu_test

// Regression tests for the one-entry tlbCache invalidation edges: a
// cached va→pa translation must die when the backing TLB entry is
// rewritten (TLBWI, TLBWR) or the address space changes (EntryHi ASID
// switch). Each scenario runs under both engines — superblock dispatch
// shares the data-side caches with Step, so these edges guard it too.

import (
	"fmt"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/isa"
	"systrace/internal/machine"
)

const (
	tlbOldPA = 0x5000
	tlbNewPA = 0x6000
	tlbVA    = 0x1000
	oldWord  = 0xAAAA5555
	newWord  = 0xBBBB6666
	eloVD    = cpu.EloV | cpu.EloD
)

// tlbM builds a machine with distinguishable words at the two physical
// pages a kuseg VA will be remapped between.
func tlbM(t *testing.T, pd bool) *machine.Machine {
	t.Helper()
	m := newM()
	m.CPU.SetPredecode(pd)
	m.RAM.WriteWord(tlbOldPA, oldWord)
	m.RAM.WriteWord(tlbNewPA, newWord)
	return m
}

func bothEngines(t *testing.T, f func(t *testing.T, pd bool)) {
	for _, pd := range []bool{true, false} {
		t.Run(fmt.Sprintf("predecode=%v", pd), func(t *testing.T) { f(t, pd) })
	}
}

// TestDCacheStaleAfterTLBWI: load through a wired mapping, rewrite
// that same TLB slot to a new frame with TLBWI, load again — the
// second load must see the new frame, not the cached translation.
func TestDCacheStaleAfterTLBWI(t *testing.T) {
	bothEngines(t, func(t *testing.T, pd bool) {
		m := tlbM(t, pd)
		m.CPU.TLB[8] = cpu.TLBEntry{Hi: tlbVA, Lo: tlbOldPA | eloVD}
		m.CPU.GPR[isa.RegT0] = tlbVA
		put(m, 0x80001000,
			isa.ORI(isa.RegK0, 0, tlbVA),
			isa.MTC0(isa.RegK0, isa.C0EntryHi),
			isa.ORI(isa.RegK1, 0, tlbNewPA|eloVD),
			isa.MTC0(isa.RegK1, isa.C0EntryLo),
			isa.ORI(isa.RegT2, 0, 8),
			isa.MTC0(isa.RegT2, isa.C0Index),
			isa.LW(isa.RegT1, isa.RegT0, 0), // fills dcache va 0x1000 → pa 0x5000
			isa.TLBWI(),                     // rewrites slot 8 → pa 0x6000
			isa.LW(isa.RegT3, isa.RegT0, 0), // must translate afresh
			isa.BREAK(0),
		)
		m.CPU.PC = 0x80001000
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
		if got := m.CPU.GPR[isa.RegT1]; got != oldWord {
			t.Errorf("first load = 0x%08x, want 0x%08x", got, oldWord)
		}
		if got := m.CPU.GPR[isa.RegT3]; got != newWord {
			t.Errorf("load after TLBWI = 0x%08x, want 0x%08x (stale dcache translation)", got, newWord)
		}
	})
}

// TestDCacheStaleAfterTLBWR: same shape, but the rewrite goes through
// TLBWR with Random steered (via its per-Step decrement) to land on
// the slot holding the cached mapping.
func TestDCacheStaleAfterTLBWR(t *testing.T) {
	bothEngines(t, func(t *testing.T, pd bool) {
		m := tlbM(t, pd)
		const idx = 20
		m.CPU.TLB[idx] = cpu.TLBEntry{Hi: tlbVA, Lo: tlbOldPA | eloVD}
		m.CPU.GPR[isa.RegT0] = tlbVA
		put(m, 0x80001000,
			isa.ORI(isa.RegK0, 0, tlbVA), // step 1
			isa.MTC0(isa.RegK0, isa.C0EntryHi),
			isa.ORI(isa.RegK1, 0, tlbNewPA|eloVD),
			isa.MTC0(isa.RegK1, isa.C0EntryLo),
			isa.LW(isa.RegT1, isa.RegT0, 0), // step 5
			isa.TLBWR(),                     // step 6: Random has decremented to idx
			isa.LW(isa.RegT3, isa.RegT0, 0),
			isa.BREAK(0),
		)
		// Random decrements before each exec; TLBWR is the 6th
		// instruction, so preset Random = idx + 6 to hit slot idx.
		m.CPU.CP0.Random = idx + 6
		m.CPU.PC = 0x80001000
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
		if got := m.CPU.TLB[idx].Lo; got != tlbNewPA|eloVD {
			t.Fatalf("TLBWR wrote elsewhere: TLB[%d].Lo = 0x%08x", idx, got)
		}
		if got := m.CPU.GPR[isa.RegT1]; got != oldWord {
			t.Errorf("first load = 0x%08x, want 0x%08x", got, oldWord)
		}
		if got := m.CPU.GPR[isa.RegT3]; got != newWord {
			t.Errorf("load after TLBWR = 0x%08x, want 0x%08x (stale dcache translation)", got, newWord)
		}
	})
}

// TestDCacheStaleAfterASIDSwitch: a non-global mapping cached under
// one ASID must not satisfy a load after EntryHi switches to another
// ASID — the load must miss into the UTLB refill path instead.
func TestDCacheStaleAfterASIDSwitch(t *testing.T) {
	bothEngines(t, func(t *testing.T, pd bool) {
		m := tlbM(t, pd)
		const asid1 = 1 << cpu.ASIDShift
		const asid2 = 2 << cpu.ASIDShift
		m.CPU.TLB[8] = cpu.TLBEntry{Hi: tlbVA | asid1, Lo: tlbOldPA | eloVD}
		m.CPU.CP0.EntryHi = asid1
		m.CPU.GPR[isa.RegT0] = tlbVA
		put(m, 0x80000000, isa.BREAK(0)) // UTLB refill vector: stop there
		put(m, 0x80001000,
			isa.LW(isa.RegT1, isa.RegT0, 0), // hits under asid1
			isa.ORI(isa.RegK0, 0, asid2),
			isa.MTC0(isa.RegK0, isa.C0EntryHi),
			isa.LW(isa.RegT3, isa.RegT0, 0), // must UTLB-miss, not hit the cache
			isa.BREAK(1),                    // not reached
		)
		m.CPU.PC = 0x80001000
		if err := m.Run(100); err != nil {
			t.Fatal(err)
		}
		if got := m.CPU.GPR[isa.RegT1]; got != oldWord {
			t.Errorf("load under asid1 = 0x%08x, want 0x%08x", got, oldWord)
		}
		if got := m.CPU.GPR[isa.RegT3]; got != 0 {
			t.Errorf("load under asid2 returned 0x%08x via a stale cached translation", got)
		}
		if got := m.CPU.Stat.UTLBMisses; got != 1 {
			t.Errorf("UTLBMisses = %d, want 1", got)
		}
		if got := m.CPU.CP0.EPC; got != 0x8000100c {
			t.Errorf("EPC = 0x%08x, want 0x8000100c (the missing load)", got)
		}
	})
}
