package cpu_test

// Regression tests for the soft-TLB, the per-access-kind cache of page
// translations in front of the TLB. A cached va→pa translation must die
// when the backing TLB entry is rewritten (TLBWI, TLBWR) or the address
// space changes (EntryHi ASID switch), must not outlive the protection
// it was filled under (kernel-segment entries in user mode, a
// load-filled entry serving a store to a clean page), and refills are
// counted by cause. Each scenario runs under both engines: superblock
// dispatch indexes the same tables inline, so these edges guard it too.

import (
	"fmt"
	"testing"

	"systrace/internal/cpu"
	"systrace/internal/isa"
	"systrace/internal/machine"
	"systrace/internal/telemetry"
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
	m.CPU.SetSuperblocks(pd)
	m.RAM.WriteWord(tlbOldPA, oldWord)
	m.RAM.WriteWord(tlbNewPA, newWord)
	return m
}

func bothEngines(t *testing.T, f func(t *testing.T, pd bool)) {
	for _, pd := range []bool{true, false} {
		t.Run(fmt.Sprintf("predecode=%v", pd), func(t *testing.T) { f(t, pd) })
	}
}

// refills reads cpu_soft_tlb_refills_total for one access kind, by
// cause, from a registry the CPU registered its metrics in.
func refills(t *testing.T, reg *telemetry.Registry, kind string) map[string]uint64 {
	t.Helper()
	got := map[string]uint64{}
	for _, mt := range reg.Snapshot().Metrics {
		if mt.Name == "cpu_soft_tlb_refills_total" && mt.Labels["kind"] == kind {
			got[mt.Labels["cause"]] = uint64(mt.Value)
		}
	}
	if len(got) != 3 {
		t.Fatalf("cpu_soft_tlb_refills_total{kind=%q}: %d causes registered, want 3", kind, len(got))
	}
	return got
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

// userText maps the user text page (va 0x00400000, global) onto
// physical 0x4000 and assembles ws there.
func userText(m *machine.Machine, ws ...isa.Word) {
	m.CPU.TLB[8] = cpu.TLBEntry{Hi: 0x00400000, Lo: 0x4000 | cpu.EloV | cpu.EloG}
	for i, w := range ws {
		m.RAM.WriteWord(0x4000+uint32(i)*4, uint32(w))
	}
}

// TestUserAccessToKsegAfterKernelFill: kernel code touches a kseg0
// page, then RFEs to user mode. A user access to that page must raise
// an address error even though the kernel's access left a translation
// for it cached. The data cells reach the access in a hot chain (a
// loop whose forward branch skips it until the sixth trip) without any
// other data access in between, so the kernel-filled entry is what the
// inline hit check sees; the fetch cell returns to user mode on the
// kernel's own text page.
func TestUserAccessToKsegAfterKernelFill(t *testing.T) {
	const page = 0x80003000
	const kernelWord, userWord = 0x1111, 0x2222
	T0, T1, T2, T3, S0, K0 := isa.RegT0, isa.RegT1, isa.RegT2, isa.RegT3, isa.RegS0, isa.RegK0
	for _, tc := range []struct {
		name   string
		kernel isa.Word // the kernel's access to the page
		user   isa.Word // the same access from user mode
		code   int
	}{
		{"load", isa.LW(T1, T0, 0), isa.LW(T3, T0, 0), cpu.ExcAdEL},
		{"store", isa.SW(T2, T0, 0), isa.SW(T3, T0, 0), cpu.ExcAdES},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bothEngines(t, func(t *testing.T, pd bool) {
				m := newM()
				c := m.CPU
				c.SetSuperblocks(pd)
				c.SetSuperblockThreshold(1)
				m.RAM.WriteWord(page-cpu.KSeg0Base, kernelWord)
				put(m, 0x80000080, isa.BREAK(3)) // general vector: halt
				put(m, 0x80001000,
					isa.LUI(T0, page>>16),
					isa.ORI(T0, T0, page&0xffff),
					tc.kernel,
					isa.ORI(S0, 0, 6),
					isa.LUI(K0, 0x0040),
					isa.JR(K0),
					isa.RFE(), // pops to user mode
				)
				userText(m,
					isa.ADDIU(S0, S0, 0xffff), // 0x00: loop
					isa.BNE(S0, 0, 3),         // 0x04: to 0x14 until the sixth trip
					isa.NOP,
					tc.user,      // 0x0c: must raise an address error
					isa.BREAK(7), // 0x10: reached only through the bypass
					isa.BEQ(0, 0, -6),
					isa.NOP,
				)
				c.GPR[T2] = kernelWord
				c.GPR[T3] = userWord
				c.CP0.Status = cpu.StKUp // RFE returns to user mode
				c.PC = 0x80001000
				if err := m.Run(200); err != nil {
					t.Fatal(err)
				}
				if code := int(c.CP0.Cause >> cpu.CauseExcShift & 31); code != tc.code {
					t.Fatalf("user %s of kseg0: cause %d, want %d", tc.name, code, tc.code)
				}
				if c.CP0.BadVAddr != page || c.CP0.EPC != 0x0040000c || c.CP0.Status&cpu.StKUp == 0 {
					t.Errorf("BadVAddr=0x%08x EPC=0x%08x Status=0x%x, want the user access at 0x0040000c to 0x%08x",
						c.CP0.BadVAddr, c.CP0.EPC, c.CP0.Status, uint32(page))
				}
				if got := m.RAM.ReadWord(page - cpu.KSeg0Base); got != kernelWord {
					t.Errorf("kernel word = 0x%x, want 0x%x (overwritten from user mode)", got, kernelWord)
				}
				if c.GPR[T3] != userWord {
					t.Errorf("user load wrote 0x%x from kernel memory", c.GPR[T3])
				}
			})
		})
	}
	t.Run("fetch", func(t *testing.T) {
		bothEngines(t, func(t *testing.T, pd bool) {
			m := newM()
			c := m.CPU
			c.SetSuperblocks(pd)
			c.SetSuperblockThreshold(1)
			put(m, 0x80000080, isa.BREAK(3))
			put(m, 0x80001000,
				isa.LUI(K0, 0x8000),
				isa.ORI(K0, K0, 0x1010),
				isa.JR(K0),
				isa.RFE(),
				isa.BREAK(7), // 0x80001010: not fetchable in user mode
			)
			c.CP0.Status = cpu.StKUp
			c.PC = 0x80001000
			if err := m.Run(200); err != nil {
				t.Fatal(err)
			}
			if code := int(c.CP0.Cause >> cpu.CauseExcShift & 31); code != cpu.ExcAdEL {
				t.Fatalf("user fetch of kseg0: cause %d, want AdEL", code)
			}
			if c.CP0.BadVAddr != 0x80001010 || c.CP0.EPC != 0x80001010 || c.CP0.Status&cpu.StKUp == 0 {
				t.Errorf("BadVAddr=0x%08x EPC=0x%08x Status=0x%x, want the user fetch of 0x80001010",
					c.CP0.BadVAddr, c.CP0.EPC, c.CP0.Status)
			}
		})
	})
}

// TestStoreAfterLoadOnCleanPageRaisesMod: loads through a valid but
// clean (D clear) mapping fill the load table; a store to the same page
// must still take the TLB modification exception, not reuse the load's
// translation. The store sits in the hot chain, behind a forward branch
// that skips it until the sixth trip.
func TestStoreAfterLoadOnCleanPageRaisesMod(t *testing.T) {
	bothEngines(t, func(t *testing.T, pd bool) {
		m := tlbM(t, pd)
		c := m.CPU
		c.SetSuperblockThreshold(1)
		c.TLB[8] = cpu.TLBEntry{Hi: tlbVA, Lo: tlbOldPA | cpu.EloV | cpu.EloG}
		put(m, 0x80000080, isa.BREAK(3))
		put(m, 0x80001000,
			isa.LW(isa.RegT1, isa.RegT0, 0),         // 0x00: loop
			isa.ADDIU(isa.RegS0, isa.RegS0, 0xffff), // 0x04
			isa.BNE(isa.RegS0, 0, 3),                // 0x08: to 0x18 until the sixth trip
			isa.NOP,                                 // 0x0c
			isa.SW(isa.RegT2, isa.RegT0, 0),         // 0x10: clean page: Mod
			isa.BREAK(7),                            // 0x14: reached only if the store went through
			isa.BEQ(0, 0, -7),                       // 0x18
			isa.NOP,
		)
		c.GPR[isa.RegT0] = tlbVA
		c.GPR[isa.RegT2] = newWord
		c.GPR[isa.RegS0] = 6
		c.PC = 0x80001000
		if err := m.Run(200); err != nil {
			t.Fatal(err)
		}
		if code := int(c.CP0.Cause >> cpu.CauseExcShift & 31); code != cpu.ExcMod {
			t.Fatalf("store to clean page: cause %d, want Mod (%d)", code, cpu.ExcMod)
		}
		if c.CP0.BadVAddr != tlbVA || c.CP0.EPC != 0x80001010 || c.CP0.EntryHi&cpu.EntryHiVPN != tlbVA {
			t.Errorf("BadVAddr=0x%08x EPC=0x%08x EntryHi=0x%08x, want the store at 0x80001010 to 0x%x",
				c.CP0.BadVAddr, c.CP0.EPC, c.CP0.EntryHi, tlbVA)
		}
		if c.GPR[isa.RegT1] != oldWord {
			t.Errorf("load through the clean page = 0x%08x, want 0x%08x", c.GPR[isa.RegT1], oldWord)
		}
		if got := m.RAM.ReadWord(tlbOldPA); got != oldWord {
			t.Errorf("clean page word = 0x%08x, want 0x%08x (store bypassed the dirty bit)", got, oldWord)
		}
	})
}

// TestSoftTLBRefillsHashedIndex: a loop alternating loads between two
// pages 1 MB apart takes one cold refill per page. Their VPNs agree in
// the low eight bits, so an index of VPN bits alone would put them in
// one set and refill on every access.
func TestSoftTLBRefillsHashedIndex(t *testing.T) {
	bothEngines(t, func(t *testing.T, pd bool) {
		m := machine.New(4<<20, nil)
		m.CPU.HaltOnBreak = true
		m.CPU.SetSuperblocks(pd)
		reg := telemetry.New()
		m.CPU.RegisterMetrics(reg)
		S0, S1, T6 := isa.RegS0, isa.RegS1, 14
		put(m, 0x80001000,
			isa.LUI(S0, 0x8011),
			isa.LUI(S1, 0x8021),
			isa.ORI(T6, 0, 100),
			isa.LW(isa.RegT1, S0, 0), // loop
			isa.LW(isa.RegT2, S1, 0),
			isa.ADDIU(T6, T6, 0xffff),
			isa.BNE(T6, 0, -4),
			isa.NOP,
			isa.BREAK(0),
		)
		m.CPU.PC = 0x80001000
		if err := m.Run(1000); err != nil {
			t.Fatal(err)
		}
		if !m.CPU.Halted {
			t.Fatal("loop did not finish")
		}
		got := refills(t, reg, "load")
		if want := map[string]uint64{"cold": 2, "conflict": 0, "generation": 0}; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("load refills = %v, want %v", got, want)
		}
	})
}

// TestEntryHiSameASIDKeepsSoftTLB: an EntryHi write that keeps the ASID
// (a refill handler staging a VPN) leaves cached translations valid, so
// a loop of loads and such writes refills once. A write that changes
// the ASID expires nothing either: the loop's page is mapped global, so
// its cached translation holds under both ASIDs.
func TestEntryHiSameASIDKeepsSoftTLB(t *testing.T) {
	const asid1, asid2 = 1 << cpu.ASIDShift, 2 << cpu.ASIDShift
	for _, tc := range []struct {
		name   string
		toggle uint32 // XORed into the EntryHi value each trip
		want   map[string]uint64
	}{
		{"same-asid", 0, map[string]uint64{"cold": 1, "conflict": 0, "generation": 0}},
		{"asid-switch", asid1 ^ asid2, map[string]uint64{"cold": 1, "conflict": 0, "generation": 0}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bothEngines(t, func(t *testing.T, pd bool) {
				m := tlbM(t, pd)
				reg := telemetry.New()
				m.CPU.RegisterMetrics(reg)
				m.CPU.TLB[8] = cpu.TLBEntry{Hi: tlbVA, Lo: tlbOldPA | eloVD | cpu.EloG}
				m.CPU.CP0.EntryHi = asid1
				K0, K1, T6 := isa.RegK0, isa.RegK1, 14
				put(m, 0x80001000,
					isa.LW(isa.RegT1, isa.RegT0, 0), // loop
					isa.XOR(K0, K0, K1),
					isa.MTC0(K0, isa.C0EntryHi),
					isa.ADDIU(T6, T6, 0xffff),
					isa.BNE(T6, 0, -5),
					isa.NOP,
					isa.BREAK(0),
				)
				m.CPU.GPR[isa.RegT0] = tlbVA
				m.CPU.GPR[K0] = 0x7000 | asid1
				m.CPU.GPR[K1] = tc.toggle
				m.CPU.GPR[T6] = 10
				m.CPU.PC = 0x80001000
				if err := m.Run(1000); err != nil {
					t.Fatal(err)
				}
				if !m.CPU.Halted || m.CPU.GPR[isa.RegT1] != oldWord {
					t.Fatalf("halted=%v t1=0x%08x, want a finished loop loading 0x%08x", m.CPU.Halted, m.CPU.GPR[isa.RegT1], oldWord)
				}
				if got := refills(t, reg, "load"); fmt.Sprint(got) != fmt.Sprint(tc.want) {
					t.Errorf("load refills = %v, want %v", got, tc.want)
				}
			})
		})
	}
}
