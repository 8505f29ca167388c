package cpu

import (
	"math/rand"
	"testing"

	"systrace/internal/isa"
)

// fuzzBus is fuzzFrames frames of RAM with device space above them:
// RAMPage is nil past the end, and device accesses succeed.
type fuzzBus struct{ ram []byte }

const fuzzFrames = 16

func (b *fuzzBus) Read(p uint32, size int) (uint32, bool)  { return 0, true }
func (b *fuzzBus) Write(p uint32, size int, v uint32) bool { return true }
func (b *fuzzBus) FetchWord(p uint32) (uint32, bool)       { return 0, true }
func (b *fuzzBus) RAMPage(p uint32) []byte {
	if base := p &^ (PageSize - 1); int(base) < len(b.ram) {
		return b.ram[base : base+PageSize]
	}
	return nil
}

// fuzzVPNs are the pages the soft-TLB oracle maps and touches: kuseg
// pages whose sets collide (0x00001 and 0x00100) or sit 1 MB apart,
// kseg0 pages in RAM and in device space, a kseg1 page, and kseg2
// pages.
var fuzzVPNs = [...]uint32{0x00001, 0x00100, 0x00101, 0x7ffff, 0x80003, 0x80020, 0xa0003, 0xc0001, 0xc0100}

// FuzzSoftTLB is the translation oracle: random TLB contents and a
// random sequence of accesses (load, store or fetch, user or kernel
// mode, every segment) mixed with TLBWR, TLBWI (either with a random
// entry, or with a valid global one), TLBR, MTC0 EntryHi (keeping the
// ASID, switching it, or switching back to the ASID before the last
// switch, so A → B → A round trips meet entries filled under A), MTC0
// Status and RFE. The soft-TLB tags each entry with the ASID it was
// filled under, or as global, so every access after a switch tests
// that tag. Every access
// goes through the production path (fetchWord, or a byte load or store)
// and must agree with a bare translate on a twin CPU that has no
// translation cache: the same success and exception state, and the
// entry in the access kind's table then holds translate's physical
// page, cache attribute and host frame. A miss that succeeds counts one
// refill of that kind; a hit counts none.
func FuzzSoftTLB(f *testing.F) {
	// A kernel load of a kseg0 page, then the same load in user mode.
	f.Add([]byte{0x00, 0x04, 0x20, 0x04}, int64(1))
	// A load then a store to one kuseg page, then a same-ASID and an
	// ASID-switching EntryHi write, each followed by the load again.
	f.Add([]byte{0x00, 0x00, 0x08, 0x00, 0x06, 0x00, 0x00, 0x00, 0x06, 0x31, 0x00, 0x00}, int64(2))
	// A TLBR that loads another entry's ASID into EntryHi, then a load
	// whose translation depends on the ASID (found by fuzzing).
	f.Add([]byte("01$0870072870"), int64(16))
	// A global entry written first in the TLB for a kuseg page, a load
	// through it, an ASID switch, the load again (a hit on the global
	// tag), the switch back, and the load once more.
	f.Add([]byte{0x85, 0x00, 0x00, 0x00, 0x06, 0x30, 0x00, 0x00, 0x86, 0x00, 0x00, 0x00}, int64(7))
	// A → B → A round trips over the random TLB: loads and stores to
	// kuseg pages under ASID 0, a switch to ASID 1 and then 2 with the
	// same accesses, and switches back.
	for s := int64(8); s <= 10; s++ {
		f.Add([]byte{0x00, 0x00, 0x08, 0x01, 0x06, 0x30, 0x00, 0x00, 0x08, 0x01,
			0x06, 0x50, 0x00, 0x00, 0x86, 0x00, 0x00, 0x00, 0x08, 0x01, 0x86, 0x00, 0x00, 0x00}, s)
	}
	for s := int64(3); s <= 6; s++ {
		b := make([]byte, 256)
		rand.New(rand.NewSource(s)).Read(b)
		f.Add(b, s)
	}
	f.Fuzz(func(t *testing.T, ops []byte, seed int64) {
		if len(ops) > 1024 {
			ops = ops[:1024]
		}
		r := rand.New(rand.NewSource(seed))
		randHi := func() uint32 { return fuzzVPNs[r.Intn(len(fuzzVPNs))]<<PageShift | uint32(r.Intn(3))<<ASIDShift }
		randLo := func() uint32 {
			lo := uint32(r.Intn(fuzzFrames+4)) << PageShift // a few frames past RAM
			for _, bit := range []uint32{EloN, EloD, EloG} {
				if r.Intn(3) == 0 {
					lo |= bit
				}
			}
			if r.Intn(8) != 0 {
				lo |= EloV
			}
			return lo
		}
		bus := &fuzzBus{ram: make([]byte, fuzzFrames*PageSize)}
		c, ref := New(bus, 0), New(bus, 0)
		for i := range c.TLB {
			c.TLB[i] = TLBEntry{Hi: randHi(), Lo: randLo()}
		}
		ref.TLB = c.TLB
		prevASID := uint32(0) // the ASID before the last switch
		both := func(w isa.Word) {
			c.exec(uint32(w))
			ref.exec(uint32(w))
		}
		mtc0 := func(reg int, v uint32) {
			c.GPR[isa.RegK0], ref.GPR[isa.RegK0] = v, v
			both(isa.MTC0(isa.RegK0, reg))
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i], ops[i+1]
			switch op & 7 {
			case 0, 1, 2, 3:
				kind := int(op>>3&3) % nTLBKinds
				st := c.CP0.Status&^StKUc | uint32(op>>5&1)*StKUc
				c.CP0.Status, ref.CP0.Status = st, st
				va := fuzzVPNs[int(arg)%len(fuzzVPNs)]<<PageShift | uint32(r.Intn(PageSize))
				if kind == tlbFetch {
					va &^= 3
				}
				e := &c.stlb[kind][tlbSet(va)]
				miss := !c.tlbHit(e, va)
				before := c.refills
				var got bool
				switch kind {
				case tlbLoad:
					_, got = c.load(va, 1)
				case tlbStore:
					got = c.store(va, 1, uint64(arg))
				default:
					_, got = c.fetchWord(va)
				}
				pa, cached, _, ok := ref.translate(va, kind == tlbStore, kind == tlbFetch)
				if got != ok {
					t.Fatalf("op %d: kind %d va 0x%08x status 0x%x: access ok=%v, translate ok=%v", i/2, kind, va, st, got, ok)
				}
				for k := range c.refills {
					n, want := uint64(0), uint64(0)
					for cause := range c.refills[k] {
						n += c.refills[k][cause] - before[k][cause]
					}
					if k == kind && miss && ok {
						want = 1
					}
					if n != want {
						t.Fatalf("op %d: kind %d va 0x%08x (miss %v, ok %v): %d kind-%d refills, want %d", i/2, kind, va, miss, ok, n, k, want)
					}
				}
				if ok {
					if !c.tlbHit(e, va) {
						t.Fatalf("op %d: kind %d va 0x%08x: the kind's soft-TLB entry does not translate va after the access", i/2, kind, va)
					}
					if spa := e.ppage | va&(PageSize-1); spa != pa || e.cached != cached {
						t.Fatalf("op %d: kind %d va 0x%08x: soft-TLB pa 0x%08x cached %v, translate pa 0x%08x cached %v",
							i/2, kind, va, spa, e.cached, pa, cached)
					}
					want := bus.RAMPage(pa)
					if !cached {
						want = nil
					}
					if (e.ram == nil) != (want == nil) || e.ram != nil && &e.ram[0] != &want[0] {
						t.Fatalf("op %d: kind %d va 0x%08x: soft-TLB host frame differs from pa 0x%08x's", i/2, kind, va, pa)
					}
				}
			case 4, 5:
				// A random entry, or (op bit 7) a valid global one for
				// the page arg names, at Random or Index (arg).
				asid := c.CP0.EntryHi & ASIDMask
				hi, lo := randHi(), randLo()
				if op&0x80 != 0 {
					hi = fuzzVPNs[int(arg)%len(fuzzVPNs)]<<PageShift | asid
					lo |= EloG | EloV
				}
				mtc0(isa.C0EntryHi, hi)
				mtc0(isa.C0EntryLo, lo)
				if op&7 == 4 {
					rnd := TLBWired + uint32(arg)%(NTLB-TLBWired)
					c.CP0.Random, ref.CP0.Random = rnd, rnd
					both(isa.TLBWR())
				} else {
					mtc0(isa.C0Index, uint32(arg)>>4)
					both(isa.TLBWI())
				}
				// Restore the ASID: the write staged the entry's.
				mtc0(isa.C0EntryHi, c.CP0.EntryHi&^ASIDMask|asid)
			case 6:
				// Keep or switch the ASID, or (op bit 7) switch back to
				// the one before the last switch, with a fresh VPN.
				asid := c.CP0.EntryHi & ASIDMask
				hi := fuzzVPNs[int(arg)%len(fuzzVPNs)]<<PageShift | asid
				switch {
				case op&0x80 != 0:
					hi = hi&^ASIDMask | prevASID
				case arg&0x10 != 0:
					hi = hi&^ASIDMask | uint32(arg>>5%3)<<ASIDShift
				}
				if hi&ASIDMask != asid {
					prevASID = asid
				}
				mtc0(isa.C0EntryHi, hi)
			default:
				switch arg % 3 {
				case 0:
					both(isa.RFE())
				case 1:
					mtc0(isa.C0Status, uint32(arg>>2)&(StKUc|StKUp|StKUo))
				default:
					mtc0(isa.C0Index, uint32(arg>>2))
					both(isa.TLBR())
				}
			}
			if c.CP0 != ref.CP0 || c.TLB != ref.TLB {
				t.Fatalf("op %d (%#02x %#02x): CP0 or TLB diverge:\nsoft-TLB  %+v\ntranslate %+v", i/2, op, arg, c.CP0, ref.CP0)
			}
		}
	})
}
