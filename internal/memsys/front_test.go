package memsys

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"systrace/internal/cpu"
)

// refPageMap is PageMap without its front cache: the map and the
// policy's frame draws alone.
type refPageMap struct {
	p PageMap
}

func (r *refPageMap) frame(asid, vpage uint32) uint32 {
	key := uint64(asid)<<32 | uint64(vpage)
	f, ok := r.p.m[key]
	if !ok {
		f = r.p.assign(vpage)
		r.p.m[key] = f
	}
	return f
}

// TestPageMapFrontCache drives PageMap and a map-only replica with the
// same stream of lookups under every policy. The key pool holds groups
// of keys that share a front-cache set, among them the same vpage under
// different ASIDs, so lookups evict one another. Every frame, the
// policy's random stream and the final map must agree.
func TestPageMapFrontCache(t *testing.T) {
	const nframe, colors = 1024, 16
	r := rand.New(rand.NewSource(1))
	type key struct{ asid, vpage uint32 }
	var pool []key
	sameVPage := 0
	for len(pool) < 96 {
		k := key{uint32(r.Intn(4)), uint32(r.Intn(1 << 20))}
		pool = append(pool, k)
		set := pageFrontSet(uint64(k.asid)<<32 | uint64(k.vpage))
		// Another ASID whose key for the same vpage lands in the same set.
		for asid := uint32(0); asid < 1<<20; asid++ {
			if asid != k.asid && pageFrontSet(uint64(asid)<<32|uint64(k.vpage)) == set {
				pool = append(pool, key{asid, k.vpage})
				sameVPage++
				break
			}
		}
		// Another vpage of the same ASID in the same set.
		for vp := k.vpage + 1; vp != k.vpage; vp = (vp + 1) & (1<<20 - 1) {
			if pageFrontSet(uint64(k.asid)<<32|uint64(vp)) == set {
				pool = append(pool, key{k.asid, vp})
				break
			}
		}
	}
	if sameVPage == 0 {
		t.Fatal("no same-vpage collision in the key pool")
	}
	for _, pol := range []PagePolicy{PolicySequential, PolicyRandom, PolicyColoring} {
		pm := NewPageMap(pol, nframe, colors, 7)
		ref := &refPageMap{*NewPageMap(pol, nframe, colors, 7)}
		evictions := 0
		for i := 0; i < 20000; i++ {
			// Runs of neighbors in the pool keep colliding keys
			// interleaved; occasional jumps touch fresh ones.
			k := pool[(i/3+r.Intn(3))%len(pool)]
			if r.Intn(8) == 0 {
				k = pool[r.Intn(len(pool))]
			}
			kk := uint64(k.asid)<<32 | uint64(k.vpage)
			if e := pm.front[pageFrontSet(kk)]; e.ok && e.key != kk {
				evictions++
			}
			if got, want := pm.Frame(k.asid, k.vpage), ref.frame(k.asid, k.vpage); got != want {
				t.Fatalf("policy %d: lookup %d Frame(%d, %#x) = %d, map-only replica %d", pol, i, k.asid, k.vpage, got, want)
			}
		}
		if evictions == 0 {
			t.Errorf("policy %d: no lookup evicted another key", pol)
		}
		if !reflect.DeepEqual(pm.m, ref.p.m) || pm.next != ref.p.next || *pm.r != *ref.p.r {
			t.Errorf("policy %d: map, sequence or random state differs from the replica", pol)
		}
	}
}

// refTLB is TLBSim as a pure linear scan, without the hint table.
type refTLB struct {
	entries [cpu.NTLB]uint64
	r       *rng
	misses  uint64
}

func (t *refTLB) access(asid, va uint32) bool {
	key := uint64(asid)<<32 | uint64(va>>cpu.PageShift)
	for i := range t.entries {
		if t.entries[i] == key {
			return true
		}
	}
	t.misses++
	t.entries[cpu.TLBWired+int(t.r.next()%(cpu.NTLB-cpu.TLBWired))] = key
	return false
}

// TestTLBSimLastHit holds TLBSim's hint table to a pure linear scan
// over random access streams: runs on one page (hint hits), working
// sets around the TLB's size (scan hits and refills), ASID changes,
// pages whose keys share a hint slot (each evicts the other's hint, so
// a resident page must still be found by the scan), and a Flush. Every
// access's hit or miss, the counts and the entries must agree.
func TestTLBSimLastHit(t *testing.T) {
	// Colliding keys: pages of ASIDs 0..2 whose keys hash to slot 0.
	var colliding []uint64
	for asid := uint64(0); asid < 3; asid++ {
		for vpn := uint64(0); vpn < 1<<20 && len(colliding) < 12*int(asid+1); vpn++ {
			if key := asid<<32 | vpn; hintSlot(key) == 0 {
				colliding = append(colliding, key)
			}
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		tl := NewTLBSim(uint32(seed))
		ref := &refTLB{entries: tl.entries, r: newRNG(uint32(seed))}
		pages := 8 + r.Intn(120)
		hintHits, collisionScans := 0, 0
		for i := 0; i < 8000; i++ {
			if i == 2500 || i == 6000 {
				tl.Flush()
				ref.entries = tl.entries
			}
			asid := uint32(r.Intn(3))
			va := uint32(r.Intn(pages))<<cpu.PageShift | uint32(r.Intn(cpu.PageSize))
			if i >= 4000 {
				key := colliding[r.Intn(len(colliding))]
				asid, va = uint32(key>>32), uint32(key)<<cpu.PageShift|uint32(r.Intn(cpu.PageSize))
			}
			for n := 1 + r.Intn(4); n > 0; n-- {
				key := uint64(asid)<<32 | uint64(va>>cpu.PageShift)
				if hinted := tl.entries[tl.hint[hintSlot(key)]]; hinted == key {
					hintHits++
				} else if slices.Contains(tl.entries[:], key) {
					collisionScans++
				}
				if got, want := tl.Access(asid, va), ref.access(asid, va); got != want {
					t.Fatalf("seed %d access %d (%d, %#x): hit %v, linear scan %v", seed, i, asid, va, got, want)
				}
			}
		}
		if tl.Misses != ref.misses || tl.entries != ref.entries {
			t.Fatalf("seed %d: misses %d entries differ from the linear scan (misses %d)", seed, tl.Misses, ref.misses)
		}
		if hintHits == 0 || collisionScans == 0 {
			t.Fatalf("seed %d: %d hint hits, %d resident pages found only by the scan; want both", seed, hintHits, collisionScans)
		}
	}
}
