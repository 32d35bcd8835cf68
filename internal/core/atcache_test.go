package core

import (
	"math/rand"
	"sort"
	"testing"

	"copier/internal/mem"
)

func TestATCacheHitMiss(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	as := mem.NewAddrSpace(pm)
	c := NewATCache(4)
	c.Attach(as)
	if _, ok := c.Lookup(as, 5); ok {
		t.Fatal("hit on empty cache")
	}
	c.Insert(as, 5, 42)
	f, ok := c.Lookup(as, 5)
	if !ok || f != 42 {
		t.Fatalf("lookup = %v %v", f, ok)
	}
	if c.Hits != 1 || c.Misses != 1 {
		t.Fatalf("h=%d m=%d", c.Hits, c.Misses)
	}
	if c.HitRate() != 0.5 {
		t.Fatalf("rate = %f", c.HitRate())
	}
}

func TestATCacheLRUEviction(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	as := mem.NewAddrSpace(pm)
	c := NewATCache(2)
	c.Insert(as, 1, 10)
	c.Insert(as, 2, 20)
	c.Lookup(as, 1) // make vpn 2 the LRU
	c.Insert(as, 3, 30)
	if _, ok := c.Lookup(as, 2); ok {
		t.Fatal("LRU entry survived eviction")
	}
	if _, ok := c.Lookup(as, 1); !ok {
		t.Fatal("MRU entry evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
}

func TestATCacheInvalidationOnMappingChange(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	as := mem.NewAddrSpace(pm)
	c := NewATCache(16)
	c.Attach(as)
	va := as.MMap(mem.PageSize, mem.PermRead|mem.PermWrite, "b")
	if err := as.WriteAt(va, []byte{1}); err != nil {
		t.Fatal(err)
	}
	f, _, _ := as.Translate(va)
	c.Insert(as, va.Page(), f)
	// Remap the page: the cache must drop the entry (§4.3).
	nf, _ := pm.AllocFrame()
	if err := as.ReplacePage(va, nf); err != nil {
		t.Fatal(err)
	}
	pm.DecRef(nf)
	if _, ok := c.Lookup(as, va.Page()); ok {
		t.Fatal("stale translation survived remap")
	}
	if c.Invalidations != 1 {
		t.Fatalf("invalidations = %d", c.Invalidations)
	}
}

func TestATCacheSeparateAddressSpaces(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	a := mem.NewAddrSpace(pm)
	b := mem.NewAddrSpace(pm)
	c := NewATCache(16)
	c.Insert(a, 7, 70)
	if _, ok := c.Lookup(b, 7); ok {
		t.Fatal("translation leaked across address spaces")
	}
}

// oracleATCache is the map-and-stamp ATCache the slab cache replaced,
// kept verbatim as the reference the differential test compares
// against: eviction scans every entry for the minimum use stamp.
type oracleATCache struct {
	cap     int
	entries map[atKey]*oracleEntry
	stamp   uint64

	Hits          int64
	Misses        int64
	Invalidations int64
}

type oracleEntry struct {
	frame    mem.Frame
	writable bool
	used     uint64
}

func newOracleATCache(capEntries int) *oracleATCache {
	if capEntries <= 0 {
		capEntries = 4096
	}
	return &oracleATCache{cap: capEntries, entries: make(map[atKey]*oracleEntry)}
}

func (c *oracleATCache) Attach(as *mem.AddrSpace) {
	as.OnMappingChange(func(vpn uint64) {
		if _, ok := c.entries[atKey{as, vpn}]; ok {
			delete(c.entries, atKey{as, vpn})
			c.Invalidations++
		}
	})
}

func (c *oracleATCache) lookup(as *mem.AddrSpace, vpn uint64, write bool) (mem.Frame, bool) {
	e, ok := c.entries[atKey{as, vpn}]
	if !ok || (write && !e.writable) {
		c.Misses++
		return mem.NoFrame, false
	}
	c.stamp++
	e.used = c.stamp
	c.Hits++
	return e.frame, true
}

func (c *oracleATCache) InsertW(as *mem.AddrSpace, vpn uint64, f mem.Frame, writable bool) {
	if len(c.entries) >= c.cap {
		var victim atKey
		var oldest uint64 = ^uint64(0)
		for k, e := range c.entries {
			if e.used < oldest {
				oldest = e.used
				victim = k
			}
		}
		delete(c.entries, victim)
	}
	c.stamp++
	c.entries[atKey{as, vpn}] = &oracleEntry{frame: f, writable: writable, used: c.stamp}
}

// lruOrder lists the oracle's keys from most to least recently used.
func (c *oracleATCache) lruOrder() []atKey {
	keys := make([]atKey, 0, len(c.entries))
	for k := range c.entries {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return c.entries[keys[i]].used > c.entries[keys[j]].used })
	return keys
}

// lruOrder walks the slab cache's list from head to tail, checking
// the back links and that every listed entry is indexed at its slot.
func (c *ATCache) lruOrder(t *testing.T) []atKey {
	t.Helper()
	var keys []atKey
	prev := nilEntry
	for i := c.head; i != nilEntry; i = c.slab[i].next {
		e := &c.slab[i]
		if e.prev != prev {
			t.Fatalf("slot %d: prev = %d, want %d", i, e.prev, prev)
		}
		if j, ok := c.index[e.key]; !ok || j != i {
			t.Fatalf("slot %d: key %v indexed at %d (%v)", i, e.key, j, ok)
		}
		keys = append(keys, e.key)
		prev = i
		if len(keys) > len(c.slab) {
			t.Fatal("LRU list has a cycle")
		}
	}
	if c.tail != prev {
		t.Fatalf("tail = %d, want %d", c.tail, prev)
	}
	return keys
}

// TestATCacheMatchesOracle drives the slab cache and the map-and-stamp
// oracle through one seeded random operation sequence over two
// attached address spaces, with a capacity small enough that most
// inserts evict, and requires identical results, counters, contents
// and recency order after every step.
func TestATCacheMatchesOracle(t *testing.T) {
	const capEntries, pages = 8, 24
	pm := mem.NewPhysMem(1 << 20)
	spare, err := pm.AllocFrame()
	if err != nil {
		t.Fatal(err)
	}
	var spaces [2]*mem.AddrSpace
	var bases [2]mem.VA
	got, want := NewATCache(capEntries), newOracleATCache(capEntries)
	for i := range spaces {
		spaces[i] = mem.NewAddrSpace(pm)
		bases[i] = spaces[i].MMap(pages*mem.PageSize, mem.PermRead|mem.PermWrite, "at")
		got.Attach(spaces[i])
		want.Attach(spaces[i])
	}
	rng := rand.New(rand.NewSource(14))
	fullRewrites := 0
	for step := 0; step < 20000; step++ {
		s := rng.Intn(2)
		as, vpn := spaces[s], bases[s].Page()+uint64(rng.Intn(pages))
		op := rng.Intn(10)
		switch {
		case op < 4: // Lookup / LookupW
			write := op&1 == 1
			var gf mem.Frame
			var gok bool
			if write {
				gf, gok = got.LookupW(as, vpn)
			} else {
				gf, gok = got.Lookup(as, vpn)
			}
			wf, wok := want.lookup(as, vpn, write)
			if gf != wf || gok != wok {
				t.Fatalf("step %d: lookup(%d, write=%v) = %d %v, oracle %d %v", step, vpn, write, gf, gok, wf, wok)
			}
		case op < 8: // Insert / InsertW, often of a key already cached
			if _, ok := got.index[atKey{as, vpn}]; ok && got.Len() == capEntries {
				fullRewrites++
			}
			f := mem.Frame(rng.Intn(1000))
			if op == 4 {
				got.Insert(as, vpn, f)
				want.InsertW(as, vpn, f, false)
			} else {
				w := rng.Intn(2) == 0
				got.InsertW(as, vpn, f, w)
				want.InsertW(as, vpn, f, w)
			}
		default: // remap the page: both caches see the invalidation
			if err := as.ReplacePage(mem.VA(vpn*mem.PageSize), spare); err != nil {
				t.Fatal(err)
			}
		}
		if got.Hits != want.Hits || got.Misses != want.Misses || got.Invalidations != want.Invalidations {
			t.Fatalf("step %d: counters h/m/i = %d/%d/%d, oracle %d/%d/%d", step,
				got.Hits, got.Misses, got.Invalidations, want.Hits, want.Misses, want.Invalidations)
		}
		if got.Len() != len(want.entries) {
			t.Fatalf("step %d: Len = %d, oracle %d", step, got.Len(), len(want.entries))
		}
		gk, wk := got.lruOrder(t), want.lruOrder()
		if len(gk) != len(wk) {
			t.Fatalf("step %d: list holds %d keys, oracle %d", step, len(gk), len(wk))
		}
		for i := range gk {
			if gk[i] != wk[i] {
				t.Fatalf("step %d: recency rank %d = %v, oracle %v", step, i, gk[i], wk[i])
			}
		}
	}
	if fullRewrites == 0 || want.Invalidations == 0 {
		t.Fatalf("sequence never rewrote a key in a full cache (%d) or invalidated (%d)", fullRewrites, want.Invalidations)
	}
}

// TestATCacheEvictAllocFree pins the steady state of a full
// default-size cache: a miss, then an insert that evicts the LRU
// entry, allocates nothing.
func TestATCacheEvictAllocFree(t *testing.T) {
	pm := mem.NewPhysMem(1 << 20)
	as := mem.NewAddrSpace(pm)
	c := NewATCache(0)
	vpn := uint64(0)
	for ; vpn < 4096; vpn++ {
		c.InsertW(as, vpn, mem.Frame(vpn), true)
	}
	avg := testing.AllocsPerRun(10000, func() {
		if _, ok := c.LookupW(as, vpn); ok {
			t.Fatal("hit on a never-inserted page")
		}
		c.InsertW(as, vpn, mem.Frame(vpn), true)
		vpn++
	})
	if avg != 0 {
		t.Fatalf("miss + evict + insert allocates %.1f objects, want 0", avg)
	}
	if c.Len() != 4096 {
		t.Fatalf("len = %d, want 4096", c.Len())
	}
}
