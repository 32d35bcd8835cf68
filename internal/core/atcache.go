package core

import (
	"copier/internal/mem"
)

// ATCache is the Address Transfer Cache (§4.3): DMA needs VA→PA
// translation (~240 cycles/page walk), but copy addresses show high
// locality (recycled buffer pools, fixed I/O buffers — "the address
// recurrence in Redis surpasses 75%"), so Copier caches translations.
// The memory subsystem invalidates entries on mapping changes.
//
// Entries live in a slab threaded on an intrusive doubly linked LRU
// list (head = most recently used, tail = least), with freed slots
// chained on a free list and a map from key to slab index. Hits,
// inserts, evictions and invalidations are O(1) and, once the slab has
// grown to cap, allocate nothing. The index is only ever looked up,
// never ranged over, so map order cannot reach any result.
type ATCache struct {
	cap   int
	index map[atKey]int32
	slab  []atEntry
	// head/tail are the MRU and LRU ends of the list; free heads the
	// chain of unused slab slots (linked through next). nilEntry marks
	// an empty end.
	head, tail, free int32

	Hits   int64
	Misses int64
	// Invalidations counts entries dropped by mapping changes.
	Invalidations int64
}

const nilEntry int32 = -1

type atKey struct {
	as  *mem.AddrSpace
	vpn uint64
}

type atEntry struct {
	key        atKey
	frame      mem.Frame
	writable   bool
	prev, next int32
}

// NewATCache creates a cache bounded to roughly capEntries entries.
func NewATCache(capEntries int) *ATCache {
	if capEntries <= 0 {
		capEntries = 4096
	}
	return &ATCache{cap: capEntries, index: make(map[atKey]int32),
		head: nilEntry, tail: nilEntry, free: nilEntry}
}

// Attach registers invalidation callbacks on an address space. Call
// once per client address space.
func (c *ATCache) Attach(as *mem.AddrSpace) {
	as.OnMappingChange(func(vpn uint64) {
		if i, ok := c.index[atKey{as, vpn}]; ok {
			c.remove(i)
			c.Invalidations++
		}
	})
}

// Lookup returns the cached frame for (as, vpn) and whether it hit.
// Lookups for writes only hit entries recorded as writable (a cached
// read-only or CoW translation must not satisfy a write).
func (c *ATCache) Lookup(as *mem.AddrSpace, vpn uint64) (mem.Frame, bool) {
	return c.lookup(as, vpn, false)
}

// LookupW is Lookup for a write access.
func (c *ATCache) LookupW(as *mem.AddrSpace, vpn uint64) (mem.Frame, bool) {
	return c.lookup(as, vpn, true)
}

//copier:noalloc
func (c *ATCache) lookup(as *mem.AddrSpace, vpn uint64, write bool) (mem.Frame, bool) {
	i, ok := c.index[atKey{as, vpn}]
	if !ok || (write && !c.slab[i].writable) {
		c.Misses++
		return mem.NoFrame, false
	}
	c.moveFront(i)
	c.Hits++
	return c.slab[i].frame, true
}

// Insert records a translation, evicting the least-recently-used
// entry when full.
func (c *ATCache) Insert(as *mem.AddrSpace, vpn uint64, f mem.Frame) {
	c.InsertW(as, vpn, f, false)
}

// InsertW records a translation with its writability and makes it the
// most recently used entry.
//
// A full cache evicts its LRU entry before looking the key up, even
// when the key is already cached (a write miss on a read-only entry):
// the victim may be the key itself, which is then inserted afresh, or
// another entry, which leaves the cache one short of cap after the
// overwrite. That order is what the simulated outputs were recorded
// with, so it is kept for byte identity.
func (c *ATCache) InsertW(as *mem.AddrSpace, vpn uint64, f mem.Frame, writable bool) {
	if len(c.index) >= c.cap {
		c.remove(c.tail)
	}
	k := atKey{as, vpn}
	i, ok := c.index[k]
	if !ok {
		if i = c.free; i != nilEntry {
			c.free = c.slab[i].next
		} else {
			i = int32(len(c.slab))
			c.slab = append(c.slab, atEntry{})
		}
		c.slab[i].key = k
		c.index[k] = i
		c.pushFront(i)
	} else {
		c.moveFront(i)
	}
	c.slab[i].frame = f
	c.slab[i].writable = writable
}

// Len reports the number of cached translations.
func (c *ATCache) Len() int { return len(c.index) }

// HitRate returns Hits/(Hits+Misses), or 0 with no lookups.
func (c *ATCache) HitRate() float64 {
	t := c.Hits + c.Misses
	if t == 0 {
		return 0
	}
	return float64(c.Hits) / float64(t)
}

// remove drops entry i from the index and the list and frees its slot.
func (c *ATCache) remove(i int32) {
	delete(c.index, c.slab[i].key)
	c.unlink(i)
	c.slab[i] = atEntry{next: c.free}
	c.free = i
}

//copier:noalloc
func (c *ATCache) moveFront(i int32) {
	if c.head == i {
		return
	}
	c.unlink(i)
	c.pushFront(i)
}

//copier:noalloc
func (c *ATCache) pushFront(i int32) {
	e := &c.slab[i]
	e.prev, e.next = nilEntry, c.head
	if c.head != nilEntry {
		c.slab[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

//copier:noalloc
func (c *ATCache) unlink(i int32) {
	e := &c.slab[i]
	if e.prev != nilEntry {
		c.slab[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nilEntry {
		c.slab[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
}
