package shortest

import "repro/internal/roadnet"

// lruEntry is a node of the intrusive doubly-linked LRU list.
type lruEntry struct {
	key        uint64
	val        float64
	prev, next int32
}

// LRU is a fixed-capacity least-recently-used cache from (u,v) vertex pairs
// to distances. The paper's experiments maintain "an LRU cache ... for
// shortest distance and path queries ... used by all the algorithms"; this
// is that cache. Keys are symmetric ((u,v) ≡ (v,u)) because the road
// network is undirected.
//
// Entries live in a flat slice and the list uses int32 indices, keeping the
// cache allocation-free between flushes. Not safe for concurrent use.
type LRU struct {
	capacity int
	entries  []lruEntry
	index    map[uint64]int32
	head     int32 // most recently used
	tail     int32 // least recently used
	Hits     uint64
	Misses   uint64
}

// NewLRU returns a cache holding up to capacity entries (minimum 1).
func NewLRU(capacity int) *LRU {
	if capacity < 1 {
		capacity = 1
	}
	return &LRU{
		capacity: capacity,
		entries:  make([]lruEntry, 0, capacity),
		index:    make(map[uint64]int32, capacity),
		head:     -1,
		tail:     -1,
	}
}

func pairKey(u, v roadnet.VertexID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

// Len returns the number of cached entries.
func (c *LRU) Len() int { return len(c.entries) }

// Flush drops every entry, keeping the entry storage and the cumulative
// hit/miss counters. Epoch-aware wrappers call it when the weight epoch
// advances: a distance cached under old weights must never answer a query
// under new ones. The index is replaced by one sized for what was live:
// clear() walks the whole table, which NewLRU sized for capacity.
func (c *LRU) Flush() {
	c.index = make(map[uint64]int32, len(c.entries))
	c.entries = c.entries[:0]
	c.head, c.tail = -1, -1
}

// Get looks up the cached distance for (u,v).
func (c *LRU) Get(u, v roadnet.VertexID) (float64, bool) {
	i, ok := c.index[pairKey(u, v)]
	if !ok {
		c.Misses++
		return 0, false
	}
	c.Hits++
	c.moveToFront(i)
	return c.entries[i].val, true
}

// Put stores the distance for (u,v), evicting the least recently used
// entry when full.
func (c *LRU) Put(u, v roadnet.VertexID, d float64) {
	key := pairKey(u, v)
	if i, ok := c.index[key]; ok {
		c.entries[i].val = d
		c.moveToFront(i)
		return
	}
	var i int32
	if len(c.entries) < c.capacity {
		c.entries = append(c.entries, lruEntry{key: key, val: d, prev: -1, next: -1})
		i = int32(len(c.entries) - 1)
	} else {
		i = c.tail
		c.detach(i)
		delete(c.index, c.entries[i].key)
		c.entries[i] = lruEntry{key: key, val: d, prev: -1, next: -1}
	}
	c.index[key] = i
	c.pushFront(i)
}

func (c *LRU) detach(i int32) {
	e := &c.entries[i]
	if e.prev >= 0 {
		c.entries[e.prev].next = e.next
	} else {
		c.head = e.next
	}
	if e.next >= 0 {
		c.entries[e.next].prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = -1, -1
}

func (c *LRU) pushFront(i int32) {
	e := &c.entries[i]
	e.prev = -1
	e.next = c.head
	if c.head >= 0 {
		c.entries[c.head].prev = i
	}
	c.head = i
	if c.tail < 0 {
		c.tail = i
	}
}

func (c *LRU) moveToFront(i int32) {
	if c.head == i {
		return
	}
	c.detach(i)
	c.pushFront(i)
}

// Cached wraps an Oracle with an LRU cache. It also counts the queries that
// reached the inner oracle (cache misses) separately from total queries,
// which is what the "saved distance queries" experiment reports.
//
// When the inner chain contains an epoch-aware oracle (Versioned), the
// cache watches its epoch and flushes itself on advance; a static chain
// resolves no source at construction and pays nothing per query.
//
// Over a CCH (bare, or behind counting, locking or caching shims) there is
// no cache: a warm label query is two table reads and a zip, cheaper than
// the LRU probe in front of it, so every query is forwarded and counted
// as a miss (DESIGN.md §12.4). The same holds over a Versioned front whose
// tier is a CCH: every epoch's tier is a CCH, customized before Advance
// returns, and its labels are the cache.
type Cached struct {
	inner  Oracle
	cache  *LRU   // nil over CCH labels
	missed uint64 // queries forwarded without a cache
	src    EpochSource
	epoch  uint64
}

// NewCached wraps inner with a cache of the given capacity, or with none
// when CCH labels answer every query through inner.
func NewCached(inner Oracle, capacity int) *Cached {
	c := &Cached{inner: inner}
	switch x := tierOf(inner).(type) {
	case *CCH:
		return c
	case *Versioned:
		if x.cchSkel != nil {
			return c
		}
	}
	c.cache = NewLRU(capacity)
	if c.src = epochSourceOf(inner); c.src != nil {
		c.epoch = c.src.Epoch()
	}
	return c
}

// Dist implements Oracle.
func (c *Cached) Dist(u, v roadnet.VertexID) float64 {
	if c.cache == nil {
		c.missed++
		return c.inner.Dist(u, v)
	}
	if c.src != nil {
		if e := c.src.Epoch(); e != c.epoch {
			c.cache.Flush()
			c.epoch = e
		}
	}
	if u == v {
		return 0
	}
	if d, ok := c.cache.Get(u, v); ok {
		return d
	}
	d := c.inner.Dist(u, v)
	c.cache.Put(u, v, d)
	return d
}

// Stats returns (hits, misses) of the underlying cache; over a CCH every
// query is a miss.
func (c *Cached) Stats() (hits, misses uint64) {
	if c.cache == nil {
		return 0, c.missed
	}
	return c.cache.Hits, c.cache.Misses
}
