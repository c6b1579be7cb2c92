// Package pqueue implements an indexed 4-ary min-heap keyed by float64
// priorities over dense int32 item IDs. It is the priority queue behind all
// Dijkstra-family searches in this repository: items are vertex IDs, and
// DecreaseKey is O(log n) thanks to the position index.
//
// A slot is one 16-byte (priority, id) entry and a slot's four children
// share a cache line, so a pop descends half a binary heap's levels. Ties
// leave in ID order: what leaves depends only on what is enqueued, so a
// search that skips pushes that never reach the top pops what the full
// search pops.
//
// The zero value is not usable; construct with New. A single heap is meant
// to be reused across many searches via Reset, which is O(#pushed items)
// rather than O(capacity).
package pqueue

// entry is one heap slot.
type entry struct {
	prio float64
	id   int32
}

// before orders entries by priority, then by ID.
func (a entry) before(b entry) bool {
	return a.prio < b.prio || a.prio == b.prio && a.id < b.id
}

// Heap is an indexed min-heap. Item IDs must be in [0, capacity).
type Heap struct {
	es  []entry // heap order
	pos []int32 // item id -> heap position, -1 if absent
}

// New returns a heap able to hold item IDs in [0, capacity).
func New(capacity int) *Heap {
	pos := make([]int32, capacity)
	for i := range pos {
		pos[i] = -1
	}
	return &Heap{pos: pos}
}

// Len returns the number of items currently in the heap.
func (h *Heap) Len() int { return len(h.es) }

// Capacity returns the maximum item ID plus one.
func (h *Heap) Capacity() int { return len(h.pos) }

// Contains reports whether item id is currently enqueued.
func (h *Heap) Contains(id int32) bool { return h.pos[id] >= 0 }

// Priority returns the current priority of item id. It must be enqueued.
func (h *Heap) Priority(id int32) float64 { return h.es[h.pos[id]].prio }

// Reset empties the heap, clearing only the slots that were used.
func (h *Heap) Reset() {
	for _, e := range h.es {
		h.pos[e.id] = -1
	}
	h.es = h.es[:0]
}

// Push inserts item id with priority p, or decreases/updates its priority
// if already present. Standard Dijkstra uses it as "push or decrease-key".
func (h *Heap) Push(id int32, p float64) {
	if i := h.pos[id]; i >= 0 {
		if old := h.es[i].prio; p < old {
			h.up(int(i), entry{p, id})
		} else if p > old {
			h.down(int(i), entry{p, id})
		}
		return
	}
	h.es = append(h.es, entry{p, id})
	h.up(len(h.es)-1, entry{p, id})
}

// Pop removes and returns the item with the minimum priority.
// It panics if the heap is empty.
func (h *Heap) Pop() (id int32, p float64) {
	n := len(h.es)
	if n == 0 {
		panic("pqueue: Pop on empty heap")
	}
	top := h.es[0]
	h.pos[top.id] = -1
	last := h.es[n-1]
	h.es = h.es[:n-1]
	if n > 1 {
		h.down(0, last)
	}
	return top.id, top.prio
}

// Min returns the minimum item without removing it.
// It panics if the heap is empty.
func (h *Heap) Min() (id int32, p float64) {
	if len(h.es) == 0 {
		panic("pqueue: Min on empty heap")
	}
	return h.es[0].id, h.es[0].prio
}

// up places e at slot i or above, moving parents that come after it down.
func (h *Heap) up(i int, e entry) {
	for i > 0 {
		parent := (i - 1) / 4
		if !e.before(h.es[parent]) {
			break
		}
		h.es[i] = h.es[parent]
		h.pos[h.es[i].id] = int32(i)
		i = parent
	}
	h.es[i] = e
	h.pos[e.id] = int32(i)
}

// down places e at slot i or below, moving the least child up while it
// comes before e.
func (h *Heap) down(i int, e entry) {
	es := h.es
	for {
		c := 4*i + 1
		if c >= len(es) {
			break
		}
		best := c
		for k, end := c+1, min(c+4, len(es)); k < end; k++ {
			if es[k].before(es[best]) {
				best = k
			}
		}
		if !es[best].before(e) {
			break
		}
		es[i] = es[best]
		h.pos[es[i].id] = int32(i)
		i = best
	}
	es[i] = e
	h.pos[e.id] = int32(i)
}
