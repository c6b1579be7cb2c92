package shortest

// Batched many-to-many distance tables. The planner's hot loop (Algorithm
// 5 candidate evaluation) asks for dist(worker stop, request endpoint)
// across a whole admission batch — O(workers × requests × stops) point
// queries. Over hub labels the same table comes from one label scatter per
// target and one span scan per cell, the searches shared across every pair
// of the batch.
//
// Bit-exactness with the point queries is load-bearing (the serve layer
// prefetches a table per admission batch and replay equivalence must not
// notice): see HubMtM. The filler is equivalence-tested cell-for-cell
// against its point oracle in manytomany_test.go.

import (
	"repro/internal/roadnet"
)

// ManyToMany fills a dense row-major |sources| × |targets| travel-time
// table: cell i*len(targets)+j holds dist(sources[i], targets[j]), +Inf
// for unreachable pairs. The returned slice is owned by the arena and
// valid until its next Table call. Duplicate vertices in either list are
// allowed (they just repeat work); every implementation returns cells
// bit-identical to its corresponding point oracle's Dist.
type ManyToMany interface {
	Table(a *TableArena, sources, targets []roadnet.VertexID) []float64
}

// TableArena owns every byte a Table fill touches: the output cells and
// the hub-label scatter array. Callers allocate one arena per concurrent
// filler and reuse it across batches; steady-state fills allocate nothing.
// The zero-capacity arena from NewTableArena grows on first use.
type TableArena struct {
	cells []float64

	// Hub-label scatter: one target label spread over hub ranks.
	rankDist []float64
	rankVer  []uint32
	rankCur  uint32
}

// NewTableArena returns an empty arena; it sizes itself lazily to the
// labeling it first serves.
func NewTableArena() *TableArena { return &TableArena{} }

// grabCells returns the arena's cell buffer resized to size, reallocating
// only on growth.
func (a *TableArena) grabCells(size int) []float64 {
	if cap(a.cells) < size {
		a.cells = make([]float64, size)
	}
	a.cells = a.cells[:size]
	return a.cells
}

// ensureRank sizes the hub-label scatter array for ranks < n.
func (a *TableArena) ensureRank(n int) {
	if len(a.rankDist) >= n {
		return
	}
	a.rankDist = make([]float64, n)
	a.rankVer = make([]uint32, n)
	a.rankCur = 0
}

// HubMtM is the hub-label many-to-many filler: per target it scatters the
// target's CSR label over hub ranks once, then streams each source's span
// against the scatter — the per-cell work drops from a two-pointer merge
// to a single span scan with O(1) hub lookups. Candidates are the same
// fl(d_s + d_t) sums the point merge evaluates and min is
// order-independent, so cells are bit-identical to HubLabels.Dist.
// Read-only over the labeling; safe for concurrent fills with separate
// arenas.
type HubMtM struct {
	h *HubLabels
}

// Table implements ManyToMany by target-label scatter + source-span scan.
func (m *HubMtM) Table(a *TableArena, sources, targets []roadnet.VertexID) []float64 {
	h := m.h
	ns, nt := len(sources), len(targets)
	cells := a.grabCells(ns * nt)
	if ns == 0 || nt == 0 {
		return cells
	}
	a.ensureRank(h.n)
	for tj, t := range targets {
		a.rankCur++
		if a.rankCur == 0 {
			for i := range a.rankVer {
				a.rankVer[i] = 0
			}
			a.rankCur = 1
		}
		for k := h.offsets[t]; k < h.offsets[t+1]; k++ {
			r := h.hubs[k]
			a.rankVer[r] = a.rankCur
			a.rankDist[r] = h.dists[k]
		}
		for si, s := range sources {
			if s == t {
				cells[si*nt+tj] = 0
				continue
			}
			best := Inf
			for k := h.offsets[s]; k < h.offsets[s+1]; k++ {
				r := h.hubs[k]
				if a.rankVer[r] == a.rankCur {
					if d := h.dists[k] + a.rankDist[r]; d < best {
						best = d
					}
				}
			}
			cells[si*nt+tj] = best
		}
	}
	return cells
}

// ManyToManyFor returns the batched filler matching o's tier, unwrapping
// counting/locking/caching shims to reach it: label scatter for hub
// labels, nil otherwise. BiDijkstra has no bit-identical batched form (its
// meet-sum rounds differently than a one-sided sweep); CCH needs none: a
// label is its vertex's finished upward sweep, cached, so a bucket fill
// would redo it with a heap (DESIGN.md §16.4).
// The returned filler reads only the tier's immutable arrays and may run
// concurrently with point queries against the same tier.
func ManyToManyFor(o Oracle) ManyToMany {
	if h, ok := tierOf(o).(*HubLabels); ok {
		return &HubMtM{h: h}
	}
	return nil
}

// tierOf strips the counting, locking and caching shims off o and returns
// the oracle underneath. An epoch front (Versioned) is not a shim: the tier
// behind it changes with every traffic epoch.
func tierOf(o Oracle) Oracle {
	for {
		switch x := o.(type) {
		case *Counting:
			o = x.Inner
		case *Locked:
			o = x.inner
		case *Cached:
			o = x.inner
		default:
			return o
		}
	}
}
