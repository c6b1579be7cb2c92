package shortest

// Batched many-to-many distance tables. The planner's hot loop (Algorithm
// 5 candidate evaluation) asks for dist(worker stop, request endpoint)
// across a whole admission batch — O(workers × requests × stops) point
// queries that each re-run a bidirectional upward search from scratch.
// The bucket technique from the CH literature (Knopp et al., "Computing
// Many-to-Many Shortest Paths Using Highway Hierarchies") computes the
// same table with |sources| forward upward sweeps and |targets| backward
// upward sweeps: each forward sweep deposits (source, dist) entries into
// per-vertex buckets, each backward sweep scans the buckets it meets, and
// every table cell is the min over meeting vertices of the two one-sided
// distances. The searches are shared across ALL pairs instead of being
// re-run per pair — one sweep per batch endpoint, not per cell.
//
// Bit-exactness with the point queries is load-bearing (the serve layer
// prefetches a table per admission batch and replay equivalence must not
// notice): see the proof sketch on BucketMtM.Table. Every implementation
// here is equivalence-tested cell-for-cell against its point oracle in
// manytomany_test.go.

import (
	"math"

	"repro/internal/pqueue"
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

// TableArena owns every byte a Table fill touches: the output cells, the
// upward-search state, the per-vertex bucket storage, and the hub-label
// scatter array. Callers allocate one arena per concurrent filler and
// reuse it across batches; steady-state fills allocate nothing. The
// zero-capacity arena from NewTableArena grows on first use.
type TableArena struct {
	cells []float64

	// Upward-search state (bucket tiers), version-stamped so consecutive
	// sweeps cost O(settled) to reset, exactly like chSearch.
	n    int
	dist []float64
	ver  []uint32
	cur  uint32
	heap *pqueue.Heap

	// Deposits are appended in sweep order, then counting-sorted into a
	// bucket CSR keyed by touched vertex. bVer stamps first touches so the
	// whole structure resets in O(1).
	depV, depS []int32
	depD       []float64
	touched    []roadnet.VertexID
	bCnt       []int32
	bStart     []int32
	bVer       []uint32
	bCur       uint32
	bktS       []int32
	bktD       []float64

	// Hub-label scatter: one target label spread over hub ranks.
	rankDist []float64
	rankVer  []uint32
	rankCur  uint32
}

// NewTableArena returns an empty arena; it sizes itself lazily to the
// hierarchy it first serves.
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

// ensureSearch sizes the upward-search and bucket state for an n-vertex
// hierarchy.
func (a *TableArena) ensureSearch(n int) {
	if a.n >= n && a.dist != nil {
		return
	}
	a.n = n
	a.dist = make([]float64, n)
	a.ver = make([]uint32, n)
	a.cur = 0
	a.heap = pqueue.New(n)
	a.bCnt = make([]int32, n)
	a.bStart = make([]int32, n)
	a.bVer = make([]uint32, n)
	a.bCur = 0
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

func (a *TableArena) beginSweep(s roadnet.VertexID) {
	a.cur++
	if a.cur == 0 {
		for i := range a.ver {
			a.ver[i] = 0
		}
		a.cur = 1
	}
	a.heap.Reset()
	a.ver[s] = a.cur
	a.dist[s] = 0
	a.heap.Push(s, 0)
}

func (a *TableArena) relax(v roadnet.VertexID, d float64) {
	if a.ver[v] != a.cur || d < a.dist[v] {
		a.ver[v] = a.cur
		a.dist[v] = d
		a.heap.Push(v, d)
	}
}

// BucketMtM is the bucket-based many-to-many filler over a CH upward
// hierarchy. It reads only the immutable CSR arrays (never the tier's
// per-instance query state), so any number of concurrent fills may share
// one hierarchy as long as each brings its own arena.
//
// Bit-exactness with upwardDist: (1) with strictly positive edge weights a
// Dijkstra's final distances are a scheduling-independent function of the
// graph — the value settled at v is the float min over in-arcs (u,v) of
// fl(final(u)+w), so the full forward/backward sweeps here reproduce
// exactly the distances the point query's two sides would settle. (2)
// every candidate the point query evaluates is fl(pop-final + other-side
// value) with the other side's value ≥ its final, and float addition of
// non-negative operands is monotone, so every point candidate ≥ the
// corresponding full-sweep cell candidate. (3) at the cell's arg-min meet
// vertex, whichever point-query side pops it second evaluates exactly
// fl(final+final) — and if that side was pruned (top ≥ best) or exhausted
// first, the Dijkstra invariant puts its final at ≥ best, so the sweep min
// cannot beat the point result either. Min over a candidate set is
// order-independent for floats, hence cell == point bitwise, including
// the s == t diagonal (both sides settle the vertex at 0) and +Inf for
// unreachable pairs.
type BucketMtM struct {
	ch *CH
}

// Table implements ManyToMany with one bucket sweep: |sources| forward
// upward Dijkstras deposit, |targets| backward upward Dijkstras scan.
func (m *BucketMtM) Table(a *TableArena, sources, targets []roadnet.VertexID) []float64 {
	ns, nt := len(sources), len(targets)
	cells := a.grabCells(ns * nt)
	for i := range cells {
		cells[i] = math.Inf(1)
	}
	if ns == 0 || nt == 0 {
		return cells
	}
	h := m.ch
	a.ensureSearch(h.n)

	// Reset bucket storage: one version bump invalidates every bucket.
	a.depV = a.depV[:0]
	a.depS = a.depS[:0]
	a.depD = a.depD[:0]
	a.touched = a.touched[:0]
	a.bCur++
	if a.bCur == 0 {
		for i := range a.bVer {
			a.bVer[i] = 0
		}
		a.bCur = 1
	}

	// Phase 1: full (unpruned) forward upward sweeps deposit one
	// (source index, final distance) entry per settled vertex.
	for si, s := range sources {
		a.beginSweep(s)
		for a.heap.Len() > 0 {
			v, dv := a.heap.Pop()
			if a.bVer[v] != a.bCur {
				a.bVer[v] = a.bCur
				a.bCnt[v] = 0
				a.touched = append(a.touched, v)
			}
			a.bCnt[v]++
			a.depV = append(a.depV, int32(v))
			a.depS = append(a.depS, int32(si))
			a.depD = append(a.depD, dv)
			for i := h.upStart[v]; i < h.upStart[v+1]; i++ {
				a.relax(h.upTo[i], dv+h.upW[i])
			}
		}
	}

	// Counting-sort the deposits into a bucket CSR keyed by vertex so the
	// backward phase scans each vertex's entries contiguously. After the
	// scatter bStart[v] sits at the END of v's bucket; the scan recovers
	// the start as bStart[v]-bCnt[v].
	off := int32(0)
	for _, v := range a.touched {
		a.bStart[v] = off
		off += a.bCnt[v]
	}
	if cap(a.bktS) < len(a.depV) {
		a.bktS = make([]int32, len(a.depV))
		a.bktD = make([]float64, len(a.depV))
	}
	a.bktS = a.bktS[:len(a.depV)]
	a.bktD = a.bktD[:len(a.depV)]
	for k, v := range a.depV {
		p := a.bStart[v]
		a.bStart[v] = p + 1
		a.bktS[p] = a.depS[k]
		a.bktD[p] = a.depD[k]
	}

	// Phase 2: full backward upward sweeps; every settled vertex that
	// carries a bucket contributes min(fdist+bdist) to its sources' cells.
	// (The graph is undirected, so both directions search the same upward
	// CSR — exactly like upwardDist's two sides.)
	for tj, t := range targets {
		a.beginSweep(t)
		for a.heap.Len() > 0 {
			v, dv := a.heap.Pop()
			if a.bVer[v] == a.bCur {
				end := a.bStart[v]
				for k := end - a.bCnt[v]; k < end; k++ {
					cell := int(a.bktS[k])*nt + tj
					if d := a.bktD[k] + dv; d < cells[cell] {
						cells[cell] = d
					}
				}
			}
			for i := h.upStart[v]; i < h.upStart[v+1]; i++ {
				a.relax(h.upTo[i], dv+h.upW[i])
			}
		}
	}
	return cells
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

// DijkstraMtM is the preprocessing-free fallback: one full forward
// Dijkstra per source, shared across every target column — already a
// |targets|-fold sharing win over per-pair point queries. Cells are
// bit-identical to forward Dijkstra.Dist (NOT to BiDijkstra.Dist, whose
// meet-in-the-middle sum rounds differently — which is why ManyToManyFor
// declines the bidijkstra tier). Owns a search engine; not safe for
// concurrent use.
type DijkstraMtM struct {
	d *Dijkstra
}

// NewDijkstraMtM returns a fallback filler bound to g.
func NewDijkstraMtM(g *roadnet.Graph) *DijkstraMtM {
	return &DijkstraMtM{d: NewDijkstra(g)}
}

// Table implements ManyToMany with one single-source run per source row.
func (m *DijkstraMtM) Table(a *TableArena, sources, targets []roadnet.VertexID) []float64 {
	nt := len(targets)
	cells := a.grabCells(len(sources) * nt)
	for si, s := range sources {
		m.d.RunAll(s)
		row := cells[si*nt : (si+1)*nt]
		for tj, t := range targets {
			row[tj] = m.d.DistTo(t)
		}
	}
	return cells
}

// ManyToManyFor returns the batched filler matching o's tier, unwrapping
// counting/locking/caching shims to reach it: bucket sweep for CH, label
// scatter for hub labels, nil otherwise. BiDijkstra has no bit-identical
// batched form (its meet-sum rounds differently than a one-sided sweep);
// CCH needs none: a label is its vertex's finished upward sweep, cached,
// so a bucket fill would redo it with a heap (DESIGN.md §16.4).
// The returned filler reads only the tier's immutable arrays and may run
// concurrently with point queries against the same tier.
func ManyToManyFor(o Oracle) ManyToMany {
	switch x := tierOf(o).(type) {
	case *HubLabels:
		return &HubMtM{h: x}
	case *CH:
		return &BucketMtM{ch: x}
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
