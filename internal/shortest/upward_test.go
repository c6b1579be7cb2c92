package shortest

import (
	"math"

	"repro/internal/pqueue"
	"repro/internal/roadnet"
)

// The classic contraction hierarchy's query and contraction queue, kept as
// test references after the CH tier was deleted: upwardDist is the
// bidirectional upward search the CCH label query is held to bit for bit
// (oldCCHQuery, TestCCHLabelQueryBitIdentical), and chPrioQueue orders the
// map-based skeleton build the slice-based one must reproduce
// (buildCCHSkeletonMaps).

type chSearch struct {
	dist    []float64
	version []uint32
	cur     uint32
	heap    *pqueue.Heap
}

// chPrioItem is a lazy priority-queue entry used during contraction.
type chPrioItem struct {
	v    roadnet.VertexID
	prio float64
}

type chPrioQueue []chPrioItem

func (q chPrioQueue) Len() int { return len(q) }

// Less tie-breaks equal priorities on vertex ID so vertices with the same
// priority contract in a canonical order; cchPrio.less is the same order
// for BuildCCHSkeleton.
func (q chPrioQueue) Less(i, j int) bool {
	if q[i].prio != q[j].prio {
		return q[i].prio < q[j].prio
	}
	return q[i].v < q[j].v
}
func (q chPrioQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *chPrioQueue) Push(x interface{}) { *q = append(*q, x.(chPrioItem)) }
func (q *chPrioQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

func newCHSearch(n int) chSearch {
	return chSearch{
		dist:    make([]float64, n),
		version: make([]uint32, n),
		heap:    pqueue.New(n),
	}
}

func (s *chSearch) reset() {
	s.cur++
	if s.cur == 0 {
		for i := range s.version {
			s.version[i] = 0
		}
		s.cur = 1
	}
	s.heap.Reset()
}

func (s *chSearch) relax(v roadnet.VertexID, d float64) {
	if s.version[v] != s.cur || d < s.dist[v] {
		s.version[v] = s.cur
		s.dist[v] = d
		s.heap.Push(v, d)
	}
}

// upwardDist is the bidirectional upward search over a hierarchy stored
// as upward CSR arrays. It was the classic CH's query, and the CCH's label
// query is held to it bit for bit (TestCCHLabelQueryBitIdentical).
func upwardDist(f, b *chSearch, upStart []int32, upTo []roadnet.VertexID, upW []float64,
	s, t roadnet.VertexID) float64 {
	if s == t {
		return 0
	}
	f.reset()
	b.reset()
	f.relax(s, 0)
	b.relax(t, 0)
	best := math.Inf(1)
	for f.heap.Len() > 0 || b.heap.Len() > 0 {
		// Alternate; prune a side once its minimum exceeds best.
		for _, side := range [2]*chSearch{f, b} {
			if side.heap.Len() == 0 {
				continue
			}
			if _, top := side.heap.Min(); top >= best {
				side.heap.Reset()
				continue
			}
			v, dv := side.heap.Pop()
			other := b
			if side == b {
				other = f
			}
			if other.version[v] == other.cur {
				if total := dv + other.dist[v]; total < best {
					best = total
				}
			}
			for i := upStart[v]; i < upStart[v+1]; i++ {
				side.relax(upTo[i], dv+upW[i])
			}
		}
	}
	if math.IsInf(best, 1) {
		return Inf
	}
	return best
}
