package roadnet

import (
	"math"
	"sync"

	"repro/internal/pqueue"
)

// numLandmarks is how many landmark distance rows a graph keeps. A
// constant, not a knob: eight float64 are the one cache line a relaxed
// vertex or a bounded pair reads, every row bounds every query, and the
// count was measured for both readers (DESIGN.md §5.1 for the leg search,
// §10.7 for the decision phase).
const numLandmarks = 8

// landmarkTable holds a graph snapshot's landmark rows, built once by the
// first Landmarks call. A snapshot owns its table: Overlay.Apply gives
// every reweighted graph a fresh one, so rows are always in the metric of
// the graph that returns them.
type landmarkTable struct {
	once sync.Once
	rows [][numLandmarks]float64
}

// Landmarks returns the graph's landmark rows: rows[v][l] is the travel
// time between landmark l and v under this snapshot's weights, +Inf when
// they lie in different components. Landmarks are picked farthest-first
// (each the vertex farthest from those already chosen, lowest ID on ties,
// an unreached vertex counting as infinitely far), so every component gets
// a landmark before any component gets its second. By the triangle
// inequality max_l |rows[u][l] − rows[v][l]| ≤ dis(u, v), the ALT bound of
// Goldberg & Harrelson; the leg search (shortest.BiDijkstra.Path) uses it
// as its A* potential and pruneGreedyDP's decision phase as its Lemma 7
// pair bound.
//
// The first call builds the rows — one-to-all searches from each landmark
// — so a graph nobody asks never pays for them, and every reader of the
// snapshot shares the one copy. Safe for concurrent use; the returned
// slice is read-only.
func (g *Graph) Landmarks() [][numLandmarks]float64 {
	t := g.lm
	t.once.Do(func() { t.rows = buildLandmarks(g) })
	return t.rows
}

// buildLandmarks computes the rows Landmarks returns, vertex-major: the
// distances of one vertex are one cache line.
func buildLandmarks(g *Graph) [][numLandmarks]float64 {
	n := g.NumVertices()
	rows := make([][numLandmarks]float64, n)
	far := make([]float64, n) // distance to the nearest chosen landmark
	for v := range far {
		far[v] = math.Inf(1)
	}
	dist := make([]float64, n)
	h := pqueue.New(n)
	for l := 0; l < numLandmarks; l++ {
		next := 0
		for v, f := range far {
			if f > far[next] {
				next = v
			}
		}
		g.distancesFrom(VertexID(next), dist, h)
		for v, dv := range dist {
			rows[v][l] = dv
			far[v] = math.Min(far[v], dv)
		}
	}
	return rows
}

// distancesFrom fills dist with the travel time from s to every vertex,
// +Inf where unreached: a plain Dijkstra on the empty heap h.
func (g *Graph) distancesFrom(s VertexID, dist []float64, h *pqueue.Heap) {
	for v := range dist {
		dist[v] = math.Inf(1)
	}
	dist[s] = 0
	h.Push(s, 0)
	for h.Len() > 0 {
		v, dv := h.Pop()
		for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
			if u, du := g.adjTo[i], dv+g.adjCost[i]; du < dist[u] {
				dist[u] = du
				h.Push(u, du)
			}
		}
	}
}
