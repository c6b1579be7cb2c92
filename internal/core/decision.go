package core

import (
	"math"

	"repro/internal/roadnet"
)

// LowerBoundInsertion computes LBΔ* (Lemma 7, Eq. 15–17): a lower bound on
// the minimal increased distance of inserting req into rt, using Euclidean
// travel-time lower bounds for every distance involving o_r or d_r and the
// cached arrival times for consecutive-stop distances. It performs zero
// shortest-distance queries; the caller supplies the single query the
// decision phase needs, L = dis(o_r, d_r).
//
// The bound is obtained by running the same linear DP as the exact
// operator on optimistic distances: every really-feasible insertion stays
// feasible under the relaxation and every candidate value can only shrink,
// so the minimum is a valid lower bound. +Inf means no insertion can be
// feasible even optimistically.
//
// This convenience form allocates a fresh context per call; planners use
// Scratch.LowerBound, which reuses one arena across requests.
func LowerBoundInsertion(rt *Route, kw int, req *Request, g *roadnet.Graph, L float64) float64 {
	var sc Scratch
	return sc.LowerBound(rt, kw, req, g, L)
}

// WorkerBound pairs a worker with its decision-phase lower bound.
type WorkerBound struct {
	LB     float64
	Worker *Worker
}

// Decide is Algorithm 4 in its allocating convenience form; planners use
// Scratch.Decide, which reuses one arena across requests and computes the
// identical result.
func Decide(alpha float64, cands []*Worker, req *Request, g *roadnet.Graph, L float64) (lbs []WorkerBound, reject bool) {
	var sc Scratch
	lbs, reject = sc.Decide(alpha, cands, req, g, L)
	return lbs, reject
}

// pairBound is the decision phase's lower bound on dis(u, v), the one
// Lemma 7 puts in place of every distance to o_r or d_r. With rows nil it
// is the paper's: the straight-line distance at the network's top speed.
// With rows set to the graph's landmark rows it is the larger of that and
// the ALT bound max_l |d(l,u) − d(l,v)| less a rounding margin, which on a
// road network lies far closer to dis(u, v) (DESIGN.md §10.7).
type pairBound struct {
	g    *roadnet.Graph
	rows [][8]float64
	// rel scales the margin with the rows' distances: it absorbs the
	// rounding of the rows' Dijkstra folds and of the oracle's own sums.
	rel float64
}

// landmarkBound returns the pair bound tightened by g's landmark rows.
func landmarkBound(g *roadnet.Graph) pairBound {
	return pairBound{g: g, rows: g.Landmarks(), rel: float64(g.NumVertices()+4) * 0x1p-51}
}

// at returns the bound on dis(u, v); +Inf when a landmark reaches exactly
// one of u and v, which proves the pair unreachable.
func (b *pairBound) at(u, v roadnet.VertexID) float64 {
	lb := b.g.EuclidTime(u, v)
	if b.rows == nil {
		return lb
	}
	y := &b.rows[v]
	for l, x := range &b.rows[u] {
		d := math.Abs(x - y[l])
		if d == math.Inf(1) {
			return d
		}
		// A landmark that reaches neither gives Inf − Inf = NaN, which the
		// comparison never admits.
		if a := d - b.rel*(x+y[l]); a > lb {
			lb = a
		}
	}
	return lb
}
