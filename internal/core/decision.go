package core

import (
	"math"

	"repro/internal/geo"
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

// reqBound is the decision phase's lower bound on dis(u, o_r) and
// dis(u, d_r) for one request: every distance Lemma 7 bounds has o_r or d_r
// as an endpoint, so the bound holds both targets' points and rows and
// reads a stop's own row once for both. With no rows it is the paper's:
// the straight-line distance at the network's top speed. With the graph's
// landmark rows it is the larger of that and the ALT bound
// max_l |d(l,u) − d(l,t)| less a rounding margin, which on a road network
// lies far closer to dis(u, t) (DESIGN.md §10.7).
type reqBound struct {
	g      *roadnet.Graph
	po, pd geo.Point
	rows   [][8]float64
	ro, rd *[8]float64 // o_r's and d_r's rows; nil without landmarks
	// rel scales the margin with the rows' distances: it absorbs the
	// rounding of the rows' Dijkstra folds and of the oracle's own sums.
	rel float64
	// cut enables decide's one-pair deadline cut of busy workers
	// (DESIGN.md §10.8); its slack needs rel, so only a landmark bound
	// may set it.
	cut bool
}

// euclidBound returns the paper's Euclidean bound for req on g.
func euclidBound(g *roadnet.Graph, req *Request) reqBound {
	return reqBound{g: g, po: g.Point(req.Origin), pd: g.Point(req.Dest)}
}

// landmarkBound returns req's bound tightened by g's landmark rows.
func landmarkBound(g *roadnet.Graph, req *Request) reqBound {
	b := euclidBound(g, req)
	b.rows = g.Landmarks()
	b.ro, b.rd = &b.rows[req.Origin], &b.rows[req.Dest]
	b.rel = float64(g.NumVertices()+4) * 0x1p-51
	return b
}

// toOrigin returns the bound on dis(u, o_r); +Inf when a landmark reaches
// exactly one of u and o_r, which proves the pair unreachable.
func (b *reqBound) toOrigin(u roadnet.VertexID) float64 {
	lb := b.g.Point(u).Dist(b.po) / geo.MaxSpeed()
	if b.ro == nil {
		return lb
	}
	x := &b.rows[u]
	for l := range x {
		lb = lift(lb, x[l], b.ro[l], b.rel)
	}
	return lb
}

// toBoth returns the bounds on dis(u, o_r) and dis(u, d_r), each bit for
// bit what toOrigin computes for its target, from one read of u's row.
func (b *reqBound) toBoth(u roadnet.VertexID) (toO, toD float64) {
	p := b.g.Point(u)
	toO, toD = p.Dist(b.po)/geo.MaxSpeed(), p.Dist(b.pd)/geo.MaxSpeed()
	if b.ro == nil {
		return toO, toD
	}
	x := &b.rows[u]
	for l := range x {
		toO = lift(toO, x[l], b.ro[l], b.rel)
		toD = lift(toD, x[l], b.rd[l], b.rel)
	}
	return toO, toD
}

// lift raises lb to landmark l's bound |x − y| − rel·(x + y), where x and y
// are l's distances to the two endpoints. A landmark that reaches exactly
// one endpoint makes it +Inf, which no later landmark lowers; one that
// reaches neither gives Inf − Inf = NaN, which the comparison never admits.
func lift(lb, x, y, rel float64) float64 {
	d := math.Abs(x - y)
	if d == math.Inf(1) {
		return d
	}
	if a := d - rel*(x+y); a > lb {
		return a
	}
	return lb
}

// busyCut reports whether the cut is on and toO = b(l₀, o_r) alone proves
// every insertion into the busy route rt late: any insertion reaches d_r no
// earlier than Now + dis(l₀, o_r) + L. The slack, 2·rel of the times'
// magnitude, covers the rounding of the oracle's sums and of the cached
// arrivals (DESIGN.md §10.8).
func (b *reqBound) busyCut(rt *Route, deadline, toO, L float64) bool {
	if !b.cut {
		return false
	}
	slack := 2 * b.rel * (math.Abs(rt.Now) + math.Abs(deadline))
	return rt.Now+toO+L > deadline+feasEps+slack
}
