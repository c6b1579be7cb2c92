package core

import (
	"math"
	"sync/atomic"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

// Scratch is the reusable planning arena of one planner: every buffer the
// steady-state Plan path needs, grown on demand and never shrunk, so that
// after a short warm-up the whole decision + planning pipeline — the
// paper's measured response time — runs without a single heap allocation.
//
// Ownership rule: a Scratch belongs to exactly one goroutine at a time.
// The insertion-context buffers inside it are live for the duration of
// one operator call (LinearDP, NaiveDP, Basic, LowerBound), and the
// candidate/bound slices returned by Decide alias the scratch until its
// next use. Sharing one Scratch across concurrent scans therefore
// corrupts the §4.3 auxiliary arrays mid-computation; every entry point
// asserts single ownership with an atomic guard and panics on concurrent
// use (TestScratchGuardPanicsOnConcurrentUse). The zero value is ready to
// use.
type Scratch struct {
	busy  atomic.Bool
	ctx   insCtx
	lbs   []WorkerBound
	cands []*Worker
	cut   int     // busy workers decide's deadline cut left out
	seq   []visit // BasicInsertion's candidate-route walk buffer
}

// acquire asserts exclusive ownership for the duration of one operator
// call. It is deliberately kept on the hot path: two atomic operations per
// candidate are noise next to an O(n) insertion, and they turn the
// worst kind of concurrency bug — silently corrupted auxiliary arrays
// producing plausible wrong plans — into an immediate panic.
func (sc *Scratch) acquire() {
	if !sc.busy.CompareAndSwap(false, true) {
		panic("core: Scratch used by concurrent scans; give each goroutine its own")
	}
}

func (sc *Scratch) release() { sc.busy.Store(false) }

// grown returns s with length n, reusing capacity and over-allocating on
// growth so steady-state route lengths stop triggering reallocation.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+8)
	}
	return s[:n]
}

// LinearDP is Algorithm 3 (the paper's O(n) insertion) on this scratch's
// buffers: zero allocations once the arena has grown to the route length.
// It computes exactly LinearDPInsertion.
func (sc *Scratch) LinearDP(rt *Route, kw int, req *Request, L float64, dist DistFunc) Insertion {
	sc.acquire()
	defer sc.release()
	c := &sc.ctx
	c.reset(rt, kw, req, L)
	c.fillExact(dist)
	return linearDP(c)
}

// NaiveDP is Algorithm 2 (O(n²) insertion) on this scratch's buffers; it
// computes exactly NaiveDPInsertion.
func (sc *Scratch) NaiveDP(rt *Route, kw int, req *Request, L float64, dist DistFunc) Insertion {
	sc.acquire()
	defer sc.release()
	c := &sc.ctx
	c.reset(rt, kw, req, L)
	c.fillExact(dist)
	return naiveDP(c)
}

// Basic is Algorithm 1 (O(n³) insertion) on this scratch's buffers; it
// computes exactly BasicInsertion. The candidate-route walk reuses one
// visit buffer instead of allocating per position pair.
func (sc *Scratch) Basic(rt *Route, kw int, req *Request, dist DistFunc) Insertion {
	sc.acquire()
	defer sc.release()
	best := Infeasible
	n := rt.Len()
	for i := 0; i <= n; i++ {
		for j := i; j <= n; j++ {
			var delta float64
			var ok bool
			sc.seq, delta, ok = simulateCandidate(sc.seq, rt, kw, req, i, j, dist)
			if ok {
				best.update(delta, i, j)
			}
		}
	}
	return best.clampNonNegative()
}

// LowerBound computes LBΔ* (Lemma 7) on this scratch's buffers; it
// computes exactly LowerBoundInsertion.
func (sc *Scratch) LowerBound(rt *Route, kw int, req *Request, g *roadnet.Graph, L float64) float64 {
	sc.acquire()
	defer sc.release()
	b := euclidBound(g, req)
	return sc.lowerBound(rt, kw, req, &b, b.toOrigin(rt.Loc), L)
}

// lowerBound is LowerBound on the request's bound b, given toO = b's bound
// on dis(l₀, o_r), and without the ownership guard, for callers that
// already hold the scratch (Decide's candidate loop). An idle worker's
// empty route takes linearDP's closed form and never touches the context.
func (sc *Scratch) lowerBound(rt *Route, kw int, req *Request, b *reqBound, toO, L float64) float64 {
	if rt.Len() == 0 {
		return emptyRouteDelta(rt, kw, req, toO, L)
	}
	c := &sc.ctx
	c.reset(rt, kw, req, L)
	c.fillLower(b, toO)
	ins := linearDP(c)
	if !ins.OK {
		return math.Inf(1)
	}
	lb := ins.Delta
	if b.ro != nil {
		// Insertion.better keeps an earlier position over a value up to
		// feasEps smaller, so the DP may return up to feasEps per candidate
		// above the least value it was offered. The Euclidean bound is
		// slack by far more; a landmark bound can be tight enough for the
		// window to matter, so it is given back (DESIGN.md §10.7).
		lb -= float64(2*c.n+4) * feasEps
	}
	// Lower-bound "detours" can be negative; the true Δ* is never below 0.
	return max(0, lb)
}

// Decide is Algorithm 4 on this scratch: compute LBΔ* for every candidate
// worker and report whether the request should be rejected outright
// because even the optimistic cost α·min LB exceeds the penalty. The
// returned slice feeds the planning phase in candidate order
// (pruneGreedyDP's scan orders it lazily, only as far as Lemma 8 lets it
// go; GreedyDP needs no order) and aliases the scratch — it is valid
// until the scratch's next Decide call. The bounds are the paper's
// Euclidean ones.
func (sc *Scratch) Decide(alpha float64, cands []*Worker, req *Request, g *roadnet.Graph, L float64) (lbs []WorkerBound, reject bool) {
	b := euclidBound(g, req)
	return sc.decide(alpha, cands, req, &b, L, math.Inf(1))
}

// decide is Decide on the request's bound b that also leaves out two kinds
// of worker the Lemma 8 scan could never choose:
//   - every idle worker whose bound exceeds ub, the exact Δ* of some idle
//     candidate (Greedy.plan's idleUpperBound; +Inf leaves out none). Such
//     a worker could never be evaluated (DESIGN.md §10.6), and with the
//     candidate that set ub still in the slice the minimum bound is
//     unchanged;
//   - with b's cut on, every busy worker whose one pair bound b(l₀, o_r)
//     already misses e_r: no insertion into its route is feasible
//     (DESIGN.md §10.8).
//
// It records in sc.cut how many busy workers the cut left out.
func (sc *Scratch) decide(alpha float64, cands []*Worker, req *Request, b *reqBound, L, ub float64) (lbs []WorkerBound, reject bool) {
	sc.acquire()
	defer sc.release()
	lbs = sc.lbs[:0]
	sc.cut = 0
	minLB := math.Inf(1)
	cutSq := idleCutSq(ub, L)
	for _, w := range cands {
		rt := &w.Route
		idle := rt.Len() == 0
		if idle && b.g.Point(rt.Loc).DistSq(b.po) > cutSq {
			continue // its bound exceeds ub: skip the square root
		}
		toO := b.toOrigin(rt.Loc)
		if !idle && b.busyCut(rt, req.Deadline, toO, L) {
			sc.cut++
			continue // provably infeasible before the 2n+1 fill
		}
		lb := sc.lowerBound(rt, w.Capacity, req, b, toO, L)
		if math.IsInf(lb, 1) || idle && lb > ub {
			continue // provably infeasible, or provably never scanned
		}
		lbs = append(lbs, WorkerBound{LB: lb, Worker: w})
		if lb < minLB {
			minLB = lb
		}
	}
	sc.lbs = lbs // retain growth across requests
	if len(lbs) == 0 {
		return nil, true
	}
	// Reject when p_r < α·min LB (Algorithm 4 line 5): serving would
	// increase the unified cost more than rejecting.
	return lbs, req.Penalty < alpha*minLB
}

// idleCutSq is the squared straight-line distance, in meters, beyond which
// an idle worker's bound — at least EuclidTime(l₀, o_r) + L under every
// pair bound — is certain to exceed ub: (ub − L + feasEps)·v_max, squared.
// The feasEps of slack is tens of thousands of ulps at route time scales
// (≤ 10⁵ s), far more than the rounding of the square, the root and the
// sums, so this prefilter never drops a worker the exact lb > ub test
// keeps; below the cut, that test decides.
func idleCutSq(ub, L float64) float64 {
	r := (ub - L + feasEps) * geo.MaxSpeed()
	return r * r
}

// Candidates retrieves the request's grid-filtered candidate workers into
// this scratch's reusable buffer (valid until the next Candidates call).
func (sc *Scratch) Candidates(f *Fleet, req *Request, now, L float64) []*Worker {
	sc.acquire()
	defer sc.release()
	sc.cands = f.CandidatesAppend(sc.cands[:0], req, now, L)
	return sc.cands
}
