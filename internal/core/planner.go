package core

import (
	"math"
	"time"
)

// Result records the outcome of handling one request.
type Result struct {
	Served bool
	Worker WorkerID // valid when Served
	Delta  float64  // increased travel time when Served
	// Deferred marks a decision postponed by a batching planner; the
	// simulator collects the eventual outcome via the Deferring interface.
	Deferred bool
}

// Planner handles dynamically arriving requests against a fleet. Planners
// mutate worker routes when they serve a request; the simulator owns
// worker movement and metrics.
type Planner interface {
	Name() string
	// OnRequest decides and, if serving, plans request req arriving at
	// absolute time now. Implementations may defer the decision
	// (batching); such planners return Result{Deferred: true} and also
	// implement Deferring.
	OnRequest(now float64, req *Request) Result
}

// Deferring is implemented by planners that postpone decisions (batch).
type Deferring interface {
	// TakeDecided returns and clears the results decided since the last
	// call (e.g. by an internal window flush during OnRequest).
	TakeDecided() []DeferredResult
	// FlushAll decides everything still pending; the simulator calls it
	// once after the last request.
	FlushAll(now float64)
}

// DeferredResult pairs a deferred request with its eventual outcome.
type DeferredResult struct {
	Req    *Request
	Result Result
}

// InsertionFunc is the pluggable insertion operator of a greedy planner;
// (*Scratch).LinearDP is the paper's choice, the others enable ablations.
// The operator runs on the caller-owned scratch arena so the planning
// path stays allocation-free; method expressions on *Scratch have exactly
// this signature.
type InsertionFunc func(sc *Scratch, rt *Route, kw int, req *Request, L float64, dist DistFunc) Insertion

// Config parameterizes the greedy planners.
type Config struct {
	// Alpha is the weight α of total travel distance in the unified cost.
	Alpha float64
	// Prune enables the Lemma 8 pre-ordered pruning (pruneGreedyDP);
	// disabled it yields the GreedyDP ablation.
	Prune bool
	// PostCheck rejects a request after planning when α·Δ* > p_r, i.e.
	// when serving it would raise the unified cost more than its penalty.
	// The paper's Algorithm 5 stops at the decision-phase lower-bound
	// check; PostCheck is the natural strengthening and is on by default
	// (see DESIGN.md §6). Set it false for strictly-paper behavior. With it
	// on, the decision phase also tightens its bounds with the graph's
	// landmark rows (DESIGN.md §10.7).
	PostCheck bool
	// Insertion is the insertion operator; nil means (*Scratch).LinearDP.
	Insertion InsertionFunc
}

// Greedy is the two-phase solution of §5: a decision phase driven by
// zero-query lower bounds and a planning phase that inserts the request
// into the best worker. With Prune on it is pruneGreedyDP (Algorithm 5);
// off it is the GreedyDP ablation.
//
// Each planner owns one Scratch arena, reused across requests: after a
// short warm-up, steady-state Plan calls perform zero heap allocations.
// Consequently a Greedy instance is NOT safe for concurrent use — not
// even for the otherwise read-only Plan (the scratch guard panics if two
// goroutines try).
type Greedy struct {
	fleet *Fleet
	cfg   Config
	name  string
	sc    Scratch
	// idleUB enables the idle upper bound (idleUpperBound) on the Lemma 8
	// scan. It needs the scan to prune and the operator to be the default
	// LinearDP, whose Δ* for an idle worker emptyRouteDelta reproduces bit
	// for bit (the basic operator's Δ rounds differently).
	idleUB bool
	// landmarks tightens the decision phase's pair bound with the graph's
	// landmark rows (DESIGN.md §10.7). Only with PostCheck: there a tighter
	// bound can only move a reject that PostCheck or "no feasible
	// insertion" makes anyway, while without it Algorithm 4's own test
	// would reject requests the paper's planner serves.
	landmarks bool
	// busyCut turns on, with landmarks, decide's one-pair deadline cut of
	// busy workers (DESIGN.md §10.8). It only drops workers no insertion
	// can serve, yet it raises the minimum bound, which PostCheck makes
	// harmless just as it does for the landmark bound itself.
	busyCut bool
	// obs and tr are the introspection hook: tr is the planner-owned
	// arena record (reused across requests, so observation allocates
	// nothing), populated and handed to obs only when obs is non-nil.
	obs PlanObserver
	tr  PlanTrace
}

// NewPruneGreedyDP returns the paper's pruneGreedyDP planner.
func NewPruneGreedyDP(fleet *Fleet, alpha float64) *Greedy {
	return NewGreedy(fleet, Config{Alpha: alpha, Prune: true, PostCheck: true}, "pruneGreedyDP")
}

// NewGreedyDP returns the GreedyDP ablation (no Lemma 8 pruning).
func NewGreedyDP(fleet *Fleet, alpha float64) *Greedy {
	return NewGreedy(fleet, Config{Alpha: alpha, Prune: false, PostCheck: true}, "GreedyDP")
}

// NewGreedy returns a greedy planner with full configuration control.
func NewGreedy(fleet *Fleet, cfg Config, name string) *Greedy {
	idleUB := cfg.Prune && cfg.Insertion == nil
	if cfg.Insertion == nil {
		cfg.Insertion = (*Scratch).LinearDP
	}
	return &Greedy{fleet: fleet, cfg: cfg, name: name, idleUB: idleUB, landmarks: cfg.PostCheck, busyCut: cfg.PostCheck}
}

// Name implements Planner.
func (p *Greedy) Name() string { return p.name }

// SetObserver implements Observable: attach (or with nil, detach) a plan
// observer. Like Plan itself, it must not race with a Plan call.
func (p *Greedy) SetObserver(o PlanObserver) { p.obs = o }

// OnRequest implements Algorithm 5 for a single request.
func (p *Greedy) OnRequest(now float64, req *Request) Result {
	bestW, bestIns, L := p.Plan(now, req)
	if bestW == nil {
		return Result{}
	}
	if err := Apply(&bestW.Route, bestW.Capacity, req, bestIns, L, p.fleet.Dist); err != nil {
		// An insertion reported feasible must apply cleanly; failure here
		// is a programming error, not a runtime condition.
		panic(err)
	}
	return Result{Served: true, Worker: bestW.ID, Delta: bestIns.Delta}
}

// Plan runs both phases of Algorithm 5 without mutating any route,
// returning the chosen worker and insertion (nil when the request is
// rejected). Exposed so ablations can compare planning decisions on
// identical fleet state. With an observer attached it additionally emits
// the PlanStart/PlanDone introspection callbacks — on the planner-owned
// trace arena, so observation stays allocation-free, and strictly after
// every decision-affecting operation, so it cannot change the outcome.
func (p *Greedy) Plan(now float64, req *Request) (*Worker, Insertion, float64) {
	if p.obs == nil {
		return p.plan(now, req, nil)
	}
	p.obs.PlanStart(now, req)
	start := time.Now()
	tr := &p.tr
	*tr = PlanTrace{Req: req, Now: now, Chosen: -1, MinLB: math.Inf(1)}
	w, ins, L := p.plan(now, req, tr)
	tr.L = L
	if w != nil {
		tr.Ins = ins
		tr.Chosen = w.ID
		tr.Reason = ReasonServed
	}
	tr.Pruned = tr.Feasible - int(tr.Stats.Evaluated)
	tr.PlanNs = time.Since(start).Nanoseconds()
	p.obs.PlanDone(tr)
	return w, ins, L
}

// plan is Plan's uninstrumented body; tr is nil when no observer is
// attached (the steady-state hot path) and collects phase facts otherwise.
func (p *Greedy) plan(now float64, req *Request, tr *PlanTrace) (*Worker, Insertion, float64) {
	f := p.fleet
	L := f.Dist(req.Origin, req.Dest) // the decision phase's one query

	cands := p.sc.Candidates(f, req, now, L)
	if tr != nil {
		tr.Candidates = len(cands)
	}
	if len(cands) == 0 {
		if tr != nil {
			tr.Reason = ReasonNoCandidates
		}
		return nil, Infeasible, L
	}

	// Phase 1: decision (Algorithm 4), leaving out the idle workers the
	// Lemma 8 scan provably never reaches. The bound reads the fleet's
	// current snapshot, whose metric f.Dist answers in.
	b := euclidBound(f.Graph, req)
	if p.landmarks {
		b = landmarkBound(f.Graph, req)
		b.cut = p.busyCut
	}
	ub := math.Inf(1)
	if p.idleUB {
		ub = idleUpperBound(cands, req, &b, L, f.Dist)
	}
	lbs, reject := p.sc.decide(p.cfg.Alpha, cands, req, &b, L, ub)
	if reject {
		if tr != nil {
			if ub < math.Inf(1) || p.sc.cut > 0 {
				// The record lists every feasible worker in candidate order.
				all := b
				all.cut = false
				lbs, _ = p.sc.decide(p.cfg.Alpha, cands, req, &all, L, math.Inf(1))
			}
			tr.setBounds(lbs)
			tr.Reason = ReasonDecisionBound
		}
		return nil, Infeasible, L
	}

	// Phase 2: planning. With pruning, scan workers in ascending LBΔ*
	// order and stop once the best exact Δ* undercuts the next lower
	// bound (Lemma 8). The scan lives in EvalCandidatesSerial, which
	// orders lbs only as far as it gets.
	var st *PlanStats
	if tr != nil {
		st = &tr.Stats
	}
	bestW, bestIns := EvalCandidatesSerial(&p.sc, p.cfg.Insertion, p.cfg.Prune, lbs, req, L, f.Dist, st)
	if tr != nil {
		if p.cfg.Prune { // the trace reports the whole scan order
			lbs = p.appendLeftOut(lbs, cands, req, &b, L, ub)
			SortWorkerBounds(lbs)
		}
		tr.setBounds(lbs)
	}
	if bestW == nil {
		if tr != nil {
			tr.Reason = ReasonNoFeasibleInsertion
		}
		return nil, Infeasible, L
	}
	if p.cfg.PostCheck && p.cfg.Alpha*bestIns.Delta > req.Penalty {
		if tr != nil {
			tr.Reason = ReasonPostCheck
			tr.Ins = bestIns // the infeasible-by-economics plan, for the record
		}
		return nil, Infeasible, L
	}
	return bestW, bestIns, L
}

// idleUpperBound returns the exact Δ* of the idle candidate w* nearest to
// o_r that the request fits, or +Inf when there is none or it cannot meet
// e_r. It costs one query, dis(l₀*, o_r); emptyRouteDelta over it is
// bit for bit the Δ LinearDP returns for w*, so the scan's best Δ* ends at
// most ub once w* is evaluated. An idle worker with a bound above ub is
// scanned after w*, whose bound is at most ub, and so after the scan has
// stopped: decide leaves it out (DESIGN.md §10.6).
func idleUpperBound(cands []*Worker, req *Request, b *reqBound, L float64, dist DistFunc) float64 {
	var star *Worker
	nearest := math.Inf(1)
	for _, w := range cands {
		rt := &w.Route
		if rt.Len() != 0 || rt.Onboard > w.Capacity-req.Capacity {
			continue
		}
		if d := b.g.Point(rt.Loc).DistSq(b.po); d < nearest {
			nearest, star = d, w
		}
	}
	if star == nil {
		return math.Inf(1)
	}
	rt := &star.Route
	ub := emptyRouteDelta(rt, star.Capacity, req, dist(rt.Loc, req.Origin), L)
	// The pair bound is at most the road distance, which keeps w*'s own
	// bound within ub; should rounding ever say otherwise, decide would drop
	// w* itself, so leave none out.
	if emptyRouteDelta(rt, star.Capacity, req, b.toOrigin(rt.Loc), L) > ub {
		return math.Inf(1)
	}
	return ub
}

// appendLeftOut appends to lbs (decide's result, permuted by the scan) the
// finite bounds decide left out, so an observer's record lists every
// feasible worker: the idle candidates with a bound above ub, and the busy
// ones the deadline cut dropped, at the bound their full fill gives.
func (p *Greedy) appendLeftOut(lbs []WorkerBound, cands []*Worker, req *Request, b *reqBound, L, ub float64) []WorkerBound {
	if math.IsInf(ub, 1) && p.sc.cut == 0 {
		return lbs
	}
	p.sc.acquire()
	defer p.sc.release()
	for _, w := range cands {
		rt := &w.Route
		idle := rt.Len() == 0
		toO := b.toOrigin(rt.Loc)
		if !idle && !b.busyCut(rt, req.Deadline, toO, L) {
			continue // decide kept it or proved it infeasible
		}
		lb := p.sc.lowerBound(rt, w.Capacity, req, b, toO, L)
		if !math.IsInf(lb, 1) && (!idle || lb > ub) {
			lbs = append(lbs, WorkerBound{LB: lb, Worker: w})
		}
	}
	p.sc.lbs = lbs // retain growth across requests
	return lbs
}

// UnifiedCost is Eq. 1: UC(W,R) = α·Σ_w D(S_w) + Σ_{r∈R⁻} p_r.
func UnifiedCost(alpha float64, fleet *Fleet, rejected []*Request) float64 {
	cost := alpha * fleet.TotalDistance()
	for _, r := range rejected {
		cost += r.Penalty
	}
	return cost
}

// Revenue is Eq. 2: the platform revenue c_r·Σ_{r∈R⁺} dis(o_r,d_r) −
// c_w·Σ_w D(S_w). The paper shows maximizing it is equivalent to
// minimizing UnifiedCost with α = c_w and p_r = c_r·dis(o_r,d_r).
func Revenue(cr, cw float64, fleet *Fleet, served []*Request) float64 {
	income := 0.0
	for _, r := range served {
		income += cr * fleet.Dist(r.Origin, r.Dest)
	}
	return income - cw*fleet.TotalDistance()
}

// ServedRate is |R⁺| / |R|.
func ServedRate(served, total int) float64 {
	if total == 0 {
		return 0
	}
	return float64(served) / float64(total)
}
