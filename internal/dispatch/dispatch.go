// Package dispatch is the parallel planning engine: it fans the two
// phases of Algorithm 5 (Tong et al., VLDB'18) out across a bounded
// goroutine pool while producing bit-identical results to the serial
// core.Greedy planner.
//
// Both phases parallelize because their per-worker work is independent:
//
//   - Decision (Algorithm 4): LBΔ* for each candidate worker touches only
//     that worker's route and the road network's coordinates, so the
//     lower bounds are computed concurrently into a position-indexed
//     slice and compacted in candidate order afterwards — the resulting
//     WorkerBound slice is exactly the one core.Decide builds.
//
//   - Planning (Algorithm 5): exact insertions for different workers are
//     independent. The LB-sorted candidate list is consumed through a
//     shared atomic cursor, so goroutines cooperatively scan it in the
//     serial order; every feasible Δ* shrinks a shared AtomicBound, and a
//     goroutine stops at the first candidate whose LB strictly exceeds
//     the bound (Lemma 8). Because the bound never drops below the final
//     best Δ*, a pruned candidate's exact Δ is strictly worse than the
//     winner's — it could not even tie — so merging the per-goroutine
//     local bests with the serial (Δ*, WorkerID) tie-break selects
//     exactly the worker the serial scan selects.
//
// Determinism therefore does not depend on scheduling: only response
// times vary across runs, never decisions, assignments or Δ* values.
// The property-based suite in equivalence_test.go machine-checks this
// against core.Greedy over randomized workloads.
//
// The planner requires a concurrency-safe distance oracle behind
// Fleet.Dist (e.g. shortest.ShardedCached over hub labels, with
// shortest.Locked around non-reentrant oracles) and relies on the
// read-write-locked spatial grid for candidate retrieval.
package dispatch

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

// Config parameterizes the parallel planner.
type Config struct {
	// Plan is the planning configuration shared with the serial planner
	// (α, pruning, post-check, insertion operator).
	Plan core.Config
	// Pool is the number of planning goroutines (≤ 1 plans serially).
	Pool int
	// SerialCutoff is the candidate count below which the request is
	// planned serially — goroutine fan-out costs more than it saves on
	// tiny candidate sets. ≤ 0 selects DefaultSerialCutoff.
	SerialCutoff int
}

// DefaultSerialCutoff is the candidate count below which fan-out is not
// worth its overhead; measured on the insertion microbenchmarks.
const DefaultSerialCutoff = 16

// ParallelGreedy is the parallel pruneGreedyDP/GreedyDP planner. It
// implements core.Planner and is a drop-in replacement for core.Greedy
// with identical outputs.
//
// Unlike core.Greedy — which owns a single scratch arena and is therefore
// strictly single-threaded — ParallelGreedy draws its planning arenas
// from a sync.Pool, so read-only Plan calls on one instance are safe from
// any number of goroutines (OnRequest still mutates routes and needs
// external ordering, as always).
type ParallelGreedy struct {
	fleet  *core.Fleet
	cfg    core.Config
	pool   int
	cutoff int
	name   string
	arenas sync.Pool // of *planArena
	// obs is the introspection hook; each Plan call populates the trace
	// record of its own pooled arena, so concurrent observed Plans never
	// share a PlanTrace (the observer itself must be concurrency-safe,
	// which internal/trace.Recorder is).
	obs core.PlanObserver
}

// planArena bundles every reusable buffer one Plan call needs: the
// coordinator scratch (candidate retrieval, serial fallback), the
// decision-phase bound arrays, one insertion Scratch per planning
// goroutine — NEVER shared across concurrent scans; core.Scratch asserts
// that — and the merge slots for the per-goroutine local bests. Arenas
// are pooled, grown on demand and never shrunk.
type planArena struct {
	sc     core.Scratch
	bounds []float64
	lbs    []core.WorkerBound
	evals  []*core.Scratch
	locals []localBest
	bound  core.AtomicBound
	// tr is this arena's introspection record and stats its per-goroutine
	// work counters (one slot per scan, summed after the merge) — both
	// reused across requests so an attached observer allocates nothing.
	tr    core.PlanTrace
	stats []core.PlanStats
}

// localBest is one goroutine's scan result before the deterministic merge.
type localBest struct {
	w   *core.Worker
	ins core.Insertion
}

// evalScratches returns nw insertion arenas, allocating lazily so a
// planner that never fans that wide never pays for them.
func (a *planArena) evalScratches(nw int) []*core.Scratch {
	for len(a.evals) < nw {
		a.evals = append(a.evals, new(core.Scratch))
	}
	return a.evals[:nw]
}

// grown returns s with length n, reusing capacity and over-allocating on
// growth (same policy as core's scratch buffers) so a slowly creeping
// candidate count stops triggering per-request reallocation.
func grown[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, n+n/2+8)
	}
	return s[:n]
}

// NewParallelGreedy returns a parallel greedy planner with full
// configuration control. A nil insertion operator selects
// core.LinearDPInsertion, like core.NewGreedy.
func NewParallelGreedy(fleet *core.Fleet, cfg Config, name string) *ParallelGreedy {
	if cfg.Plan.Insertion == nil {
		cfg.Plan.Insertion = (*core.Scratch).LinearDP
	}
	if cfg.Pool < 1 {
		cfg.Pool = 1
	}
	if cfg.SerialCutoff <= 0 {
		cfg.SerialCutoff = DefaultSerialCutoff
	}
	p := &ParallelGreedy{
		fleet:  fleet,
		cfg:    cfg.Plan,
		pool:   cfg.Pool,
		cutoff: cfg.SerialCutoff,
		name:   name,
	}
	p.arenas.New = func() any { return new(planArena) }
	return p
}

// NewParallelPruneGreedyDP returns the parallel counterpart of the
// paper's pruneGreedyDP planner with the given pool size.
func NewParallelPruneGreedyDP(fleet *core.Fleet, alpha float64, pool int) *ParallelGreedy {
	return NewParallelGreedy(fleet, Config{
		Plan: core.Config{Alpha: alpha, Prune: true, PostCheck: true},
		Pool: pool,
	}, fmt.Sprintf("pruneGreedyDP-p%d", pool))
}

// NewParallelGreedyDP returns the parallel GreedyDP ablation (no Lemma 8
// pruning) with the given pool size.
func NewParallelGreedyDP(fleet *core.Fleet, alpha float64, pool int) *ParallelGreedy {
	return NewParallelGreedy(fleet, Config{
		Plan: core.Config{Alpha: alpha, PostCheck: true},
		Pool: pool,
	}, fmt.Sprintf("GreedyDP-p%d", pool))
}

// Name implements core.Planner.
func (p *ParallelGreedy) Name() string { return p.name }

// SetObserver implements core.Observable: attach (or with nil, detach) a
// plan observer. It must not race with in-flight Plan calls.
func (p *ParallelGreedy) SetObserver(o core.PlanObserver) { p.obs = o }

// Pool returns the configured number of planning goroutines.
func (p *ParallelGreedy) Pool() int { return p.pool }

// OnRequest implements core.Planner: plan in parallel, apply serially.
// Route mutation stays on the caller's goroutine, so the planner never
// writes shared state concurrently.
func (p *ParallelGreedy) OnRequest(now float64, req *core.Request) core.Result {
	bestW, bestIns, L := p.Plan(now, req)
	if bestW == nil {
		return core.Result{}
	}
	if err := core.Apply(&bestW.Route, bestW.Capacity, req, bestIns, L, p.fleet.Dist); err != nil {
		// An insertion reported feasible must apply cleanly; failure here
		// is a programming error, not a runtime condition.
		panic(err)
	}
	return core.Result{Served: true, Worker: bestW.ID, Delta: bestIns.Delta}
}

// Plan runs both phases of Algorithm 5 without mutating any route. Its
// return value is bit-identical to core.Greedy.Plan on the same fleet
// state, for any pool size. With an observer attached it emits the
// PlanStart/PlanDone callbacks on the pooled arena's trace record; the
// decision stays bit-identical, but the work counters (Evaluated,
// DPCells) may vary run to run with goroutine timing — Lemma 8 prunes
// whatever the cooperative bound has not yet excluded.
func (p *ParallelGreedy) Plan(now float64, req *core.Request) (*core.Worker, core.Insertion, float64) {
	if p.obs == nil {
		return p.plan(now, req, nil)
	}
	a := p.arenas.Get().(*planArena)
	defer p.arenas.Put(a)
	p.obs.PlanStart(now, req)
	start := time.Now()
	tr := &a.tr
	*tr = core.PlanTrace{Req: req, Now: now, Chosen: -1, MinLB: math.Inf(1)}
	w, ins, L := p.planOn(a, now, req, tr)
	tr.L = L
	if w != nil {
		tr.Ins = ins
		tr.Chosen = w.ID
		tr.Reason = core.ReasonServed
	}
	tr.Pruned = tr.Feasible - int(tr.Stats.Evaluated)
	tr.PlanNs = time.Since(start).Nanoseconds()
	p.obs.PlanDone(tr)
	return w, ins, L
}

// plan draws an arena and runs the uninstrumented path.
func (p *ParallelGreedy) plan(now float64, req *core.Request, tr *core.PlanTrace) (*core.Worker, core.Insertion, float64) {
	a := p.arenas.Get().(*planArena)
	defer p.arenas.Put(a)
	return p.planOn(a, now, req, tr)
}

// planOn is the Plan body on a caller-held arena; tr is nil on the
// uninstrumented hot path and collects phase facts otherwise.
func (p *ParallelGreedy) planOn(a *planArena, now float64, req *core.Request, tr *core.PlanTrace) (*core.Worker, core.Insertion, float64) {
	f := p.fleet
	L := f.Dist(req.Origin, req.Dest) // the decision phase's one query

	cands := a.sc.Candidates(f, req, now, L)
	if tr != nil {
		tr.Candidates = len(cands)
	}
	if len(cands) == 0 {
		if tr != nil {
			tr.Reason = core.ReasonNoCandidates
		}
		return nil, core.Infeasible, L
	}
	parallel := p.pool > 1 && len(cands) >= p.cutoff

	// Phase 1: decision (Algorithm 4).
	var (
		lbs    []core.WorkerBound
		reject bool
	)
	if parallel {
		lbs, reject = p.parallelDecide(a, cands, req, L)
	} else {
		lbs, reject = a.sc.Decide(p.cfg.Alpha, cands, req, f.Graph, L)
	}
	if tr != nil {
		tr.Parallel = parallel
		tr.Feasible = len(lbs)
		for _, wb := range lbs {
			if wb.LB < tr.MinLB {
				tr.MinLB = wb.LB
			}
		}
	}
	if reject {
		if tr != nil {
			tr.LBs = lbs
			tr.Reason = core.ReasonDecisionBound
		}
		return nil, core.Infeasible, L
	}

	// Phase 2: planning. The shared-cursor scan needs lbs sorted up front;
	// the serial scan orders it lazily.
	var st *core.PlanStats
	if tr != nil {
		st = &tr.Stats
	}
	var (
		bestW   *core.Worker
		bestIns core.Insertion
	)
	if parallel && len(lbs) > 1 {
		if p.cfg.Prune {
			core.SortWorkerBounds(lbs)
		}
		bestW, bestIns = p.parallelEval(a, lbs, req, L, st)
	} else {
		bestW, bestIns = core.EvalCandidatesSerial(&a.sc, p.cfg.Insertion, p.cfg.Prune, lbs, req, L, f.Dist, st)
	}
	if tr != nil {
		if p.cfg.Prune {
			core.SortWorkerBounds(lbs) // the trace reports the whole scan order
		}
		tr.LBs = lbs
	}
	if bestW == nil {
		if tr != nil {
			tr.Reason = core.ReasonNoFeasibleInsertion
		}
		return nil, core.Infeasible, L
	}
	if p.cfg.PostCheck && p.cfg.Alpha*bestIns.Delta > req.Penalty {
		if tr != nil {
			tr.Reason = core.ReasonPostCheck
			tr.Ins = bestIns // the infeasible-by-economics plan, for the record
		}
		return nil, core.Infeasible, L
	}
	return bestW, bestIns, L
}

// parallelDecide computes LBΔ* for every candidate concurrently and
// compacts the feasible ones in candidate order, replicating core.Decide
// exactly: same slice order, same minimum, same reject decision. Each
// goroutine computes bounds on its own arena scratch.
func (p *ParallelGreedy) parallelDecide(a *planArena, cands []*core.Worker, req *core.Request, L float64) ([]core.WorkerBound, bool) {
	a.bounds = grown(a.bounds, len(cands))
	bounds := a.bounds
	scratches := a.evalScratches(p.workersFor(len(cands)))
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < len(scratches); g++ {
		wg.Add(1)
		go func(sc *core.Scratch) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1) - 1)
				if i >= len(cands) {
					return
				}
				w := cands[i]
				bounds[i] = sc.LowerBound(&w.Route, w.Capacity, req, p.fleet.Graph, L)
			}
		}(scratches[g])
	}
	wg.Wait()

	lbs := a.lbs[:0]
	minLB := math.Inf(1)
	for i, lb := range bounds {
		if math.IsInf(lb, 1) {
			continue // provably infeasible for this worker
		}
		lbs = append(lbs, core.WorkerBound{LB: lb, Worker: cands[i]})
		if lb < minLB {
			minLB = lb
		}
	}
	a.lbs = lbs // retain growth across requests
	if len(lbs) == 0 {
		return nil, true
	}
	// Reject when p_r < α·min LB (Algorithm 4 line 5).
	return lbs, req.Penalty < p.cfg.Alpha*minLB
}

// parallelEval scans the (sorted, when pruning) candidate list through a
// shared cursor with a cooperatively shrunk Lemma 8 bound, then merges
// the per-goroutine local bests deterministically. The scans share lbs,
// the bound and the cursor — but each one runs on its own arena scratch
// (sharing one would corrupt the insertion contexts; core.Scratch panics
// on the attempt). st, when non-nil, receives the summed per-goroutine
// work counters after the merge.
func (p *ParallelGreedy) parallelEval(a *planArena, lbs []core.WorkerBound, req *core.Request, L float64, st *core.PlanStats) (*core.Worker, core.Insertion) {
	nw := p.workersFor(len(lbs))
	a.locals = grown(a.locals, nw)
	locals := a.locals
	scratches := a.evalScratches(nw)
	var stats []core.PlanStats
	if st != nil {
		a.stats = grown(a.stats, nw)
		stats = a.stats
	}
	bound := &a.bound
	bound.Reset()
	var cursor atomic.Int64
	next := func() int { return int(cursor.Add(1) - 1) }
	var wg sync.WaitGroup
	for g := 0; g < nw; g++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			var gst *core.PlanStats
			if stats != nil {
				stats[slot] = core.PlanStats{}
				gst = &stats[slot]
			}
			w, ins := core.EvalCandidates(scratches[slot], p.cfg.Insertion, p.cfg.Prune, lbs, req, L, p.fleet.Dist, bound, next, gst)
			locals[slot] = localBest{w: w, ins: ins}
		}(g)
	}
	wg.Wait()

	var bestW *core.Worker
	bestIns := core.Infeasible
	for _, lb := range locals {
		if core.BetterCandidate(bestW, bestIns, lb.w, lb.ins) {
			bestW = lb.w
			bestIns = lb.ins
		}
	}
	if st != nil {
		for i := range stats {
			st.Add(stats[i])
		}
	}
	return bestW, bestIns
}

// workersFor bounds the fan-out by both the pool and the work items.
func (p *ParallelGreedy) workersFor(items int) int {
	if items < p.pool {
		return items
	}
	return p.pool
}
