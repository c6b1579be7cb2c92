// Package sim is the dynamic shared-mobility simulator of the paper's
// experimental study (§6.1): requests arrive over time, a planner decides
// and plans each one, and workers move along their planned routes over the
// actual road network. The simulator is single-threaded, like the paper's.
//
// Worker movement uses a divert-at-next-vertex model: a moving worker is
// committed to the next vertex of its current shortest-path leg; its
// committed location (route.Loc at route.Now) is what planners see and
// what the grid index stores. This keeps every insertion causally valid —
// no plan ever rewrites travel that already happened.
//
// The movement/commit logic lives in World so the online dispatch service
// (internal/serve) drives the exact same state machine; Engine adds the
// offline concerns: batch execution over a request slice, compute-time
// accounting and the paper's metrics.
package sim

import (
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/shortest"
)

// Engine drives one simulation run. The leg-path oracle lives on the
// World (the only consumer); reach it via World().Paths.
type Engine struct {
	Fleet   *core.Fleet
	Planner core.Planner
	// Queries, when set, is the query chain's cache; its misses are DistQueries.
	Queries *shortest.Cached
	// Alpha is the unified-cost weight α.
	Alpha float64
	// Traffic, when set, replays a congestion trace against the event
	// clock: before each request is processed, every profile event dated
	// at or before its release is applied (weights, oracle, route repair,
	// leg caches — see Traffic). With no events the run is bit-identical
	// to a nil Traffic.
	Traffic *Traffic
	// Observer, when set, is attached to the planner for the duration of
	// Run if the planner implements core.Observable (core.Greedy does) —
	// e.g. a trace.Recorder collecting per-request plan timelines.
	// Observation is read-only; decisions are bit-identical with or
	// without it.
	Observer core.PlanObserver

	world *World

	served       []*core.Request
	rejected     []*core.Request
	computeNs    int64
	maxComputeNs int64
	// respSamples holds per-request compute ms; the first respSorted of
	// them are in ascending order, the rest as observed. respMerge is the
	// scratch the next merge reuses.
	respSamples []float64
	respSorted  int
	respMerge   []float64
}

// NewEngine wires a fleet, a planner and a path engine together.
func NewEngine(fleet *core.Fleet, planner core.Planner, paths shortest.PathOracle, alpha float64) *Engine {
	return &Engine{
		Fleet:   fleet,
		Planner: planner,
		Alpha:   alpha,
		world:   NewWorld(fleet, paths),
	}
}

// World returns the live platform state the engine advances.
func (e *Engine) World() *World { return e.world }

// Run processes all requests in release order and returns the run metrics.
// The request slice is sorted in place by release time.
func (e *Engine) Run(requests []*core.Request) (Metrics, error) {
	sort.SliceStable(requests, func(i, j int) bool {
		return requests[i].Release < requests[j].Release
	})
	if e.Observer != nil {
		if obs, ok := e.Planner.(core.Observable); ok {
			obs.SetObserver(e.Observer)
			defer obs.SetObserver(nil)
		}
	}
	deferring, _ := e.Planner.(core.Deferring)
	for _, r := range requests {
		if err := r.Validate(); err != nil {
			return Metrics{}, err
		}
		if e.Traffic != nil {
			if err := e.Traffic.PollUntil(r.Release); err != nil {
				return Metrics{}, err
			}
		}
		e.world.AdvanceAll(r.Release)
		start := time.Now()
		res := e.Planner.OnRequest(r.Release, r)
		e.observe(time.Since(start).Nanoseconds())
		if !res.Deferred {
			e.record(r, res)
		}
		if deferring != nil {
			for _, d := range deferring.TakeDecided() {
				e.record(d.Req, d.Result)
			}
		}
	}
	// Batching planners decide their last window now.
	if deferring != nil {
		last := 0.0
		if len(requests) > 0 {
			last = requests[len(requests)-1].Release
		}
		start := time.Now()
		deferring.FlushAll(last)
		e.observe(time.Since(start).Nanoseconds())
		for _, d := range deferring.TakeDecided() {
			e.record(d.Req, d.Result)
		}
	}
	return e.metrics(len(requests)), nil
}

func (e *Engine) observe(ns int64) {
	e.computeNs += ns
	if ns > e.maxComputeNs {
		e.maxComputeNs = ns
	}
	e.respSamples = append(e.respSamples, float64(ns)/1e6)
}

func (e *Engine) record(r *core.Request, res core.Result) {
	if res.Served {
		e.served = append(e.served, r)
		// The planner mutated the worker's route; its first leg may have
		// changed, so the cached path is stale.
		e.world.MarkDirty(res.Worker)
	} else {
		e.rejected = append(e.rejected, r)
	}
}

// advanceAll moves every worker to simulation time t.
func (e *Engine) advanceAll(t float64) { e.world.AdvanceAll(t) }

// FastForward completes every worker's remaining route, verifying that all
// planned deadlines are met. It returns an error when any drop-off was
// late — which would indicate an insertion-feasibility bug.
func (e *Engine) FastForward() error { return e.world.FastForward() }

// Served returns the requests accepted so far.
func (e *Engine) Served() []*core.Request { return e.served }

// Rejected returns the requests rejected so far.
func (e *Engine) Rejected() []*core.Request { return e.rejected }

func (e *Engine) metrics(total int) Metrics {
	m := Metrics{
		Algorithm:     e.Planner.Name(),
		Requests:      total,
		Served:        len(e.served),
		TotalDistance: e.Fleet.TotalDistance(),
		Completions:   e.world.Completions(),
		LateArrivals:  e.world.LateArrivals(),
		LegsComputed:  e.world.LegsComputed(),
	}
	for _, r := range e.rejected {
		m.PenaltySum += r.Penalty
	}
	m.UnifiedCost = e.Alpha*m.TotalDistance + m.PenaltySum
	m.ServedRate = core.ServedRate(m.Served, total)
	if total > 0 {
		m.AvgResponseMs = float64(e.computeNs) / float64(total) / 1e6
	}
	sorted := e.sortedSamples()
	m.P50ResponseMs = nearestRank(sorted, 0.50)
	m.P95ResponseMs = nearestRank(sorted, 0.95)
	m.MaxResponseMs = float64(e.maxComputeNs) / 1e6
	m.TotalComputeMs = float64(e.computeNs) / 1e6
	m.AvgOccupancy, m.SharedFraction = e.world.Occupancy()
	if e.Queries != nil {
		_, m.DistQueries = e.Queries.Stats()
	}
	return m
}

// sortedSamples returns respSamples in ascending order (what Percentile
// indexes by nearest rank). A driver that calls Run once per chunk asks
// after every chunk, so only the samples observed since the last call are
// sorted and then merged, from the back, into the already sorted prefix:
// no copy of the history and no full sort of it.
func (e *Engine) sortedSamples() []float64 {
	s := e.respSamples
	sort.Float64s(s[e.respSorted:])
	if e.respSorted > 0 {
		e.respMerge = append(e.respMerge[:0], s[e.respSorted:]...)
		i, j := e.respSorted-1, len(e.respMerge)-1
		for k := len(s) - 1; j >= 0; k-- {
			if i >= 0 && s[i] > e.respMerge[j] {
				s[k] = s[i]
				i--
			} else {
				s[k] = e.respMerge[j]
				j--
			}
		}
	}
	e.respSorted = len(s)
	return s
}

// Metrics returns a fresh snapshot of the run's metrics; after
// FastForward it includes the occupancy accounting of the completed
// routes.
func (e *Engine) Metrics(totalRequests int) Metrics { return e.metrics(totalRequests) }
