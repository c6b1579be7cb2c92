package sim

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// workerState tracks the current leg (vertex path) of one worker.
type workerState struct {
	w        *core.Worker
	path     []roadnet.VertexID // Loc → Stops[0].Vertex along a shortest path
	times    []float64          // absolute arrival time at each path vertex
	selfPath []roadnet.VertexID // reusable 1-vertex leg for Loc == target
	idx      int                // current position: w.Route.Loc == path[idx]
	dirty    bool               // first leg changed; path must be recomputed
	rides    int                // distinct requests currently on board
}

// World owns the live platform state shared by the offline simulator and
// the online dispatch service: the fleet, the per-worker leg caches, and
// the advance/commit logic that moves workers along the road network under
// the divert-at-next-vertex model. Both sim.Engine (offline batch runs)
// and serve.Server (the HTTP dispatch daemon) drive the same World code,
// which is what makes the replay-equivalence guarantee a statement about
// one implementation rather than two that happen to agree.
type World struct {
	Fleet *core.Fleet
	// Paths finds leg paths once per leg; distance queries go through the
	// fleet's oracle instead.
	Paths shortest.PathOracle

	states []workerState

	completions  int
	lateArrivals int
	legsComputed int

	// Occupancy accounting (time-weighted, while driving).
	driveSeconds  float64
	occSeconds    float64 // ∫ onboard-load dt
	sharedSeconds float64 // driving time with ≥2 pooled requests
}

// NewWorld wires a fleet and a path engine together. Every worker starts
// with a dirty leg cache, so a fleet restored from a snapshot (routes
// mid-flight) is handled identically to a fresh one.
func NewWorld(fleet *core.Fleet, paths shortest.PathOracle) *World {
	states := make([]workerState, len(fleet.Workers))
	for i, w := range fleet.Workers {
		states[i] = workerState{w: w, dirty: true}
		// A restored route may already carry onboard passengers: each one
		// contributes a pending drop-off without a matching pickup in the
		// tail, which is exactly how rides must start so pooled-time
		// accounting survives a snapshot round trip.
		states[i].rides = onboardRides(&w.Route)
	}
	return &World{Fleet: fleet, Paths: paths, states: states}
}

// onboardRides counts requests already picked up: drop-offs in the tail
// with no preceding pickup. Pickups are counted, not flagged, so routes
// carrying several requests under one ID (clients own the ID namespace
// and may reuse it) still pair every drop-off correctly.
func onboardRides(rt *core.Route) int {
	picked := make(map[core.RequestID]int, len(rt.Stops))
	n := 0
	for _, s := range rt.Stops {
		switch s.Kind {
		case core.Pickup:
			picked[s.Req]++
		case core.Dropoff:
			if picked[s.Req] > 0 {
				picked[s.Req]--
			} else {
				n++
			}
		}
	}
	return n
}

// MarkDirty tells the world that a planner mutated the worker's route. The
// cached first leg survives when the mutation left it alone: the worker
// still stands at path[idx] at times[idx] and still drives to the same
// vertex with the same arrival time. Recomputing would find the suffix of
// the same shortest path and fold the same per-vertex times (computeLeg
// sums hop by hop from rt.Now and pins the last to rt.Arr[0]), so keeping
// the leg changes no hop — only LegsComputed.
func (wd *World) MarkDirty(id core.WorkerID) {
	ws := &wd.states[id]
	rt := &ws.w.Route
	last := len(ws.path) - 1
	ws.dirty = ws.dirty || last < 0 || len(rt.Stops) == 0 ||
		rt.Stops[0].Vertex != ws.path[last] || rt.Arr[0] != ws.times[last] ||
		rt.Loc != ws.path[ws.idx] || rt.Now != ws.times[ws.idx]
}

// MarkAllDirty invalidates every worker's cached leg; a traffic-epoch
// advance calls it because each cached leg carries per-vertex times of
// the superseded weights.
func (wd *World) MarkAllDirty() {
	for i := range wd.states {
		wd.states[i].dirty = true
	}
}

// SetPaths rebinds the leg-path engine (a traffic-epoch advance binds a
// fresh one to the new weight snapshot) and invalidates all cached legs.
func (wd *World) SetPaths(paths shortest.PathOracle) {
	wd.Paths = paths
	wd.MarkAllDirty()
}

// CompleteAll finishes every route without the deadline assertion of
// FastForward. Traffic runs use it: a slowdown can legitimately make an
// already-promised drop-off late (counted by LateArrivals), which in a
// single-epoch run would instead indicate an insertion-feasibility bug.
func (wd *World) CompleteAll() {
	wd.AdvanceAll(math.Inf(1))
}

// RestoreStats seeds the monotone completion counters from a snapshot so
// they continue across warm restarts instead of resetting to zero.
func (wd *World) RestoreStats(completions, lateArrivals int) {
	wd.completions = completions
	wd.lateArrivals = lateArrivals
}

// Completions returns the number of drop-offs completed so far.
func (wd *World) Completions() int { return wd.completions }

// LateArrivals returns the number of drop-offs completed after their
// deadline; any nonzero value indicates an insertion-feasibility bug.
func (wd *World) LateArrivals() int { return wd.lateArrivals }

// LegsComputed returns the number of leg shortest paths computed.
func (wd *World) LegsComputed() int { return wd.legsComputed }

// Occupancy returns the time-weighted mean onboard load and the fraction
// of driving time spent with ≥2 pooled requests; both are 0 before any
// driving happened.
func (wd *World) Occupancy() (avg, sharedFrac float64) {
	if wd.driveSeconds <= 0 {
		return 0, 0
	}
	return wd.occSeconds / wd.driveSeconds, wd.sharedSeconds / wd.driveSeconds
}

// AdvanceAll moves every worker to simulation time t.
func (wd *World) AdvanceAll(t float64) {
	for i := range wd.states {
		wd.advanceWorker(&wd.states[i], t)
	}
}

// advanceWorker incrementally moves one worker to time t, popping
// completed stops and committing mid-edge positions to the next vertex.
func (wd *World) advanceWorker(ws *workerState, t float64) {
	w := ws.w
	rt := &w.Route
	for {
		if len(rt.Stops) == 0 {
			ws.path = nil
			if rt.Now < t {
				rt.Now = t // idle: wait in place
			}
			return
		}
		if rt.Now > t {
			return // already committed beyond t
		}
		if ws.dirty || ws.path == nil {
			wd.computeLeg(ws)
		}
		// Walk whole vertices whose arrival is ≤ t.
		for ws.idx+1 < len(ws.path) && ws.times[ws.idx+1] <= t {
			wd.hop(ws)
		}
		if ws.idx+1 < len(ws.path) {
			// Mid-edge at time t: commit to the next vertex.
			if rt.Now < t {
				wd.hop(ws)
			}
			return
		}
		// At the leg's final vertex: the first stop is reached.
		if rt.Now > t {
			return
		}
		wd.popStop(ws)
	}
}

// hop advances the worker one vertex along its leg.
func (wd *World) hop(ws *workerState) {
	rt := &ws.w.Route
	ws.idx++
	dt := ws.times[ws.idx] - rt.Now
	rt.Loc = ws.path[ws.idx]
	rt.Now = ws.times[ws.idx]
	ws.w.Traveled += dt
	wd.driveSeconds += dt
	wd.occSeconds += dt * float64(rt.Onboard)
	if ws.rides >= 2 {
		wd.sharedSeconds += dt
	}
	wd.Fleet.UpdateWorkerPosition(ws.w)
}

// popStop completes the first stop of the route.
func (wd *World) popStop(ws *workerState) {
	rt := &ws.w.Route
	st := rt.Stops[0]
	if st.Kind == core.Dropoff {
		wd.completions++
		ws.rides--
		if rt.Arr[0] > st.DDL+1e-6 {
			wd.lateArrivals++
		}
	} else {
		ws.rides++
	}
	rt.Loc = st.Vertex
	rt.Now = rt.Arr[0]
	rt.Onboard += loadDelta(st)
	rt.Stops = rt.Stops[1:]
	rt.Arr = rt.Arr[1:]
	ws.dirty = true
	wd.Fleet.UpdateWorkerPosition(ws.w)
}

func loadDelta(s core.Stop) int {
	if s.Kind == core.Pickup {
		return s.Cap
	}
	return -s.Cap
}

// computeLeg finds the vertex path of the worker's first leg — a search
// bounded by the planned arrival, shortest.LegBound — and its per-vertex
// arrival times, normalizing the final time to the cached arrival so float
// drift cannot accumulate. The times buffer (and the
// trivial self-leg) are reused across legs; only the path engine's own
// result is freshly allocated per leg.
func (wd *World) computeLeg(ws *workerState) {
	rt := &ws.w.Route
	target := rt.Stops[0].Vertex
	if rt.Loc == target {
		if ws.selfPath == nil {
			ws.selfPath = make([]roadnet.VertexID, 1)
		}
		ws.selfPath[0] = rt.Loc
		ws.path = ws.selfPath
		if cap(ws.times) < 1 {
			ws.times = make([]float64, 1)
		}
		ws.times = ws.times[:1]
		ws.times[0] = rt.Now
		ws.idx = 0
		ws.dirty = false
		return
	}
	path := wd.Paths.Path(rt.Loc, target, shortest.LegBound(wd.Fleet.Graph, target, rt.Now, rt.Arr[0]))
	if path == nil {
		panic(fmt.Sprintf("sim: no path from %d to %d on a connected network", rt.Loc, target))
	}
	wd.legsComputed++
	times := ws.times
	if cap(times) < len(path) {
		times = make([]float64, len(path))
	} else {
		times = times[:len(path)]
	}
	times[0] = rt.Now
	for k := 1; k < len(path); k++ {
		c, ok := wd.Fleet.Graph.EdgeCost(path[k-1], path[k])
		if !ok {
			panic(fmt.Sprintf("sim: path engine returned non-edge (%d,%d)", path[k-1], path[k]))
		}
		times[k] = times[k-1] + c
	}
	// The cached route arrival is authoritative; absorb float drift
	// (and, for approximate path engines, their error) into the last hop.
	times[len(times)-1] = rt.Arr[0]
	ws.path = path
	ws.times = times
	ws.idx = 0
	ws.dirty = false
}

// FastForward completes every worker's remaining route, verifying that all
// planned deadlines are met. It returns an error when any drop-off was
// late — which would indicate an insertion-feasibility bug.
func (wd *World) FastForward() error {
	wd.AdvanceAll(math.Inf(1))
	if wd.lateArrivals > 0 {
		return fmt.Errorf("sim: %d drop-offs arrived after their deadline", wd.lateArrivals)
	}
	for _, w := range wd.Fleet.Workers {
		if len(w.Route.Stops) != 0 {
			return fmt.Errorf("sim: worker %d still has %d stops after fast-forward", w.ID, len(w.Route.Stops))
		}
	}
	return nil
}
