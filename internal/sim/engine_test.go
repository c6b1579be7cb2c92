package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

// pipeline assembles the full stack on a small synthetic instance.
type pipeline struct {
	inst   *workload.Instance
	cached *shortest.Cached
	fleet  *core.Fleet
	paths  *shortest.BiDijkstra
}

func newPipeline(t testing.TB, seed int64, nWorkers, nRequests int) *pipeline {
	t.Helper()
	p := workload.ChengduLike(0.02)
	p.Net.Rows, p.Net.Cols = 24, 24
	p.Net.Seed = seed
	p.Seed = seed * 31
	p.NumWorkers = nWorkers
	p.NumRequests = nRequests
	g, err := roadnet.Generate(p.Net)
	if err != nil {
		t.Fatal(err)
	}
	base := shortest.BuildHubLabels(g)
	cached := shortest.NewCached(base, 1<<16)
	inst, err := workload.BuildOn(p, g, cached.Dist)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := core.NewFleet(g, cached.Dist, inst.Workers, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return &pipeline{
		inst:   inst,
		cached: cached,
		fleet:  fleet,
		paths:  shortest.NewBiDijkstra(g),
	}
}

func TestEndToEndPruneGreedyDP(t *testing.T) {
	pl := newPipeline(t, 3, 20, 300)
	planner := core.NewPruneGreedyDP(pl.fleet, 1)
	eng := NewEngine(pl.fleet, planner, pl.paths, 1)
	eng.Queries = pl.cached
	m, err := eng.Run(pl.inst.Requests)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != len(pl.inst.Requests) {
		t.Fatalf("requests=%d", m.Requests)
	}
	if m.Served+len(eng.Rejected()) != m.Requests {
		t.Fatalf("served %d + rejected %d != %d", m.Served, len(eng.Rejected()), m.Requests)
	}
	if m.Served == 0 {
		t.Fatal("nothing served; instance too hostile for a meaningful test")
	}
	if m.ServedRate <= 0 || m.ServedRate > 1 {
		t.Fatalf("served rate %v", m.ServedRate)
	}
	// Unified cost identity.
	want := m.TotalDistance + m.PenaltySum
	if math.Abs(m.UnifiedCost-want) > 1e-6*(1+want) {
		t.Fatalf("UC=%v want %v", m.UnifiedCost, want)
	}
	if m.DistQueries == 0 {
		t.Fatal("query counter not wired")
	}
	if m.LateArrivals != 0 {
		t.Fatalf("%d late arrivals during run", m.LateArrivals)
	}
	// Completing all routes must not violate any deadline, and every
	// served request must eventually be dropped off.
	if err := eng.FastForward(); err != nil {
		t.Fatal(err)
	}
	if eng.world.completions != m.Served {
		t.Fatalf("completions=%d served=%d", eng.world.completions, m.Served)
	}
	// After fast-forward the total distance must match what the planner
	// promised (planned = executed).
	traveled := 0.0
	for _, w := range pl.fleet.Workers {
		traveled += w.Traveled
		if w.Route.RemainingDist() != 0 {
			t.Fatal("remaining distance after fast-forward")
		}
	}
	if math.Abs(traveled-m.TotalDistance) > 1e-3*(1+traveled) {
		t.Fatalf("executed %v != planned %v", traveled, m.TotalDistance)
	}
}

func TestEngineDeterministic(t *testing.T) {
	run := func() Metrics {
		pl := newPipeline(t, 7, 12, 200)
		planner := core.NewPruneGreedyDP(pl.fleet, 1)
		eng := NewEngine(pl.fleet, planner, pl.paths, 1)
		m, err := eng.Run(pl.inst.Requests)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.Served != b.Served || math.Abs(a.UnifiedCost-b.UnifiedCost) > 1e-6*(1+a.UnifiedCost) {
		t.Fatalf("nondeterministic engine: %+v vs %+v", a, b)
	}
}

// TestMovementFollowsNetwork spot-checks that workers only ever sit on
// network vertices and that time never flows backwards.
func TestMovementFollowsNetwork(t *testing.T) {
	pl := newPipeline(t, 11, 8, 150)
	planner := core.NewPruneGreedyDP(pl.fleet, 1)
	eng := NewEngine(pl.fleet, planner, pl.paths, 1)
	n := pl.inst.Graph.NumVertices()
	prevNow := make([]float64, len(pl.fleet.Workers))
	for _, r := range pl.inst.Requests {
		eng.advanceAll(r.Release)
		for i, w := range pl.fleet.Workers {
			if int(w.Route.Loc) < 0 || int(w.Route.Loc) >= n {
				t.Fatalf("worker %d at non-vertex %d", i, w.Route.Loc)
			}
			if w.Route.Now < prevNow[i]-1e-9 {
				t.Fatalf("worker %d time went backwards: %v -> %v", i, prevNow[i], w.Route.Now)
			}
			prevNow[i] = w.Route.Now
			if len(w.Route.Stops) == 0 && w.Route.Now < r.Release {
				t.Fatalf("idle worker %d lagging at %v < %v", i, w.Route.Now, r.Release)
			}
		}
		planner.OnRequest(r.Release, r)
	}
}

// TestGreedyDPMatchesPruneInSimulation is the end-to-end Lemma 8 check:
// identical outcomes with and without pruning, but fewer distance queries
// with pruning.
func TestGreedyDPMatchesPruneInSimulation(t *testing.T) {
	run := func(prune bool) (Metrics, uint64) {
		pl := newPipeline(t, 13, 25, 400)
		var planner core.Planner
		if prune {
			planner = core.NewPruneGreedyDP(pl.fleet, 1)
		} else {
			planner = core.NewGreedyDP(pl.fleet, 1)
		}
		eng := NewEngine(pl.fleet, planner, pl.paths, 1)
		eng.Queries = pl.cached
		m, err := eng.Run(pl.inst.Requests)
		if err != nil {
			t.Fatal(err)
		}
		_, misses := pl.cached.Stats()
		return m, misses
	}
	withPrune, qPrune := run(true)
	without, qFull := run(false)
	if withPrune.Served != without.Served {
		t.Fatalf("served differs: %d vs %d", withPrune.Served, without.Served)
	}
	if math.Abs(withPrune.UnifiedCost-without.UnifiedCost) > 1e-5*(1+without.UnifiedCost) {
		t.Fatalf("unified cost differs: %v vs %v", withPrune.UnifiedCost, without.UnifiedCost)
	}
	if qPrune >= qFull {
		t.Fatalf("pruning saved no queries: %d vs %d", qPrune, qFull)
	}
}

func TestEngineEmptyStream(t *testing.T) {
	pl := newPipeline(t, 17, 5, 10)
	planner := core.NewPruneGreedyDP(pl.fleet, 1)
	eng := NewEngine(pl.fleet, planner, pl.paths, 1)
	m, err := eng.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if m.Requests != 0 || m.Served != 0 || m.UnifiedCost != 0 {
		t.Fatalf("empty stream metrics: %+v", m)
	}
}

func TestEngineRejectsInvalidRequest(t *testing.T) {
	pl := newPipeline(t, 19, 5, 10)
	planner := core.NewPruneGreedyDP(pl.fleet, 1)
	eng := NewEngine(pl.fleet, planner, pl.paths, 1)
	bad := &core.Request{ID: 1, Deadline: 5, Release: 10, Capacity: 1}
	if _, err := eng.Run([]*core.Request{bad}); err == nil {
		t.Fatal("invalid request accepted")
	}
}

func TestMetricsString(t *testing.T) {
	m := Metrics{Algorithm: "x", Requests: 10, Served: 5, ServedRate: 0.5}
	if m.String() == "" {
		t.Fatal("empty string")
	}
}

func TestAverage(t *testing.T) {
	if got := Average(nil); got != (Metrics{}) {
		t.Fatal("empty average")
	}
	a := Metrics{Algorithm: "a", Requests: 10, Served: 4, UnifiedCost: 100, ServedRate: 0.4, DistQueries: 10}
	b := Metrics{Algorithm: "a", Requests: 10, Served: 6, UnifiedCost: 200, ServedRate: 0.6, DistQueries: 30}
	avg := Average([]Metrics{a, b})
	if avg.Served != 5 || math.Abs(avg.UnifiedCost-150) > 1e-9 ||
		math.Abs(avg.ServedRate-0.5) > 1e-9 || avg.DistQueries != 20 {
		t.Fatalf("avg=%+v", avg)
	}
	one := Average([]Metrics{a})
	if one != a {
		t.Fatal("single-run average must be identity")
	}
	// Violations never average away.
	c := Metrics{LateArrivals: 1}
	if Average([]Metrics{c, {}}).LateArrivals != 1 {
		t.Fatal("late arrivals averaged away")
	}
}
