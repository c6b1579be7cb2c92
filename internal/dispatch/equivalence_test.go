package dispatch_test

// Determinism-equivalence harness over 120 randomized scenarios. This
// directory holds no program code: the parallel dispatcher it was written
// for was measured slower than the serial planner and removed (DESIGN.md
// §7), and the harness keeps its package path and test names so that its
// per-scenario history stays comparable.
//
// What it checks now: core.Greedy driving a full simulation must reach
// bit-identical decisions whether its distances come through the LRU cache
// (shortest.Cached) the simulator and server query through, or straight
// from the hub labels on an independently built fleet. Served sets, per-request
// worker assignments, Δ* values, total distance and final routes must
// match exactly, so a cache that returned a wrong or stale distance, or a
// planner whose output depended on build order, fails here.
//
// Scenarios randomize α, worker capacity, deadlines, penalties, fleet
// size, network shape and pruneGreedyDP vs GreedyDP.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/workload"
)

// scenario is one randomized equivalence configuration.
type scenario struct {
	params workload.Params
	alpha  float64
	prune  bool
}

// makeScenario derives a deterministic scenario from its index.
func makeScenario(i int) scenario {
	rng := rand.New(rand.NewSource(int64(i)*2654435761 + 17))
	side := 7 + rng.Intn(6)
	p := workload.Params{
		Name: fmt.Sprintf("scen%03d", i),
		Net: roadnet.GenConfig{
			Rows: side, Cols: side,
			Spacing:       110 + 60*rng.Float64(),
			Jitter:        0.3 * rng.Float64(),
			ArterialEvery: 3 + rng.Intn(3),
			MotorwayRing:  rng.Intn(2) == 0,
			RemoveFrac:    0.15 * rng.Float64(),
			DetourMin:     1.02,
			DetourMax:     1.25,
			Seed:          int64(i)*31 + 7,
		},
		NumRequests:   30 + rng.Intn(50),
		NumWorkers:    5 + rng.Intn(30),
		DurationSec:   900 + 900*rng.Float64(),
		DeadlineSec:   240 + 600*rng.Float64(),
		PenaltyFactor: []float64{1, 2, 5, 10, 30}[rng.Intn(5)],
		CapacityMean:  []float64{1, 2, 4, 6}[rng.Intn(4)],
		Hotspots:      rng.Intn(4),
		HotspotSigma:  500,
		HotspotWeight: 0.5 * rng.Float64(),
		RushHours:     rng.Intn(2) == 0,
		Seed:          int64(i)*101 + 3,
	}
	return scenario{
		params: p,
		alpha:  []float64{0.5, 1, 1, 2}[rng.Intn(4)],
		prune:  rng.Intn(4) != 0, // mostly pruneGreedyDP, sometimes GreedyDP
	}
}

// build materializes one scenario: graph, oracle, instance, fleet. With
// cached set the fleet reads the hub labels through shortest.Cached;
// otherwise it reads them directly.
func (s scenario) build(t *testing.T, cached bool) (*core.Fleet, []*core.Request, *roadnet.Graph) {
	t.Helper()
	g, err := roadnet.Generate(s.params.Net)
	if err != nil {
		t.Fatal(err)
	}
	hub := shortest.BuildHubLabels(g)
	dist := core.DistFunc(hub.Dist)
	if cached {
		dist = shortest.NewCached(hub, 1<<14).Dist
	}
	inst, err := workload.BuildOn(s.params, g, dist)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := core.NewFleet(g, dist, inst.Workers, 1500)
	if err != nil {
		t.Fatal(err)
	}
	return fleet, inst.Requests, g
}

func (s scenario) planner(fleet *core.Fleet, name string) *core.Greedy {
	return core.NewGreedy(fleet, core.Config{
		Alpha: s.alpha, Prune: s.prune, PostCheck: true,
	}, name)
}

// recorder wraps a planner and captures every per-request Result.
type recorder struct {
	inner   core.Planner
	results map[core.RequestID]core.Result
}

func record(inner core.Planner) *recorder {
	return &recorder{inner: inner, results: map[core.RequestID]core.Result{}}
}

func (r *recorder) Name() string { return r.inner.Name() }

func (r *recorder) OnRequest(now float64, req *core.Request) core.Result {
	res := r.inner.OnRequest(now, req)
	r.results[req.ID] = res
	return res
}

// TestSerialParallelEquivalence is the end-to-end check over ≥ 100
// randomized scenarios (24 under -short, e.g. in the race suite).
func TestSerialParallelEquivalence(t *testing.T) {
	n := 120
	if testing.Short() {
		n = 24
	}
	for i := 0; i < n; i++ {
		i := i
		t.Run(fmt.Sprintf("scen%03d", i), func(t *testing.T) {
			t.Parallel()
			s := makeScenario(i)

			fleetA, reqsA, gA := s.build(t, true)
			fleetB, reqsB, gB := s.build(t, false)

			cached := record(s.planner(fleetA, "cached"))
			direct := record(s.planner(fleetB, "direct"))

			engA := sim.NewEngine(fleetA, cached, shortest.NewBiDijkstra(gA), s.alpha)
			engB := sim.NewEngine(fleetB, direct, shortest.NewBiDijkstra(gB), s.alpha)
			mA, err := engA.Run(reqsA)
			if err != nil {
				t.Fatal(err)
			}
			mB, err := engB.Run(reqsB)
			if err != nil {
				t.Fatal(err)
			}

			if mA.Served != mB.Served {
				t.Fatalf("served count: cached %d direct %d", mA.Served, mB.Served)
			}
			if mA.TotalDistance != mB.TotalDistance {
				t.Fatalf("total distance: cached %v direct %v", mA.TotalDistance, mB.TotalDistance)
			}
			if len(cached.results) != len(direct.results) {
				t.Fatalf("result count: cached %d direct %d", len(cached.results), len(direct.results))
			}
			for id, ra := range cached.results {
				rb, ok := direct.results[id]
				if !ok {
					t.Fatalf("request %d missing from direct results", id)
				}
				if ra.Served != rb.Served || ra.Worker != rb.Worker || ra.Delta != rb.Delta {
					t.Fatalf("request %d: cached %+v direct %+v", id, ra, rb)
				}
			}
			for i, wa := range fleetA.Workers {
				wb := fleetB.Workers[i]
				if len(wa.Route.Stops) != len(wb.Route.Stops) {
					t.Fatalf("worker %d: route length %d vs %d", i, len(wa.Route.Stops), len(wb.Route.Stops))
				}
				for k, sa := range wa.Route.Stops {
					sb := wb.Route.Stops[k]
					if sa != sb || wa.Route.Arr[k] != wb.Route.Arr[k] {
						t.Fatalf("worker %d stop %d: %+v@%v vs %+v@%v",
							i, k, sa, wa.Route.Arr[k], sb, wb.Route.Arr[k])
					}
				}
			}
		})
	}
}
