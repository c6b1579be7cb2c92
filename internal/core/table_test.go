package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// hubWorld is a testWorld over a hub-label oracle — the bitwise-symmetric
// tier the DistTable's reversed-orientation lookup is specified against.
func hubWorld(t testing.TB, rows, cols int, seed int64) (*testWorld, *shortest.HubLabels) {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: rows, Cols: cols, Spacing: 180, Jitter: 0.3, ArterialEvery: 5,
		MotorwayRing: true, RemoveFrac: 0.1, DetourMin: 1.02, DetourMax: 1.4,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	hub := shortest.BuildHubLabels(g)
	return &testWorld{g: g, dist: hub.Dist}, hub
}

// fillTable runs the batched sweep over the table's registered endpoints
// and installs the result.
func fillTable(tb *DistTable, mtm shortest.ManyToMany, a *shortest.TableArena) {
	tb.Install(mtm.Table(a, tb.Rows(), tb.Cols()))
}

func TestDistTableHitMissSymmetry(t *testing.T) {
	tw, hub := hubWorld(t, 9, 9, 3)
	n := tw.g.NumVertices()
	fallbacks := 0
	tb := NewDistTable(n, func(u, v roadnet.VertexID) float64 {
		fallbacks++
		return tw.dist(u, v)
	})
	mtm := shortest.ManyToManyFor(hub)
	arena := shortest.NewTableArena()

	tb.Reset()
	rows := []roadnet.VertexID{3, 17, 42, 3} // duplicate must dedupe
	cols := []roadnet.VertexID{5, 42, 60}
	for _, v := range rows {
		tb.AddRow(v)
	}
	for _, v := range cols {
		tb.AddCol(v)
	}
	if got := tb.CellCount(); got != 9 {
		t.Fatalf("CellCount=%d want 9 (3 deduped rows x 3 cols)", got)
	}
	fillTable(tb, mtm, arena)

	for _, u := range rows {
		for _, v := range cols {
			if got, want := tb.Dist(u, v), tw.dist(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("hit (%d,%d): table %v oracle %v", u, v, got, want)
			}
			// Reversed orientation must resolve through the same cells.
			if got, want := tb.Dist(v, u), tw.dist(v, u); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("reversed (%d,%d): table %v oracle %v", v, u, got, want)
			}
		}
	}
	if fallbacks != 0 {
		t.Fatalf("covered pairs fell back %d times", fallbacks)
	}
	hits, misses := tb.Stats()
	if hits == 0 || misses != 0 {
		t.Fatalf("stats hits=%d misses=%d after all-hit traffic", hits, misses)
	}

	if got, want := tb.Dist(7, 8), tw.dist(7, 8); got != want || fallbacks != 1 {
		t.Fatalf("uncovered pair: got %v want %v (fallbacks=%d)", got, want, fallbacks)
	}
	if tb.Dist(13, 13) != 0 {
		t.Fatal("diagonal must be 0")
	}

	// Reset deactivates: every pair falls back, no stale cells.
	tb.Reset()
	before := fallbacks
	if got, want := tb.Dist(3, 5), tw.dist(3, 5); got != want || fallbacks != before+1 {
		t.Fatalf("post-Reset query did not fall back (got %v want %v)", got, want)
	}
}

// TestGreedyPlanTableEquivalence is the wiring half of the tentpole's
// equivalence claim: a Greedy planner whose fleet DistFunc is swapped to
// a prefetched DistTable must produce bit-identical decisions AND routes
// to one running pure point queries, across a stream of admission
// batches with real route mutations in between.
func TestGreedyPlanTableEquivalence(t *testing.T) {
	tw, hub := hubWorld(t, 11, 11, 7)
	mtm := shortest.ManyToManyFor(hub)
	arena := shortest.NewTableArena()

	rngA := rand.New(rand.NewSource(4))
	rngB := rand.New(rand.NewSource(4))
	fleetA := tw.newTestFleet(t, rngA, 20, 4)
	fleetB := tw.newTestFleet(t, rngB, 20, 4)
	pointDist := fleetB.Dist
	tb := NewDistTable(tw.g.NumVertices(), pointDist)
	pa := NewPruneGreedyDP(fleetA, 1)
	pb := NewPruneGreedyDP(fleetB, 1)

	reqs := makeStream(tw, rand.New(rand.NewSource(9)), 240)
	var cands []*Worker
	for start := 0; start < len(reqs); start += 8 {
		batch := reqs[start:min(start+8, len(reqs))]
		now := batch[0].Release

		// Point-query fleet decides the batch.
		var want []Result
		for _, r := range batch {
			want = append(want, pa.OnRequest(r.Release, r))
		}

		// Table-backed fleet: prefetch one table for the batch (request
		// endpoints as cols+origin rows, candidate-superset route vertices
		// as rows), swap it in, decide, swap back.
		tb.Reset()
		cands = cands[:0]
		for _, r := range batch {
			tb.AddRequest(r)
			cands = fleetB.CandidatesAppend(cands, r, now, 0)
		}
		for _, w := range cands {
			tb.AddWorker(w)
		}
		fillTable(tb, mtm, arena)
		fleetB.Dist = tb.Dist
		for i, r := range batch {
			rCopy := *r
			got := pb.OnRequest(r.Release, &rCopy)
			if got.Served != want[i].Served || got.Worker != want[i].Worker ||
				math.Float64bits(got.Delta) != math.Float64bits(want[i].Delta) {
				t.Fatalf("request %d: table-backed %+v point %+v", r.ID, got, want[i])
			}
		}
		fleetB.Dist = pointDist
	}
	hits, _ := tb.Stats()
	if hits == 0 {
		t.Fatal("table never hit; the prefetch wiring is dead")
	}

	// The mutated fleets must agree exactly, route for route.
	for i := range fleetA.Workers {
		ra, rb := &fleetA.Workers[i].Route, &fleetB.Workers[i].Route
		if len(ra.Stops) != len(rb.Stops) {
			t.Fatalf("worker %d: route lengths diverge (%d vs %d)", i, len(ra.Stops), len(rb.Stops))
		}
		for k := range ra.Stops {
			if ra.Stops[k] != rb.Stops[k] ||
				math.Float64bits(ra.Arr[k]) != math.Float64bits(rb.Arr[k]) {
				t.Fatalf("worker %d stop %d diverges", i, k)
			}
		}
	}
}

// TestBatchPlanZeroAllocs pins the table-backed planning path to zero
// steady-state heap allocations: the table swap must not cost the PR 4
// allocation-free planner its property.
func TestBatchPlanZeroAllocs(t *testing.T) {
	tw, hub := hubWorld(t, 10, 10, 5)
	mtm := shortest.ManyToManyFor(hub)
	arena := shortest.NewTableArena()
	rng := rand.New(rand.NewSource(6))
	fleet := tw.newTestFleet(t, rng, 15, 4)
	pointDist := fleet.Dist
	tb := NewDistTable(tw.g.NumVertices(), pointDist)
	p := NewPruneGreedyDP(fleet, 1)

	// Seed some routes so the DP has work, then freeze the fleet.
	seeded := 0
	for trial := 0; trial < 400 && seeded < 10; trial++ {
		if res := p.OnRequest(0, tw.randomRequest(rng, RequestID(trial), 0)); res.Served {
			seeded++
		}
	}

	req := tw.randomRequest(rng, 9999, 0)
	tb.Reset()
	tb.AddRequest(req)
	var cands []*Worker
	for _, w := range fleet.CandidatesAppend(cands, req, 0, 0) {
		tb.AddWorker(w)
	}
	fillTable(tb, mtm, arena)
	fleet.Dist = tb.Dist
	defer func() { fleet.Dist = pointDist }()

	if allocs := testing.AllocsPerRun(100, func() {
		p.Plan(0, req)
	}); allocs != 0 {
		t.Errorf("table-backed Plan allocates %v per op, want 0", allocs)
	}
	hits, _ := tb.Stats()
	if hits == 0 {
		t.Fatal("plan path never read a table cell")
	}
}

// TestTravelTimeLBIsLowerBound pins the prefetch superset argument at the
// fleet level: the travel-time lower bound the batch prefetch reads,
// fleet.Graph.EuclidTime, never exceeds the fleet's oracle distance, so a
// candidate radius computed from it is never too small.
func TestTravelTimeLBIsLowerBound(t *testing.T) {
	tw, _ := hubWorld(t, 9, 9, 7)
	rng := rand.New(rand.NewSource(7))
	fleet := tw.newTestFleet(t, rng, 10, 4)
	n := tw.g.NumVertices()
	for i := 0; i < 2000; i++ {
		u := roadnet.VertexID(rng.Intn(n))
		v := roadnet.VertexID(rng.Intn(n))
		if lb, d := fleet.Graph.EuclidTime(u, v), fleet.Dist(u, v); lb > d+1e-9 {
			t.Fatalf("EuclidTime(%d,%d)=%g exceeds Dist=%g", u, v, lb, d)
		}
	}
}
