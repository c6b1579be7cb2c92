package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

// trafficPipeline assembles the epoch-aware stack: overlay → Versioned →
// Cached, plus a Traffic coordinator bound to the engine's
// world. It mirrors what expt.Runner and serve.Server wire for traffic
// runs.
type trafficPipeline struct {
	inst    *workload.Instance
	overlay *roadnet.Overlay
	fleet   *core.Fleet
	eng     *Engine
	tc      *Traffic
}

func newTrafficPipeline(t testing.TB, seed int64, nWorkers, nRequests int) *trafficPipeline {
	t.Helper()
	return newTrafficPipelineSized(t, seed, 24, nWorkers, nRequests)
}

// newTrafficPipelineSized is newTrafficPipeline on a side×side city.
func newTrafficPipelineSized(t testing.TB, seed int64, side, nWorkers, nRequests int) *trafficPipeline {
	t.Helper()
	p := workload.ChengduLike(0.02)
	p.Net.Rows, p.Net.Cols = side, side
	p.Net.Seed = seed
	p.Seed = seed * 31
	p.NumWorkers = nWorkers
	p.NumRequests = nRequests
	g, err := roadnet.Generate(p.Net)
	if err != nil {
		t.Fatal(err)
	}
	overlay := roadnet.NewOverlay(g)
	versioned := shortest.AdoptVersioned(g, shortest.BuildHubLabels(g), shortest.AutoHub)
	cached := shortest.NewCached(versioned, 1<<16)
	inst, err := workload.BuildOn(p, g, cached.Dist)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := core.NewFleet(g, cached.Dist, inst.Workers, 1000)
	if err != nil {
		t.Fatal(err)
	}
	planner := core.NewPruneGreedyDP(fleet, 1)
	eng := NewEngine(fleet, planner, shortest.NewBiDijkstra(g), 1)
	eng.Queries = cached
	tc := NewTraffic(overlay, versioned, fleet, eng.World())
	eng.Traffic = tc
	return &trafficPipeline{inst: inst, overlay: overlay, fleet: fleet, eng: eng, tc: tc}
}

// midRunProfile returns a congestion trace with events inside the
// request stream's release span.
func midRunProfile(t testing.TB, inst *workload.Instance) roadnet.TrafficProfile {
	t.Helper()
	minR, maxR := math.Inf(1), math.Inf(-1)
	for _, r := range inst.Requests {
		minR = math.Min(minR, r.Release)
		maxR = math.Max(maxR, r.Release)
	}
	t1 := minR + (maxR-minR)*0.25
	t2 := minR + (maxR-minR)*0.5
	t3 := minR + (maxR-minR)*0.75
	return roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
		{At: t1, Updates: []roadnet.TrafficUpdate{{Factor: 1.8}}},
		{At: t2, Updates: []roadnet.TrafficUpdate{{Factor: 2.5, Class: "motorway"}, {Factor: 1.4}}},
		{At: t3, Updates: []roadnet.TrafficUpdate{{Factor: 1}}},
	}}
}

// TestTrafficStaticRunIsBitIdentical is the replay-equivalence extension:
// with the epoch stack wired but no events, every decision and metric is
// bit-identical to the plain (pre-epoch) stack.
func TestTrafficStaticRunIsBitIdentical(t *testing.T) {
	plain := newPipeline(t, 17, 15, 250)
	planner := core.NewPruneGreedyDP(plain.fleet, 1)
	engPlain := NewEngine(plain.fleet, planner, plain.paths, 1)
	engPlain.Queries = plain.cached
	mPlain, err := engPlain.Run(plain.inst.Requests)
	if err != nil {
		t.Fatal(err)
	}

	epoch := newTrafficPipeline(t, 17, 15, 250)
	mEpoch, err := epoch.eng.Run(epoch.inst.Requests)
	if err != nil {
		t.Fatal(err)
	}

	if mPlain.Served != mEpoch.Served || mPlain.TotalDistance != mEpoch.TotalDistance ||
		mPlain.PenaltySum != mEpoch.PenaltySum || mPlain.UnifiedCost != mEpoch.UnifiedCost ||
		mPlain.DistQueries != mEpoch.DistQueries {
		t.Fatalf("static epoch stack diverged:\nplain: %+v\nepoch: %+v", mPlain, mEpoch)
	}
	served := engPlain.Served()
	servedE := epoch.eng.Served()
	if len(served) != len(servedE) {
		t.Fatalf("served sets differ")
	}
	for i := range served {
		if served[i].ID != servedE[i].ID {
			t.Fatalf("decision order diverged at %d: %d vs %d", i, served[i].ID, servedE[i].ID)
		}
	}
	if epoch.tc.Epoch() != 0 || epoch.tc.EventsApplied() != 0 {
		t.Fatalf("static run advanced the epoch: %d", epoch.tc.Epoch())
	}
}

// TestTrafficTimelineDeterministic pins that a congestion trace is
// replayed deterministically and actually changes the run.
func TestTrafficTimelineDeterministic(t *testing.T) {
	run := func() (Metrics, []core.RequestID, uint64) {
		pl := newTrafficPipeline(t, 9, 15, 250)
		pl.tc.SetProfile(midRunProfile(t, pl.inst))
		m, err := pl.eng.Run(pl.inst.Requests)
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]core.RequestID, 0, len(pl.eng.Served()))
		for _, r := range pl.eng.Served() {
			ids = append(ids, r.ID)
		}
		pl.eng.World().CompleteAll()
		return m, ids, pl.tc.Epoch()
	}
	m1, ids1, e1 := run()
	m2, ids2, e2 := run()
	if e1 != 3 || e2 != 3 {
		t.Fatalf("epochs %d,%d want 3 (all events inside the run)", e1, e2)
	}
	if m1.Served != m2.Served || m1.TotalDistance != m2.TotalDistance || m1.DistQueries != m2.DistQueries {
		t.Fatalf("traffic run not deterministic:\n%+v\n%+v", m1, m2)
	}
	if len(ids1) != len(ids2) {
		t.Fatal("served sets differ across identical runs")
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("decision %d differs", i)
		}
	}

	// And the trace matters: a no-traffic twin decides differently.
	plain := newTrafficPipeline(t, 9, 15, 250)
	mPlain, err := plain.eng.Run(plain.inst.Requests)
	if err != nil {
		t.Fatal(err)
	}
	if mPlain.Served == m1.Served && mPlain.TotalDistance == m1.TotalDistance {
		t.Fatalf("congestion trace had no observable effect (served %d, dist %v)", m1.Served, m1.TotalDistance)
	}
}

// TestTrafficRepairKeepsRoutesConsistent checks the mid-run invariants:
// after every epoch advance the fleet's cached arrivals validate under
// the current oracle, and the run completes (late drop-offs are counted,
// not fatal).
func TestTrafficRepairKeepsRoutesConsistent(t *testing.T) {
	pl := newTrafficPipeline(t, 5, 12, 200)
	pl.tc.SetProfile(midRunProfile(t, pl.inst))
	if _, err := pl.eng.Run(pl.inst.Requests); err != nil {
		t.Fatal(err)
	}
	if pl.tc.EventsApplied() != 3 {
		t.Fatalf("applied %d events", pl.tc.EventsApplied())
	}
	// Deadline violations are legal after a slowdown; arrival-cache
	// inconsistencies are not: the cached Arr must equal a fresh
	// recomputation under the current oracle for every route.
	for _, w := range pl.fleet.Workers {
		rt := w.Route.Clone()
		rt.Recompute(pl.fleet.Dist)
		for i := range rt.Arr {
			if math.Abs(rt.Arr[i]-w.Route.Arr[i]) > 1e-6*(1+math.Abs(rt.Arr[i])) {
				t.Fatalf("worker %d stop %d: cached arr %v != recomputed %v",
					w.ID, i, w.Route.Arr[i], rt.Arr[i])
			}
		}
	}
	pl.eng.World().CompleteAll()
	for _, w := range pl.fleet.Workers {
		if len(w.Route.Stops) != 0 {
			t.Fatalf("worker %d has %d stops after CompleteAll", w.ID, len(w.Route.Stops))
		}
	}
}
