package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestWorldKeepsUntouchedLeg drives one 2k-request instance on a 1.6k-vertex
// city through two worlds in lockstep: one recomputes the first leg after
// every insertion (what MarkDirty used to do), the other is the shipped
// MarkDirty, which keeps a leg the insertion left alone. After every
// request both fleets must agree to the bit — position, clock, arrival
// times, distance travelled, occupancy integrals — while the shipped world
// computes strictly fewer legs. A traffic epoch in the middle must still
// invalidate every leg.
func TestWorldKeepsUntouchedLeg(t *testing.T) {
	side, requests := 40, 2000
	if testing.Short() {
		side, requests = 24, 500
	}
	forced := newTrafficPipelineSized(t, 5, side, 60, requests)
	shipped := newTrafficPipelineSized(t, 5, side, 60, requests)
	sides := []*trafficPipeline{forced, shipped}
	for _, p := range sides {
		sort.SliceStable(p.inst.Requests, func(i, j int) bool { return p.inst.Requests[i].Release < p.inst.Requests[j].Release })
		mid := p.inst.Requests[len(p.inst.Requests)/2].Release
		p.tc.SetProfile(roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
			{At: mid, Updates: []roadnet.TrafficUpdate{{Factor: 2.5, Class: "arterial"}, {Factor: 1.3}}},
		}})
	}
	for i := range forced.inst.Requests {
		var served [2]bool
		for k, p := range sides {
			r := p.inst.Requests[i]
			wd := p.eng.World()
			before := p.tc.EventsApplied()
			if err := p.tc.PollUntil(r.Release); err != nil {
				t.Fatal(err)
			}
			if p.tc.EventsApplied() != before {
				for w := range wd.states {
					if !wd.states[w].dirty {
						t.Fatalf("request %d: worker %d kept its leg across a traffic epoch", i, w)
					}
				}
			}
			wd.AdvanceAll(r.Release)
			res := p.eng.Planner.OnRequest(r.Release, r)
			if served[k] = res.Served; res.Served {
				wd.MarkDirty(res.Worker)
				if p == forced {
					wd.states[res.Worker].dirty = true
				}
			}
		}
		if served[0] != served[1] {
			t.Fatalf("request %d: served %v with forced recompute, %v as shipped", i, served[0], served[1])
		}
		a, b := forced.eng.World(), shipped.eng.World()
		if !bitsEqual(a.driveSeconds, b.driveSeconds) || !bitsEqual(a.occSeconds, b.occSeconds) || !bitsEqual(a.sharedSeconds, b.sharedSeconds) {
			t.Fatalf("request %d: occupancy integrals diverged", i)
		}
		for w := range a.states {
			wa, wb := a.states[w].w, b.states[w].w
			ra, rb := &wa.Route, &wb.Route
			same := ra.Loc == rb.Loc && bitsEqual(ra.Now, rb.Now) && bitsEqual(wa.Traveled, wb.Traveled) &&
				ra.Onboard == rb.Onboard && len(ra.Arr) == len(rb.Arr)
			for j := 0; same && j < len(ra.Arr); j++ {
				same = bitsEqual(ra.Arr[j], rb.Arr[j]) && ra.Stops[j] == rb.Stops[j]
			}
			if !same {
				t.Fatalf("request %d: worker %d diverged\n forced  %+v\n shipped %+v", i, w, *ra, *rb)
			}
		}
	}
	if forced.tc.EventsApplied() != 1 {
		t.Fatalf("%d traffic events applied, want 1", forced.tc.EventsApplied())
	}
	fl, sl := forced.eng.World().LegsComputed(), shipped.eng.World().LegsComputed()
	if sl >= fl {
		t.Fatalf("shipped world computed %d legs, forced recompute %d: nothing was kept", sl, fl)
	}
	t.Logf("legs computed: %d forced, %d shipped (%.1f%% kept)", fl, sl, 100*float64(fl-sl)/float64(fl))
}

// TestEngineRunChunkedEqualsWhole: driving an instance through one Run and
// through 32-request chunks is the same run, and the percentiles every call
// returns are Percentile over the samples recorded so far — although Run no
// longer copies or re-sorts them.
func TestEngineRunChunkedEqualsWhole(t *testing.T) {
	engine := func() (*pipeline, *Engine) {
		pl := newPipeline(t, 11, 20, 700)
		sort.SliceStable(pl.inst.Requests, func(i, j int) bool { return pl.inst.Requests[i].Release < pl.inst.Requests[j].Release })
		return pl, NewEngine(pl.fleet, core.NewPruneGreedyDP(pl.fleet, 1), pl.paths, 1)
	}
	plW, whole := engine()
	mW, err := whole.Run(plW.inst.Requests)
	if err != nil {
		t.Fatal(err)
	}
	plC, chunked := engine()
	var mC Metrics
	for from := 0; from < len(plC.inst.Requests); from += 32 {
		to := min(from+32, len(plC.inst.Requests))
		if mC, err = chunked.Run(plC.inst.Requests[from:to]); err != nil {
			t.Fatal(err)
		}
		if len(chunked.respSamples) != to {
			t.Fatalf("%d samples after %d requests", len(chunked.respSamples), to)
		}
		for _, q := range []struct{ p, got float64 }{{0.50, mC.P50ResponseMs}, {0.95, mC.P95ResponseMs}} {
			if want := Percentile(append([]float64(nil), chunked.respSamples...), q.p); q.got != want {
				t.Fatalf("after %d requests: p%.0f %v, Percentile over the samples %v", to, 100*q.p, q.got, want)
			}
		}
	}
	ids := func(rs []*core.Request) []core.RequestID {
		out := make([]core.RequestID, len(rs))
		for i, r := range rs {
			out[i] = r.ID
		}
		return out
	}
	for name, pair := range map[string][2][]core.RequestID{
		"served":   {ids(whole.Served()), ids(chunked.Served())},
		"rejected": {ids(whole.Rejected()), ids(chunked.Rejected())},
	} {
		if len(pair[0]) != len(pair[1]) {
			t.Fatalf("%s: %d whole, %d chunked", name, len(pair[0]), len(pair[1]))
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				t.Fatalf("%s[%d]: request %d whole, %d chunked", name, i, pair[0][i], pair[1][i])
			}
		}
	}
	if !bitsEqual(mW.UnifiedCost, mC.UnifiedCost) || mW.LegsComputed != mC.LegsComputed || mW.Served != mC.Served {
		t.Fatalf("whole %+v\nchunked %+v", mW, mC)
	}
	if want := Percentile(append([]float64(nil), whole.respSamples...), 0.95); mW.P95ResponseMs != want {
		t.Fatalf("whole run p95 %v, Percentile %v", mW.P95ResponseMs, want)
	}

	// A call's allocation must not grow with the history it reports on.
	_, fresh := engine()
	empty := func(e *Engine) func() {
		return func() {
			if _, err := e.Run(nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if short, long := testing.AllocsPerRun(20, empty(fresh)), testing.AllocsPerRun(20, empty(chunked)); long > short {
		t.Fatalf("Run(nil) allocates %v times on an empty history, %v after %d requests", short, long, len(chunked.respSamples))
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < 50; i++ {
		empty(chunked)()
	}
	runtime.ReadMemStats(&m1)
	if per := (m1.TotalAlloc - m0.TotalAlloc) / 50; per > 512 {
		t.Fatalf("Run(nil) allocates %d B per call after %d requests", per, len(chunked.respSamples))
	}
}

// TestSortedSamplesMerge feeds the sample store chunks of every size —
// empty, single, larger than the history, full of duplicates — and checks
// the order statistics against a sort of everything observed.
func TestSortedSamplesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var e Engine
	var all []float64
	for round := 0; round < 300; round++ {
		for n := rng.Intn(40) * rng.Intn(3); n > 0; n-- {
			ns := int64(rng.Intn(50)) * 1e5
			e.observe(ns)
			all = append(all, float64(ns)/1e6)
		}
		got := e.sortedSamples()
		want := append([]float64(nil), all...)
		sort.Float64s(want)
		if len(got) != len(want) {
			t.Fatalf("round %d: %d samples, want %d", round, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("round %d: sample %d is %v, want %v", round, i, got[i], want[i])
			}
		}
	}
}

// BenchmarkEngineRunChunked is the benchmark driver's shape: one Run call
// per 32 requests on an engine that keeps its history. Each iteration adds
// 32 samples to a 20k-sample history and makes a call that plans nothing —
// what chunked driving pays per chunk for bookkeeping alone.
func BenchmarkEngineRunChunked(b *testing.B) {
	const history = 20000
	pl := newPipeline(b, 11, 20, 50)
	eng := NewEngine(pl.fleet, core.NewPruneGreedyDP(pl.fleet, 1), pl.paths, 1)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < history; i++ {
		eng.observe(int64(rng.Intn(1e6)))
	}
	eng.sortedSamples()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Drop the previous iteration's chunk; a prefix of a sorted
		// history is a sorted history.
		eng.respSamples, eng.respSorted = eng.respSamples[:history], history
		for k := 0; k < 32; k++ {
			eng.observe(int64(rng.Intn(1e6)))
		}
		if _, err := eng.Run(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// legRecorder passes leg searches through to a path engine and records
// each call with the graph it searched.
type legRecorder struct {
	inner shortest.PathOracle
	g     *roadnet.Graph
	legs  []recordedLeg
}

type recordedLeg struct {
	g      *roadnet.Graph
	s, t   roadnet.VertexID
	within float64
}

func (r *legRecorder) Dist(s, t roadnet.VertexID) float64 { return r.inner.Dist(s, t) }

func (r *legRecorder) Path(s, t roadnet.VertexID, within float64) []roadnet.VertexID {
	r.legs = append(r.legs, recordedLeg{r.g, s, t, within})
	return r.inner.Path(s, t, within)
}

// TestWorldLegBoundHolds records the bound World passes with every leg of a
// 2k-request run that crosses a traffic epoch and then restarts from a
// snapshot of its fleet (routes mid-flight, every leg dirty). Each bound
// must be finite, at least the Dijkstra distance of its leg and within
// LegSlack of it, and the bounded search must settle exactly what the
// unbounded one settles — a second search would add to the count. A bound
// that silently fell back to Inf would keep every digest and only lose
// speed; this test is the guard against it.
func TestWorldLegBoundHolds(t *testing.T) {
	side, requests := 40, 2000
	if testing.Short() {
		side, requests = 24, 500
	}
	p := newTrafficPipelineSized(t, 7, side, 60, requests)
	reqs := p.inst.Requests
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Release < reqs[j].Release })
	p.tc.SetProfile(roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
		{At: reqs[len(reqs)/3].Release, Updates: []roadnet.TrafficUpdate{{Factor: 2.5, Class: "arterial"}, {Factor: 1.3}}},
	}})
	wd, planner := p.eng.World(), p.eng.Planner
	rec := &legRecorder{inner: wd.Paths, g: p.fleet.Graph}
	wd.Paths = rec
	restoredAt := 0
	for i, r := range reqs {
		if i == 2*len(reqs)/3 {
			// Restart as a snapshot restore does: the same routes, bit for
			// bit, in a fresh fleet and world.
			workers := make([]*core.Worker, len(p.fleet.Workers))
			for k, w := range p.fleet.Workers {
				cw := *w
				cw.Route = w.Route.Clone()
				workers[k] = &cw
			}
			fleet, err := core.NewFleet(p.fleet.Graph, p.fleet.Dist, workers, 1000)
			if err != nil {
				t.Fatal(err)
			}
			rec.inner = shortest.NewBiDijkstra(fleet.Graph)
			wd, planner, restoredAt = NewWorld(fleet, rec), core.NewPruneGreedyDP(fleet, 1), len(rec.legs)
		} else if i < 2*len(reqs)/3 {
			before := p.tc.EventsApplied()
			if err := p.tc.PollUntil(r.Release); err != nil {
				t.Fatal(err)
			}
			if p.tc.EventsApplied() != before {
				rec.inner, rec.g = wd.Paths, p.fleet.Graph
				wd.Paths = rec
			}
		}
		wd.AdvanceAll(r.Release)
		if res := planner.OnRequest(r.Release, r); res.Served {
			wd.MarkDirty(res.Worker)
		}
	}
	// No clock the run reaches passes the last planned arrival.
	horizon := 0.0
	for _, w := range wd.Fleet.Workers {
		horizon = math.Max(horizon, w.Route.Now)
		if n := len(w.Route.Arr); n > 0 {
			horizon = math.Max(horizon, w.Route.Arr[n-1])
		}
	}
	wd.CompleteAll()
	if p.tc.EventsApplied() != 1 || restoredAt == 0 || restoredAt == len(rec.legs) {
		t.Fatalf("%d traffic events, %d legs before the restore of %d", p.tc.EventsApplied(), restoredAt, len(rec.legs))
	}
	dij := map[*roadnet.Graph]*shortest.Dijkstra{}
	free, epochs, widest := rec.legs[0].g, 0, 0.0
	for i, l := range rec.legs {
		if dij[l.g] == nil {
			dij[l.g] = shortest.NewDijkstra(l.g)
		}
		if l.g != free {
			epochs++
		}
		d := dij[l.g].Dist(l.s, l.t)
		r := 0.0
		for _, x := range &l.g.Landmarks()[l.t] {
			if x < math.Inf(1) {
				r = math.Max(r, x)
			}
		}
		slack := shortest.LegSlack * (2*horizon + r)
		if !(l.within >= d && l.within <= d+slack) {
			t.Fatalf("leg %d (%d→%d): bound %v, Dijkstra %v, slack %v", i, l.s, l.t, l.within, d, slack)
		}
		widest = math.Max(widest, l.within-d)
		bounded, unbounded := shortest.NewBiDijkstra(l.g), shortest.NewBiDijkstra(l.g)
		bounded.Path(l.s, l.t, l.within)
		unbounded.Path(l.s, l.t, math.Inf(1))
		if bounded.Settled != unbounded.Settled {
			t.Fatalf("leg %d (%d→%d) within %v: settled %d, unbounded %d", i, l.s, l.t, l.within, bounded.Settled, unbounded.Settled)
		}
	}
	if epochs == 0 {
		t.Fatal("no leg searched the traffic snapshot")
	}
	t.Logf("%d legs, %d under traffic, %d after the restore; bounds at most %.3g s above the distance", len(rec.legs), epochs, len(rec.legs)-restoredAt, widest)
}
