package sim

import (
	"math"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
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
