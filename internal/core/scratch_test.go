package core

import (
	"math/rand"
	"strings"
	"testing"
)

// TestScratchOpsMatchConvenienceForms pins the contract that the
// scratch-arena operators compute bit-identical results to the allocating
// convenience functions, including when the scratch is reused across
// routes of varying length (the buffers shrink and grow logically while
// the backing arrays only grow).
func TestScratchOpsMatchConvenienceForms(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 7)
	rng := rand.New(rand.NewSource(42))
	var sc Scratch
	for trial := 0; trial < 200; trial++ {
		kw := 4
		rt, _ := tw.randomRoute(rng, kw, 1+rng.Intn(6), float64(rng.Intn(100)))
		req := tw.randomRequest(rng, RequestID(trial), rt.Now)
		L := tw.dist(req.Origin, req.Dest)

		if got, want := sc.LinearDP(&rt, kw, req, L, tw.dist), LinearDPInsertion(&rt, kw, req, L, tw.dist); got != want {
			t.Fatalf("trial %d: Scratch.LinearDP %+v != LinearDPInsertion %+v", trial, got, want)
		}
		if got, want := sc.NaiveDP(&rt, kw, req, L, tw.dist), NaiveDPInsertion(&rt, kw, req, L, tw.dist); got != want {
			t.Fatalf("trial %d: Scratch.NaiveDP %+v != NaiveDPInsertion %+v", trial, got, want)
		}
		if got, want := sc.Basic(&rt, kw, req, tw.dist), BasicInsertion(&rt, kw, req, tw.dist); got != want {
			t.Fatalf("trial %d: Scratch.Basic %+v != BasicInsertion %+v", trial, got, want)
		}
		if got, want := sc.LowerBound(&rt, kw, req, tw.g, L), LowerBoundInsertion(&rt, kw, req, tw.g, L); got != want {
			t.Fatalf("trial %d: Scratch.LowerBound %v != LowerBoundInsertion %v", trial, got, want)
		}
	}
}

// TestScratchGuardPanicsOnConcurrentUse pins the ownership assertion: a
// scratch already held by one scan must refuse a second entry instead of
// silently corrupting the auxiliary arrays.
func TestScratchGuardPanicsOnConcurrentUse(t *testing.T) {
	tw := newTestWorld(t, 6, 6, 3)
	rng := rand.New(rand.NewSource(1))
	kw := 4
	rt, _ := tw.randomRoute(rng, kw, 3, 0)
	req := tw.randomRequest(rng, 1, rt.Now)
	L := tw.dist(req.Origin, req.Dest)

	var sc Scratch
	sc.acquire() // simulate another goroutine mid-scan
	defer sc.release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic on concurrent Scratch use")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "Scratch") {
			t.Fatalf("unexpected panic value: %v", r)
		}
	}()
	sc.LinearDP(&rt, kw, req, L, tw.dist)
}

// TestGreedyPlanZeroAllocs is the tentpole's regression test: once the
// planner's scratch has warmed up, steady-state Plan calls — rejected
// requests as well as accepted-but-not-applied plans — perform zero heap
// allocations end to end (candidate retrieval, decision phase, sort,
// planning scan).
func TestGreedyPlanZeroAllocs(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 9)
	rng := rand.New(rand.NewSource(5))
	f := tw.newTestFleet(t, rng, 40, 4)
	p := NewPruneGreedyDP(f, 1)

	// Warm up: drive real traffic through the planner so routes are
	// loaded and every scratch buffer has grown to its steady-state size.
	reqs := makeStream(tw, rng, 300)
	for _, r := range reqs {
		p.OnRequest(r.Release, r)
	}

	// Probe requests: one that plans successfully and one that is
	// rejected outright (impossible deadline exercises the empty-
	// candidates path; an uneconomic one exercises the decision phase).
	var planned, rejected *Request
	for trial := 0; trial < 2000 && (planned == nil || rejected == nil); trial++ {
		r := tw.randomRequest(rng, RequestID(10000+trial), 0)
		if w, _, _ := p.Plan(0, r); w != nil && planned == nil {
			planned = r
		}
		if rejected == nil {
			// A free-to-reject request is dropped by the decision phase
			// whenever its optimistic cost is nonzero.
			zp := *r
			zp.Penalty = 0
			if w, _, _ := p.Plan(0, &zp); w == nil {
				rejected = &zp
			}
		}
	}
	if planned == nil || rejected == nil {
		t.Fatalf("probe search failed: planned=%v rejected=%v", planned, rejected)
	}

	for name, r := range map[string]*Request{"planned": planned, "rejected": rejected} {
		r := r
		if allocs := testing.AllocsPerRun(100, func() {
			p.Plan(0, r)
		}); allocs != 0 {
			t.Errorf("%s probe: Plan allocates %v per op, want 0", name, allocs)
		}
	}

	// The acceptance criterion of the observer hook: an ATTACHED observer
	// must not cost the plan path its zero-alloc property. The planner
	// passes a pointer to its arena-resident PlanTrace, so the callback
	// itself introduces no escapes; countingObserver checks the payload
	// arrives while AllocsPerRun checks nothing leaked to the heap.
	// (internal/trace runs the same assertion against the real Recorder;
	// this in-package fake exists because trace imports core.)
	obs := &countingObserver{}
	p.SetObserver(obs)
	defer p.SetObserver(nil)
	for name, r := range map[string]*Request{"planned": planned, "rejected": rejected} {
		r := r
		if allocs := testing.AllocsPerRun(100, func() {
			p.Plan(0, r)
		}); allocs != 0 {
			t.Errorf("%s probe: observed Plan allocates %v per op, want 0", name, allocs)
		}
	}
	if obs.starts != obs.dones || obs.starts == 0 {
		t.Fatalf("observer saw %d starts / %d dones", obs.starts, obs.dones)
	}
	if obs.served == 0 || obs.rejected == 0 {
		t.Fatalf("observer saw served=%d rejected=%d, want both nonzero", obs.served, obs.rejected)
	}
}

// countingObserver is a minimal allocation-free PlanObserver.
type countingObserver struct {
	starts, dones    int
	served, rejected int
	lastEvaluated    int32
	evaluated        int64 // summed over every plan
}

func (o *countingObserver) PlanStart(now float64, req *Request) { o.starts++ }

func (o *countingObserver) PlanDone(tr *PlanTrace) {
	o.dones++
	if tr.Chosen >= 0 {
		o.served++
	} else {
		o.rejected++
	}
	o.lastEvaluated = tr.Stats.Evaluated
	o.evaluated += int64(tr.Stats.Evaluated)
}
