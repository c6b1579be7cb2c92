package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// dpBound is the Lemma 7 path every route took before the empty-route
// closed form: context, Euclidean fill, linear DP, clamp.
func dpBound(rt *Route, kw int, req *Request, g *roadnet.Graph, L float64) float64 {
	var c insCtx
	c.reset(rt, kw, req, L)
	b := euclidBound(g, req)
	c.fillLower(&b, b.toOrigin(rt.Loc))
	ins := linearDP(&c)
	if !ins.OK {
		return math.Inf(1)
	}
	return max(0, ins.Delta)
}

// deadlineAtEdge returns the deadline e with fl(e + feasEps) equal to
// arrival, the last one the drop-off test accepts, if one exists.
func deadlineAtEdge(arrival float64) (float64, bool) {
	e := arrival - feasEps
	for e+feasEps < arrival {
		e = math.Nextafter(e, math.Inf(1))
	}
	for e+feasEps > arrival {
		e = math.Nextafter(e, math.Inf(-1))
	}
	return e, e+feasEps == arrival
}

// TestIdleLowerBoundMatchesLinearDP pins the closed form of an empty
// route to linearDP by bits: the Lemma 7 bound against the Euclidean DP,
// and with the exact dis(l₀, o_r) — the idle upper bound — against
// LinearDP's Δ*. Capacity-infeasible requests, infeasible deadlines and
// deadlines exactly at the feasEps edge are all covered.
func TestIdleLowerBoundMatchesLinearDP(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 31)
	rng := rand.New(rand.NewSource(12))
	n := tw.g.NumVertices()
	var sc Scratch
	var feasible, infeasible, edges int
	for trial := 0; trial < 2000; trial++ {
		kw := 1 + rng.Intn(4)
		rt := Route{Loc: roadnet.VertexID(rng.Intn(n)), Now: rng.Float64() * 1000}
		if rng.Intn(8) == 0 {
			rt.Onboard = rng.Intn(kw + 1)
		}
		req := tw.randomRequest(rng, RequestID(trial), rt.Now)
		if rng.Intn(2) == 0 {
			req.Origin = rt.Loc // dis(l₀, o_r) = EuclidTime = 0
		}
		L := tw.dist(req.Origin, req.Dest)
		e := tw.g.EuclidTime(rt.Loc, req.Origin)
		exact := tw.dist(rt.Loc, req.Origin)
		switch rng.Intn(4) {
		case 0: // tight: often infeasible
			req.Deadline = rt.Now + (exact+L)*(0.9+rng.Float64()*0.2)
		case 1: // the Lemma 7 deadline test's edge
			if ddl, ok := deadlineAtEdge(rt.Now + e + L); ok {
				req.Deadline = ddl
				edges++
			}
		case 2: // the exact deadline test's edge
			if ddl, ok := deadlineAtEdge(rt.Now + exact + L); ok {
				req.Deadline = ddl
				edges++
			}
		}
		for _, ddl := range []float64{req.Deadline, math.Nextafter(req.Deadline, math.Inf(-1))} {
			r := *req
			r.Deadline = ddl
			got := sc.LowerBound(&rt, kw, &r, tw.g, L)
			want := dpBound(&rt, kw, &r, tw.g, L)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: closed-form LB %v (%#x) != linearDP %v (%#x)",
					trial, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			ub := emptyRouteDelta(&rt, kw, &r, exact, L)
			ins := sc.LinearDP(&rt, kw, &r, L, tw.dist)
			wantIns := Infeasible
			if !math.IsInf(ub, 1) {
				wantIns = Insertion{OK: true, Delta: ub}
			}
			if !sameInsertion(ins, wantIns) {
				t.Fatalf("trial %d: exact closed form %+v != LinearDP %+v", trial, wantIns, ins)
			}
			if math.IsInf(got, 1) {
				infeasible++
			} else {
				feasible++
			}
		}
	}
	if feasible < 500 || infeasible < 500 || edges < 500 {
		t.Fatalf("coverage too thin: %d feasible, %d infeasible, %d edges", feasible, infeasible, edges)
	}
}

// planRecord is an observer's deep copy of one PlanTrace.
type planRecord struct {
	tr  PlanTrace
	lbs []WorkerBound
}

type recordingObserver struct{ last planRecord }

func (o *recordingObserver) PlanStart(float64, *Request) {}

func (o *recordingObserver) PlanDone(tr *PlanTrace) {
	o.last.tr = *tr
	o.last.lbs = append(o.last.lbs[:0], tr.LBs...)
}

// sameRecord compares two plan records field for field, floats by bits;
// only the wall time may differ.
func sameRecord(a, b planRecord) bool {
	x, y := a.tr, b.tr
	if x.Req != y.Req || x.Candidates != y.Candidates || x.Feasible != y.Feasible ||
		x.Stats != y.Stats || x.Pruned != y.Pruned || x.Chosen != y.Chosen || x.Reason != y.Reason ||
		math.Float64bits(x.L) != math.Float64bits(y.L) || math.Float64bits(x.MinLB) != math.Float64bits(y.MinLB) ||
		!sameInsertion(x.Ins, y.Ins) || len(a.lbs) != len(b.lbs) || len(x.LBs) != len(a.lbs) {
		return false
	}
	for i := range a.lbs {
		if a.lbs[i].Worker != b.lbs[i].Worker || math.Float64bits(a.lbs[i].LB) != math.Float64bits(b.lbs[i].LB) {
			return false
		}
	}
	return true
}

// TestIdleUpperBoundScanEquivalence is the proof of the idle upper bound
// (DESIGN.md §10.6) run on random fleets 0–95 % idle: leaving out the
// idle workers whose bound exceeds it changes neither the chosen worker,
// nor the Insertion bits, nor the number of exact evaluations, and with an
// observer attached the PlanTrace is the same record.
func TestIdleUpperBoundScanEquivalence(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 71)
	rng := rand.New(rand.NewSource(17))
	n := tw.g.NumVertices()
	const fleets, perFleet = 20, 60
	var plans, served, leftOut, atOrigin int
	for fl := 0; fl < fleets; fl++ {
		idleFrac := 0.95 * float64(fl) / (fleets - 1)
		now := rng.Float64() * 500
		workers := make([]*Worker, 60)
		for i := range workers {
			kw := 2 + rng.Intn(3)
			rt := Route{Loc: roadnet.VertexID(rng.Intn(n)), Now: now}
			if rng.Float64() >= idleFrac {
				rt, _ = tw.randomRoute(rng, kw, 1+rng.Intn(3), now)
			}
			workers[i] = &Worker{ID: WorkerID(i), Capacity: kw, Route: rt}
		}
		f, err := NewFleet(tw.g, tw.dist, workers, 1000)
		if err != nil {
			t.Fatal(err)
		}
		evals := 0
		counting := func(sc *Scratch, rt *Route, kw int, req *Request, L float64, dist DistFunc) Insertion {
			evals++
			return sc.LinearDP(rt, kw, req, L, dist)
		}
		cfg := Config{Alpha: 1, Prune: true, PostCheck: true, Insertion: counting}
		on, off := NewGreedy(f, cfg, "on"), NewGreedy(f, cfg, "off")
		on.idleUB = true
		for q := 0; q < perFleet; q++ {
			req := tw.randomRequest(rng, RequestID(q), now)
			switch rng.Intn(4) {
			case 0: // pickup where a worker stands: LB = Δ* = L
				if o := workers[rng.Intn(len(workers))].Route.Loc; o != req.Dest {
					req.Origin = o
					atOrigin++
				}
			case 1:
				req.Deadline = now + tw.dist(req.Origin, req.Dest)*(1+rng.Float64()*0.3)
			case 2: // cheap to reject: the decision bound fires
				req.Penalty *= rng.Float64() * 0.05
			}
			evals = 0
			wOn, insOn, _ := on.Plan(now, req)
			evOn, keptOn := evals, len(on.sc.lbs)
			evals = 0
			wOff, insOff, _ := off.Plan(now, req)
			evOff, keptOff := evals, len(off.sc.lbs)
			if wOn != wOff || !sameInsertion(insOn, insOff) || evOn != evOff {
				t.Fatalf("fleet %d req %d: with the idle bound worker %v %+v after %d evaluations, without %v %+v after %d",
					fl, q, wOn, insOn, evOn, wOff, insOff, evOff)
			}
			plans++
			if wOn != nil {
				served++
			}
			leftOut += keptOff - keptOn

			var recOn, recOff recordingObserver
			on.SetObserver(&recOn)
			off.SetObserver(&recOff)
			on.Plan(now, req)
			off.Plan(now, req)
			on.SetObserver(nil)
			off.SetObserver(nil)
			if !sameRecord(recOn.last, recOff.last) {
				t.Fatalf("fleet %d req %d: traces differ:\nwith    %+v %v\nwithout %+v %v",
					fl, q, recOn.last.tr, recOn.last.lbs, recOff.last.tr, recOff.last.lbs)
			}
		}
	}
	if served < plans/4 || plans-served < plans/8 || leftOut < plans || atOrigin < plans/8 {
		t.Fatalf("vacuous: %d plans, %d served, %d bounds left out, %d pickups at a worker", plans, served, leftOut, atOrigin)
	}
}

// BenchmarkPlanIdleFleet times one pruneGreedyDP Plan on a 600-worker
// fleet, 90 % of it idle, over a CCH oracle: the shape of plan-offline's
// candidate sets (DESIGN.md §10.6).
func BenchmarkPlanIdleFleet(b *testing.B) { benchmarkPlan(b, 10) }

// BenchmarkPlanBusyFleet is BenchmarkPlanIdleFleet with every other worker
// on a route: the Lemma 8 scan's share of the plan, which the landmark
// bounds shrink (DESIGN.md §10.7).
func BenchmarkPlanBusyFleet(b *testing.B) { benchmarkPlan(b, 2) }

// benchmarkPlan times one pruneGreedyDP Plan on a 600-worker fleet of
// which every busyEvery-th worker carries 1–3 requests. Beside ns/op and
// allocs/op (0) it reports the bounds the Lemma 8 heap holds, the workers
// the scan evaluates and the distance queries per plan.
func benchmarkPlan(b *testing.B, busyEvery int) {
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 40, Cols: 40, Spacing: 180, Jitter: 0.3, ArterialEvery: 5,
		MotorwayRing: true, RemoveFrac: 0.1, DetourMin: 1.02, DetourMax: 1.4,
		Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	cch := shortest.BuildCCH(g)
	queries := 0
	tw := &testWorld{g: g, dist: func(u, v roadnet.VertexID) float64 {
		queries++
		return cch.Dist(u, v)
	}}
	rng := rand.New(rand.NewSource(1))
	workers := make([]*Worker, 600)
	for i := range workers {
		rt := Route{Loc: roadnet.VertexID(rng.Intn(g.NumVertices()))}
		if i%busyEvery == 0 {
			rt, _ = tw.randomRoute(rng, 4, 1+rng.Intn(3), 0)
		}
		workers[i] = &Worker{ID: WorkerID(i), Capacity: 4, Route: rt}
	}
	f, err := NewFleet(g, tw.dist, workers, 1000)
	if err != nil {
		b.Fatal(err)
	}
	p := NewPruneGreedyDP(f, 1)
	reqs := make([]*Request, 256)
	for i := range reqs {
		reqs[i] = tw.randomRequest(rng, RequestID(i), 0)
	}
	// Warm the labels, the landmark rows and the scratch, and count the
	// evaluations: Plan mutates nothing, so every pass evaluates the same.
	obs := &countingObserver{}
	p.SetObserver(obs)
	for _, r := range reqs {
		p.Plan(0, r)
	}
	p.SetObserver(nil)
	queries = 0
	entries := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Plan(0, reqs[i%len(reqs)])
		entries += len(p.sc.lbs)
	}
	b.ReportMetric(float64(entries)/float64(b.N), "heap-entries/op")
	b.ReportMetric(float64(obs.evaluated)/float64(len(reqs)), "evaluated/op")
	b.ReportMetric(float64(queries)/float64(b.N), "dist-queries/op")
}
