package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// landmarkNet builds one of FuzzLandmarkBound's networks: a generated city
// (kind 0); a grid of small-integer edge lengths, where equal-cost paths
// are everywhere and missing edges cut it into components (kind 1); or two
// cities side by side plus isolated vertices (kind 2). A nonzero jam
// applies 1–1000× traffic to it.
func landmarkNet(t *testing.T, kind uint8, seed int64, jam uint16) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	city := func() *roadnet.Graph {
		g, err := roadnet.Generate(roadnet.GenConfig{
			Rows: 6 + rng.Intn(8), Cols: 6 + rng.Intn(8), Spacing: 180, Jitter: 0.3, ArterialEvery: 4,
			MotorwayRing: true, RemoveFrac: 0.1, DetourMin: 1.02, DetourMax: 1.4, Seed: rng.Int63(),
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	var g *roadnet.Graph
	switch kind % 3 {
	case 0:
		g = city()
	case 1:
		side := 5 + rng.Intn(6)
		b := roadnet.NewBuilder(side*side, 2*side*side)
		for i := 0; i < side*side; i++ {
			b.AddVertex(geo.Point{X: float64(i%side) * 100, Y: float64(i/side) * 100})
		}
		edge := func(u, v int) {
			if l := rng.Intn(4); l > 0 {
				if err := b.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v), 100*float64(l), geo.Residential); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < side*side; i++ {
			if i%side+1 < side {
				edge(i, i+1)
			}
			if i+side < side*side {
				edge(i, i+side)
			}
		}
		var err error
		if g, err = b.Build(); err != nil {
			t.Fatal(err)
		}
	default:
		b := roadnet.NewBuilder(512, 1024)
		for k, part := range []*roadnet.Graph{city(), city()} {
			base := roadnet.VertexID(b.NumVertices())
			for v := 0; v < part.NumVertices(); v++ {
				p := part.Point(roadnet.VertexID(v))
				p.X += float64(k) * 1e5
				b.AddVertex(p)
			}
			for _, e := range part.Edges() {
				if err := b.AddEdge(base+e.U, base+e.V, e.Meters, e.Class); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := 0; i < 3; i++ {
			b.AddVertex(geo.Point{X: float64(2+i) * 1e5})
		}
		var err error
		if g, err = b.Build(); err != nil {
			t.Fatal(err)
		}
	}
	if jam == 0 {
		return g
	}
	bb := g.Bounds()
	es := g.Edges()
	ups := []roadnet.TrafficUpdate{
		{Factor: 1 + float64(jam%1000)*rng.Float64(), Class: []string{"motorway", "arterial", "collector", "residential"}[rng.Intn(4)]},
		{Factor: 1 + 3*rng.Float64(), BBox: []float64{bb.Min.X, bb.Min.Y, bb.Min.X + bb.Width()/2, bb.Max.Y}},
	}
	for i := 0; i < 4 && len(es) > 0; i++ {
		e := es[rng.Intn(len(es))]
		ups = append(ups, roadnet.TrafficUpdate{Factor: roadnet.MaxTrafficFactor, Edges: [][2]int64{{int64(e.U), int64(e.V)}}})
	}
	snap, _, _, err := roadnet.NewOverlay(g).Apply(ups)
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// pairAt is the two-endpoint pair bound every Lemma 7 read made before the
// per-request bound: max(EuclidTime(u, v), max_l |x_l − y_l| − ε(x_l + y_l))
// over u's and v's rows, +Inf as soon as a landmark reaches exactly one of
// them. reqBound must reproduce it by bits.
func pairAt(g *roadnet.Graph, u, v roadnet.VertexID) float64 {
	rows := g.Landmarks()
	rel := float64(g.NumVertices()+4) * 0x1p-51
	lb := g.EuclidTime(u, v)
	y := &rows[v]
	for l, x := range &rows[u] {
		d := math.Abs(x - y[l])
		if d == math.Inf(1) {
			return d
		}
		if a := d - rel*(x+y[l]); a > lb {
			lb = a
		}
	}
	return lb
}

// FuzzLandmarkBound checks the soundness half of DESIGN.md §10.7: the
// per-request landmark bound never exceeds, by value, the distance any
// oracle tier reports — CCH, hub labels, bidirectional and plain Dijkstra
// — on generated cities, tie-riddled integer grids, disconnected graphs
// and traffic snapshots. Every pair with a landmark as one end is checked
// (the pairs where the bound is tight and only the margin absorbs the
// oracle's different summation order), plus random pairs. For both targets
// it must equal pairAt by bits, across components (+Inf) and past a
// landmark that reaches neither end (NaN) included.
func FuzzLandmarkBound(f *testing.F) {
	for kind := uint8(0); kind < 3; kind++ {
		f.Add(kind, int64(kind)+1, uint16(0))
		f.Add(kind, int64(kind)+11, uint16(999))
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, jam uint16) {
		g := landmarkNet(t, kind, seed, jam)
		tiers := []struct {
			name string
			dist DistFunc
		}{
			{"cch", shortest.BuildCCH(g).Dist},
			{"hub", shortest.BuildHubLabels(g).Dist},
			{"bidijkstra", shortest.NewBiDijkstra(g).Dist},
			{"dijkstra", shortest.NewDijkstra(g).Dist},
		}
		n := g.NumVertices()
		rows := g.Landmarks()
		var crossed, neither int
		// check bounds dis(u, o) and dis(u, d) with the bound of a request
		// from o to d.
		check := func(u, o, d roadnet.VertexID) {
			b := landmarkBound(g, &Request{Origin: o, Dest: d})
			toO, toD := b.toBoth(u)
			if lb := b.toOrigin(u); math.Float64bits(lb) != math.Float64bits(toO) {
				t.Fatalf("toOrigin(%d) = %v, toBoth gives %v", u, lb, toO)
			}
			for _, p := range []struct {
				v  roadnet.VertexID
				lb float64
			}{{o, toO}, {d, toD}} {
				v, lb := p.v, p.lb
				if want := pairAt(g, u, v); math.Float64bits(lb) != math.Float64bits(want) {
					t.Fatalf("bound(%d,%d) = %v (%#x), pair bound %v (%#x)", u, v, lb, math.Float64bits(lb), want, math.Float64bits(want))
				}
				for _, tier := range tiers {
					if d := tier.dist(u, v); !(lb <= d) {
						t.Fatalf("bound(%d,%d) = %v exceeds %s distance %v", u, v, lb, tier.name, d)
					}
				}
				if math.IsInf(lb, 1) {
					crossed++
				}
				for l := range rows[u] {
					if math.IsInf(rows[u][l], 1) && math.IsInf(rows[v][l], 1) {
						neither++ // landmark l reaches neither end: NaN
						break
					}
				}
				// A landmark in u's component that v lacks proves the pair
				// unreachable, and the bound must say so.
				if !math.IsInf(lb, 1) && math.IsInf(tiers[3].dist(u, v), 1) && slices.ContainsFunc(rows[u][:], func(x float64) bool { return x < math.Inf(1) }) {
					t.Fatalf("bound(%d,%d) = %v across components", u, v, lb)
				}
			}
		}
		for v := 0; v < n; v++ {
			for l := range rows[v] {
				if rows[v][l] != 0 {
					continue
				}
				for u := 0; u < n; u++ { // v is landmark l
					check(roadnet.VertexID(v), roadnet.VertexID(u), roadnet.VertexID((u+1)%n))
					check(roadnet.VertexID(u), roadnet.VertexID(v), roadnet.VertexID(v))
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 300; q++ {
			check(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
		}
		if kind%3 == 2 && (crossed == 0 || neither == 0) {
			t.Fatalf("disconnected net reached %d +Inf bounds and %d NaN landmarks; want both", crossed, neither)
		}
	})
}

// TestLandmarkScanEquivalence is the decision half of DESIGN.md §10.7 run
// on random fleets 0–95 % idle. With PostCheck on, the landmark bounds and
// the Euclidean ones lead the Lemma 8 scan to the unpruned GreedyDP's
// winner, Insertion bits and verdict on every request, on far fewer
// evaluations. With PostCheck off the planner keeps the paper's bound: its
// trace lists exactly the Euclidean LowerBoundInsertion of every feasible
// worker. A tie only the strict Lemma 8 stop resolves is pinned at the end.
func TestLandmarkScanEquivalence(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 71)
	rng := rand.New(rand.NewSource(35))
	n := tw.g.NumVertices()
	const fleets, perFleet = 20, 60
	var plans, served, lmEvals, euEvals, paperLBs int
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
		lm, eu := NewPruneGreedyDP(f, 1), NewPruneGreedyDP(f, 1)
		eu.landmarks = false
		ref := NewGreedyDP(f, 1)
		paper := NewGreedy(f, Config{Alpha: 1, Prune: true}, "pruneGreedyDP-paper")
		var lmObs, euObs countingObserver
		lm.SetObserver(&lmObs)
		eu.SetObserver(&euObs)
		var rec recordingObserver
		paper.SetObserver(&rec)
		for q := 0; q < perFleet; q++ {
			req := tw.randomRequest(rng, RequestID(q), now)
			switch rng.Intn(4) {
			case 0: // pickup where a worker stands: LB = Δ* = L
				if o := workers[rng.Intn(len(workers))].Route.Loc; o != req.Dest {
					req.Origin = o
				}
			case 1:
				req.Deadline = now + tw.dist(req.Origin, req.Dest)*(1+rng.Float64()*0.3)
			case 2: // cheap to reject: the decision bound fires
				req.Penalty *= rng.Float64() * 0.05
			}
			wL, insL, _ := lm.Plan(now, req)
			wE, insE, _ := eu.Plan(now, req)
			wR, insR, _ := ref.Plan(now, req)
			if wL != wR || wE != wR || !sameInsertion(insL, insR) || !sameInsertion(insE, insR) {
				t.Fatalf("fleet %d req %d: landmark %v %+v, Euclidean %v %+v, unpruned %v %+v",
					fl, q, wL, insL, wE, insE, wR, insR)
			}
			plans++
			if wR != nil {
				served++
			}

			paper.Plan(now, req)
			for _, wb := range rec.last.lbs {
				w := wb.Worker
				want := LowerBoundInsertion(&w.Route, w.Capacity, req, tw.g, rec.last.tr.L)
				if math.Float64bits(wb.LB) != math.Float64bits(want) {
					t.Fatalf("fleet %d req %d: the paper planner bounds worker %d by %v, Lemma 7 by %v",
						fl, q, w.ID, wb.LB, want)
				}
				paperLBs++
			}
		}
		lmEvals += int(lmObs.evaluated)
		euEvals += int(euObs.evaluated)
	}
	if served < plans/4 || plans-served < plans/8 || paperLBs < plans {
		t.Fatalf("vacuous: %d plans, %d served, %d paper bounds checked", plans, served, paperLBs)
	}
	if 2*lmEvals > euEvals {
		t.Fatalf("landmark bounds evaluated %d workers, Euclidean ones %d: the bound is not tightening", lmEvals, euEvals)
	}

	// Idle worker 0 waits at o_r, so its bound and its Δ* are both exactly
	// L. Worker 1 carries a passenger to o_r: appending there also costs
	// exactly L, but its bound is lower, so the scan reaches it first. Only
	// a scan that still evaluates a worker whose bound equals the best Δ*
	// finds the lower ID.
	o, d, a := roadnet.VertexID(17), roadnet.VertexID(90), roadnet.VertexID(40)
	L := tw.dist(o, d)
	busy := Route{Loc: a, Onboard: 1,
		Stops: []Stop{{Vertex: o, Kind: Dropoff, Req: 99, Cap: 1, DDL: 1e9}},
		Arr:   []float64{tw.dist(a, o)}}
	req := &Request{ID: 7, Origin: o, Dest: d, Deadline: 1e6, Penalty: 1e9, Capacity: 1}
	if ins := LinearDPInsertion(&busy, 4, req, L, tw.dist); !ins.OK || ins.Delta != L {
		t.Fatalf("worker 1's Δ* is %+v, want exactly L = %v", ins, L)
	}
	f, err := NewFleet(tw.g, tw.dist, []*Worker{
		{ID: 0, Capacity: 4, Route: Route{Loc: o}},
		{ID: 1, Capacity: 4, Route: busy},
	}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	lm, eu := NewPruneGreedyDP(f, 1), NewPruneGreedyDP(f, 1)
	eu.landmarks = false
	for _, p := range []*Greedy{lm, eu} {
		var rec recordingObserver
		p.SetObserver(&rec)
		w, ins, _ := p.Plan(0, req)
		if w == nil || w.ID != 0 || ins.Delta != L {
			t.Fatalf("landmarks %v: chose %v %+v, want worker 0 at Δ = L = %v", p.landmarks, w, ins, L)
		}
		if lbs := rec.last.lbs; len(lbs) != 2 || lbs[0].Worker.ID != 1 || !(lbs[0].LB < L) || lbs[1].LB != L {
			t.Fatalf("landmarks %v: scan order %v, want worker 1 below L, then worker 0 at L", p.landmarks, order(lbs))
		}
	}
}

// TestBusyCutScanEquivalence is DESIGN.md §10.8 run on random fleets 0–95 %
// idle: the one-pair deadline cut of busy workers changes neither the
// chosen worker, nor the Insertion bits, nor the verdict, and never adds
// an evaluation. With an observer attached the record lists the same
// bounds; only a reason may move, to decision_lower_bound, where the cut
// raised the minimum bound past the penalty. The paper's planner never
// cuts: it evaluates exactly what the exported Decide and the serial scan
// do. An integer-grid worker whose Now + b(l₀, o_r) + L lands exactly on
// the cut's threshold is pinned at the end.
func TestBusyCutScanEquivalence(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 71)
	rng := rand.New(rand.NewSource(41))
	n := tw.g.NumVertices()
	const fleets, perFleet = 20, 60
	var plans, served, cut, evOn, evOff, moved int
	var sc Scratch
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
		on, off := NewPruneGreedyDP(f, 1), NewPruneGreedyDP(f, 1)
		off.busyCut = false
		paper := NewGreedy(f, Config{Alpha: 1, Prune: true}, "pruneGreedyDP-paper")
		for q := 0; q < perFleet; q++ {
			req := tw.randomRequest(rng, RequestID(q), now)
			switch rng.Intn(4) {
			case 0: // pickup where a worker stands
				if o := workers[rng.Intn(len(workers))].Route.Loc; o != req.Dest {
					req.Origin = o
				}
			case 1:
				req.Deadline = now + tw.dist(req.Origin, req.Dest)*(1+rng.Float64()*0.3)
			case 2: // cheap to reject: the decision bound fires
				req.Penalty *= rng.Float64() * 0.05
			}
			wOn, insOn, _ := on.Plan(now, req)
			cut += on.sc.cut
			wOff, insOff, _ := off.Plan(now, req)
			if wOn != wOff || !sameInsertion(insOn, insOff) {
				t.Fatalf("fleet %d req %d: with the cut %v %+v, without %v %+v", fl, q, wOn, insOn, wOff, insOff)
			}
			plans++
			if wOn != nil {
				served++
			}

			var recOn, recOff recordingObserver
			on.SetObserver(&recOn)
			off.SetObserver(&recOff)
			on.Plan(now, req)
			off.Plan(now, req)
			on.SetObserver(nil)
			off.SetObserver(nil)
			a, b := recOn.last.tr, recOff.last.tr
			evOn += int(a.Stats.Evaluated)
			evOff += int(b.Stats.Evaluated)
			sameBounds := a.Candidates == b.Candidates && a.Feasible == b.Feasible &&
				math.Float64bits(a.MinLB) == math.Float64bits(b.MinLB) && a.Chosen == b.Chosen &&
				slices.EqualFunc(sortedBounds(recOn.last.lbs), sortedBounds(recOff.last.lbs), sameBound)
			switch {
			case !sameBounds || a.Stats.Evaluated > b.Stats.Evaluated:
				t.Fatalf("fleet %d req %d: records differ:\nwith    %+v %v\nwithout %+v %v",
					fl, q, a, recOn.last.lbs, b, recOff.last.lbs)
			case a.Reason != b.Reason:
				if a.Reason != ReasonDecisionBound || b.Reason != ReasonNoFeasibleInsertion && b.Reason != ReasonPostCheck {
					t.Fatalf("fleet %d req %d: reason %v with the cut, %v without", fl, q, a.Reason, b.Reason)
				}
				moved++
			case !sameInsertion(a.Ins, b.Ins) || a.Stats.FeasibleIns != b.Stats.FeasibleIns ||
				!slices.EqualFunc(recOn.last.lbs, recOff.last.lbs, sameBound):
				t.Fatalf("fleet %d req %d: records differ:\nwith    %+v %v\nwithout %+v %v",
					fl, q, a, recOn.last.lbs, b, recOff.last.lbs)
			}

			// The paper's planner: Algorithm 4 on every candidate's Euclidean
			// LowerBoundInsertion, then the serial Lemma 8 scan, evaluation
			// for evaluation.
			var rec countingObserver
			paper.SetObserver(&rec)
			wP, insP, L := paper.Plan(now, req)
			paper.SetObserver(nil)
			var wR *Worker
			insR := Infeasible
			var st PlanStats
			var lbs []WorkerBound
			minLB := math.Inf(1)
			for _, w := range f.CandidatesAppend(nil, req, now, L) {
				if lb := LowerBoundInsertion(&w.Route, w.Capacity, req, tw.g, L); !math.IsInf(lb, 1) {
					lbs = append(lbs, WorkerBound{LB: lb, Worker: w})
					minLB = min(minLB, lb)
				}
			}
			if len(lbs) > 0 && !(req.Penalty < minLB) {
				wR, insR = EvalCandidatesSerial(&sc, (*Scratch).LinearDP, true, lbs, req, L, f.Dist, &st)
			}
			if wP != wR || !sameInsertion(insP, insR) || rec.lastEvaluated != st.Evaluated {
				t.Fatalf("fleet %d req %d: the paper planner chose %v %+v after %d evaluations, Decide and the scan %v %+v after %d",
					fl, q, wP, insP, rec.lastEvaluated, wR, insR, st.Evaluated)
			}
		}
	}
	if served < plans/4 || plans-served < plans/8 || cut < plans || evOn >= evOff {
		t.Fatalf("vacuous: %d plans, %d served, %d workers cut, %d evaluations with the cut and %d without (%d reasons moved)",
			plans, served, cut, evOn, evOff, moved)
	}

	// A 6×6 grid of 100 m streets. Worker 0 stands at a corner l₀ with a
	// passenger to drop at o_r, and its cached arrival there is earlier than
	// Now + b(l₀, o_r) by the cut's slack — the drift the slack budgets for —
	// so appending the request after that drop-off meets e_r exactly.
	const side = 6
	gb := roadnet.NewBuilder(side*side, 2*side*side)
	for i := 0; i < side*side; i++ {
		gb.AddVertex(geo.Point{X: float64(i%side) * 100, Y: float64(i/side) * 100})
	}
	for i := 0; i < side*side; i++ {
		for _, j := range []int{i + 1, i + side} {
			if j < side*side && (j != i+1 || j%side != 0) {
				if err := gb.AddEdge(roadnet.VertexID(i), roadnet.VertexID(j), 100, geo.Residential); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	g, err := gb.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := shortest.NewDijkstra(g).Dist
	l0, o, d := roadnet.VertexID(0), roadnet.VertexID(3*side+3), roadnet.VertexID(side*side-1)
	L := dist(o, d)
	req := &Request{ID: 9, Origin: o, Dest: d, Penalty: 1e9, Capacity: 1}
	b := landmarkBound(g, req)
	b.cut = true
	toO := b.toOrigin(l0)
	threshold := func(rt *Route, e float64) float64 {
		return e + feasEps + 2*b.rel*(math.Abs(rt.Now)+math.Abs(e))
	}
	var rt Route
	landed := false
	for now := 1000.0; now < 1100 && !landed; now++ {
		rt = Route{Loc: l0, Now: now, Onboard: 1, Stops: []Stop{{Vertex: o, Kind: Dropoff, Req: 1, Cap: 1, DDL: 1e9}}}
		T := rt.Now + toO + L
		e := T - feasEps
		for threshold(&rt, e) < T {
			e = math.Nextafter(e, math.Inf(1))
		}
		for threshold(&rt, e) > T {
			e = math.Nextafter(e, math.Inf(-1))
		}
		req.Deadline, landed = e, threshold(&rt, e) == T
	}
	if !landed {
		t.Fatal("no deadline puts the threshold exactly on Now + b(l₀, o_r) + L")
	}
	arr := req.Deadline + feasEps - L
	for arr+L > req.Deadline+feasEps {
		arr = math.Nextafter(arr, math.Inf(-1))
	}
	rt.Arr = []float64{arr}
	if !(arr < rt.Now+toO) {
		t.Fatalf("arrival %v at o_r is not early: b(l₀, o_r) puts it at %v", arr, rt.Now+toO)
	}
	if ins := LinearDPInsertion(&rt, 4, req, L, dist); !ins.OK || ins.I != 1 || ins.J != 1 {
		t.Fatalf("worker 0's Δ* is %+v, want the append after its drop-off", ins)
	}
	if b.busyCut(&rt, req.Deadline, toO, L) {
		t.Fatal("the cut drops a worker that lands exactly on its threshold")
	}
	if e := math.Nextafter(req.Deadline, math.Inf(-1)); !b.busyCut(&rt, e, toO, L) {
		t.Fatal("the cut keeps a worker one ulp of e_r past its threshold")
	}
	f, err := NewFleet(g, dist, []*Worker{{ID: 0, Capacity: 4, Route: rt}}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	on := NewPruneGreedyDP(f, 1)
	if w, ins, _ := on.Plan(rt.Now, req); w == nil || ins.I != 1 || ins.J != 1 {
		t.Fatalf("with the cut the planner chose %v %+v, want worker 0 after its drop-off", w, ins)
	}
}

// sortedBounds returns a copy of lbs in scan order.
func sortedBounds(lbs []WorkerBound) []WorkerBound {
	s := slices.Clone(lbs)
	SortWorkerBounds(s)
	return s
}

// sameBound compares two bounds by worker and by bits.
func sameBound(a, b WorkerBound) bool {
	return a.Worker == b.Worker && math.Float64bits(a.LB) == math.Float64bits(b.LB)
}
