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

// FuzzLandmarkBound checks the soundness half of DESIGN.md §10.7: the
// landmark pair bound never exceeds, by value, the distance any oracle tier
// reports — CCH, hub labels, bidirectional and plain Dijkstra — on
// generated cities, tie-riddled integer grids, disconnected graphs and
// traffic snapshots. Every pair with a landmark as one end is checked (the
// pairs where the bound is tight and only the margin absorbs the oracle's
// different summation order), plus random pairs.
func FuzzLandmarkBound(f *testing.F) {
	for kind := uint8(0); kind < 3; kind++ {
		f.Add(kind, int64(kind)+1, uint16(0))
		f.Add(kind, int64(kind)+11, uint16(999))
	}
	f.Fuzz(func(t *testing.T, kind uint8, seed int64, jam uint16) {
		g := landmarkNet(t, kind, seed, jam)
		b := landmarkBound(g)
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
		check := func(u, v roadnet.VertexID) {
			lb := b.at(u, v)
			for _, tier := range tiers {
				if d := tier.dist(u, v); !(lb <= d) {
					t.Fatalf("bound(%d,%d) = %v exceeds %s distance %v", u, v, lb, tier.name, d)
				}
			}
			// A landmark in u's component that v lacks proves the pair
			// unreachable, and the bound must say so.
			if !math.IsInf(lb, 1) && math.IsInf(tiers[3].dist(u, v), 1) && slices.ContainsFunc(rows[u][:], func(x float64) bool { return x < math.Inf(1) }) {
				t.Fatalf("bound(%d,%d) = %v across components", u, v, lb)
			}
		}
		for v := 0; v < n; v++ {
			for l := range rows[v] {
				if rows[v][l] != 0 {
					continue
				}
				for u := 0; u < n; u++ { // v is landmark l
					check(roadnet.VertexID(v), roadnet.VertexID(u))
					check(roadnet.VertexID(u), roadnet.VertexID(v))
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < 300; q++ {
			check(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
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
