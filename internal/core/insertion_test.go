package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// testWorld bundles a small synthetic city with an exact matrix oracle so
// insertion tests get O(1) exact distances.
type testWorld struct {
	g    *roadnet.Graph
	dist DistFunc
}

func newTestWorld(t testing.TB, rows, cols int, seed int64) *testWorld {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: rows, Cols: cols, Spacing: 180, Jitter: 0.3, ArterialEvery: 5,
		MotorwayRing: true, RemoveFrac: 0.1, DetourMin: 1.02, DetourMax: 1.4,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	m := shortest.NewMatrix(g)
	return &testWorld{g: g, dist: m.Dist}
}

// randomRoute builds a feasible random route for a worker by repeatedly
// applying feasible insertions of random requests, which guarantees the
// route respects all invariants by construction.
func (tw *testWorld) randomRoute(rng *rand.Rand, kw, wantRequests int, now float64) (Route, []*Request) {
	n := tw.g.NumVertices()
	rt := Route{
		Loc: roadnet.VertexID(rng.Intn(n)),
		Now: now,
	}
	var reqs []*Request
	for tries := 0; len(reqs) < wantRequests && tries < wantRequests*12; tries++ {
		req := tw.randomRequest(rng, RequestID(len(reqs)), now)
		L := tw.dist(req.Origin, req.Dest)
		ins := LinearDPInsertion(&rt, kw, req, L, tw.dist)
		if !ins.OK {
			continue
		}
		if err := Apply(&rt, kw, req, ins, L, tw.dist); err != nil {
			panic(err)
		}
		reqs = append(reqs, req)
	}
	return rt, reqs
}

func (tw *testWorld) randomRequest(rng *rand.Rand, id RequestID, now float64) *Request {
	n := tw.g.NumVertices()
	o := roadnet.VertexID(rng.Intn(n))
	d := roadnet.VertexID(rng.Intn(n))
	for d == o {
		d = roadnet.VertexID(rng.Intn(n))
	}
	L := tw.dist(o, d)
	// Deadline between "tight" and "loose": L + U(2, 20) minutes of slack.
	ddl := now + L + 120 + rng.Float64()*1080
	return &Request{
		ID: id, Origin: o, Dest: d,
		Release: now, Deadline: ddl,
		Penalty:  10 * L,
		Capacity: 1 + rng.Intn(3),
	}
}

func TestBasicInsertionEmptyRoute(t *testing.T) {
	tw := newTestWorld(t, 8, 8, 1)
	rt := Route{Loc: 0, Now: 0}
	req := &Request{ID: 1, Origin: 5, Dest: 20, Release: 0, Deadline: 4000, Penalty: 1, Capacity: 1}
	ins := BasicInsertion(&rt, 4, req, tw.dist)
	if !ins.OK {
		t.Fatal("insertion into empty route must be feasible with a loose deadline")
	}
	want := tw.dist(0, 5) + tw.dist(5, 20)
	if math.Abs(ins.Delta-want) > 1e-6 {
		t.Fatalf("delta=%v want %v", ins.Delta, want)
	}
	if ins.I != 0 || ins.J != 0 {
		t.Fatalf("positions=(%d,%d) want (0,0)", ins.I, ins.J)
	}
}

func TestInsertionRespectsDeadline(t *testing.T) {
	tw := newTestWorld(t, 8, 8, 2)
	rt := Route{Loc: 0, Now: 0}
	req := &Request{ID: 1, Origin: 5, Dest: 20, Release: 0, Deadline: 1, Penalty: 1, Capacity: 1}
	if ins := BasicInsertion(&rt, 4, req, tw.dist); ins.OK {
		t.Fatal("impossible deadline accepted by basic")
	}
	L := tw.dist(roadnet.VertexID(5), roadnet.VertexID(20))
	if ins := LinearDPInsertion(&rt, 4, req, L, tw.dist); ins.OK {
		t.Fatal("impossible deadline accepted by linear DP")
	}
}

func TestInsertionRespectsCapacity(t *testing.T) {
	tw := newTestWorld(t, 8, 8, 3)
	rt := Route{Loc: 0, Now: 0}
	req := &Request{ID: 1, Origin: 5, Dest: 20, Release: 0, Deadline: 1e6, Penalty: 1, Capacity: 5}
	if ins := BasicInsertion(&rt, 4, req, tw.dist); ins.OK {
		t.Fatal("request larger than worker capacity accepted")
	}
	L := tw.dist(roadnet.VertexID(5), roadnet.VertexID(20))
	if ins := LinearDPInsertion(&rt, 4, req, L, tw.dist); ins.OK {
		t.Fatal("request larger than worker capacity accepted by linear DP")
	}
	if ins := NaiveDPInsertion(&rt, 4, req, L, tw.dist); ins.OK {
		t.Fatal("request larger than worker capacity accepted by naive DP")
	}
}

func TestInsertionOnboardCapacity(t *testing.T) {
	// Worker already carrying Onboard=3 of capacity 4: a capacity-2
	// request must wait for the onboard drop-off or be rejected.
	tw := newTestWorld(t, 8, 8, 4)
	dropV := roadnet.VertexID(30)
	rt := Route{
		Loc: 0, Now: 0, Onboard: 3,
		Stops: []Stop{{Vertex: dropV, Kind: Dropoff, Req: 99, Cap: 3, DDL: 1e6}},
	}
	rt.Recompute(tw.dist)
	req := &Request{ID: 1, Origin: 5, Dest: 20, Release: 0, Deadline: 1e6, Penalty: 1, Capacity: 2}
	ins := BasicInsertion(&rt, 4, req, tw.dist)
	if !ins.OK {
		t.Fatal("should be feasible after the onboard drop-off")
	}
	if ins.I < 1 {
		t.Fatalf("pickup must come after the drop-off, got I=%d", ins.I)
	}
}

// TestOperatorsAgree is the central cross-validation property test: on
// thousands of random (route, request) instances, the O(n³) basic
// insertion, the O(n²) naive DP and the O(n) linear DP must agree on
// feasibility and on the minimal increased distance.
func TestOperatorsAgree(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 7)
	rng := rand.New(rand.NewSource(99))
	trials := 1500
	if testing.Short() {
		trials = 300
	}
	feasible := 0
	for trial := 0; trial < trials; trial++ {
		kw := 2 + rng.Intn(5)
		now := rng.Float64() * 1000
		rt, _ := tw.randomRoute(rng, kw, rng.Intn(5), now)
		req := tw.randomRequest(rng, 1000, now)
		if rng.Intn(4) == 0 {
			// A share of tight deadlines exercises the infeasible paths.
			req.Deadline = now + tw.dist(req.Origin, req.Dest)*(1+rng.Float64()*0.1)
		}
		L := tw.dist(req.Origin, req.Dest)

		basic := BasicInsertion(&rt, kw, req, tw.dist)
		naive := NaiveDPInsertion(&rt, kw, req, L, tw.dist)
		linear := LinearDPInsertion(&rt, kw, req, L, tw.dist)

		if basic.OK != naive.OK || basic.OK != linear.OK {
			t.Fatalf("trial %d: feasibility disagrees: basic=%v naive=%v linear=%v (route %d stops, kw=%d)",
				trial, basic.OK, naive.OK, linear.OK, rt.Len(), kw)
		}
		if !basic.OK {
			continue
		}
		feasible++
		if math.Abs(basic.Delta-naive.Delta) > 1e-5*(1+basic.Delta) {
			t.Fatalf("trial %d: naive delta %v != basic %v", trial, naive.Delta, basic.Delta)
		}
		if math.Abs(basic.Delta-linear.Delta) > 1e-5*(1+basic.Delta) {
			t.Fatalf("trial %d: linear delta %v != basic %v", trial, linear.Delta, basic.Delta)
		}
		// The positions chosen by each operator must themselves be
		// feasible and achieve the reported delta.
		for name, ins := range map[string]Insertion{"naive": naive, "linear": linear} {
			_, d, ok := simulateCandidate(nil, &rt, kw, req, ins.I, ins.J, tw.dist)
			if !ok {
				t.Fatalf("trial %d: %s chose infeasible positions (%d,%d)", trial, name, ins.I, ins.J)
			}
			if math.Abs(d-ins.Delta) > 1e-5*(1+d) {
				t.Fatalf("trial %d: %s positions give delta %v, reported %v", trial, name, d, ins.Delta)
			}
		}
	}
	if feasible < trials/4 {
		t.Fatalf("only %d/%d trials feasible; generator too hostile to be meaningful", feasible, trials)
	}
}

// TestApplyPreservesInvariants checks that applying a chosen insertion
// yields a route that passes full validation, with correct incremental
// arrival times, on many random instances.
func TestApplyPreservesInvariants(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 13)
	rng := rand.New(rand.NewSource(5))
	trials := 800
	if testing.Short() {
		trials = 150
	}
	for trial := 0; trial < trials; trial++ {
		kw := 2 + rng.Intn(5)
		now := rng.Float64() * 500
		rt, _ := tw.randomRoute(rng, kw, rng.Intn(6), now)
		req := tw.randomRequest(rng, 2000, now)
		L := tw.dist(req.Origin, req.Dest)
		ins := LinearDPInsertion(&rt, kw, req, L, tw.dist)
		if !ins.OK {
			continue
		}
		before := rt.RemainingDist()
		if err := Apply(&rt, kw, req, ins, L, tw.dist); err != nil {
			t.Fatalf("trial %d: apply failed: %v", trial, err)
		}
		if err := rt.Validate(kw, tw.dist); err != nil {
			t.Fatalf("trial %d: route invalid after apply: %v", trial, err)
		}
		after := rt.RemainingDist()
		if math.Abs((after-before)-ins.Delta) > 1e-5*(1+after) {
			t.Fatalf("trial %d: distance grew by %v, insertion promised %v", trial, after-before, ins.Delta)
		}
	}
}

// TestLowerBoundSound checks LBΔ* ≤ Δ* on random instances and that an
// LB of +Inf implies real infeasibility; the landmark-tightened bound must
// hold by value, with no tolerance (DESIGN.md §10.7).
func TestLowerBoundSound(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 17)
	rng := rand.New(rand.NewSource(8))
	var sc Scratch
	trials := 1200
	if testing.Short() {
		trials = 250
	}
	checked := 0
	for trial := 0; trial < trials; trial++ {
		kw := 2 + rng.Intn(5)
		now := rng.Float64() * 500
		rt, _ := tw.randomRoute(rng, kw, rng.Intn(6), now)
		req := tw.randomRequest(rng, 3000, now)
		if rng.Intn(3) == 0 {
			req.Deadline = now + tw.dist(req.Origin, req.Dest)*(1+rng.Float64()*0.2)
		}
		L := tw.dist(req.Origin, req.Dest)
		lb := LowerBoundInsertion(&rt, kw, req, tw.g, L)
		exact := LinearDPInsertion(&rt, kw, req, L, tw.dist)
		lm := landmarkBound(tw.g, req)
		lm.cut = true
		toO := lm.toOrigin(rt.Loc)
		if lmLB := sc.lowerBound(&rt, kw, req, &lm, toO, L); exact.OK && !(lmLB <= exact.Delta) {
			t.Fatalf("trial %d: landmark LB %v exceeds exact delta %v", trial, lmLB, exact.Delta)
		}
		if rt.Len() > 0 && exact.OK && lm.busyCut(&rt, req.Deadline, toO, L) {
			t.Fatalf("trial %d: the deadline cut drops a route with exact delta %v", trial, exact.Delta)
		}
		if math.IsInf(lb, 1) {
			if exact.OK {
				t.Fatalf("trial %d: LB says infeasible but exact found delta %v", trial, exact.Delta)
			}
			continue
		}
		if exact.OK {
			checked++
			if lb > exact.Delta+1e-5*(1+exact.Delta) {
				t.Fatalf("trial %d: LB %v exceeds exact delta %v", trial, lb, exact.Delta)
			}
		}
	}
	if checked < trials/5 {
		t.Fatalf("only %d/%d trials checked the bound", checked, trials)
	}
}

func TestApplyRejectsBadInsertion(t *testing.T) {
	tw := newTestWorld(t, 6, 6, 1)
	rt := Route{Loc: 0, Now: 0}
	req := &Request{ID: 1, Origin: 3, Dest: 7, Deadline: 1e6, Capacity: 1}
	L := tw.dist(roadnet.VertexID(3), roadnet.VertexID(7))
	if err := Apply(&rt, 4, req, Infeasible, L, tw.dist); err == nil {
		t.Fatal("infeasible insertion applied")
	}
	if err := Apply(&rt, 4, req, Insertion{OK: true, I: 2, J: 5, Delta: 1}, L, tw.dist); err == nil {
		t.Fatal("out-of-range insertion applied")
	}
}

func TestRouteValidateCatchesCorruption(t *testing.T) {
	tw := newTestWorld(t, 6, 6, 2)
	rt := Route{Loc: 0, Now: 0}
	req := &Request{ID: 1, Origin: 3, Dest: 7, Deadline: 1e6, Capacity: 1}
	L := tw.dist(roadnet.VertexID(3), roadnet.VertexID(7))
	ins := LinearDPInsertion(&rt, 4, req, L, tw.dist)
	if !ins.OK {
		t.Fatal("setup insertion failed")
	}
	if err := Apply(&rt, 4, req, ins, L, tw.dist); err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(4, tw.dist); err != nil {
		t.Fatalf("valid route rejected: %v", err)
	}
	// Corrupt the arrival cache.
	bad := rt.Clone()
	bad.Arr[0] += 100
	if err := bad.Validate(4, tw.dist); err == nil {
		t.Fatal("corrupted Arr not caught")
	}
	// Swap pickup and drop-off (precedence violation shows as pickup
	// without matching drop... the swapped route drops before picking).
	bad2 := rt.Clone()
	bad2.Stops[0], bad2.Stops[1] = bad2.Stops[1], bad2.Stops[0]
	if err := bad2.Validate(4, tw.dist); err == nil {
		t.Fatal("precedence violation not caught")
	}
	// Capacity violation.
	bad3 := rt.Clone()
	bad3.Onboard = 4
	if err := bad3.Validate(4, tw.dist); err == nil {
		t.Fatal("capacity violation not caught")
	}
}

func TestRequestValidate(t *testing.T) {
	ok := Request{ID: 1, Deadline: 10, Release: 0, Capacity: 1}
	if err := ok.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Request{
		{ID: 1, Deadline: 10, Capacity: 0},
		{ID: 1, Deadline: -1, Release: 0, Capacity: 1},
		{ID: 1, Deadline: 10, Capacity: 1, Penalty: -2},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad request %d accepted", i)
		}
	}
}

func TestStopKindString(t *testing.T) {
	if Pickup.String() != "pickup" || Dropoff.String() != "dropoff" {
		t.Fatal("StopKind strings wrong")
	}
}

// TestLinearDPQueryCount verifies Lemma 9: given L the linear DP needs
// exactly 2n+1 distance queries, dis(l_k, o_r) for k = 0..n and
// dis(l_k, d_r) for the n stops.
func TestLinearDPQueryCount(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 23)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		rt, _ := tw.randomRoute(rng, 4, 3, 0)
		req := tw.randomRequest(rng, 500, 0)
		L := tw.dist(req.Origin, req.Dest)
		queries := 0
		counting := func(u, v roadnet.VertexID) float64 {
			queries++
			return tw.dist(u, v)
		}
		LinearDPInsertion(&rt, 4, req, L, counting)
		want := 2*rt.Len() + 1
		if queries != want {
			t.Fatalf("trial %d: %d queries, want %d (n=%d)", trial, queries, want, rt.Len())
		}
	}
}

// TestDPsNeverReadDistD0 pins why fillExact and fillLower skip
// dis(l₀, d_r): with distD[0] poisoned with NaN, the linear and naive DPs
// return the same Insertion bits as with the true distance (or its
// Euclidean or landmark bound) there.
func TestDPsNeverReadDistD0(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 19)
	rng := rand.New(rand.NewSource(6))
	var c insCtx
	feasible := 0
	for trial := 0; trial < 400; trial++ {
		kw := 2 + rng.Intn(4)
		now := rng.Float64() * 500
		rt, _ := tw.randomRoute(rng, kw, rng.Intn(6), now)
		req := tw.randomRequest(rng, 700, now)
		if rng.Intn(4) == 0 {
			req.Deadline = now + tw.dist(req.Origin, req.Dest)*(1+rng.Float64()*0.2)
		}
		L := tw.dist(req.Origin, req.Dest)
		eu, lm := euclidBound(tw.g, req), landmarkBound(tw.g, req)
		for fill, b := range []*reqBound{nil, &eu, &lm} {
			c.reset(&rt, kw, req, L)
			if b == nil {
				c.fillExact(tw.dist)
				c.distD[0] = tw.dist(rt.Loc, req.Dest)
			} else {
				c.fillLower(b, b.toOrigin(rt.Loc))
				_, c.distD[0] = b.toBoth(rt.Loc)
			}
			lin, naive := linearDP(&c), naiveDP(&c)
			c.distD[0] = math.NaN()
			if got := linearDP(&c); !sameInsertion(got, lin) {
				t.Fatalf("trial %d (fill %d): linearDP with NaN distD[0] %+v, want %+v", trial, fill, got, lin)
			}
			if got := naiveDP(&c); !sameInsertion(got, naive) {
				t.Fatalf("trial %d (fill %d): naiveDP with NaN distD[0] %+v, want %+v", trial, fill, got, naive)
			}
			if lin.OK {
				feasible++
			}
		}
	}
	if feasible < 100 {
		t.Fatalf("only %d feasible instances; test vacuous", feasible)
	}
}

// sameInsertion compares two insertions field for field, Δ by its bits.
func sameInsertion(a, b Insertion) bool {
	return a.OK == b.OK && a.I == b.I && a.J == b.J && math.Float64bits(a.Delta) == math.Float64bits(b.Delta)
}

// TestLowerBoundZeroQueries verifies the decision phase's zero-query
// property (Lemma 7): LBΔ* must not touch the distance oracle at all.
func TestLowerBoundZeroQueries(t *testing.T) {
	tw := newTestWorld(t, 8, 8, 29)
	rng := rand.New(rand.NewSource(4))
	rt, _ := tw.randomRoute(rng, 4, 4, 0)
	req := tw.randomRequest(rng, 600, 0)
	L := tw.dist(req.Origin, req.Dest)
	LowerBoundInsertion(&rt, 4, req, tw.g, L) // must not panic or query
	// The signature takes no oracle; compile-time enforcement is the test,
	// plus it must return a finite bound here.
	if lb := LowerBoundInsertion(&rt, 4, req, tw.g, L); math.IsInf(lb, 1) {
		t.Fatal("expected feasible lower bound")
	}
}
