package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/roadnet"
)

// newTestFleet builds a fleet of k workers at random vertices.
func (tw *testWorld) newTestFleet(t testing.TB, rng *rand.Rand, k, kw int) *Fleet {
	t.Helper()
	n := tw.g.NumVertices()
	workers := make([]*Worker, k)
	for i := range workers {
		workers[i] = &Worker{
			ID:       WorkerID(i),
			Capacity: kw,
			Route:    Route{Loc: roadnet.VertexID(rng.Intn(n))},
		}
	}
	f, err := NewFleet(tw.g, tw.dist, workers, 1000)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestCandidatesConservative(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 31)
	rng := rand.New(rand.NewSource(1))
	f := tw.newTestFleet(t, rng, 30, 4)
	for trial := 0; trial < 100; trial++ {
		req := tw.randomRequest(rng, RequestID(trial), 0)
		L := tw.dist(req.Origin, req.Dest)
		cands := f.Candidates(req, 0, L)
		inSet := map[WorkerID]bool{}
		for _, w := range cands {
			inSet[w.ID] = true
		}
		// Any worker excluded by the filter must be truly unable to make
		// the pickup deadline.
		for _, w := range f.Workers {
			if inSet[w.ID] {
				continue
			}
			reach := w.Route.Now + tw.dist(w.Route.Loc, req.Origin)
			if reach <= req.Deadline-L {
				t.Fatalf("trial %d: worker %d filtered out but could reach pickup at %v (deadline %v)",
					trial, w.ID, reach, req.Deadline-L)
			}
		}
	}
}

func TestCandidatesImpossibleDeadline(t *testing.T) {
	tw := newTestWorld(t, 8, 8, 37)
	rng := rand.New(rand.NewSource(2))
	f := tw.newTestFleet(t, rng, 10, 4)
	req := tw.randomRequest(rng, 1, 0)
	L := tw.dist(req.Origin, req.Dest)
	req.Deadline = L - 1 // cannot even drive o→d in time
	if cands := f.Candidates(req, 0, L); cands != nil {
		t.Fatalf("expected no candidates, got %d", len(cands))
	}
}

// TestConcurrentCandidates hammers Fleet.Candidates from many goroutines
// while another goroutine keeps moving workers through the grid index;
// under -race it is the check on spatial.Grid's read-write lock.
func TestConcurrentCandidates(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 78)
	rng := rand.New(rand.NewSource(78))
	fleet := tw.newTestFleet(t, rng, 30, 4)
	reqs := makeStream(tw, rng, 60)

	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() { // writer: churn worker positions
		defer writer.Done()
		i := 0
		for {
			select {
			case <-stop:
				return
			default:
			}
			w := fleet.Workers[i%len(fleet.Workers)]
			w.Route.Loc = reqs[i%len(reqs)].Origin
			fleet.UpdateWorkerPosition(w)
			i++
		}
	}()
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(seed int) { // readers: candidate retrieval under load
			defer readers.Done()
			for i := 0; i < 200; i++ {
				r := reqs[(seed*31+i)%len(reqs)]
				L := fleet.Dist(r.Origin, r.Dest)
				for _, w := range fleet.Candidates(r, 0, L) {
					if w == nil {
						t.Error("nil candidate")
						return
					}
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() { // readers: whole-grid scans
			defer readers.Done()
			for i := 0; i < 100; i++ {
				fleet.Grid.Len()
				fleet.Grid.MemoryBytes()
			}
		}()
	}
	// Readers run against the live writer; only stop it once they finish.
	readers.Wait()
	close(stop)
	writer.Wait()
}

func TestFleetRejectsMisnumberedWorkers(t *testing.T) {
	tw := newTestWorld(t, 6, 6, 1)
	workers := []*Worker{{ID: 5, Capacity: 4}}
	if _, err := NewFleet(tw.g, tw.dist, workers, 1000); err == nil {
		t.Fatal("misnumbered worker accepted")
	}
}

// playStream runs a planner over a request stream without worker movement
// (all requests at time 0..T but workers stay parked, which is a valid
// degenerate simulation for planner-level properties).
func playStream(t *testing.T, p Planner, reqs []*Request) (served, rejected []*Request, results []Result) {
	t.Helper()
	for _, r := range reqs {
		res := p.OnRequest(r.Release, r)
		results = append(results, res)
		if res.Served {
			served = append(served, r)
		} else {
			rejected = append(rejected, r)
		}
	}
	return served, rejected, results
}

func makeStream(tw *testWorld, rng *rand.Rand, n int) []*Request {
	reqs := make([]*Request, n)
	tnow := 0.0
	for i := range reqs {
		tnow += rng.Float64() * 20
		reqs[i] = tw.randomRequest(rng, RequestID(i), tnow)
	}
	return reqs
}

// TestPruneEqualsNoPrune is the key Lemma 8 property: pruneGreedyDP and
// GreedyDP must make identical decisions and produce identical routes —
// the pruning is lossless.
func TestPruneEqualsNoPrune(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 41)
	rngA := rand.New(rand.NewSource(7))
	rngB := rand.New(rand.NewSource(7))
	fleetA := tw.newTestFleet(t, rngA, 25, 4)
	fleetB := tw.newTestFleet(t, rngB, 25, 4)
	pa := NewPruneGreedyDP(fleetA, 1)
	pb := NewGreedyDP(fleetB, 1)

	reqs := makeStream(tw, rand.New(rand.NewSource(3)), 300)
	for i, r := range reqs {
		ra := pa.OnRequest(r.Release, r)
		rCopy := *r
		rb := pb.OnRequest(r.Release, &rCopy)
		if ra.Served != rb.Served {
			t.Fatalf("req %d: served disagrees: prune=%v noprune=%v", i, ra.Served, rb.Served)
		}
		if ra.Served {
			if math.Abs(ra.Delta-rb.Delta) > 1e-6*(1+ra.Delta) {
				t.Fatalf("req %d: delta disagrees: %v vs %v", i, ra.Delta, rb.Delta)
			}
		}
	}
	// Total planned distance must agree too.
	if da, db := fleetA.TotalDistance(), fleetB.TotalDistance(); math.Abs(da-db) > 1e-4*(1+da) {
		t.Fatalf("total distance disagrees: %v vs %v", da, db)
	}
}

// TestPlannerRoutesStayValid runs a long stream and validates every
// worker's route after every assignment.
func TestPlannerRoutesStayValid(t *testing.T) {
	tw := newTestWorld(t, 12, 12, 43)
	rng := rand.New(rand.NewSource(11))
	fleet := tw.newTestFleet(t, rng, 15, 4)
	p := NewPruneGreedyDP(fleet, 1)
	reqs := makeStream(tw, rng, 250)
	servedCount := 0
	for _, r := range reqs {
		res := p.OnRequest(r.Release, r)
		if res.Served {
			servedCount++
			w := fleet.Worker(res.Worker)
			if err := w.Route.Validate(w.Capacity, tw.dist); err != nil {
				t.Fatalf("route of worker %d invalid: %v", w.ID, err)
			}
		}
	}
	if servedCount == 0 {
		t.Fatal("planner served nothing; test vacuous")
	}
}

// TestDecisionPhaseRejectsUneconomicRequests: with a huge alpha any
// nonzero insertion cost outweighs the penalty, so almost everything is
// rejected; with alpha=0 nothing is rejected by the decision phase.
func TestDecisionPhaseRejectsUneconomicRequests(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 47)
	rng := rand.New(rand.NewSource(13))
	fleet := tw.newTestFleet(t, rng, 10, 4)
	pExpensive := NewGreedy(fleet, Config{Alpha: 1e9, Prune: true, PostCheck: true}, "expensive")
	reqs := makeStream(tw, rand.New(rand.NewSource(17)), 100)
	served, _, _ := playStream(t, pExpensive, reqs)
	if len(served) > 2 {
		// A request whose pickup is exactly at a worker location with LB=0
		// can still be served; more than a couple is wrong.
		t.Fatalf("alpha=1e9 served %d requests", len(served))
	}

	fleet2 := tw.newTestFleet(t, rand.New(rand.NewSource(13)), 10, 4)
	pFree := NewGreedy(fleet2, Config{Alpha: 0, Prune: true, PostCheck: true}, "free")
	served2, _, _ := playStream(t, pFree, reqs)
	if len(served2) < len(reqs)/2 {
		t.Fatalf("alpha=0 served only %d/%d", len(served2), len(reqs))
	}
}

func TestUnifiedCostAndServedRate(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 53)
	rng := rand.New(rand.NewSource(19))
	fleet := tw.newTestFleet(t, rng, 12, 4)
	p := NewPruneGreedyDP(fleet, 1)
	reqs := makeStream(tw, rng, 150)
	served, rejected, _ := playStream(t, p, reqs)
	uc := UnifiedCost(1, fleet, rejected)
	wantPenalty := 0.0
	for _, r := range rejected {
		wantPenalty += r.Penalty
	}
	if math.Abs(uc-(fleet.TotalDistance()+wantPenalty)) > 1e-6*(1+uc) {
		t.Fatalf("unified cost=%v", uc)
	}
	if got := ServedRate(len(served), len(reqs)); got < 0 || got > 1 {
		t.Fatalf("served rate=%v", got)
	}
	if ServedRate(3, 0) != 0 {
		t.Fatal("served rate with zero total")
	}
	// Revenue equivalence (Eq. 4): revenue = c_r·Σ_R dis(o,d) − UC with
	// α=c_w, p_r=c_r·dis(o,d). Here c_r implied by Penalty=10·L, c_w=α=1.
	rev := Revenue(10, 1, fleet, served)
	sumAll := 0.0
	for _, r := range reqs {
		sumAll += 10 * tw.dist(r.Origin, r.Dest)
	}
	if math.Abs(rev-(sumAll-uc)) > 1e-4*(1+math.Abs(rev)) {
		t.Fatalf("revenue identity broken: rev=%v sumAll-UC=%v", rev, sumAll-uc)
	}
}

// TestPostCheckReducesCost: with PostCheck on, the unified cost is never
// higher than with it off on the same stream.
func TestPostCheckReducesCost(t *testing.T) {
	tw := newTestWorld(t, 10, 10, 59)
	mk := func(postCheck bool) float64 {
		rng := rand.New(rand.NewSource(23))
		fleet := tw.newTestFleet(t, rng, 8, 4)
		p := NewGreedy(fleet, Config{Alpha: 1, Prune: true, PostCheck: postCheck}, "x")
		reqs := makeStream(tw, rand.New(rand.NewSource(29)), 200)
		var rejected []*Request
		for _, r := range reqs {
			// Make some penalties tiny so serving is often uneconomic.
			r.Penalty = tw.dist(r.Origin, r.Dest) * 0.2
			if !p.OnRequest(r.Release, r).Served {
				rejected = append(rejected, r)
			}
		}
		return UnifiedCost(1, fleet, rejected)
	}
	with := mk(true)
	without := mk(false)
	if with > without+1e-6 {
		t.Fatalf("PostCheck increased cost: %v > %v", with, without)
	}
}

func TestPlannerName(t *testing.T) {
	tw := newTestWorld(t, 6, 6, 61)
	fleet := tw.newTestFleet(t, rand.New(rand.NewSource(1)), 2, 4)
	if NewPruneGreedyDP(fleet, 1).Name() != "pruneGreedyDP" {
		t.Fatal("name")
	}
	if NewGreedyDP(fleet, 1).Name() != "GreedyDP" {
		t.Fatal("name")
	}
}
