package sim

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

// lockstepLossless runs one simulated stream, asking both the pruned and
// the unpruned planner for their decision on the *identical* fleet state
// before every application. Lemma 8 pruning must be perfectly lossless:
// same serve/reject choice, same worker, same Δ. This is the regression
// test for the floating-point negative-delta bug that once made the two
// diverge (see Insertion.clampNonNegative).
func lockstepLossless(t *testing.T, p workload.Params) {
	t.Helper()
	g, err := roadnet.Generate(p.Net)
	if err != nil {
		t.Fatal(err)
	}
	hub := shortest.BuildHubLabels(g)
	cached := shortest.NewCached(hub, 1<<18)
	inst, err := workload.BuildOn(p, g, cached.Dist)
	if err != nil {
		t.Fatal(err)
	}
	fleet, err := core.NewFleet(g, cached.Dist, inst.Workers, 2000)
	if err != nil {
		t.Fatal(err)
	}
	pruned := core.NewPruneGreedyDP(fleet, 1)
	full := core.NewGreedyDP(fleet, 1)
	eng := NewEngine(fleet, pruned, shortest.NewBiDijkstra(g), 1)

	reqs := append([]*core.Request(nil), inst.Requests...)
	for i := 1; i < len(reqs); i++ {
		for j := i; j > 0 && reqs[j].Release < reqs[j-1].Release; j-- {
			reqs[j], reqs[j-1] = reqs[j-1], reqs[j]
		}
	}
	for i, r := range reqs {
		eng.advanceAll(r.Release)
		wa, ia, L := pruned.Plan(r.Release, r)
		wb, ib, _ := full.Plan(r.Release, r)
		if (wa == nil) != (wb == nil) {
			t.Fatalf("req %d: prune served=%v full served=%v", i, wa != nil, wb != nil)
		}
		if wa == nil {
			continue
		}
		if wa.ID != wb.ID || math.Abs(ia.Delta-ib.Delta) > 1e-9 {
			t.Fatalf("req %d: prune chose worker %d delta %.15g; full chose %d delta %.15g",
				i, wa.ID, ia.Delta, wb.ID, ib.Delta)
		}
		if ia.Delta < 0 {
			t.Fatalf("req %d: negative delta %v escaped clamping", i, ia.Delta)
		}
		if err := core.Apply(&wa.Route, wa.Capacity, r, ia, L, fleet.Dist); err != nil {
			t.Fatal(err)
		}
		eng.record(r, core.Result{Served: true, Worker: wa.ID, Delta: ia.Delta})
	}
}

func TestPruneLosslessUnderMovementSmall(t *testing.T) {
	p := workload.ChengduLike(0.02)
	p.Net.Rows, p.Net.Cols = 24, 24
	p.NumWorkers = 15
	p.NumRequests = 600
	lockstepLossless(t, p)
}

// TestPruneLosslessChengduScale reproduces the exact configuration that
// originally exposed the divergence (urpsm-sim -dataset chengdu -scale
// 0.05 -workers 15).
func TestPruneLosslessChengduScale(t *testing.T) {
	if testing.Short() {
		t.Skip("medium-size lockstep run")
	}
	p := workload.ChengduLike(0.05)
	p.NumWorkers = 15
	lockstepLossless(t, p)
}
