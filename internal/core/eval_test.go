package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestLazyScanOrderMatchesSort pins the serial scan's lazy order to
// SortWorkerBounds: on random bound vectors with few distinct LBs — so the
// worker-ID tie-break decides most comparisons — popping k bounds leaves
// lbs[:k] equal to the sorted prefix, and popping all of them leaves the
// full sort. A planner with an observer attached still hands the trace
// the whole sorted candidate list.
func TestLazyScanOrderMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(28))
	for trial := 0; trial < 2000; trial++ {
		n := rng.Intn(70)
		levels := 1 + rng.Intn(5)
		ids := rng.Perm(n)
		lbs := make([]WorkerBound, n)
		for i := range lbs {
			lbs[i] = WorkerBound{LB: float64(rng.Intn(levels)) * 0.75, Worker: &Worker{ID: WorkerID(ids[i])}}
		}
		want := slices.Clone(lbs)
		SortWorkerBounds(want)

		got := slices.Clone(lbs)
		heapifyBounds(got)
		k := rng.Intn(n + 1)
		for i := 0; i < k; i++ {
			popBound(got, i)
		}
		if !slices.Equal(got[:k], want[:k]) {
			t.Fatalf("trial %d: %d pops of %d gave %v, sorted prefix %v", trial, k, n, order(got[:k]), order(want[:k]))
		}
		for i := k; i < n; i++ {
			popBound(got, i)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: a full pop of %d gave %v, sort %v", trial, n, order(got), order(want))
		}
	}

	tw := newTestWorld(t, 12, 12, 9)
	f := tw.newTestFleet(t, rng, 40, 4)
	p := NewPruneGreedyDP(f, 1)
	obs := &sortedLBsObserver{t: t}
	p.SetObserver(obs)
	for _, r := range makeStream(tw, rng, 300) {
		p.OnRequest(r.Release, r)
	}
	if obs.scanned == 0 {
		t.Fatal("no request reached the planning phase")
	}
}

// order renders bounds as "LB/worker" for failure messages.
func order(lbs []WorkerBound) []string {
	out := make([]string, len(lbs))
	for i, wb := range lbs {
		out[i] = fmt.Sprintf("%g/%d", wb.LB, wb.Worker.ID)
	}
	return out
}

// sortedLBsObserver checks every planned request's trace carries all
// feasible candidates in SortWorkerBounds order.
type sortedLBsObserver struct {
	t       *testing.T
	scanned int
}

func (o *sortedLBsObserver) PlanStart(float64, *Request) {}

func (o *sortedLBsObserver) PlanDone(tr *PlanTrace) {
	if tr.Stats.Evaluated == 0 {
		return
	}
	o.scanned++
	if len(tr.LBs) != tr.Feasible || !slices.IsSortedFunc(tr.LBs, cmpBounds) {
		o.t.Errorf("request %d: trace holds %d of %d candidates, sorted %v", tr.Req.ID,
			len(tr.LBs), tr.Feasible, slices.IsSortedFunc(tr.LBs, cmpBounds))
	}
}
