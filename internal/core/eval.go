package core

import "slices"

// SortWorkerBounds orders lbs by (LBΔ*, WorkerID) ascending — the
// pruneGreedyDP scan order. The worker-ID tie-break makes the order a
// total one, so the sorted result is unique: the scan's lazy heap order
// (EvalCandidatesSerial) and any sorting algorithm produce the identical
// permutation. The generic slices.SortFunc avoids sort.Slice's reflection
// and its per-call closure allocation, which the zero-allocation plan path
// cannot afford.
func SortWorkerBounds(lbs []WorkerBound) { slices.SortFunc(lbs, cmpBounds) }

// cmpBounds is the (LBΔ*, WorkerID) scan order.
func cmpBounds(a, b WorkerBound) int {
	switch {
	case a.LB < b.LB:
		return -1
	case a.LB > b.LB:
		return 1
	}
	return int(a.Worker.ID - b.Worker.ID)
}

// The serial scan's lazy order: lbs[k:] is a binary min-heap under
// cmpBounds laid out back to front — heap node i lives at lbs[len(lbs)-1-i],
// so the root is the last element and the heap's last node is lbs[k].
// Popping swaps the root into lbs[k], which extends the sorted prefix
// lbs[:k+1]; because cmpBounds is a total order, the popped sequence is
// exactly the SortWorkerBounds order (DESIGN.md §10.5).

// heapifyBounds arranges all of lbs as that heap in O(len(lbs)).
func heapifyBounds(lbs []WorkerBound) {
	for i := len(lbs)/2 - 1; i >= 0; i-- {
		siftBound(lbs, i, len(lbs))
	}
}

// popBound moves the least bound of the heap lbs[k:] to lbs[k], leaving
// lbs[k+1:] a heap.
func popBound(lbs []WorkerBound, k int) {
	last := len(lbs) - 1
	lbs[last], lbs[k] = lbs[k], lbs[last]
	siftBound(lbs, 0, last-k)
}

// siftBound sifts heap node i down a heap of m nodes.
func siftBound(lbs []WorkerBound, i, m int) {
	last := len(lbs) - 1
	for {
		c := 2*i + 1
		if c >= m {
			return
		}
		if c+1 < m && cmpBounds(lbs[last-c-1], lbs[last-c]) < 0 {
			c++
		}
		if cmpBounds(lbs[last-c], lbs[last-i]) >= 0 {
			return
		}
		lbs[last-i], lbs[last-c] = lbs[last-c], lbs[last-i]
		i = c
	}
}

// betterCandidate reports whether candidate (w2, ins2) beats (w1, ins1)
// under the planner's deterministic (Δ*, WorkerID) tie-break. A nil w1
// always loses, a nil w2 never wins.
func betterCandidate(w1 *Worker, ins1 Insertion, w2 *Worker, ins2 Insertion) bool {
	if w2 == nil {
		return false
	}
	if w1 == nil {
		return true
	}
	if ins2.Delta != ins1.Delta {
		return ins2.Delta < ins1.Delta
	}
	return w2.ID < w1.ID
}

// EvalCandidatesSerial is the planning-phase scan of Algorithm 5: it
// evaluates exact insertions for the candidates of lbs and returns the
// best under the (Δ*, WorkerID) tie-break. It allocates nothing, so the
// planner's hot path — the paper's measured response time — pays only
// for the insertions.
//
// sc is the scan's insertion arena; it must be exclusive to this call
// (Scratch asserts that), because the operator's auxiliary arrays live in
// it for the duration of each candidate evaluation.
//
// With prune, lbs may arrive in any order: the scan visits it in
// SortWorkerBounds order but sorts lazily, one heap pop per worker it
// reaches, so the workers Lemma 8 prunes are never put in order either.
// On return lbs is permuted — the visited prefix sorted, the rest a heap —
// and a caller that needs the full order sorts it then. Without prune lbs
// is scanned as given.
//
// st, when non-nil, accumulates the scan's work counters (exact
// evaluations, feasible insertions, DP cells) for the observer hook; it
// never influences the scan itself.
func EvalCandidatesSerial(sc *Scratch, insert InsertionFunc, prune bool, lbs []WorkerBound,
	req *Request, L float64, dist DistFunc, st *PlanStats) (*Worker, Insertion) {
	var bestW *Worker
	bestIns := Infeasible
	if prune {
		heapifyBounds(lbs)
	}
	for k := range lbs {
		if prune {
			popBound(lbs, k)
		}
		wb := lbs[k]
		// Strictly-less break keeps the scan order-independent: every
		// worker whose exact Δ could tie the winner has LB ≤ Δ and is
		// therefore still scanned (Lemma 8).
		if prune && bestW != nil && bestIns.Delta < wb.LB {
			break
		}
		w := wb.Worker
		ins := insert(sc, &w.Route, w.Capacity, req, L, dist)
		if st != nil {
			st.observe(&w.Route, ins)
		}
		if !ins.OK {
			continue
		}
		if betterCandidate(bestW, bestIns, w, ins) {
			bestW = w
			bestIns = ins
		}
	}
	return bestW, bestIns
}
