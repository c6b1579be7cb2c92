package core

// Planner introspection: the observer hook the flight recorder
// (internal/trace) attaches to. The contract that makes observation safe
// on this codebase's two load-bearing invariants:
//
//   - Zero-alloc: the planner owns one PlanTrace in its scratch arena and
//     passes a pointer to it, so installing an observer adds no
//     per-request heap allocation. A nil observer costs one predictable
//     branch per Plan call.
//
//   - Determinism: observation is strictly read-only — the observer sees
//     counters and the already-selected winner, after every decision-
//     affecting float operation has happened. Tracing on versus off
//     cannot change a decision, an assignment or a Δ* bit
//     (TestLockstepTracingEquivalence pins this through the serve tier).

// PlanStats counts the planning-phase work of one request: how many exact
// insertions ran, how many produced a feasible candidate, and how many DP
// cells the insertion operator touched (one cell per route position, so
// stops+1 per LinearDP evaluation — the paper's O(n) row).
type PlanStats struct {
	Evaluated   int32
	FeasibleIns int32
	DPCells     int64
}

// observe charges one exact insertion evaluation to the stats.
func (st *PlanStats) observe(rt *Route, ins Insertion) {
	st.Evaluated++
	st.DPCells += int64(rt.Len()) + 1
	if ins.OK {
		st.FeasibleIns++
	}
}

// RejectReason explains why a request was (or was not) rejected; it is
// the "why" behind a Decision and the explain endpoint's reason field.
type RejectReason uint8

const (
	// ReasonServed — not rejected: the request was planned onto Chosen.
	ReasonServed RejectReason = iota
	// ReasonNoCandidates — the spatial grid yielded no candidate worker
	// (nobody close enough to matter under the Euclidean bound).
	ReasonNoCandidates
	// ReasonDecisionBound — Algorithm 4 line 5: even the optimistic cost
	// α·min LBΔ* exceeds the penalty p_r, or no candidate has a finite
	// lower bound.
	ReasonDecisionBound
	// ReasonNoFeasibleInsertion — every exact insertion violated a
	// deadline or capacity constraint.
	ReasonNoFeasibleInsertion
	// ReasonPostCheck — the strengthened decision rule (DESIGN.md §6):
	// the best exact α·Δ* still exceeds the penalty.
	ReasonPostCheck
)

// String returns the stable wire name used by the explain endpoint and
// the trace dump (FORMATS.md §9).
func (r RejectReason) String() string {
	switch r {
	case ReasonServed:
		return "served"
	case ReasonNoCandidates:
		return "no_candidates"
	case ReasonDecisionBound:
		return "decision_lower_bound"
	case ReasonNoFeasibleInsertion:
		return "no_feasible_insertion"
	case ReasonPostCheck:
		return "post_check"
	}
	return "unknown"
}

// PlanTrace is the full introspection record of one Plan call, populated
// in place on the planner's arena. It is valid only for the duration of
// the PlanDone callback: LBs aliases the planner's scratch and is
// overwritten by the next request, so observers must copy what they keep.
type PlanTrace struct {
	// Req is the planned request; Now the event time Plan ran at.
	Req *Request
	Now float64
	// L is the decision phase's one exact query, dis(o_r, d_r) — the
	// direct travel time and the basis of the Eq. 2 marginal revenue.
	L float64
	// Candidates counts the grid-filtered candidate workers; Feasible how
	// many of them survived the decision phase with a finite LBΔ*.
	Candidates int
	Feasible   int
	// MinLB is the smallest decision-phase lower bound (+Inf when none).
	MinLB float64
	// Stats is the planning-phase work; Pruned the candidates Lemma 8
	// skipped (Feasible − Stats.Evaluated).
	Stats  PlanStats
	Pruned int
	// LBs is the candidate set in scan order (sorted by (LBΔ*, WorkerID)
	// when pruning). It aliases planner scratch — copy, don't retain.
	LBs []WorkerBound
	// Chosen is the selected worker (-1 when rejected), Ins its winning
	// insertion (pickup after position I, drop-off after position J) and
	// Reason the outcome classification.
	Chosen WorkerID
	Ins    Insertion
	Reason RejectReason
	// PlanNs is the wall time Plan took, both phases included.
	PlanNs int64
}

// setBounds records the decision phase's bounds: Feasible, MinLB and LBs.
func (tr *PlanTrace) setBounds(lbs []WorkerBound) {
	tr.Feasible = len(lbs)
	for _, wb := range lbs {
		if wb.LB < tr.MinLB {
			tr.MinLB = wb.LB
		}
	}
	tr.LBs = lbs
}

// PlanObserver receives planner introspection callbacks. Implementations
// must not allocate on the PlanStart/PlanDone path if the zero-alloc
// plan-path guarantee is to survive observation (internal/trace.Recorder
// is the reference implementation; TestGreedyPlanZeroAllocs enforces it).
type PlanObserver interface {
	// PlanStart fires before the decision phase's first distance query.
	PlanStart(now float64, req *Request)
	// PlanDone fires after the outcome is fixed but before any route is
	// mutated; tr is valid only until the callback returns.
	PlanDone(tr *PlanTrace)
}

// Observable is implemented by planners that accept a PlanObserver
// (core.Greedy). SetObserver(nil) detaches.
type Observable interface {
	SetObserver(PlanObserver)
}
