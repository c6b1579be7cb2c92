package serve

// The observability endpoints: the flight-recorder dump (/debug/trace),
// per-decision introspection (/v1/decisions/{id}/explain) and the
// runtime snapshot (/debug/runtime). Wire shapes are documented in
// FORMATS.md §9 and pinned by the golden fixtures under testdata/.

import (
	"fmt"
	"math"
	"net/http"
	"runtime"
	"runtime/metrics"
	"strconv"

	"repro/internal/trace"
)

// TraceDump is the body of GET /debug/trace: the retained lifecycle
// events in oldest→newest order.
type TraceDump struct {
	Capacity int           `json:"capacity"`
	Events   []trace.Event `json:"events"`
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "tracing disabled (run with trace events > 0)"})
		return
	}
	writeJSON(w, http.StatusOK, TraceDump{
		Capacity: s.rec.Capacity(),
		Events:   s.rec.Events(make([]trace.Event, 0, s.rec.Len())),
	})
}

// Explain is the body of GET /v1/decisions/{id}/explain: why a request
// was served or rejected, reconstructed from its retained plan event.
type Explain struct {
	ID       int32 `json:"id"`
	Accepted bool  `json:"accepted"`
	// Reason is the outcome classification (core.RejectReason wire name):
	// served, no_candidates, decision_lower_bound, no_feasible_insertion
	// or post_check.
	Reason  string  `json:"reason"`
	SimTime float64 `json:"sim_time"`
	// Candidates is the grid-filtered candidate count; Feasible how many
	// survived the decision phase; Evaluated how many exact insertions
	// ran; Pruned how many Lemma 8 skipped; FeasibleInsertions how many
	// evaluations produced a feasible plan; DPCells the DP work.
	Candidates         int   `json:"candidates"`
	Feasible           int   `json:"feasible"`
	Evaluated          int   `json:"evaluated"`
	Pruned             int   `json:"pruned"`
	FeasibleInsertions int   `json:"feasible_insertions"`
	DPCells            int64 `json:"dp_cells"`
	// MinLowerBound is the smallest decision-phase LBΔ* (absent when no
	// candidate was feasible); Direct is dis(o_r, d_r).
	MinLowerBound float64 `json:"min_lower_bound,omitempty"`
	Direct        float64 `json:"direct"`
	// Worker is the chosen worker (-1 when rejected); PickupPos/DropPos
	// the insertion positions (pickup after stop I, drop-off after stop
	// J of the pre-insertion route); Delta the exact Δ*.
	Worker    int32   `json:"worker"`
	PickupPos int     `json:"pickup_pos,omitempty"`
	DropPos   int     `json:"drop_pos,omitempty"`
	Delta     float64 `json:"delta,omitempty"`
	// Penalty is p_r; MarginalCost is α·Δ* and MarginalGain the Eq. 2
	// marginal revenue of acceptance, p_r − α·Δ* (present when a plan
	// was found, i.e. served or post_check).
	Penalty      float64  `json:"penalty"`
	MarginalCost *float64 `json:"marginal_cost,omitempty"`
	MarginalGain *float64 `json:"marginal_gain,omitempty"`
	// TopCandidates is the retained scan-order prefix of the candidate
	// set with its decision-phase lower bounds.
	TopCandidates []trace.Cand `json:"top_candidates"`
	PlanNs        int64        `json:"plan_ns"`
}

func (s *Server) handleExplain(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil || id < 0 {
		writeJSON(w, http.StatusBadRequest, apiError{Error: "bad request id"})
		return
	}
	if s.rec == nil {
		writeJSON(w, http.StatusNotFound, apiError{Error: "tracing disabled (run with trace events > 0)"})
		return
	}
	ev, ok := s.rec.FindPlan(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, apiError{
			Error: fmt.Sprintf("no retained trace for request %d (never planned, or evicted from the ring)", id)})
		return
	}
	ex := Explain{
		ID:                 int32(ev.Req),
		Accepted:           ev.Worker >= 0,
		Reason:             ev.Reason,
		SimTime:            ev.Now,
		Candidates:         int(ev.Candidates),
		Feasible:           int(ev.Feasible),
		Evaluated:          int(ev.Evaluated),
		Pruned:             int(ev.Pruned),
		FeasibleInsertions: int(ev.FeasibleIns),
		DPCells:            ev.DPCells,
		MinLowerBound:      ev.MinLB,
		Direct:             ev.L,
		Worker:             int32(ev.Worker),
		PickupPos:          int(ev.PickupPos),
		DropPos:            int(ev.DropPos),
		Delta:              ev.Delta,
		Penalty:            ev.Penalty,
		TopCandidates:      ev.TopCands(),
		PlanNs:             ev.DurNs,
	}
	if ex.TopCandidates == nil {
		ex.TopCandidates = []trace.Cand{}
	}
	if ev.Reason == "served" || ev.Reason == "post_check" {
		cost := s.alpha * ev.Delta
		gain := ev.Penalty - cost
		ex.MarginalCost = &cost
		ex.MarginalGain = &gain
	}
	writeJSON(w, http.StatusOK, ex)
}

// RuntimeInfo is the body of GET /debug/runtime: a small, dependency-
// free snapshot of the Go runtime from runtime/metrics, complementing
// the -pprof listener for quick health checks.
type RuntimeInfo struct {
	GoVersion     string  `json:"go_version"`
	Goroutines    int64   `json:"goroutines"`
	HeapBytes     uint64  `json:"heap_bytes"`
	HeapGoalBytes uint64  `json:"heap_goal_bytes"`
	GCCycles      uint64  `json:"gc_cycles"`
	GCPauseP50Ms  float64 `json:"gc_pause_p50_ms"`
	GCPauseMaxMs  float64 `json:"gc_pause_max_ms"`
}

func (s *Server) handleRuntime(w http.ResponseWriter, _ *http.Request) {
	samples := []metrics.Sample{
		{Name: "/sched/goroutines:goroutines"},
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/gc/heap/goal:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/sched/pauses/total/gc:seconds"},
	}
	metrics.Read(samples)
	info := RuntimeInfo{GoVersion: runtime.Version()}
	if samples[0].Value.Kind() == metrics.KindUint64 {
		info.Goroutines = int64(samples[0].Value.Uint64())
	}
	if samples[1].Value.Kind() == metrics.KindUint64 {
		info.HeapBytes = samples[1].Value.Uint64()
	}
	if samples[2].Value.Kind() == metrics.KindUint64 {
		info.HeapGoalBytes = samples[2].Value.Uint64()
	}
	if samples[3].Value.Kind() == metrics.KindUint64 {
		info.GCCycles = samples[3].Value.Uint64()
	}
	if samples[4].Value.Kind() == metrics.KindFloat64Histogram {
		h := samples[4].Value.Float64Histogram()
		info.GCPauseP50Ms = histQuantile(h, 0.5) * 1e3
		info.GCPauseMaxMs = histMax(h) * 1e3
	}
	writeJSON(w, http.StatusOK, info)
}

// histQuantile approximates quantile q of a runtime/metrics histogram by
// the upper bound of the bucket the quantile falls in.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum > rank {
			// Buckets[i+1] is bucket i's upper bound; the last bucket's may
			// be +Inf, fall back to its lower bound then.
			ub := h.Buckets[i+1]
			if math.IsInf(ub, 1) {
				ub = h.Buckets[i]
			}
			return ub
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}

// histMax returns the upper bound of the highest nonempty bucket.
func histMax(h *metrics.Float64Histogram) float64 {
	for i := len(h.Counts) - 1; i >= 0; i-- {
		if h.Counts[i] == 0 {
			continue
		}
		ub := h.Buckets[i+1]
		if math.IsInf(ub, 1) {
			ub = h.Buckets[i]
		}
		return ub
	}
	return 0
}
