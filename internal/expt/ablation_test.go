package expt

import (
	"math"
	"testing"
)

// TestAblationOperatorsSameQuality: the greedy planner reaches the same
// solution *quality* no matter which of the three insertion operators it
// plans with — each finds a minimal-Δ insertion; only running time
// differs (§4). Outcomes are compared within a small band rather than
// exactly: the operators compute Δ with different floating-point
// expression trees (walk vs detour algebra), and sub-nanosecond ties
// between equally good candidates can break differently, after which the
// greedy streams diverge chaotically while staying statistically
// identical in quality.
func TestAblationOperatorsSameQuality(t *testing.T) {
	r := tinyRunner(t)
	base, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"pruneGreedyBasic", "pruneGreedyNaive"} {
		m, err := r.RunOne(r.Base, algo)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		if d := m.Served - base.Served; d < -base.Served/20 || d > base.Served/20 {
			t.Fatalf("%s served %d far from linear DP's %d", algo, m.Served, base.Served)
		}
		if math.Abs(m.UnifiedCost-base.UnifiedCost) > 0.05*(1+base.UnifiedCost) {
			t.Fatalf("%s unified cost %v far from linear DP's %v", algo, m.UnifiedCost, base.UnifiedCost)
		}
	}
}

// TestAblationImprove: the local-search extension runs end to end with
// movement and completes every promised drop-off on time (FastForward
// inside RunOne asserts that), at a unified cost in the same regime.
func TestAblationImprove(t *testing.T) {
	r := tinyRunner(t)
	base, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	imp, err := r.RunOne(r.Base, "pruneGreedyDP+improve")
	if err != nil {
		t.Fatal(err)
	}
	if imp.LateArrivals != 0 {
		t.Fatalf("improvement broke deadlines: %d late", imp.LateArrivals)
	}
	if imp.UnifiedCost > base.UnifiedCost*1.2 {
		t.Fatalf("improve cost %v far above base %v", imp.UnifiedCost, base.UnifiedCost)
	}
}

// TestAblationPaperStrictDecision: disabling the post-planning rejection
// reproduces strictly-paper Algorithm 5; it can only serve more (never
// fewer) requests, at equal or higher unified cost.
func TestAblationPaperStrictDecision(t *testing.T) {
	r := tinyRunner(t)
	base, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := r.RunOne(r.Base, "pruneGreedyDP-paper")
	if err != nil {
		t.Fatal(err)
	}
	if paper.Served < base.Served {
		t.Fatalf("paper-strict served %d < postcheck %d", paper.Served, base.Served)
	}
	if paper.UnifiedCost < base.UnifiedCost-1e-6*(1+base.UnifiedCost) {
		t.Fatalf("postcheck should never lose: %v vs %v", base.UnifiedCost, paper.UnifiedCost)
	}
}

// TestOracleAblationEquivalentOutcomes: hub labels, customizable
// contraction hierarchies and plain bidirectional Dijkstra are all exact
// oracles, so outcomes must land in the same quality band (exact agreement
// is not guaranteed: the three sum edge weights in different orders, and 1-ulp
// differences can flip near-ties between equally good workers, after
// which the greedy streams diverge without any quality change).
func TestOracleAblationEquivalentOutcomes(t *testing.T) {
	r := tinyRunner(t)
	results := map[string]float64{}
	servedBy := map[string]int{}
	for _, kind := range []string{"hub", "cch", "bidijkstra"} {
		r.OracleKind = kind
		m, err := r.RunOne(r.Base, "pruneGreedyDP")
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		results[kind] = m.UnifiedCost
		servedBy[kind] = m.Served
		if m.LateArrivals != 0 {
			t.Fatalf("%s oracle produced %d late arrivals", kind, m.LateArrivals)
		}
	}
	r.OracleKind = ""
	for kind, served := range servedBy {
		if d := served - servedBy["hub"]; d < -servedBy["hub"]/20 || d > servedBy["hub"]/20 {
			t.Fatalf("oracle %s served %d far from hub's %d", kind, served, servedBy["hub"])
		}
	}
	for kind, uc := range results {
		if math.Abs(uc-results["hub"]) > 0.05*(1+results["hub"]) {
			t.Fatalf("oracle %s unified cost %v far from hub's %v", kind, uc, results["hub"])
		}
	}
}

func TestUnknownOracleRejected(t *testing.T) {
	r := tinyRunner(t)
	r.OracleKind = "psychic"
	if _, err := r.RunOne(r.Base, "pruneGreedyDP"); err == nil {
		t.Fatal("unknown oracle accepted")
	}
	r.OracleKind = ""
}
