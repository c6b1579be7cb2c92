package expt

import (
	"testing"

	"repro/internal/roadnet"
)

// trafficProfileFor returns a trace whose events fall inside the preset's
// one-hour release window.
func trafficProfileFor() *roadnet.TrafficProfile {
	return &roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
		{At: 600, Updates: []roadnet.TrafficUpdate{{Factor: 1.8}}},
		{At: 1800, Updates: []roadnet.TrafficUpdate{{Factor: 2.5, Class: "motorway"}, {Factor: 1.3}}},
		{At: 2700, Updates: []roadnet.TrafficUpdate{{Factor: 1}}},
	}}
}

// TestRunnerTrafficDeterministicAndEffective runs the same congestion
// trace twice (identical metrics) and against a no-traffic twin (different
// metrics) — the expt-level contract behind urpsm-sim -traffic.
func TestRunnerTrafficDeterministicAndEffective(t *testing.T) {
	r := tinyRunner(t)
	base, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}

	r.Traffic = trafficProfileFor()
	m1, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Served != m2.Served || m1.TotalDistance != m2.TotalDistance || m1.UnifiedCost != m2.UnifiedCost {
		t.Fatalf("traffic runs not deterministic:\n%+v\n%+v", m1, m2)
	}
	if m1.Served == base.Served && m1.TotalDistance == base.TotalDistance {
		t.Fatalf("congestion trace had no effect (served=%d dist=%v)", m1.Served, m1.TotalDistance)
	}

	// An empty profile is the static case: bit-identical to no profile at
	// all, including the query count.
	r.Traffic = &roadnet.TrafficProfile{}
	m3, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	if m3.Served != base.Served || m3.TotalDistance != base.TotalDistance ||
		m3.UnifiedCost != base.UnifiedCost || m3.DistQueries != base.DistQueries {
		t.Fatalf("empty profile diverged from no profile:\n%+v\n%+v", m3, base)
	}
}

// TestRunnerTrafficRetiersAutoOracle pins the auto/traffic interaction:
// with OracleKind "auto" the resolved tier is adopted at epoch 0 and the
// front rebuilds that tier on every epoch advance without serving stale
// weights (the run would otherwise produce infeasible-looking metrics or
// diverge between repeats).
func TestRunnerTrafficRetiersAutoOracle(t *testing.T) {
	r := tinyRunner(t)
	r.OracleKind = "auto"
	r.Traffic = trafficProfileFor()
	m1, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	m2, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Served != m2.Served || m1.TotalDistance != m2.TotalDistance {
		t.Fatalf("auto-oracle traffic runs diverged:\n%+v\n%+v", m1, m2)
	}

	// And the tier choice is irrelevant to the outcome: bidijkstra (no
	// preprocessing, trivially epoch-correct) must agree with the
	// preprocessed tiers under the same trace.
	r.OracleKind = "bidijkstra"
	m3, err := r.RunOne(r.Base, "pruneGreedyDP")
	if err != nil {
		t.Fatal(err)
	}
	if m1.Served != m3.Served || m1.TotalDistance != m3.TotalDistance || m1.UnifiedCost != m3.UnifiedCost {
		t.Fatalf("oracle tiers disagree under traffic:\nauto:       %+v\nbidijkstra: %+v", m1, m3)
	}
}
