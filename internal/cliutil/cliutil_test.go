package cliutil

import (
	"math"
	"strings"
	"testing"

	"repro/internal/roadnet"
)

func TestCheckOracle(t *testing.T) {
	for _, ok := range append([]string{""}, OracleKinds...) {
		if err := CheckOracle(ok); err != nil {
			t.Errorf("CheckOracle(%q): unexpected error %v", ok, err)
		}
	}
	for _, bad := range []string{"dijkstra", "HUB", "hub ", "auto,ch", "ch", "none", "contraction"} {
		err := CheckOracle(bad)
		if err == nil {
			t.Errorf("CheckOracle(%q): expected error", bad)
			continue
		}
		if !strings.Contains(err.Error(), "hub|cch|bidijkstra|auto") {
			t.Errorf("CheckOracle(%q): error %q does not list the valid kinds", bad, err)
		}
	}
}

func TestBuildOracleResolvesAndAgrees(t *testing.T) {
	cfg := roadnet.DefaultGenConfig()
	cfg.Rows, cfg.Cols = 8, 8
	g, err := roadnet.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A graph this small resolves auto (and the empty default) to hub.
	for _, kind := range []string{"", "auto"} {
		_, resolved, err := BuildOracle(kind, g)
		if err != nil {
			t.Fatalf("BuildOracle(%q): %v", kind, err)
		}
		if resolved != "hub" {
			t.Fatalf("BuildOracle(%q) resolved to %q, want hub", kind, resolved)
		}
	}
	// Every explicit tier builds and agrees on a sample query.
	var dists []float64
	for _, kind := range []string{"hub", "cch", "bidijkstra"} {
		o, resolved, err := BuildOracle(kind, g)
		if err != nil {
			t.Fatalf("BuildOracle(%q): %v", kind, err)
		}
		if resolved != kind {
			t.Fatalf("BuildOracle(%q) resolved to %q", kind, resolved)
		}
		dists = append(dists, o.Dist(0, roadnet.VertexID(g.NumVertices()-1)))
	}
	for _, d := range dists[1:] {
		// Tiers may differ in summation order, so allow float noise.
		if math.Abs(d-dists[0]) > 1e-9*(1+math.Abs(dists[0])) {
			t.Fatalf("oracle tiers disagree: %v", dists)
		}
	}
	if _, _, err := BuildOracle("bogus", g); err == nil {
		t.Fatal("BuildOracle(bogus): expected error")
	}
}
