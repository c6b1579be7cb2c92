package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/expt"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

// TestImportEndToEnd drives the full acceptance path: the checked-in DIMACS
// fixture plus a sample trip CSV are converted into network and workload
// files, loaded back, and simulated to completion with the scale-aware
// oracle, which must resolve to the documented tier for a graph this size.
func TestImportEndToEnd(t *testing.T) {
	dir := t.TempDir()
	netOut := filepath.Join(dir, "city.net")
	loadOut := filepath.Join(dir, "city.load")

	err := run(
		filepath.Join("testdata", "sample.gr"),
		filepath.Join("testdata", "sample.co"),
		netOut,
		0, "", "arterial", 0, false,
		filepath.Join("testdata", "trips.csv"),
		loadOut,
		4,   // workers
		10,  // deadline minutes
		10,  // penalty factor
		500, // max match meters
		0,   // max trips
		1,   // seed
	)
	if err != nil {
		t.Fatalf("run: %v", err)
	}

	nf, err := os.Open(netOut)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	g, err := roadnet.Read(nf)
	if err != nil {
		t.Fatalf("read network: %v", err)
	}
	if g.NumVertices() != 16 || g.NumEdges() != 24 {
		t.Fatalf("imported graph |V|=%d |E|=%d, want 16/24", g.NumVertices(), g.NumEdges())
	}

	lf, err := os.Open(loadOut)
	if err != nil {
		t.Fatal(err)
	}
	defer lf.Close()
	inst, err := workload.ReadStream(lf, g)
	if err != nil {
		t.Fatalf("read workload: %v", err)
	}
	if len(inst.Requests) != 10 || len(inst.Workers) != 4 {
		t.Fatalf("workload %d requests / %d workers, want 10/4", len(inst.Requests), len(inst.Workers))
	}

	// The documented thresholds send a 16-vertex graph to the hub tier.
	if kind := shortest.Choose(g.NumVertices()); kind != shortest.AutoHub {
		t.Fatalf("auto tier = %q, want %q", kind, shortest.AutoHub)
	}

	runner := expt.NewRunnerOn(g, workload.Params{Name: "import-test"}, 1)
	runner.OracleKind = "auto"
	desc, err := runner.OracleDescription()
	if err != nil {
		t.Fatal(err)
	}
	if want := "auto→hub"; len(desc) < len(want) || desc[:len(want)] != want {
		t.Fatalf("oracle description %q, want %q prefix", desc, want)
	}
	m, err := runner.RunInstance(inst, "pruneGreedyDP")
	if err != nil {
		t.Fatalf("RunInstance: %v", err)
	}
	if m.Requests != len(inst.Requests) {
		t.Fatalf("simulated %d requests, want %d", m.Requests, len(inst.Requests))
	}
	if m.Served <= 0 {
		t.Fatalf("no requests served: %+v", m)
	}
	// The run must not mutate the caller's instance: a second run over the
	// same instance starts from the same fleet placement and reproduces
	// the metrics exactly (urpsm-sim -algo all relies on this).
	m2, err := runner.RunInstance(inst, "pruneGreedyDP")
	if err != nil {
		t.Fatalf("RunInstance (second): %v", err)
	}
	if m2.Served != m.Served || m2.UnifiedCost != m.UnifiedCost {
		t.Fatalf("second run diverged: served %d/%d, unified cost %v/%v",
			m2.Served, m.Served, m2.UnifiedCost, m.UnifiedCost)
	}
	for _, w := range inst.Workers {
		if len(w.Route.Stops) != 0 || w.Traveled != 0 {
			t.Fatalf("caller's worker %d mutated by RunInstance: %+v", w.ID, w)
		}
	}
}

// TestImportSubsetFlags exercises -max-nodes and -box through run.
func TestImportSubsetFlags(t *testing.T) {
	dir := t.TempDir()
	netOut := filepath.Join(dir, "sub.net")
	if err := run(
		filepath.Join("testdata", "sample.gr"),
		filepath.Join("testdata", "sample.co"),
		netOut,
		8, "", "residential", 0, false,
		"", "", 0, 10, 10, 500, 0, 1,
	); err != nil {
		t.Fatalf("run: %v", err)
	}
	nf, err := os.Open(netOut)
	if err != nil {
		t.Fatal(err)
	}
	defer nf.Close()
	g, err := roadnet.Read(nf)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 8 || g.NumEdges() != 10 {
		t.Fatalf("subset |V|=%d |E|=%d, want 8/10", g.NumVertices(), g.NumEdges())
	}
}

func TestImportFlagValidation(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"missing inputs", func() error {
			return run("", "", "x.net", 0, "", "arterial", 0, false, "", "", 0, 10, 10, 500, 0, 1)
		}},
		{"missing net", func() error {
			return run("a.gr", "a.co", "", 0, "", "arterial", 0, false, "", "", 0, 10, 10, 500, 0, 1)
		}},
		{"trips without load", func() error {
			return run("testdata/sample.gr", "testdata/sample.co", "x.net",
				0, "", "arterial", 0, false, "t.csv", "", 0, 10, 10, 500, 0, 1)
		}},
		{"bad class", func() error {
			return run("testdata/sample.gr", "testdata/sample.co", "x.net",
				0, "", "autobahn", 0, false, "", "", 0, 10, 10, 500, 0, 1)
		}},
		{"bad box", func() error {
			return run("testdata/sample.gr", "testdata/sample.co", "x.net",
				0, "1,2,3", "arterial", 0, false, "", "", 0, 10, 10, 500, 0, 1)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.fn() == nil {
				t.Fatal("want error, got nil")
			}
		})
	}
}
