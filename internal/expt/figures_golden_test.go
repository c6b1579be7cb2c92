package expt

// Golden-file tests for the figure/table formatters: fixed inputs rendered
// and compared byte-for-byte against testdata/*.golden. Regenerate with
//
//	go test ./internal/expt -run Golden -update
//
// and review the diff like any other code change.

import (
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite golden files")

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// goldenSeries is a fixed two-point, two-algorithm Fig. 5 series touching
// every panel (including the grid-memory extra panel) and both the
// integer and fractional float formats.
func goldenSeries() Series {
	return Series{
		Figure: "fig5", Dataset: "Chengdu", ParamName: "g(km)",
		Points: []Point{
			{Param: 1, Metrics: map[string]sim.Metrics{
				"pruneGreedyDP": {UnifiedCost: 15000, ServedRate: 0.825, AvgResponseMs: 0.125,
					DistQueries: 1200, GridMemoryBytes: 4096, TotalDistance: 9000},
				"tshare": {UnifiedCost: 21000, ServedRate: 0.675, AvgResponseMs: 1.5,
					DistQueries: 9800, GridMemoryBytes: 1 << 20, TotalDistance: 11000},
			}},
			{Param: 2, Metrics: map[string]sim.Metrics{
				"pruneGreedyDP": {UnifiedCost: 14750.5, ServedRate: 0.85, AvgResponseMs: 0.1,
					DistQueries: 1100, GridMemoryBytes: 2048, TotalDistance: 8750},
				"tshare": {UnifiedCost: 20500, ServedRate: 0.7, AvgResponseMs: 1.25,
					DistQueries: 9000, GridMemoryBytes: 1 << 19, TotalDistance: 10500},
			}},
		},
	}
}

func TestGoldenFormatSeries(t *testing.T) {
	checkGolden(t, "fig5_series.golden", FormatSeries(goldenSeries()))
}

func TestGoldenFormatSeriesCSV(t *testing.T) {
	checkGolden(t, "fig5_series_csv.golden", FormatSeriesCSV(goldenSeries()))
}

func TestGoldenFormatTable4(t *testing.T) {
	rows := []DatasetStats{
		{Name: "Chengdu", Requests: 259423, Vertices: 214440, Edges: 466330},
		{Name: "NYC", Requests: 411955, Vertices: 807211, Edges: 1583240},
	}
	checkGolden(t, "table4.golden", FormatTable4(rows))
}

func TestGoldenFormatHardness(t *testing.T) {
	pts := []HardnessPoint{
		{Variant: workload.AdvServedCount, NVertices: 4, Trials: 200, OnlineServed: 55, RatioLB: 3.571},
		{Variant: workload.AdvServedCount, NVertices: 32, Trials: 200, OnlineServed: 6, RatioLB: 28.571},
		{Variant: workload.AdvServedCount, NVertices: 128, Trials: 200, OnlineServed: 0, RatioLB: math.Inf(1)},
	}
	checkGolden(t, "hardness.golden", FormatHardness(pts))
}

func TestGoldenFormatInsertionScaling(t *testing.T) {
	pts := []InsertionScalingPoint{
		{N: 8, BasicNs: 4250, NaiveNs: 980, LinearNs: 310},
		{N: 64, BasicNs: 1.85e6, NaiveNs: 52000, LinearNs: 2400},
		{N: 256, BasicNs: 1.1e8, NaiveNs: 830000, LinearNs: 9600},
	}
	checkGolden(t, "insertion_scaling.golden", FormatInsertionScaling(pts))
}
