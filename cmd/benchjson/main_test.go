package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkInsertionScaling/linearDP/n=8         	     100	       320.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkPruningAblation/pruneGreedyDP         	     100	   5285027 ns/op	      2450 dist-queries	16602560 B/op	   21673 allocs/op
BenchmarkCCHCustomize/city                     	     100	     25225 ns/op	         1.060 skeleton-MB	   46433 B/op	    1059 allocs/op
PASS
ok  	repro	6.035s
`

func TestParseRun(t *testing.T) {
	r, err := parseRun(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(r.Benchmarks))
	}
	if r.CPU != "Intel(R) Xeon(R) Processor @ 2.10GHz" {
		t.Errorf("cpu = %q", r.CPU)
	}
	b := r.Benchmarks[1]
	if b.Name != "BenchmarkPruningAblation/pruneGreedyDP" || b.Iterations != 100 {
		t.Fatalf("unexpected benchmark %+v", b)
	}
	for unit, want := range map[string]float64{
		"ns/op": 5285027, "dist-queries": 2450, "B/op": 16602560, "allocs/op": 21673,
	} {
		if got := b.Metrics[unit]; got != want {
			t.Errorf("metric %s = %v, want %v", unit, got, want)
		}
	}
	if got := r.Benchmarks[2].Metrics["skeleton-MB"]; got != 1.060 {
		t.Errorf("custom metric = %v, want 1.060", got)
	}
	if got := r.Benchmarks[0].Metrics["ns/op"]; got != 320.7 {
		t.Errorf("fractional ns/op = %v, want 320.7", got)
	}
}

func TestParseBenchLineRejectsGarbage(t *testing.T) {
	for _, line := range []string{
		"BenchmarkX", "BenchmarkX notanint 12 ns/op", "Benchmark 1",
		"BenchmarkX 10 nounit", "BenchmarkX 10 abc ns/op",
	} {
		if b, ok := parseBenchLine(line); ok {
			t.Errorf("line %q parsed as %+v, want rejection", line, b)
		}
	}
}

func TestTrajectoryAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	for _, label := range []string{"before", "after"} {
		if err := run(strings.NewReader(sampleOutput), label, path, "100x", "abc1234"); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr Trajectory
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatal(err)
	}
	if tr.Schema != trajectorySchema {
		t.Errorf("schema = %q", tr.Schema)
	}
	if len(tr.Runs) != 2 || tr.Runs[0].Label != "before" || tr.Runs[1].Label != "after" {
		t.Fatalf("runs = %+v", tr.Runs)
	}
	if tr.Runs[0].Commit != "abc1234" || tr.Runs[0].Benchtime != "100x" {
		t.Errorf("run metadata = %+v", tr.Runs[0])
	}
}

func TestTrajectoryRejectsForeignJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := os.WriteFile(path, []byte(`{"schema":"something-else","runs":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(strings.NewReader(sampleOutput), "x", path, "", "c"); err == nil {
		t.Fatal("appending to a foreign-schema file must fail")
	}
}

func TestRunRequiresBenchLines(t *testing.T) {
	if err := run(strings.NewReader("PASS\nok repro 1s\n"), "x", "", "", "c"); err == nil {
		t.Fatal("empty bench output must fail")
	}
}

// TestGateDriftIgnoresLocalOutliers: a patch that makes two benchmarks
// 200x faster must not read as machine drift and fail the untouched ones,
// and a real local regression must still trip the threshold.
func TestGateDriftIgnoresLocalOutliers(t *testing.T) {
	benchOut := func(ns map[int]float64) string {
		var b strings.Builder
		b.WriteString("cpu: test\n")
		for i := 0; i < 8; i++ {
			v, ok := ns[i]
			if !ok {
				v = 1000
			}
			fmt.Fprintf(&b, "BenchmarkG/r%d \t 100\t %v ns/op\n", i, v)
		}
		return b.String()
	}
	base := filepath.Join(t.TempDir(), "base.json")
	if err := run(strings.NewReader(benchOut(nil)), "base", base, "100x", "c"); err != nil {
		t.Fatal(err)
	}
	if err := runGate(strings.NewReader(benchOut(map[int]float64{0: 5, 1: 5})), base, 1.25); err != nil {
		t.Fatalf("two large local speedups failed the gate: %v", err)
	}
	if err := runGate(strings.NewReader(benchOut(map[int]float64{0: 5, 1: 5, 2: 2000})), base, 1.25); err == nil {
		t.Fatal("a 2x local regression passed the gate")
	}
}
