package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The smoke test runs from the repository root, like the benchmark itself
// (its WAL directories and result files are relative to it).
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	code := m.Run()
	os.RemoveAll(walRoot)
	os.Exit(code)
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// TestContract holds BENCHMARK.json to the driver's schema and to the
// catalogue it is generated from.
func TestContract(t *testing.T) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, contract()) {
		t.Errorf("BENCHMARK.json differs from the catalogue; regenerate with: go run ./bench -print-contract > BENCHMARK.json")
	}
	if len(data) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, over 64 KiB", len(data))
	}
	var c struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if n := len(c.Command); n == 0 || n > 32 {
		t.Errorf("command has %d strings", n)
	}
	if n := len(c.Paths); n < 1 || n > 16 {
		t.Errorf("%d paths", n)
	}
	for _, p := range c.Paths {
		if !pathRE.MatchString(p) {
			t.Errorf("path %q", p)
		}
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds %d", c.RunSeconds)
	}
	if n := len(c.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q is outside the contract's alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	better := func(n, b string) {
		if b != "lower" && b != "higher" {
			t.Errorf("%s: better %q", n, b)
		}
	}
	for _, w := range c.Workloads {
		name(w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(c.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	setup := false
	for _, m := range c.EndToEnd {
		name(m.Name)
		better(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
		if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s (unit s, better lower)")
	}
	if n := len(c.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	for _, m := range c.PerLayer {
		name(m.Name)
		better(m.Name, m.Better)
		if !unitRE.MatchString(m.Unit) {
			t.Errorf("%s: unit %q", m.Name, m.Unit)
		}
	}
}

// estimatedFrac are the fractions that are not counted shares: the two trace
// ones are differences of measurements and may dip below zero by noise, and
// the busy fractions charge a whole flush to the window it ends in, so at toy
// window lengths they can pass 1.
var estimatedFrac = map[string]bool{
	"trace.overhead_frac": true, "trace.unexplained_frac": true,
	"serve.flush_busy_frac": true, "serve.plan_busy_frac": true, "wal.sync_busy_frac": true,
}

// checkLine validates the driver's last-line object: exactly four keys,
// every catalogue metric present with its unit and a finite value.
func checkLine(t *testing.T, line string, defs []metricDef, nonZero bool) {
	t.Helper()
	var obj map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &obj); err != nil {
		t.Fatalf("result line: %v", err)
	}
	if len(obj) != 4 {
		t.Errorf("result line has %d keys, want correct, attempted, failed, metrics", len(obj))
	}
	var correct bool
	var attempted, failed int
	var metrics map[string]metricValue
	for key, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
		raw, ok := obj[key]
		if !ok {
			t.Fatalf("result line lacks %q", key)
		}
		if err := json.Unmarshal(raw, dst); err != nil {
			t.Fatalf("result line %s: %v", key, err)
		}
	}
	if attempted < 1 || failed != 0 {
		t.Errorf("attempted %d failed %d", attempted, failed)
	}
	if len(metrics) != len(defs) {
		t.Errorf("%d metrics in the line, %d in the catalogue", len(metrics), len(defs))
	}
	for _, d := range defs {
		mv, ok := metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s missing", d.Name)
		case mv.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, want %q", d.Name, mv.Unit, d.Unit)
		case math.IsNaN(mv.Value) || math.IsInf(mv.Value, 0):
			t.Errorf("metric %s is not finite", d.Name)
		case nonZero && mv.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, must be positive", d.Name, mv.Value)
		case d.Unit == "frac" && !estimatedFrac[d.Name] && (mv.Value < 0 || mv.Value > 1):
			t.Errorf("metric %s = %v is not a share", d.Name, mv.Value)
		case !estimatedFrac[d.Name] && mv.Value < 0:
			t.Errorf("metric %s = %v is negative", d.Name, mv.Value)
		}
	}
}

// TestSmoke runs every workload at toy size, untraced and traced. It asserts
// outputs, not speed: a loaded CI box may make a run invalid (generator lag),
// which is not a test failure.
func TestSmoke(t *testing.T) {
	for _, full := range workloads {
		p := toy(full)
		t.Run(p.Name, func(t *testing.T) {
			res, err := runWorkload(p, 1, 0.6, false)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range res.Violations {
				t.Errorf("output check: %s", v)
			}
			res.Valid = true
			checkLine(t, res.contractLine(), endToEnd, true)

			traced, err := runWorkload(p, 1, 1.2, true)
			if err != nil {
				t.Fatal(err)
			}
			for _, v := range traced.Violations {
				t.Errorf("traced output check: %s", v)
			}
			traced.Valid = true
			checkLine(t, traced.contractLine(), perLayer, false)
			if traced.tracer == nil || len(traced.tracer.spans) == 0 {
				t.Error("traced run recorded no spans")
			}
		})
	}
}

// TestPlanOfflineRepeatable: same seed, same decisions, to the last bit.
func TestPlanOfflineRepeatable(t *testing.T) {
	p, _ := workloadByName("plan-offline")
	p = toy(p)
	var ref *result
	for i := 0; i < 2; i++ {
		res, err := runWorkload(p, 7, 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = res
			continue
		}
		for _, m := range []string{"unified_cost", "served_rate"} {
			if math.Float64bits(res.Metrics[m].Value) != math.Float64bits(ref.Metrics[m].Value) {
				t.Errorf("%s differs between two runs of one seed: %v vs %v", m, res.Metrics[m].Value, ref.Metrics[m].Value)
			}
		}
		if res.Extra["decision_digest"] != ref.Extra["decision_digest"] {
			t.Errorf("decision digest differs: %v vs %v", res.Extra["decision_digest"], ref.Extra["decision_digest"])
		}
	}
}
