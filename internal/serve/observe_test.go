package serve

// Tests for the observability surface: the Prometheus exposition lint,
// the Stats→/metrics drift guard, golden fixtures for /debug/trace and
// /v1/decisions/{id}/explain, and the invariant the whole design hangs
// on — lockstep replay stays bit-identical with tracing enabled.

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/shortest"
	"repro/internal/trace"
)

func fetchMetrics(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body)
}

var (
	sampleRe = regexp.MustCompile(`^([a-zA-Z_][a-zA-Z0-9_]*)(\{[^}]*\})? (\S+)$`)
	labelRe  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"$`)
	nameRe   = regexp.MustCompile(`^urpsm_[a-z][a-z0-9_]*$`)
)

// TestMetricsExpositionLint parses /metrics as Prometheus text format:
// every series name matches urpsm_*, every sample belongs to a family
// that declared # HELP and # TYPE before it, every TYPE is valid, every
// value parses, and every declared family has at least one sample.
func TestMetricsExpositionLint(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, func(c *Config) { c.TraceEvents = 256 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, r := range sortedRequests(inst)[:10] {
		postRequest(t, ts.URL, r)
	}

	body := fetchMetrics(t, ts.URL)
	help := map[string]bool{}
	typ := map[string]string{}
	sampled := map[string]bool{}
	validTypes := map[string]bool{"counter": true, "gauge": true, "histogram": true, "summary": true}

	for i, line := range strings.Split(body, "\n") {
		lineNo := i + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				t.Errorf("line %d: comment is neither HELP nor TYPE: %q", lineNo, line)
				continue
			}
			name := fields[2]
			if !nameRe.MatchString(name) {
				t.Errorf("line %d: family %q does not match urpsm_*", lineNo, name)
			}
			if fields[1] == "HELP" {
				if len(fields) != 4 || strings.TrimSpace(fields[3]) == "" {
					t.Errorf("line %d: empty HELP text for %s", lineNo, name)
				}
				help[name] = true
			} else {
				if len(fields) != 4 || !validTypes[strings.TrimSpace(fields[3])] {
					t.Errorf("line %d: bad TYPE line %q", lineNo, line)
				}
				typ[name] = strings.TrimSpace(fields[3])
			}
			continue
		}
		m := sampleRe.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("line %d: unparseable sample: %q", lineNo, line)
			continue
		}
		name, labels, value := m[1], m[2], m[3]
		if _, err := strconv.ParseFloat(value, 64); err != nil {
			t.Errorf("line %d: bad value %q: %v", lineNo, value, err)
		}
		if labels != "" {
			for _, pair := range strings.Split(strings.Trim(labels, "{}"), ",") {
				if !labelRe.MatchString(pair) {
					t.Errorf("line %d: bad label %q", lineNo, pair)
				}
			}
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			base := strings.TrimSuffix(name, suffix)
			if base != name && typ[base] == "histogram" {
				family = base
				break
			}
		}
		if !nameRe.MatchString(name) {
			t.Errorf("line %d: series %q does not match urpsm_*", lineNo, name)
		}
		if !help[family] || typ[family] == "" {
			t.Errorf("line %d: series %s has no preceding HELP+TYPE for family %s", lineNo, name, family)
		}
		sampled[family] = true
	}
	for name := range typ {
		if !sampled[name] {
			t.Errorf("family %s declared but has no samples", name)
		}
	}
	if len(typ) < 20 {
		t.Fatalf("only %d families exposed — exposition looks truncated", len(typ))
	}
}

// statsSeries maps every serve.Stats field to the /metrics series that
// carries it (derived fields map to the series they are derived from;
// string fields surface as urpsm_build_info labels). A Stats field
// missing here fails TestStatsMetricsDriftGuard: additions must extend
// the metrics surface, not silently skip it.
var statsSeries = map[string]string{
	"Algorithm":            "urpsm_build_info",
	"Oracle":               "urpsm_build_info",
	"Workers":              "urpsm_workers",
	"SimTime":              "urpsm_sim_time_seconds",
	"Requests":             "urpsm_requests_total", // accepted + rejected
	"Accepted":             "urpsm_requests_total",
	"Rejected":             "urpsm_requests_total",
	"ServedRate":           "urpsm_requests_total", // accepted / (accepted+rejected)
	"TotalDistance":        "urpsm_total_distance_seconds",
	"PenaltySum":           "urpsm_penalty_sum",
	"UnifiedCost":          "urpsm_unified_cost",
	"Completions":          "urpsm_completions_total",
	"LateArrivals":         "urpsm_late_arrivals_total",
	"Batches":              "urpsm_batches_total",
	"MaxBatch":             "urpsm_batch_size_max",
	"LateAdmissions":       "urpsm_late_admissions_total",
	"Pending":              "urpsm_pending_requests",
	"Submitted":            "urpsm_submitted_total",
	"Shed":                 "urpsm_shed_total",
	"QueueLimit":           "urpsm_queue_limit",
	"DegradeState":         "urpsm_degrade_state",
	"DegradeTransitions":   "urpsm_degrade_transitions_total",
	"DistQueries":          "urpsm_dist_queries_total",
	"TablePrefetches":      "urpsm_table_prefetches_total",
	"TableHits":            "urpsm_table_hits_total",
	"TableMisses":          "urpsm_table_misses_total",
	"TrafficEpoch":         "urpsm_traffic_epoch",
	"TrafficUpdates":       "urpsm_traffic_updates_total",
	"InfeasibleStops":      "urpsm_infeasible_stops_total",
	"OracleRebuilds":       "urpsm_oracle_rebuilds_total",
	"OracleCustomizations": "urpsm_oracle_customizations_total",
	"LastRebuildMs":        "urpsm_oracle_rebuild_seconds",
	"WALEnabled":           "urpsm_wal_enabled",
	"WALRecords":           "urpsm_wal_records_total",
	"WALBytes":             "urpsm_wal_bytes_total",
	"WALSyncs":             "urpsm_wal_syncs_total",
	"WALCheckpoints":       "urpsm_wal_checkpoints_total",
	"WALRecovered":         "urpsm_wal_recovered_records",
	"WALTornBytes":         "urpsm_wal_torn_bytes",
	"WALSizeBytes":         "urpsm_wal_size_bytes",
	"LatencyMs":            "urpsm_request_latency_milliseconds",
	"TraceEvents":          "urpsm_trace_events",
}

// TestStatsMetricsDriftGuard asserts every Stats field has a /metrics
// series, so the JSON stats surface and the Prometheus surface cannot
// drift apart.
func TestStatsMetricsDriftGuard(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	body := fetchMetrics(t, ts.URL)

	st := reflect.TypeOf(Stats{})
	for i := 0; i < st.NumField(); i++ {
		field := st.Field(i)
		series, ok := statsSeries[field.Name]
		if !ok {
			t.Errorf("Stats.%s has no entry in statsSeries: add a /metrics series for it (api.go handleMetrics) and extend the map", field.Name)
			continue
		}
		if !strings.Contains(body, series+" ") && !strings.Contains(body, series+"{") {
			t.Errorf("Stats.%s maps to %s, but /metrics has no such series", field.Name, series)
		}
	}
	for name := range statsSeries {
		if _, ok := st.FieldByName(name); !ok {
			t.Errorf("statsSeries maps removed field %q — prune it", name)
		}
	}
}

// goldenTraceServer builds a tracing server with a deterministic wall
// clock and a canonical event sequence covering every event kind, so the
// /debug/trace and explain bodies are byte-stable.
func goldenTraceServer(t *testing.T) *httptest.Server {
	t.Helper()
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, func(c *Config) { c.TraceEvents = 32 })
	rec := s.TraceRecorder()
	var tick int64
	rec.SetNow(func() int64 { tick += 250_000; return 1735689600_000_000_000 + tick })
	rec.Record(trace.Event{Kind: trace.KindAdmit, Now: 1200, Req: 7, Worker: -1})
	rec.Record(trace.Event{Kind: trace.KindPlanStart, Now: 1200, Req: 7, Worker: -1})
	rec.Record(trace.Event{
		Kind: trace.KindPlan, Now: 1200, Req: 7, DurNs: 48_500,
		Candidates: 5, Feasible: 3, Evaluated: 2, Pruned: 1, FeasibleIns: 1,
		DPCells: 14, MinLB: 96.5, L: 182.5, Penalty: 320.5, Delta: 182.5,
		Worker: 3, PickupPos: 1, DropPos: 2, Reason: "served",
		NTop: 2, Top: [trace.TopK]trace.Cand{{Worker: 3, LB: 96.5}, {Worker: 1, LB: 140.25}},
	})
	rec.Record(trace.Event{Kind: trace.KindWALSync, Now: 1200, Req: -1, Worker: -1, N: 2, DurNs: 1_250_000})
	rec.Record(trace.Event{Kind: trace.KindAck, Now: 1200, Req: 7, Worker: -1, DurNs: 3_250_000})
	rec.Record(trace.Event{Kind: trace.KindFlush, Now: 1200, Req: -1, Worker: -1, N: 2, DurNs: 2_000_000})
	rec.Record(trace.Event{Kind: trace.KindTrafficEpoch, Now: 1500, Req: -1, Worker: -1, Epoch: 1, N: 311})
	rec.Record(trace.Event{Kind: trace.KindOracle, Now: 1500, Req: -1, Worker: -1, Epoch: 1, N: 1, DurNs: 184_750_000})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func checkGoldenBody(t *testing.T, url, name string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%s: %v (regenerate with -update)", name, err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: wire format drifted from golden fixture (regenerate with -update if deliberate)\ngot:\n%s\nwant:\n%s",
			name, got, want)
	}
}

// TestGoldenTraceFormats pins the /debug/trace and explain wire bodies.
func TestGoldenTraceFormats(t *testing.T) {
	ts := goldenTraceServer(t)
	checkGoldenBody(t, ts.URL+"/debug/trace", "trace.json")
	checkGoldenBody(t, ts.URL+"/v1/decisions/7/explain", "explain.json")
}

// TestTraceEndpointErrors covers the disabled and not-found paths.
func TestTraceEndpointErrors(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil) // tracing off by default
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, path := range []string{"/debug/trace", "/v1/decisions/3/explain"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with tracing off: status %d, want 404", path, resp.StatusCode)
		}
	}

	traced := goldenTraceServer(t)
	resp, err := http.Get(traced.URL + "/v1/decisions/9999/explain")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("explain for untraced request: status %d, want 404", resp.StatusCode)
	}
}

// TestDebugRuntime sanity-checks the runtime snapshot endpoint.
func TestDebugRuntime(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	var info RuntimeInfo
	getJSON(t, ts.URL+"/debug/runtime", &info)
	if info.GoVersion == "" || info.Goroutines <= 0 || info.HeapBytes == 0 {
		t.Fatalf("implausible runtime info: %+v", info)
	}
}

// TestLockstepTracingEquivalence is the acceptance criterion: streaming
// the workload with the flight recorder attached must produce decisions
// bit-identical to the untraced offline reference, and the recorder must
// have captured every request's lifecycle.
func TestLockstepTracingEquivalence(t *testing.T) {
	// The subtest keeps its name from when the server could plan on a
	// worker pool (DESIGN.md §7); the serial planner is the only one left.
	t.Run("pool1", func(t *testing.T) {
		g, inst := testInstance(t)
		want, _, err := OfflineDecisions(g, inst, shortest.BuildHubLabels(g), "hub", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, g, inst, func(c *Config) { c.TraceEvents = 4096 })
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		got := make(map[int32]Decision)
		for _, r := range sortedRequests(inst) {
			d := postRequest(t, ts.URL, r)
			got[d.ID] = d
		}
		checkEquivalence(t, got, want)

		var dump TraceDump
		getJSON(t, ts.URL+"/debug/trace", &dump)
		plans := 0
		for _, ev := range dump.Events {
			if ev.Kind == trace.KindPlan {
				plans++
			}
		}
		if plans != len(inst.Requests) {
			t.Fatalf("recorded %d plan events for %d requests", plans, len(inst.Requests))
		}

		// The explain body must agree with the decision the client got.
		r0 := sortedRequests(inst)[0]
		var ex Explain
		getJSON(t, fmt.Sprintf("%s/v1/decisions/%d/explain", ts.URL, r0.ID), &ex)
		d := got[int32(r0.ID)]
		if ex.ID != d.ID || ex.Accepted != d.Accepted || int32(ex.Worker) != d.Worker || ex.Delta != d.Delta {
			t.Fatalf("explain (accepted=%v worker=%d delta=%v) disagrees with decision (accepted=%v worker=%d delta=%v)",
				ex.Accepted, ex.Worker, ex.Delta, d.Accepted, d.Worker, d.Delta)
		}
		if ex.Evaluated+ex.Pruned != ex.Feasible {
			t.Fatalf("evaluated %d + pruned %d != feasible %d", ex.Evaluated, ex.Pruned, ex.Feasible)
		}
		if d.Accepted && (ex.Reason != "served" || ex.MarginalCost == nil || ex.MarginalGain == nil) {
			t.Fatalf("accepted request explain lacks marginal economics: %+v", ex)
		}
	})
}
