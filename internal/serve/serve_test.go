package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/wal"
	"repro/internal/workload"
)

// testInstance builds a small Chengdu-like instance on a generated
// network: ~150 requests, 6 workers, ~120 vertices.
func testInstance(t *testing.T) (*roadnet.Graph, *workload.Instance) {
	t.Helper()
	p := workload.ChengduLike(0.01)
	g, err := roadnet.Generate(p.Net)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.BuildOn(p, g, shortest.NewBiDijkstra(g).Dist)
	if err != nil {
		t.Fatal(err)
	}
	return g, inst
}

// sortedRequests returns the instance's requests in the engine's
// processing order: stable by release.
func sortedRequests(inst *workload.Instance) []*core.Request {
	reqs := append([]*core.Request(nil), inst.Requests...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Release < reqs[j].Release })
	return reqs
}

func newTestServer(t *testing.T, g *roadnet.Graph, inst *workload.Instance, mut func(*Config)) *Server {
	t.Helper()
	cfg := Config{
		Graph:      g,
		Workers:    inst.Workers,
		Oracle:     shortest.BuildHubLabels(g),
		OracleKind: "hub",
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	})
	return s
}

// postRequest sends one request over HTTP and decodes the decision.
func postRequest(t *testing.T, url string, r *core.Request) Decision {
	t.Helper()
	id := int32(r.ID)
	rel := r.Release
	body, _ := json.Marshal(Request{
		ID: &id, Origin: int64(r.Origin), Dest: int64(r.Dest),
		Release: &rel, Deadline: r.Deadline, Penalty: r.Penalty, Capacity: r.Capacity,
	})
	resp, err := http.Post(url+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/requests: status %d", resp.StatusCode)
	}
	var d Decision
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatal(err)
	}
	return d
}

// checkEquivalence compares served decisions against the offline
// reference: accept/reject, worker assignment and Δ* must be
// bit-identical.
func checkEquivalence(t *testing.T, got map[int32]Decision, want map[int32]Decision) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("decision count %d != offline %d", len(got), len(want))
	}
	mismatches := 0
	for id, w := range want {
		g, ok := got[id]
		if !ok {
			t.Fatalf("request %d has no server decision", id)
		}
		if g.Accepted != w.Accepted || g.Worker != w.Worker || g.Delta != w.Delta {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("request %d: server (accepted=%v worker=%d delta=%v) != offline (accepted=%v worker=%d delta=%v)",
					id, g.Accepted, g.Worker, g.Delta, w.Accepted, w.Worker, w.Delta)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d decisions differ from offline engine", mismatches, len(want))
	}
}

// TestLockstepEquivalence is the in-process version of urpsm-replay
// -lockstep: requests streamed in release order over HTTP must produce
// decisions bit-identical to an offline sim.Engine run.
func TestLockstepEquivalence(t *testing.T) {
	// The subtest keeps its name from when the server could plan on a
	// worker pool (DESIGN.md §7); the serial planner is the only one left.
	t.Run("pool1", func(t *testing.T) {
		g, inst := testInstance(t)
		want, _, err := OfflineDecisions(g, inst, shortest.BuildHubLabels(g), "hub", 1, nil)
		if err != nil {
			t.Fatal(err)
		}
		s := newTestServer(t, g, inst, nil)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()

		got := make(map[int32]Decision)
		for _, r := range sortedRequests(inst) {
			d := postRequest(t, ts.URL, r)
			got[d.ID] = d
		}
		checkEquivalence(t, got, want)

		st := s.Stats()
		if st.Requests != len(inst.Requests) {
			t.Fatalf("stats requests %d != %d", st.Requests, len(inst.Requests))
		}
		if st.LateAdmissions != 0 {
			t.Fatalf("sequential streaming produced %d late admissions", st.LateAdmissions)
		}
		if st.LateArrivals != 0 {
			t.Fatalf("%d late arrivals", st.LateArrivals)
		}
	})
}

// submitGroup submits copies of reqs while holding smu. flush takes smu
// before it swaps the pending queue, so the event loop cannot split the
// submissions: they form exactly one group (its sheds included, if the
// queue overflows).
func submitGroup(t *testing.T, s *Server, reqs []*core.Request) []<-chan Decision {
	t.Helper()
	s.smu.Lock()
	defer s.smu.Unlock()
	return submitAll(t, s, reqs)
}

// submitAll submits copies of reqs in order.
func submitAll(t *testing.T, s *Server, reqs []*core.Request) []<-chan Decision {
	t.Helper()
	chans := make([]<-chan Decision, len(reqs))
	for i, r := range reqs {
		cp := *r // servers must not share request storage
		done, err := s.submit(&cp, false)
		if err != nil {
			t.Fatal(err)
		}
		chans[i] = done
	}
	return chans
}

// await collects one verdict per channel, in order.
func await(t *testing.T, chans []<-chan Decision) []Decision {
	t.Helper()
	ds := make([]Decision, len(chans))
	for i, ch := range chans {
		select {
		case ds[i] = <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("verdict %d of %d never arrived", i, len(chans))
		}
	}
	return ds
}

// TestBatchFlushBySize pins the size of a group under group commit: a
// group is exactly what was pending when the loop took it. n requests
// submitted while the loop is held share one Decision.Batch.
func TestBatchFlushBySize(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	reqs := sortedRequests(inst)
	const n = 8

	// Hold the loop, submit one request and wait until the loop has taken
	// its kick: it is now in flush, and must not have taken the queue yet,
	// so the rest of the group still joins the first request.
	chans := func() []<-chan Decision {
		s.smu.Lock()
		defer s.smu.Unlock()
		chans := submitAll(t, s, reqs[:1])
		for len(s.wakeC) > 0 {
			time.Sleep(time.Millisecond)
		}
		return append(chans, submitAll(t, s, reqs[1:n])...)
	}()
	held := await(t, chans)
	for _, d := range held[1:] {
		if d.Batch != held[0].Batch {
			t.Fatalf("held requests spread over groups %d and %d", held[0].Batch, d.Batch)
		}
	}
	if st := s.Stats(); st.Batches != 1 || st.MaxBatch != n {
		t.Fatalf("after the held group: batches=%d max_batch=%d, want 1 and %d", st.Batches, st.MaxBatch, n)
	}
}

// TestBatchFlushByWindow pins the window of group commit, which is zero:
// lone sequential submits on an idle server each get a group of their own
// and are decided without waiting for company.
func TestBatchFlushByWindow(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	reqs := sortedRequests(inst)
	const n = 8

	seen := map[int]bool{}
	for _, r := range reqs[:n] {
		cp := *r
		done, err := s.submit(&cp, false)
		if err != nil {
			t.Fatal(err)
		}
		d := await(t, []<-chan Decision{done})[0]
		if seen[d.Batch] {
			t.Fatalf("request %d landed in group %d, which already carried a request", d.ID, d.Batch)
		}
		seen[d.Batch] = true
	}
	if st := s.Stats(); st.Batches != n || st.MaxBatch != 1 {
		t.Fatalf("after lone submits: batches=%d max_batch=%d, want %d and 1", st.Batches, st.MaxBatch, n)
	}
}

// TestShutdownDrains checks that requests pending when shutdown begins
// are decided before it returns and later submissions are refused.
func TestShutdownDrains(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	reqs := sortedRequests(inst)
	// Hold the loop so the request is still pending when the drain starts.
	s.smu.Lock()
	done, err := s.submit(reqs[0], false)
	if err != nil {
		s.smu.Unlock()
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shut := make(chan error, 1)
	go func() { shut <- s.Shutdown(ctx) }()
	for {
		s.qmu.Lock()
		draining := s.draining
		s.qmu.Unlock()
		if draining {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.smu.Unlock()
	if err := <-shut; err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-done:
		if d.ID != int32(reqs[0].ID) {
			t.Fatalf("drained decision for %d, want %d", d.ID, reqs[0].ID)
		}
	default:
		t.Fatal("pending request was not decided during drain")
	}
	if _, err := s.submit(reqs[1], false); err == nil {
		t.Fatal("submit after shutdown should fail")
	}
}

// TestSnapshotWarmRestartEquivalence serves the first half of a workload,
// snapshots, restores a second server from the snapshot (as the checkpoint
// of its WAL directory), then serves the second half to both — decisions
// must match each other and the offline run of the full instance.
func TestSnapshotWarmRestartEquivalence(t *testing.T) {
	g, inst := testInstance(t)
	want, _, err := OfflineDecisions(g, inst, shortest.BuildHubLabels(g), "hub", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sortedRequests(inst)
	half := len(reqs) / 2

	oracle := shortest.BuildHubLabels(g)
	s1 := newTestServer(t, g, inst, func(c *Config) { c.Oracle = oracle })
	got := make(map[int32]Decision)
	for _, r := range reqs[:half] {
		done, err := s1.submit(r, false)
		if err != nil {
			t.Fatal(err)
		}
		d := <-done
		got[d.ID] = d
	}

	// Round-trip the snapshot through its file encoding.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, s1.TakeSnapshot()); err != nil {
		t.Fatal(err)
	}
	sn, err := ReadSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Accepted+sn.Rejected != half {
		t.Fatalf("snapshot decided %d, want %d", sn.Accepted+sn.Rejected, half)
	}
	s2 := newTestServer(t, g, inst, func(c *Config) {
		c.Workers = nil
		c.WALDir = checkpointDir(t, sn)
		c.Oracle = oracle
	})

	for _, r := range reqs[half:] {
		d1ch, err := s1.submit(r, false)
		if err != nil {
			t.Fatal(err)
		}
		d1 := <-d1ch
		r2 := *r
		d2ch, err := s2.submit(&r2, false)
		if err != nil {
			t.Fatal(err)
		}
		d2 := <-d2ch
		if d1.Accepted != d2.Accepted || d1.Worker != d2.Worker || d1.Delta != d2.Delta {
			t.Fatalf("request %d: restored server decision (accepted=%v worker=%d delta=%v) != original (accepted=%v worker=%d delta=%v)",
				d1.ID, d2.Accepted, d2.Worker, d2.Delta, d1.Accepted, d1.Worker, d1.Delta)
		}
		got[d1.ID] = d1
	}
	checkEquivalence(t, got, want)

	// A snapshot of the restored server matches a fresh snapshot of the
	// original byte for byte: warm restart loses nothing.
	var b1, b2 bytes.Buffer
	if err := WriteSnapshot(&b1, s1.TakeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if err := WriteSnapshot(&b2, s2.TakeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("snapshots diverge after warm restart")
	}
}

// TestHTTPEndpoints smoke-tests the read-only API surface.
func TestHTTPEndpoints(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, r := range sortedRequests(inst)[:5] {
		postRequest(t, ts.URL, r)
	}

	var st Stats
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Requests != 5 || st.Accepted+st.Rejected != 5 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Algorithm != "pruneGreedyDP" || st.Oracle != "hub" {
		t.Fatalf("stats identity: %+v", st)
	}

	var ws core.WorkerState
	getJSON(t, ts.URL+"/v1/workers/0/route", &ws)
	if ws.ID != 0 {
		t.Fatalf("worker route: %+v", ws)
	}
	resp, err := http.Get(ts.URL + "/v1/workers/999/route")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing worker: status %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(bytes.Buffer)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`urpsm_requests_total{outcome="accepted"}`,
		"urpsm_batches_total",
		"urpsm_sim_time_seconds",
		`urpsm_request_latency_milliseconds{quantile="0.5"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	var sn Snapshot
	getJSON(t, ts.URL+"/v1/snapshot", &sn)
	if sn.Format != SnapshotFormat || len(sn.Workers) != len(inst.Workers) {
		t.Fatalf("snapshot endpoint: format=%q workers=%d", sn.Format, len(sn.Workers))
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}

// TestRequestValidation checks the 400 paths of POST /v1/requests.
func TestRequestValidation(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		name string
		body string
	}{
		{"bad json", `{`},
		{"origin out of range", `{"origin": 99999999, "dest": 1, "deadline": 100, "penalty": 1}`},
		{"negative dest", `{"origin": 0, "dest": -1, "deadline": 100, "penalty": 1}`},
		{"nan deadline", `{"origin": 0, "dest": 1, "deadline": 1e999, "penalty": 1}`},
		{"deadline before release", `{"origin": 0, "dest": 1, "release": 500, "deadline": 100, "penalty": 1}`},
		{"negative penalty", `{"origin": 0, "dest": 1, "deadline": 100, "penalty": -5}`},
		{"negative capacity", `{"origin": 0, "dest": 1, "deadline": 100, "penalty": 1, "capacity": -2}`},
	} {
		resp, err := http.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
	}
}

// TestServerAssignsIDs checks the id-less submission path.
func TestServerAssignsIDs(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(body string) Decision {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/requests", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
		var d Decision
		if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
			t.Fatal(err)
		}
		return d
	}
	seen := map[int32]bool{}
	for i := 0; i < 3; i++ {
		d := post(`{"origin": 0, "dest": 1, "deadline": 100000, "penalty": 10}`)
		if seen[d.ID] {
			t.Fatalf("duplicate assigned id %d", d.ID)
		}
		seen[d.ID] = true
	}
	// A client-supplied ID reserves everything up to it: the next
	// server-assigned ID must not collide.
	if d := post(`{"id": 41, "origin": 0, "dest": 1, "deadline": 100000, "penalty": 10}`); d.ID != 41 {
		t.Fatalf("client id not echoed: %d", d.ID)
	}
	if d := post(`{"origin": 0, "dest": 1, "deadline": 100000, "penalty": 10}`); d.ID != 42 {
		t.Fatalf("assigned id %d collides with or skips past client id 41 (want 42)", d.ID)
	}
	// Negative client IDs are rejected.
	resp, err := http.Post(ts.URL+"/v1/requests", "application/json",
		strings.NewReader(`{"id": -7, "origin": 0, "dest": 1, "deadline": 100000, "penalty": 10}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("negative id: status %d, want 400", resp.StatusCode)
	}
}

// TestSnapshotRejectsBadInput exercises the decoder's validation.
func TestSnapshotRejectsBadInput(t *testing.T) {
	for _, tc := range []struct {
		name string
		data string
	}{
		{"not json", "hello"},
		{"wrong format", `{"format": "urpsm-roadnet", "version": 1}`},
		{"wrong version", `{"format": "urpsm-snapshot", "version": 99}`},
		{"version 1", `{"format": "urpsm-snapshot", "version": 1}`},
		{"negative sim time", `{"format": "urpsm-snapshot", "version": 2, "sim_time": -4}`},
		{"nan penalty", `{"format": "urpsm-snapshot", "version": 2, "penalty_sum": 1e999}`},
		{"negative counter", `{"format": "urpsm-snapshot", "version": 2, "accepted": -1}`},
	} {
		if _, err := ReadSnapshot(strings.NewReader(tc.data)); err == nil {
			t.Errorf("%s: expected error", tc.name)
		}
	}

	// Structurally fine JSON whose fleet is invalid must fail at Restore.
	sparse := `{"format": "urpsm-snapshot", "version": 2,
		"workers": [{"id": 1, "capacity": 2, "route": {"loc": 0}}]}`
	sn, err := ReadSnapshot(strings.NewReader(sparse))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sn.Restore(4); err == nil {
		t.Error("sparse worker IDs: expected Restore error")
	}
}

// checkpointDir returns a fresh WAL directory whose checkpoint is sn, so a
// server started on it warm-starts from sn.
func checkpointDir(t *testing.T, sn *Snapshot) string {
	t.Helper()
	dir := t.TempDir()
	if err := SaveSnapshotFile(filepath.Join(dir, wal.CheckpointName), sn); err != nil {
		t.Fatal(err)
	}
	return dir
}
