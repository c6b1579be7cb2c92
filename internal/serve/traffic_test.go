package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// postTraffic sends one traffic event over HTTP.
func postTraffic(t *testing.T, url string, at float64, ups []roadnet.TrafficUpdate) TrafficResult {
	t.Helper()
	body, _ := json.Marshal(TrafficRequest{At: &at, Updates: ups})
	resp, err := http.Post(url+"/v1/traffic", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/traffic: status %d", resp.StatusCode)
	}
	var tr TrafficResult
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrafficEndpoint(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	tr := postTraffic(t, ts.URL, 0, []roadnet.TrafficUpdate{{Factor: 2}})
	if tr.Epoch != 1 || tr.ChangedEdges != g.NumEdges() {
		t.Fatalf("result: %+v", tr)
	}
	tr = postTraffic(t, ts.URL, 100, []roadnet.TrafficUpdate{{Factor: 1.5, Class: "arterial"}})
	if tr.Epoch != 2 || tr.SimTime != 100 {
		t.Fatalf("result: %+v", tr)
	}

	// Stats and metrics expose the epoch.
	st := s.Stats()
	if st.TrafficEpoch != 2 || st.TrafficUpdates != 2 {
		t.Fatalf("stats: epoch=%d updates=%d", st.TrafficEpoch, st.TrafficUpdates)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if !strings.Contains(buf.String(), "urpsm_traffic_epoch 2") {
		t.Fatalf("metrics missing epoch gauge:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "urpsm_oracle_rebuild_seconds") {
		t.Fatal("metrics missing rebuild gauge")
	}

	// A request decided after the slowdown sees the new weights through
	// the whole chain; just verify the server still decides.
	reqs := sortedRequests(inst)
	d := postRequest(t, ts.URL, reqs[0])
	if d.ID != int32(reqs[0].ID) {
		t.Fatalf("decision: %+v", d)
	}
}

func TestTrafficEndpointRejectsBadUpdates(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	bad := []string{
		`{"updates":[]}`,               // empty batch
		`{"updates":[{"factor":0.5}]}`, // speedup: breaks lower bounds
		`{"updates":[{"factor":2,"class":"cowpath"}]}`,
		`{"updates":[{"factor":2,"bbox":[1,2,3]}]}`,
		`{"updates":[{"factor":2,"edges":[[0,999999]]}]}`,
		`{"at":1e999,"updates":[{"factor":2}]}`, // non-finite at (decode error)
		`not json`,
	}
	for _, body := range bad {
		resp, err := http.Post(ts.URL+"/v1/traffic", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	if st := s.Stats(); st.TrafficEpoch != 0 {
		t.Fatalf("rejected updates advanced the epoch to %d", st.TrafficEpoch)
	}
}

// TestLockstepEquivalenceWithTraffic extends the replay-equivalence
// guarantee across epochs: a lockstep client that interleaves traffic
// events with requests on the trace's schedule gets decisions
// bit-identical to the offline engine replaying the same profile.
func TestLockstepEquivalenceWithTraffic(t *testing.T) {
	g, inst := testInstance(t)
	reqs := sortedRequests(inst)
	minR := reqs[0].Release
	maxR := reqs[len(reqs)-1].Release
	profile := &roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
		{At: minR + (maxR-minR)*0.3, Updates: []roadnet.TrafficUpdate{{Factor: 1.7}}},
		{At: minR + (maxR-minR)*0.6, Updates: []roadnet.TrafficUpdate{
			{Factor: 2.2, Class: "motorway"}, {Factor: 1.3}}},
	}}

	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	got := make(map[int32]Decision, len(reqs))
	next := 0
	for _, r := range reqs {
		for next < len(profile.Events) && profile.Events[next].At <= r.Release {
			e := profile.Events[next]
			postTraffic(t, ts.URL, e.At, e.Updates)
			next++
		}
		d := postRequest(t, ts.URL, r)
		got[d.ID] = d
	}
	if next != len(profile.Events) {
		t.Fatalf("only %d/%d events injected; widen the profile", next, len(profile.Events))
	}

	want, _, err := OfflineDecisions(g, inst, shortest.BuildHubLabels(g), "hub", 1, profile)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, got, want)
	if st := s.Stats(); st.TrafficEpoch != 2 {
		t.Fatalf("epoch %d after 2 events", st.TrafficEpoch)
	}
}

// TestLockstepEquivalenceCCHCustomize is the customize fast path's
// end-to-end guarantee: a server on the CCH tier decides bit-identically
// to the offline reference across traffic events — every epoch advance
// re-derives shortcut weights over the shared skeleton (no from-scratch
// contraction) before the traffic POST returns, and because skeleton and
// customization are deterministic, two independently built hierarchies
// agree to the last float bit.
func TestLockstepEquivalenceCCHCustomize(t *testing.T) {
	g, inst := testInstance(t)
	reqs := sortedRequests(inst)
	minR := reqs[0].Release
	maxR := reqs[len(reqs)-1].Release
	profile := &roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
		{At: minR + (maxR-minR)*0.3, Updates: []roadnet.TrafficUpdate{{Factor: 1.7}}},
		{At: minR + (maxR-minR)*0.6, Updates: []roadnet.TrafficUpdate{
			{Factor: 2.2, Class: "motorway"}, {Factor: 1.3}}},
	}}

	s := newTestServer(t, g, inst, func(c *Config) {
		c.Oracle = shortest.BuildCCH(g)
		c.OracleKind = "cch"
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	got := make(map[int32]Decision, len(reqs))
	next := 0
	for _, r := range reqs {
		for next < len(profile.Events) && profile.Events[next].At <= r.Release {
			e := profile.Events[next]
			postTraffic(t, ts.URL, e.At, e.Updates)
			next++
		}
		d := postRequest(t, ts.URL, r)
		got[d.ID] = d
	}
	if next != len(profile.Events) {
		t.Fatalf("only %d/%d events injected; widen the profile", next, len(profile.Events))
	}

	want, _, err := OfflineDecisions(g, inst, shortest.BuildCCH(g), "cch", 1, profile)
	if err != nil {
		t.Fatal(err)
	}
	checkEquivalence(t, got, want)
	st := s.Stats()
	if st.TrafficEpoch != 2 {
		t.Fatalf("epoch %d after 2 events", st.TrafficEpoch)
	}
	if st.OracleRebuilds != 2 || st.OracleCustomizations != 2 {
		t.Fatalf("rebuilds=%d customizations=%d, want 2 of each (fast path not taken?)",
			st.OracleRebuilds, st.OracleCustomizations)
	}
}

// TestSnapshotCarriesTrafficState pins that a warm restart reconstructs
// the weights: snapshot → restore → same epoch, same distances, and the
// snapshot round-trips byte-stably.
func TestSnapshotCarriesTrafficState(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, nil)
	ts := httptest.NewServer(s.Handler())

	postTraffic(t, ts.URL, 50, []roadnet.TrafficUpdate{{Factor: 2, Class: "residential"}})
	postTraffic(t, ts.URL, 80, []roadnet.TrafficUpdate{{Factor: 1.4}})
	reqs := sortedRequests(inst)
	for _, r := range reqs[:10] {
		postRequest(t, ts.URL, r)
	}
	sn := s.TakeSnapshot()
	ts.Close()
	if sn.Epoch != 2 || len(sn.Traffic) != 2 {
		t.Fatalf("snapshot epoch=%d traffic batches=%d", sn.Epoch, len(sn.Traffic))
	}

	// Byte-stable round trip through the reader.
	var buf bytes.Buffer
	if err := WriteSnapshot(&buf, sn); err != nil {
		t.Fatal(err)
	}
	sn2, err := ReadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var buf2 bytes.Buffer
	if err := WriteSnapshot(&buf2, sn2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Fatal("traffic-bearing snapshot not byte-stable")
	}

	// Restore: the restarted server serves the restored epoch's weights,
	// and the monotone traffic counters do not move backwards.
	s2 := newTestServer(t, g, inst, func(c *Config) { c.Snapshot = sn2 })
	if st := s2.Stats(); st.TrafficEpoch != 2 {
		t.Fatalf("restored epoch %d want 2", st.TrafficEpoch)
	} else if st.TrafficUpdates != 2 || st.InfeasibleStops != sn2.InfeasibleStops {
		t.Fatalf("restored counters regressed: updates=%d infeasible=%d (snapshot %d)",
			st.TrafficUpdates, st.InfeasibleStops, sn2.InfeasibleStops)
	}
	// Distances after restore match an overlay replayed from the history.
	overlay := roadnet.NewOverlay(g)
	for _, batch := range sn2.Traffic {
		if _, _, _, err := overlay.Apply(batch); err != nil {
			t.Fatal(err)
		}
	}
	ref := shortest.NewBiDijkstra(overlay.Graph())
	for i := 0; i < 50; i++ {
		u := roadnet.VertexID(i % g.NumVertices())
		v := roadnet.VertexID((i * 7) % g.NumVertices())
		if got, want := s2.versioned.Dist(u, v), ref.Dist(u, v); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("restored Dist(%d,%d)=%v want %v", u, v, got, want)
		}
	}

	// A corrupted epoch/history pairing is rejected.
	sn3 := *sn2
	sn3.Epoch = 5
	var buf3 bytes.Buffer
	if err := WriteSnapshot(&buf3, &sn3); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(buf3.Bytes())); err == nil {
		t.Fatal("epoch/history mismatch accepted")
	}
}

// TestNewServerRejectsUnknownOracleKind: every traffic epoch rebuilds the
// configured kind, so a kind shortest.Build does not know is refused at
// construction, not at the first traffic update.
func TestNewServerRejectsUnknownOracleKind(t *testing.T) {
	g, inst := testInstance(t)
	hub := shortest.BuildHubLabels(g)
	for _, kind := range []string{"", "auto", "ch"} {
		if _, err := NewServer(Config{Graph: g, Workers: inst.Workers, Oracle: hub, OracleKind: kind}); err == nil {
			t.Errorf("OracleKind %q accepted", kind)
		}
	}
}
