package serve

// Batch-prefetch equivalence: the server's flush-time distance table must
// be invisible in decisions (DESIGN.md §16). This suite drives
// multi-request admission groups through a server and requires its
// decisions to match the offline reference, which plans from point
// queries alone, bit-for-bit, while the stats prove the server really
// planned against tables on hub — and that a cch server holds no table,
// its point query being a label read already (§16.4).

import (
	"testing"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/workload"
)

// runWaves streams the instance through s in waves of size batch, each
// submitted as one held group, and waits for a wave's decisions before
// the next.
func runWaves(t *testing.T, s *Server, reqs []*core.Request, batch int) map[int32]Decision {
	t.Helper()
	got := make(map[int32]Decision, len(reqs))
	for start := 0; start < len(reqs); start += batch {
		wave := reqs[start:min(start+batch, len(reqs))]
		for _, d := range await(t, submitGroup(t, s, wave)) {
			got[d.ID] = d
		}
	}
	return got
}

func TestBatchPrefetchEquivalence(t *testing.T) {
	g, inst := testInstance(t)
	want, _, err := OfflineDecisions(g, inst, shortest.BuildHubLabels(g), "hub", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sortedRequests(inst)
	const wave = 8

	s := newTestServer(t, g, inst, nil)
	checkEquivalence(t, runWaves(t, s, reqs, wave), want)

	st := s.Stats()
	if st.MaxBatch < 2 {
		t.Fatalf("max batch %d: waves never formed a multi-request batch", st.MaxBatch)
	}
	if st.TablePrefetches == 0 || st.TableHits == 0 {
		t.Fatalf("hub server planned without tables (prefetches=%d hits=%d)",
			st.TablePrefetches, st.TableHits)
	}
	t.Logf("dist_queries %d (table hits %d, misses %d)", st.DistQueries, st.TableHits, st.TableMisses)
}

// TestCCHServePlansFromLabels pins the cch serve path: a WAL-backed server
// flushing multi-request batches across two traffic epochs holds no
// distance table, and every decision equals the offline engine's.
func TestCCHServePlansFromLabels(t *testing.T) {
	p := workload.ChengduLike(0.02)
	g, err := roadnet.Generate(p.Net)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workload.BuildOn(p, g, shortest.NewBiDijkstra(g).Dist)
	if err != nil {
		t.Fatal(err)
	}
	reqs := sortedRequests(inst)
	if len(reqs) < 200 {
		t.Fatalf("instance has only %d requests", len(reqs))
	}
	minR, maxR := reqs[0].Release, reqs[len(reqs)-1].Release
	profile := &roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
		{At: minR + (maxR-minR)*0.3, Updates: []roadnet.TrafficUpdate{{Factor: 1.7}}},
		{At: minR + (maxR-minR)*0.6, Updates: []roadnet.TrafficUpdate{
			{Factor: 2.2, Class: "motorway"}, {Factor: 1.3}}},
	}}
	want, _, err := OfflineDecisions(g, inst, shortest.BuildCCH(g), "cch", 1, profile)
	if err != nil {
		t.Fatal(err)
	}

	const wave = 8
	s := newWALServer(t, g, inst, shortest.BuildCCH(g), t.TempDir(), func(c *Config) {
		c.OracleKind = "cch"
	})
	if s.table != nil {
		t.Fatal("cch server allocated a distance table; its tier has no filler")
	}
	got := make(map[int32]Decision, len(reqs))
	lo := 0
	for _, e := range profile.Events {
		hi := lo
		for hi < len(reqs) && reqs[hi].Release < e.At {
			hi++
		}
		for id, d := range runWaves(t, s, reqs[lo:hi], wave) {
			got[id] = d
		}
		at := e.At
		if _, err := s.ApplyTraffic(&at, e.Updates); err != nil {
			t.Fatal(err)
		}
		lo = hi
	}
	for id, d := range runWaves(t, s, reqs[lo:], wave) {
		got[id] = d
	}
	checkEquivalence(t, got, want)

	st := s.Stats()
	if st.MaxBatch < 2 || st.TrafficEpoch != 2 || st.OracleCustomizations != 2 {
		t.Fatalf("max batch %d, epoch %d, customizations %d: the run never exercised batches across epochs",
			st.MaxBatch, st.TrafficEpoch, st.OracleCustomizations)
	}
	if st.TablePrefetches != 0 || st.TableHits != 0 {
		t.Fatalf("cch server built distance tables (prefetches=%d hits=%d); its point query is a label read",
			st.TablePrefetches, st.TableHits)
	}
}
