package serve

// Batch-prefetch equivalence: the server's flush-time distance table must
// be invisible in decisions (DESIGN.md §16). This suite drives identical
// multi-request admission groups through a default server and a
// NoBatchPrefetch server and requires both to match the offline
// reference bit-for-bit, while the stats prove the default server really
// planned against tables on hub — and planned without any on cch, whose
// point query is already a label read (§16.4).

import (
	"math"
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

	on := newTestServer(t, g, inst, nil)
	gotOn := runWaves(t, on, reqs, wave)
	checkEquivalence(t, gotOn, want)

	off := newTestServer(t, g, inst, func(c *Config) { c.NoBatchPrefetch = true })
	gotOff := runWaves(t, off, reqs, wave)
	checkEquivalence(t, gotOff, want)

	stOn, stOff := on.Stats(), off.Stats()
	if stOn.MaxBatch < 2 {
		t.Fatalf("max batch %d: waves never formed a multi-request batch", stOn.MaxBatch)
	}
	if stOn.TablePrefetches == 0 || stOn.TableHits == 0 {
		t.Fatalf("default server planned without tables (prefetches=%d hits=%d)",
			stOn.TablePrefetches, stOn.TableHits)
	}
	if stOff.TablePrefetches != 0 || stOff.TableHits != 0 {
		t.Fatalf("NoBatchPrefetch server still prefetched (prefetches=%d hits=%d)",
			stOff.TablePrefetches, stOff.TableHits)
	}
	t.Logf("dist_queries: prefetch on %d (table hits %d, misses %d) vs off %d",
		stOn.DistQueries, stOn.TableHits, stOn.TableMisses, stOff.DistQueries)
}

// TestCCHServePlansFromLabels pins the cch serve path: a WAL-backed server
// flushing multi-request batches across two traffic epochs never builds a
// distance table, and every decision — worker, Δ* bits, ETAs — equals the
// same stream through a NoBatchPrefetch server and the offline engine.
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
	run := func(noPrefetch bool) (map[int32]Decision, Stats) {
		s := newWALServer(t, g, inst, shortest.BuildCCH(g), t.TempDir(), func(c *Config) {
			c.OracleKind = "cch"
			c.NoBatchPrefetch = noPrefetch
		})
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
		return got, s.Stats()
	}

	got, st := run(false)
	checkEquivalence(t, got, want)
	ref, stRef := run(true)
	checkEquivalence(t, ref, want)
	for id, a := range got {
		b := ref[id]
		if !sameDecision(a, b) ||
			math.Float64bits(a.PickupETA) != math.Float64bits(b.PickupETA) ||
			math.Float64bits(a.DropoffETA) != math.Float64bits(b.DropoffETA) {
			t.Fatalf("request %d: default %+v != NoBatchPrefetch %+v", id, a, b)
		}
	}
	if st.MaxBatch < 2 || st.TrafficEpoch != 2 || st.OracleCustomizations != 2 {
		t.Fatalf("max batch %d, epoch %d, customizations %d: the run never exercised batches across epochs",
			st.MaxBatch, st.TrafficEpoch, st.OracleCustomizations)
	}
	for _, x := range []Stats{st, stRef} {
		if x.TablePrefetches != 0 || x.TableHits != 0 {
			t.Fatalf("cch server built distance tables (prefetches=%d hits=%d); its point query is a label read",
				x.TablePrefetches, x.TableHits)
		}
	}
}
