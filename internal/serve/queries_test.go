package serve

import (
	"testing"

	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// TestDistQueriesPinned pins the distance queries that reach the oracle
// tier, on the server and on the offline reference, for every tier with
// and without traffic. The counts are what the query chain forwards past
// its cache, so a change to the chain that adds, drops or reorders a query
// moves them, even where no decision moves. TablePrefetches pins that only
// the tier with a batch table (hub) plans against one.
func TestDistQueriesPinned(t *testing.T) {
	g, inst := testInstance(t)
	reqs := sortedRequests(inst)
	minR, maxR := reqs[0].Release, reqs[len(reqs)-1].Release
	twoEpochs := &roadnet.TrafficProfile{Events: []roadnet.TrafficEvent{
		{At: minR + (maxR-minR)*0.3, Updates: []roadnet.TrafficUpdate{{Factor: 1.7}}},
		{At: minR + (maxR-minR)*0.6, Updates: []roadnet.TrafficUpdate{
			{Factor: 2.2, Class: "motorway"}, {Factor: 1.3}}},
	}}
	build := map[string]func() shortest.Oracle{
		"hub":        func() shortest.Oracle { return shortest.BuildHubLabels(g) },
		"cch":        func() shortest.Oracle { return shortest.BuildCCH(g) },
		"bidijkstra": func() shortest.Oracle { return shortest.NewBiDijkstra(g) },
	}
	for _, c := range []struct {
		kind       string
		traffic    bool
		server     uint64 // Stats().DistQueries after a lockstep run
		prefetches int    // Stats().TablePrefetches after it
		offline    uint64 // OfflineDecisions' Metrics.DistQueries
	}{
		{"hub", false, 46, 150, 527},
		{"hub", true, 57, 150, 577},
		{"cch", false, 925, 0, 925},
		{"cch", true, 963, 0, 963},
		{"bidijkstra", false, 527, 0, 527},
		{"bidijkstra", true, 577, 0, 577},
	} {
		name := c.kind
		var profile *roadnet.TrafficProfile
		if c.traffic {
			name += "/traffic"
			profile = twoEpochs
		}
		t.Run(name, func(t *testing.T) {
			s := newTestServer(t, g, inst, func(cfg *Config) {
				cfg.Oracle = build[c.kind]()
				cfg.OracleKind = c.kind
			})
			got := make(map[int32]Decision, len(reqs))
			lo := 0
			if profile != nil {
				for _, e := range profile.Events {
					hi := lo
					for hi < len(reqs) && reqs[hi].Release < e.At {
						hi++
					}
					lockstep(t, s, reqs[lo:hi], got)
					at := e.At
					if _, err := s.ApplyTraffic(&at, e.Updates); err != nil {
						t.Fatal(err)
					}
					lo = hi
				}
			}
			lockstep(t, s, reqs[lo:], got)

			want, m, err := OfflineDecisions(g, inst, build[c.kind](), c.kind, 1, profile)
			if err != nil {
				t.Fatal(err)
			}
			checkEquivalence(t, got, want)
			st := s.Stats()
			if st.DistQueries != c.server || st.TablePrefetches != c.prefetches || m.DistQueries != c.offline {
				t.Fatalf("server %d queries, %d prefetches; offline %d queries: want %d, %d; %d",
					st.DistQueries, st.TablePrefetches, m.DistQueries, c.server, c.prefetches, c.offline)
			}
		})
	}
}
