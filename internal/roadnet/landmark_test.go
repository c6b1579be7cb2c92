package roadnet

import (
	"math"
	"sync"
	"testing"

	"repro/internal/geo"
)

// checkLandmarkRows asserts that g's rows are g's own: landmark l is the
// vertex farthest from landmarks 0..l−1 (lowest ID on ties, unreached
// counting as infinitely far), its entry is 0, and every other entry is
// exactly what a Dijkstra in g's costs settles on — the least
// fl(rows[u][l] + c(u,v)) over v's arcs, +Inf when every neighbour is
// unreached.
func checkLandmarkRows(t *testing.T, name string, g *Graph) {
	t.Helper()
	rows := g.Landmarks()
	n := g.NumVertices()
	if len(rows) != n {
		t.Fatalf("%s: %d rows for %d vertices", name, len(rows), n)
	}
	far := make([]float64, n)
	for v := range far {
		far[v] = math.Inf(1)
	}
	for l := 0; l < numLandmarks; l++ {
		lm := 0
		for v, f := range far {
			if f > far[lm] {
				lm = v
			}
		}
		for v := 0; v < n; v++ {
			want := math.Inf(1)
			if v == lm {
				want = 0
			} else {
				to, cost := g.Arcs(VertexID(v))
				for i, u := range to {
					want = math.Min(want, rows[u][l]+cost[i])
				}
			}
			if got := rows[v][l]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: rows[%d][%d] = %v, want %v (landmark %d)", name, v, l, got, want, lm)
			}
		}
		for v := range far {
			far[v] = math.Min(far[v], rows[v][l])
		}
	}
}

// TestLandmarksBuiltOnFirstUse pins who pays for the landmark rows and who
// owns them: a graph builds them on its first Landmarks call and returns
// that one copy from then on; a traffic snapshot builds its own in its own
// metric and never shares its base's; and on the base, on a 1–1000×
// snapshot and on a graph with more components than landmarks every row
// is the graph's exact Dijkstra distance from a farthest-first landmark.
func TestLandmarksBuiltOnFirstUse(t *testing.T) {
	g, err := Generate(GenConfig{
		Rows: 12, Cols: 14, Spacing: 150, Jitter: 0.3, ArterialEvery: 4,
		MotorwayRing: true, RemoveFrac: 0.1, DetourMin: 1.02, DetourMax: 1.4, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.lm.rows != nil {
		t.Fatal("rows built before the first Landmarks call")
	}
	rows := g.Landmarks()
	if &g.Landmarks()[0] != &rows[0] {
		t.Fatal("a second Landmarks call built a second copy")
	}
	es := g.Edges()
	snap, _, _, err := NewOverlay(g).Apply([]TrafficUpdate{
		{Factor: 4, Class: "arterial"},
		{Factor: MaxTrafficFactor, Edges: [][2]int64{{int64(es[7].U), int64(es[7].V)}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if snap.lm == g.lm || snap.lm.rows != nil {
		t.Fatal("the snapshot shares its base's landmark table")
	}
	checkLandmarkRows(t, "base", g)
	checkLandmarkRows(t, "snapshot", snap)
	if &g.Landmarks()[0] != &rows[0] {
		t.Fatal("the base's rows changed under a snapshot")
	}

	// Concurrent first readers of a snapshot share one build.
	snap2, _, _, err := NewOverlay(g).Apply([]TrafficUpdate{{Factor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*[numLandmarks]float64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = &snap2.Landmarks()[0]
		}(i)
	}
	wg.Wait()
	for _, p := range got {
		if p != got[0] {
			t.Fatal("concurrent first readers built separate copies")
		}
	}

	// Twelve 3-vertex roads: four components get no landmark at all.
	b := NewBuilder(36, 24)
	for k := 0; k < 12; k++ {
		for i := 0; i < 3; i++ {
			b.AddVertex(geo.Point{X: float64(k) * 1e4, Y: float64(i) * 100})
		}
		for i := 0; i < 2; i++ {
			if err := b.AddEdge(VertexID(3*k+i), VertexID(3*k+i+1), 100+float64(k+i), geo.Residential); err != nil {
				t.Fatal(err)
			}
		}
	}
	arch, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	checkLandmarkRows(t, "archipelago", arch)
}
