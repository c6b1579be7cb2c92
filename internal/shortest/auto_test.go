package shortest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

// TestAutoBudgetChoose pins the two thresholds "auto" resolves by: hub
// labels up to MaxHubVertices, CCH up to MaxCCHVertices, bidirectional
// Dijkstra beyond.
func TestAutoBudgetChoose(t *testing.T) {
	cases := []struct {
		n    int
		want AutoKind
	}{
		{1, AutoHub}, {MaxHubVertices, AutoHub},
		{MaxHubVertices + 1, AutoCCH}, {MaxCCHVertices, AutoCCH},
		{MaxCCHVertices + 1, AutoBiDijkstra}, {1 << 30, AutoBiDijkstra},
	}
	for _, tc := range cases {
		if got := Choose(tc.n); got != tc.want {
			t.Errorf("Choose(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// TestAutoDefaultBudgetOrdering: the thresholds grow down the ladder, so
// every tier gets a band of graph sizes.
func TestAutoDefaultBudgetOrdering(t *testing.T) {
	if MaxHubVertices <= 0 || MaxCCHVertices <= MaxHubVertices {
		t.Fatalf("thresholds not ordered: hub %d, cch %d", MaxHubVertices, MaxCCHVertices)
	}
}

// TestAutoMatchesDijkstra builds each tier in turn and asserts its
// distances equal plain Dijkstra's on sampled pairs — the equivalence
// contract that makes the tier choice a pure performance decision.
func TestAutoMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 16, 16, 42)
	n := g.NumVertices()
	ref := NewDijkstra(g)
	for _, kind := range []AutoKind{AutoHub, AutoCCH, AutoBiDijkstra} {
		t.Run(string(kind), func(t *testing.T) {
			oracle := Build(kind, g)
			rng := rand.New(rand.NewSource(7))
			for q := 0; q < 300; q++ {
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID(rng.Intn(n))
				if got, exp := oracle.Dist(s, d), ref.Dist(s, d); math.Abs(got-exp) > 1e-6 {
					t.Fatalf("%s: Dist(%d,%d) = %v, want %v", kind, s, d, got, exp)
				}
			}
		})
	}
}

// BenchmarkOracleTiers backs the Choose thresholds with numbers: per-tier
// preprocessing cost and query latency on one mid-size synthetic city.
// Run with: go test ./internal/shortest -bench OracleTiers -benchtime 10x
func BenchmarkOracleTiers(b *testing.B) {
	g := testGraph(b, 45, 45, 3)
	n := g.NumVertices()
	for _, kind := range []AutoKind{AutoHub, AutoCCH, AutoBiDijkstra} {
		b.Run(fmt.Sprintf("build/%s", kind), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Build(kind, g)
			}
		})
		oracle := Build(kind, g)
		b.Run(fmt.Sprintf("query/%s", kind), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			for i := 0; i < b.N; i++ {
				oracle.Dist(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
			}
		})
	}
}
