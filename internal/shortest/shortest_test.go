package shortest

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/geo"
	"repro/internal/roadnet"
)

func testGraph(t testing.TB, rows, cols int, seed int64) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: rows, Cols: cols, Spacing: 140, Jitter: 0.3, ArterialEvery: 6,
		MotorwayRing: true, RemoveFrac: 0.12, DetourMin: 1.02, DetourMax: 1.4,
		Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestDijkstraLine(t *testing.T) {
	g, err := roadnet.LineGraph(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDijkstra(g)
	if got := d.Dist(0, 4); math.Abs(got-8) > 1e-9 {
		t.Fatalf("Dist(0,4)=%v want 8", got)
	}
	if got := d.Dist(3, 1); math.Abs(got-4) > 1e-9 {
		t.Fatalf("Dist(3,1)=%v want 4", got)
	}
	if got := d.Dist(2, 2); got != 0 {
		t.Fatalf("Dist(2,2)=%v want 0", got)
	}
	path := d.Path(0, 3)
	want := []roadnet.VertexID{0, 1, 2, 3}
	if len(path) != len(want) {
		t.Fatalf("path=%v", path)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path=%v want %v", path, want)
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := roadnet.NewBuilder(3, 1)
	b.AddVertex(geo.Point{})
	b.AddVertex(geo.Point{X: 10})
	b.AddVertex(geo.Point{X: 100})
	b.AddEdge(0, 1, 10, geo.Residential)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	d := NewDijkstra(g)
	if got := d.Dist(0, 2); !math.IsInf(got, 1) {
		t.Fatalf("unreachable Dist=%v", got)
	}
	if p := d.Path(0, 2); p != nil {
		t.Fatalf("unreachable Path=%v", p)
	}
}

func TestRunWithinRadius(t *testing.T) {
	g, err := roadnet.LineGraph(10, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDijkstra(g)
	d.RunWithin(0, 7) // reaches vertices 0,1,2 (cost 0,3,6); vertex 3 at 9 is out
	if !d.Reached(2) {
		t.Fatal("vertex 2 should be reached within radius 7")
	}
	if d.Reached(4) {
		t.Fatal("vertex 4 should not be reached within radius 7")
	}
}

// TestEnginesAgree cross-validates Dijkstra, the landmark leg search,
// bidirectional Dijkstra and hub labels on random queries over a synthetic
// city.
func TestEnginesAgree(t *testing.T) {
	g := testGraph(t, 18, 22, 4)
	dij := NewDijkstra(g)
	bi := NewBiDijkstra(g)
	hub := BuildHubLabels(g)
	rng := rand.New(rand.NewSource(11))
	n := g.NumVertices()
	for q := 0; q < 400; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		tt := roadnet.VertexID(rng.Intn(n))
		want := dij.Dist(s, tt)
		if got := pathCost(t, g, bi.Path(s, tt, Inf)); math.Abs(got-want) > 1e-6 {
			t.Fatalf("landmark path (%d,%d) costs %v want %v", s, tt, got, want)
		}
		if got := bi.Dist(s, tt); math.Abs(got-want) > 1e-6 {
			t.Fatalf("BiDijkstra (%d,%d)=%v want %v", s, tt, got, want)
		}
		if got := hub.Dist(s, tt); math.Abs(got-want) > 1e-6 {
			t.Fatalf("HubLabels (%d,%d)=%v want %v", s, tt, got, want)
		}
	}
}

// pathCost sums edge costs along a path, failing if an edge is missing.
func pathCost(t *testing.T, g *roadnet.Graph, path []roadnet.VertexID) float64 {
	t.Helper()
	total := 0.0
	for i := 0; i+1 < len(path); i++ {
		c, ok := g.EdgeCost(path[i], path[i+1])
		if !ok {
			t.Fatalf("path uses non-edge (%d,%d)", path[i], path[i+1])
		}
		total += c
	}
	return total
}

func TestPathsAreValidAndOptimal(t *testing.T) {
	g := testGraph(t, 14, 14, 8)
	dij := NewDijkstra(g)
	bi := NewBiDijkstra(g)
	rng := rand.New(rand.NewSource(2))
	n := g.NumVertices()
	for q := 0; q < 150; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		tt := roadnet.VertexID(rng.Intn(n))
		want := dij.Dist(s, tt)
		for name, path := range map[string][]roadnet.VertexID{
			"dijkstra": dij.Path(s, tt),
			"landmark": bi.Path(s, tt, Inf),
			"bi":       bi.bidiPath(s, tt),
		} {
			if len(path) == 0 || path[0] != s || path[len(path)-1] != tt {
				t.Fatalf("%s path endpoints wrong: %v (s=%d t=%d)", name, path, s, tt)
			}
			if got := pathCost(t, g, path); math.Abs(got-want) > 1e-6 {
				t.Fatalf("%s path cost=%v want %v", name, got, want)
			}
		}
	}
}

func TestBiDijkstraTrivial(t *testing.T) {
	g := testGraph(t, 6, 6, 1)
	bi := NewBiDijkstra(g)
	if d := bi.Dist(3, 3); d != 0 {
		t.Fatalf("self distance=%v", d)
	}
	p := bi.Path(3, 3, Inf)
	if len(p) != 1 || p[0] != 3 {
		t.Fatalf("self path=%v", p)
	}
}

func TestHubLabelsSymmetric(t *testing.T) {
	g := testGraph(t, 10, 10, 3)
	hub := BuildHubLabels(g)
	rng := rand.New(rand.NewSource(9))
	n := g.NumVertices()
	for q := 0; q < 200; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		tt := roadnet.VertexID(rng.Intn(n))
		a, b := hub.Dist(s, tt), hub.Dist(tt, s)
		if math.Abs(a-b) > 1e-9 {
			t.Fatalf("asymmetric hub distance (%d,%d): %v vs %v", s, tt, a, b)
		}
	}
	if hub.AvgLabelSize() <= 0 {
		t.Fatal("labels empty")
	}
	if hub.MemoryBytes() <= 0 {
		t.Fatal("memory not reported")
	}
}

func TestHubLabelsTriangleInequality(t *testing.T) {
	g := testGraph(t, 9, 9, 6)
	hub := BuildHubLabels(g)
	rng := rand.New(rand.NewSource(13))
	n := g.NumVertices()
	for q := 0; q < 500; q++ {
		a := roadnet.VertexID(rng.Intn(n))
		b := roadnet.VertexID(rng.Intn(n))
		c := roadnet.VertexID(rng.Intn(n))
		if hub.Dist(a, c) > hub.Dist(a, b)+hub.Dist(b, c)+1e-6 {
			t.Fatalf("triangle inequality violated at (%d,%d,%d)", a, b, c)
		}
	}
}

// TestEuclidTimeLowerBoundsNetworkDistance pins the Lemma 7 bound and the
// batch prefetch's superset argument (DESIGN.md §16.3): the Euclidean
// travel time never exceeds the oracle distance, so a candidate radius
// computed from it is never too small.
func TestEuclidTimeLowerBoundsNetworkDistance(t *testing.T) {
	g := testGraph(t, 12, 12, 7)
	hub := BuildHubLabels(g)
	rng := rand.New(rand.NewSource(21))
	n := g.NumVertices()
	for q := 0; q < 2000; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		tt := roadnet.VertexID(rng.Intn(n))
		if lb := g.EuclidTime(s, tt); lb > hub.Dist(s, tt)+1e-9 {
			t.Fatalf("euclid lower bound %v exceeds network distance %v for (%d,%d)",
				lb, hub.Dist(s, tt), s, tt)
		}
	}
}

func TestMatrixOracle(t *testing.T) {
	g := testGraph(t, 7, 7, 2)
	m := NewMatrix(g)
	d := NewDijkstra(g)
	rng := rand.New(rand.NewSource(17))
	n := g.NumVertices()
	for q := 0; q < 200; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		tt := roadnet.VertexID(rng.Intn(n))
		if math.Abs(m.Dist(s, tt)-d.Dist(s, tt)) > 1e-6 {
			t.Fatalf("matrix mismatch at (%d,%d)", s, tt)
		}
	}
	if m.MemoryBytes() <= int64(n)*int64(n)*8 {
		t.Fatal("matrix memory must include header overhead beyond the cell payload")
	}
	if m.MemoryBytes() != int64(n)*int64(n)*8+32 {
		t.Fatalf("matrix memory = %d, want payload+32", m.MemoryBytes())
	}
}

func TestNewMatrixGuard(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewMatrix on an oversized graph must panic with a sizing diagnosis")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "GiB") {
			t.Fatalf("panic %v does not diagnose the allocation size", r)
		}
	}()
	// A graph just over the cap; only NumVertices matters before the guard.
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 153, Cols: 152, Spacing: 100, DetourMin: 1, DetourMax: 1, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() <= maxMatrixVertices {
		t.Skipf("generated only %d vertices", g.NumVertices())
	}
	NewMatrix(g)
}

func TestCountingOracle(t *testing.T) {
	g := testGraph(t, 5, 5, 1)
	c := NewCounting(NewDijkstra(g))
	c.Dist(0, 1)
	c.Dist(1, 2)
	if c.Queries != 2 {
		t.Fatalf("queries=%d want 2", c.Queries)
	}
	c.Reset()
	if c.Queries != 0 {
		t.Fatal("reset failed")
	}
}

func TestLRUBasic(t *testing.T) {
	c := NewLRU(2)
	c.Put(1, 2, 10)
	c.Put(3, 4, 20)
	if d, ok := c.Get(1, 2); !ok || d != 10 {
		t.Fatalf("get=%v,%v", d, ok)
	}
	// Symmetric key.
	if d, ok := c.Get(2, 1); !ok || d != 10 {
		t.Fatalf("symmetric get=%v,%v", d, ok)
	}
	// Insert third entry; LRU (3,4) must be evicted since (1,2) was touched.
	c.Put(5, 6, 30)
	if _, ok := c.Get(3, 4); ok {
		t.Fatal("(3,4) should have been evicted")
	}
	if d, ok := c.Get(1, 2); !ok || d != 10 {
		t.Fatalf("(1,2) evicted wrongly: %v %v", d, ok)
	}
	if d, ok := c.Get(5, 6); !ok || d != 30 {
		t.Fatalf("(5,6) missing: %v %v", d, ok)
	}
}

func TestLRUUpdateExisting(t *testing.T) {
	c := NewLRU(2)
	c.Put(1, 2, 10)
	c.Put(1, 2, 99)
	if c.Len() != 1 {
		t.Fatalf("len=%d", c.Len())
	}
	if d, _ := c.Get(1, 2); d != 99 {
		t.Fatalf("update failed: %v", d)
	}
}

func TestLRUStressAgainstMap(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	c := NewLRU(64)
	type key struct{ u, v roadnet.VertexID }
	ref := map[key]float64{}
	norm := func(u, v roadnet.VertexID) key {
		if u > v {
			u, v = v, u
		}
		return key{u, v}
	}
	for i := 0; i < 20000; i++ {
		u := roadnet.VertexID(rng.Intn(40))
		v := roadnet.VertexID(rng.Intn(40))
		if rng.Intn(2) == 0 {
			d := rng.Float64()
			c.Put(u, v, d)
			ref[norm(u, v)] = d
		} else if d, ok := c.Get(u, v); ok {
			if want := ref[norm(u, v)]; want != d {
				t.Fatalf("cache returned stale value %v want %v", d, want)
			}
		}
		if c.Len() > 64 {
			t.Fatalf("cache overflow: %d", c.Len())
		}
	}
	if c.Hits == 0 || c.Misses == 0 {
		t.Fatalf("stats not tracked: hits=%d misses=%d", c.Hits, c.Misses)
	}
}

// TestLRUFlushKeepsContract pins what a flush may and may not change:
// every key misses afterwards and Len is 0, the cumulative counters are
// kept, and the cache refills to its full capacity and then evicts in LRU
// order exactly as a fresh one would.
func TestLRUFlushKeepsContract(t *testing.T) {
	const capacity = 8
	c := NewLRU(capacity)
	for i := 0; i < 5; i++ {
		c.Put(roadnet.VertexID(i), roadnet.VertexID(i+100), float64(i))
	}
	c.Get(0, 100)
	c.Get(7, 107)
	hits, misses := c.Hits, c.Misses
	c.Flush()
	if c.Len() != 0 {
		t.Fatalf("Len after flush = %d", c.Len())
	}
	for i := 0; i < 5; i++ {
		if _, ok := c.Get(roadnet.VertexID(i), roadnet.VertexID(i+100)); ok {
			t.Fatalf("key %d survived the flush", i)
		}
	}
	if c.Hits != hits || c.Misses != misses+5 {
		t.Fatalf("counters not cumulative: hits %d→%d misses %d→%d (+5 probes)", hits, c.Hits, misses, c.Misses)
	}
	// Refill past capacity: nothing is evicted before the cache is full, then
	// the least recently used key goes first.
	for i := 0; i < capacity; i++ {
		c.Put(roadnet.VertexID(i), roadnet.VertexID(i+200), float64(i))
	}
	if c.Len() != capacity {
		t.Fatalf("Len after refill = %d, want %d", c.Len(), capacity)
	}
	c.Get(0, 200) // key 0 is now the most recent, key 1 the least
	c.Put(50, 250, 50)
	c.Put(51, 251, 51)
	for i, want := range []bool{true, false, false, true, true, true, true, true} {
		if _, ok := c.Get(roadnet.VertexID(i), roadnet.VertexID(i+200)); ok != want {
			t.Fatalf("after two evictions key %d present=%v, want %v", i, ok, want)
		}
	}
	if c.Len() != capacity {
		t.Fatalf("Len after eviction = %d, want %d", c.Len(), capacity)
	}
	// A flush of a full cache and of an empty one behave the same.
	c.Flush()
	c.Flush()
	c.Put(1, 2, 3)
	if d, ok := c.Get(2, 1); !ok || d != 3 || c.Len() != 1 {
		t.Fatalf("cache unusable after repeated flushes: %v %v len %d", d, ok, c.Len())
	}
}

// BenchmarkLRUFlush is one traffic epoch of the daemon's distance cache:
// `live` entries put into a cache of capacity `cap`, then flushed. ns/op
// is fill + flush; flush-ns/op is the flush alone.
func BenchmarkLRUFlush(b *testing.B) {
	const live, capacity = 6000, 1 << 18
	b.Run(fmt.Sprintf("live=%d,cap=%d", live, capacity), func(b *testing.B) {
		c := NewLRU(capacity)
		var flush time.Duration
		for i := 0; i < b.N; i++ {
			for k := 0; k < live; k++ {
				c.Put(roadnet.VertexID(k), roadnet.VertexID(k*7+1), float64(k))
			}
			start := time.Now()
			c.Flush()
			flush += time.Since(start)
		}
		b.ReportMetric(float64(flush.Nanoseconds())/float64(b.N), "flush-ns/op")
	})
}

func TestCachedOracleCorrectAndCounts(t *testing.T) {
	g := testGraph(t, 8, 8, 5)
	counter := NewCounting(NewDijkstra(g))
	cached := NewCached(counter, 128)
	ref := NewDijkstra(g)
	rng := rand.New(rand.NewSource(12))
	n := g.NumVertices()
	for q := 0; q < 500; q++ {
		s := roadnet.VertexID(rng.Intn(n / 3)) // small ID range forces cache hits
		tt := roadnet.VertexID(rng.Intn(n / 3))
		if got, want := cached.Dist(s, tt), ref.Dist(s, tt); math.Abs(got-want) > 1e-9 {
			t.Fatalf("cached dist (%d,%d)=%v want %v", s, tt, got, want)
		}
	}
	hits, misses := cached.Stats()
	if hits == 0 {
		t.Fatal("expected cache hits")
	}
	if counter.Queries != misses {
		t.Fatalf("inner queries %d != misses %d", counter.Queries, misses)
	}
	if counter.Queries >= 500 {
		t.Fatal("cache never avoided an inner query")
	}
}

// TestCachedDeclinesLabelTier: over a CCH, bare or behind the counting and
// locking shims, or behind an epoch front that customizes it, NewCached
// keeps no LRU and forwards every query, counting each as a miss; over
// every other tier it caches and hits as before.
func TestCachedDeclinesLabelTier(t *testing.T) {
	g := testGraph(t, 8, 8, 5)
	n := g.NumVertices()
	cch := BuildCCH(g)
	versioned := func(kind AutoKind) *Versioned { return AdoptVersioned(g, Build(kind, g), kind) }
	for _, c := range []struct {
		name     string
		oracle   Oracle
		forwards bool
	}{
		{"cch", cch, true},
		{"Counting(cch)", NewCounting(cch), true},
		{"Locked(cch)", NewLocked(cch), true},
		{"hub", BuildHubLabels(g), false},
		{"bidijkstra", NewBiDijkstra(g), false},
		{"Versioned(cch)", versioned(AutoCCH), true},
		{"Counting(Versioned(cch))", NewCounting(versioned(AutoCCH)), true},
		{"Versioned(hub)", versioned(AutoHub), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			cached := NewCached(c.oracle, 128)
			if forwards := cached.cache == nil; forwards != c.forwards {
				t.Fatalf("forwards without an LRU = %v, want %v", forwards, c.forwards)
			}
			rng := rand.New(rand.NewSource(12))
			const queries = 500
			for q := 0; q < queries; q++ {
				s := roadnet.VertexID(rng.Intn(n / 3)) // small ID range forces repeats
				d := s + 1 + roadnet.VertexID(rng.Intn(n/3))
				if got, want := cached.Dist(s, d), cch.Dist(s, d); math.Abs(got-want) > 1e-9*(1+want) {
					t.Fatalf("Dist(%d,%d) = %v, want %v", s, d, got, want)
				}
			}
			hits, misses := cached.Stats()
			if hits+misses != queries {
				t.Fatalf("%d hits + %d misses over %d queries", hits, misses, queries)
			}
			if c.forwards != (hits == 0) {
				t.Fatalf("%d hits; a forwarding cache has none, an LRU over this stream must", hits)
			}
		})
	}
}

func BenchmarkDijkstraQuery(b *testing.B) {
	g := testGraph(b, 40, 40, 1)
	d := NewDijkstra(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Dist(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
	}
}

func BenchmarkBiDijkstraQuery(b *testing.B) {
	g := testGraph(b, 40, 40, 1)
	d := NewBiDijkstra(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Dist(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
	}
}

func BenchmarkHubLabelQuery(b *testing.B) {
	g := testGraph(b, 40, 40, 1)
	hub := BuildHubLabels(g)
	rng := rand.New(rand.NewSource(1))
	n := g.NumVertices()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hub.Dist(roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
	}
}

// BenchmarkHubLabelBuild builds the labels of the serve rows' 2.4k-vertex
// city: the build that `setup_s` on serve-steady and serve-overload pays
// for (DESIGN.md §10.1).
func BenchmarkHubLabelBuild(b *testing.B) {
	g := chengduGraph(b, 0.2)
	var h *HubLabels
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h = BuildHubLabels(g)
	}
	b.ReportMetric(h.AvgLabelSize(), "avg-label")
	b.ReportMetric(float64(h.MemoryBytes())/(1<<20), "label-MB")
}
