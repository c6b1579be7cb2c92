package shortest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

// bidiPath is the leg search BiDijkstra.Path ran before it had landmarks:
// the bidirectional search Dist still uses, with the path stitched from both
// parent trees at the meeting vertex. It is the reference the landmark
// search must reproduce vertex for vertex.
func (b *BiDijkstra) bidiPath(s, t roadnet.VertexID) []roadnet.VertexID {
	d, meet := b.search(s, t)
	if d == Inf {
		return nil
	}
	path := b.fwd.extractPath(s, meet)
	back := b.bwd.extractPath(t, meet) // t .. meet
	for i := len(back) - 2; i >= 0; i-- {
		path = append(path, back[i])
	}
	return path
}

// Path is the plain Dijkstra reference for a leg: a shortest s→t vertex
// path (inclusive), or nil if t is unreachable.
func (d *Dijkstra) Path(s, t roadnet.VertexID) []roadnet.VertexID {
	if d.Dist(s, t) == Inf {
		return nil
	}
	return d.extractPath(s, t)
}

func samePath(a, b []roadnet.VertexID) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// archipelago has more components than there are landmarks: twelve 3-vertex
// roads. Some components get no landmark at all.
func archipelago(t testing.TB) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(36, 24)
	for k := 0; k < 12; k++ {
		for i := 0; i < 3; i++ {
			b.AddVertex(geo.Point{X: float64(k) * 1e4, Y: float64(i) * 100})
		}
		for i := 0; i < 2; i++ {
			if err := b.AddEdge(roadnet.VertexID(3*k+i), roadnet.VertexID(3*k+i+1), 100+float64(k+i), geo.Residential); err != nil {
				t.Fatal(err)
			}
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLegPathIdentical checks the landmark search against the search it
// replaced, not against itself: on generated networks (two of them
// disconnected) under free flow and under a traffic snapshot with factors
// from 1 to 1000 (an effectively closed road), every path must be the
// bidirectional search's path vertex for vertex, cost Dijkstra's distance,
// and be nil exactly across components.
func TestLegPathIdentical(t *testing.T) {
	nets := map[string]*roadnet.Graph{
		"grid16x20":   testGraph(t, 16, 20, 15),
		"grid30x30":   testGraph(t, 30, 30, 4),
		"islands":     twoIslands(t),
		"archipelago": archipelago(t),
	}
	queries := 2000
	if testing.Short() {
		queries = 400
	}
	for name, free := range nets {
		rng := rand.New(rand.NewSource(31))
		ups := randomUpdates(rng, free)
		es := free.Edges()
		for i := 0; i < 3; i++ {
			e := es[rng.Intn(len(es))]
			ups = append(ups, roadnet.TrafficUpdate{Factor: roadnet.MaxTrafficFactor, Edges: [][2]int64{{int64(e.U), int64(e.V)}}})
		}
		jam, _, _, err := roadnet.NewOverlay(free).Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		for mname, g := range map[string]*roadnet.Graph{"free": free, "traffic": jam} {
			lm, ref, dij := NewBiDijkstra(g), NewBiDijkstra(g), NewDijkstra(g)
			n, cut := g.NumVertices(), 0
			for q := 0; q < queries; q++ {
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID(rng.Intn(n))
				if q%50 == 0 {
					d = s
				}
				got, want := lm.Path(s, d, Inf), ref.bidiPath(s, d)
				if !samePath(got, want) {
					t.Fatalf("%s/%s: Path(%d,%d)\n landmark      %v\n bidirectional %v", name, mname, s, d, got, want)
				}
				if got == nil {
					cut++
					continue
				}
				if cost, dist := pathCost(t, g, got), dij.Dist(s, d); math.Abs(cost-dist) > 1e-6 {
					t.Fatalf("%s/%s: Path(%d,%d) costs %v, Dijkstra %v", name, mname, s, d, cost, dist)
				}
			}
			if connected := name == "grid16x20" || name == "grid30x30"; connected != (cut == 0) {
				t.Fatalf("%s/%s: %d unreachable pairs", name, mname, cut)
			}
		}
	}
}

// TestLegPathWithinBound holds the bounded search to the unbounded one on
// TestLegPathIdentical's networks, free flow and traffic: whatever the
// bound — none, the simulator's LegBound, the distance D itself, D/2, 0 or
// NaN — the path is the unbounded path vertex for vertex, so a bound too
// tight to reach t still returns it (at exactly D, rounding in the
// potential can lift a key on the path an ulp above D). With LegBound the
// search must pop exactly what the unbounded one pops — the same number
// of settlements, where a second search would add to it — while reaching
// no more vertices, and fewer on most legs: that is the saving.
func TestLegPathWithinBound(t *testing.T) {
	nets := map[string]*roadnet.Graph{
		"grid16x20":   testGraph(t, 16, 20, 15),
		"grid30x30":   testGraph(t, 30, 30, 4),
		"islands":     twoIslands(t),
		"archipelago": archipelago(t),
	}
	queries := 600
	if testing.Short() {
		queries = 150
	}
	for name, free := range nets {
		rng := rand.New(rand.NewSource(43))
		ups := append(randomUpdates(rng, free), roadnet.TrafficUpdate{Factor: roadnet.MaxTrafficFactor, Class: "arterial"})
		jam, _, _, err := roadnet.NewOverlay(free).Apply(ups)
		if err != nil {
			t.Fatal(err)
		}
		for mname, g := range map[string]*roadnet.Graph{"free": free, "traffic": jam} {
			ref, b, dij := NewBiDijkstra(g), NewBiDijkstra(g), NewDijkstra(g)
			n, saved := g.NumVertices(), 0
			for q := 0; q < queries; q++ {
				s, d := roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))
				want := ref.Path(s, d, Inf)
				refSeen := seenCount(ref)
				D := Inf
				if want != nil {
					D = pathCost(t, g, want)
				}
				now := float64(rng.Intn(86400))
				leg := LegBound(g, d, now, now+dij.Dist(s, d))
				for _, within := range []float64{Inf, leg, D, D / 2, 0, math.NaN()} {
					got := b.Path(s, d, within)
					if !samePath(got, want) {
						t.Fatalf("%s/%s: Path(%d,%d,%v) with D = %v\n bounded   %v\n unbounded %v", name, mname, s, d, within, D, got, want)
					}
					if within != leg {
						continue
					}
					if b.Settled != ref.Settled {
						t.Fatalf("%s/%s: Path(%d,%d,%v) with D = %v settled %d, unbounded %d", name, mname, s, d, within, D, b.Settled, ref.Settled)
					}
					if seen := seenCount(b); seen > refSeen {
						t.Fatalf("%s/%s: Path(%d,%d,%v) reached %d vertices, unbounded %d", name, mname, s, d, within, seen, refSeen)
					} else if seen < refSeen {
						saved++
					}
				}
			}
			if connected := name == "grid16x20" || name == "grid30x30"; connected && saved < queries/2 {
				t.Fatalf("%s/%s: LegBound pruned on %d of %d legs", name, mname, saved, queries)
			}
		}
	}
}

// TestLegPathOneAllocation: a leg is the returned path and nothing else.
func TestLegPathOneAllocation(t *testing.T) {
	g := testGraph(t, 20, 20, 9)
	b, d := NewBiDijkstra(g), NewDijkstra(g)
	b.Path(0, 1, Inf)
	within := LegBound(g, 388, 0, d.Dist(3, 388))
	for _, w := range []float64{Inf, within} {
		if a := testing.AllocsPerRun(50, func() { b.Path(3, 388, w) }); a != 1 {
			t.Fatalf("BiDijkstra.Path within %v: %v allocs, want 1", w, a)
		}
	}
	if a := testing.AllocsPerRun(50, func() { d.Path(3, 388) }); a != 1 {
		t.Fatalf("Dijkstra.Path: %v allocs, want 1", a)
	}
}

// FuzzLegPath builds a 6×6 grid whose edge lengths come from the fuzz input
// (small integers, so equal-cost paths are everywhere; a zero byte removes
// the edge, so the grid falls apart into components) and a bound between 0
// and twice Dijkstra's distance, and checks what must hold even where the
// shortest path is not unique: every hop is an edge, the cost is Dijkstra's
// distance, nil means unreachable, and no vertex was settled twice in the
// search that returned — a bound too tight to reach t leaves the first
// search's settlements in Settled on top of the unbounded search's.
func FuzzLegPath(f *testing.F) {
	f.Add([]byte{1}, uint8(0), uint8(35), uint8(128))
	f.Add([]byte{3, 0, 7, 1, 9, 0, 2}, uint8(5), uint8(30), uint8(255))
	f.Add([]byte{0, 0, 1, 0}, uint8(2), uint8(3), uint8(0))
	f.Add([]byte("jittered \x01\xff\x80 costs"), uint8(7), uint8(28), uint8(64))
	f.Add([]byte{2, 5, 1, 1, 4}, uint8(0), uint8(35), uint8(127))
	f.Fuzz(func(t *testing.T, lens []byte, from, to, frac uint8) {
		if len(lens) == 0 {
			t.Skip()
		}
		const side = 6
		bld := roadnet.NewBuilder(side*side, 2*side*side)
		for i := 0; i < side*side; i++ {
			bld.AddVertex(geo.Point{X: float64(i%side) * 100, Y: float64(i/side) * 100})
		}
		k := 0
		edge := func(u, v int) {
			if l := lens[k%len(lens)]; l != 0 {
				if err := bld.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v), 10*float64(l), geo.Residential); err != nil {
					t.Fatal(err)
				}
			}
			k++
		}
		for i := 0; i < side*side; i++ {
			if i%side+1 < side {
				edge(i, i+1)
			}
			if i+side < side*side {
				edge(i, i+side)
			}
		}
		g, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		s, d := roadnet.VertexID(from%(side*side)), roadnet.VertexID(to%(side*side))
		want := NewDijkstra(g).Dist(s, d)
		ref := NewBiDijkstra(g)
		if ref.Path(s, d, Inf) != nil {
			if c := closedCount(ref); ref.Settled != c {
				t.Fatalf("Path(%d,%d,Inf): %d settlements of %d distinct vertices", s, d, ref.Settled, c)
			}
		}
		within := want * float64(frac) / 128
		b := NewBiDijkstra(g)
		path := b.Path(s, d, within)
		if path == nil {
			if want != Inf {
				t.Fatalf("Path(%d,%d,%v) nil, Dijkstra %v", s, d, within, want)
			}
			return
		}
		if path[0] != s || path[len(path)-1] != d {
			t.Fatalf("Path(%d,%d,%v) endpoints: %v", s, d, within, path)
		}
		if got := pathCost(t, g, path); math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("Path(%d,%d,%v) costs %v, Dijkstra %v", s, d, within, got, want)
		}
		// Integer costs make every sum and the potential exact, so a bound
		// of at least D keeps every vertex of a shortest path: one search.
		c := closedCount(b)
		if b.Settled != c && (within >= want || c != ref.Settled || b.Settled <= c) {
			t.Fatalf("Path(%d,%d,%v): %d settlements of %d distinct vertices", s, d, within, b.Settled, c)
		}
	})
}

// closedCount counts the vertices b's last search settled: seen and off
// the heap.
func closedCount(b *BiDijkstra) int {
	closed := 0
	for v := range b.fwd.version {
		if b.fwd.seen(roadnet.VertexID(v)) && !b.fwd.heap.Contains(int32(v)) {
			closed++
		}
	}
	return closed
}

// seenCount counts the vertices b's last search pushed.
func seenCount(b *BiDijkstra) int {
	seen := 0
	for v := range b.fwd.version {
		if b.fwd.seen(roadnet.VertexID(v)) {
			seen++
		}
	}
	return seen
}

// legPairs draws endpoint pairs a leg's length apart (300 m–3.2 km).
func legPairs(g *roadnet.Graph, n int) [][2]roadnet.VertexID {
	rng := rand.New(rand.NewSource(17))
	pairs := make([][2]roadnet.VertexID, 0, n)
	for len(pairs) < n {
		s := roadnet.VertexID(rng.Intn(g.NumVertices()))
		d := roadnet.VertexID(rng.Intn(g.NumVertices()))
		if m := g.Euclid(s, d); m >= 300 && m <= 3200 {
			pairs = append(pairs, [2]roadnet.VertexID{s, d})
		}
	}
	return pairs
}

// BenchmarkLegPath decomposes the leg-search win on the plan-offline city:
// the bidirectional search against the landmark search over the same
// leg-length pairs, unbounded and bounded by LegBound over the CCH
// distance (what the simulator passes), and what a snapshot's landmark
// rows cost to build.
func BenchmarkLegPath(b *testing.B) {
	g, err := roadnet.Generate(workload.ChengduLike(0.5).Net)
	if err != nil {
		b.Fatal(err)
	}
	pairs := legPairs(g, 4096)
	cch := BuildCCH(g)
	bounds := make([]float64, len(pairs))
	for k, p := range pairs {
		bounds[k] = LegBound(g, p[1], 0, cch.Dist(p[0], p[1]))
	}
	eng := NewBiDijkstra(g)
	eng.Path(0, 1, Inf)
	for _, c := range []struct {
		name string
		path func(k int) []roadnet.VertexID
	}{
		{"bidirectional", func(k int) []roadnet.VertexID { return eng.bidiPath(pairs[k][0], pairs[k][1]) }},
		{"landmark", func(k int) []roadnet.VertexID { return eng.Path(pairs[k][0], pairs[k][1], Inf) }},
		{"bounded", func(k int) []roadnet.VertexID { return eng.Path(pairs[k][0], pairs[k][1], bounds[k]) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			settled := 0
			for i := 0; i < b.N; i++ {
				if c.path(i%len(pairs)) == nil {
					b.Fatal("no path")
				}
				settled += eng.Settled
			}
			b.ReportMetric(float64(settled)/float64(b.N), "settled/op")
		})
	}
	b.Run("landmark-build", func(b *testing.B) {
		b.ReportAllocs()
		ov := roadnet.NewOverlay(g)
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			snap, _, _, err := ov.Apply([]roadnet.TrafficUpdate{{Factor: 1}})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			snap.Landmarks()
		}
	})
}
