package shortest

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/roadnet"
)

// randomUpdates returns a small batch of valid traffic updates drawn from
// every selector family.
func randomUpdates(rng *rand.Rand, g *roadnet.Graph) []roadnet.TrafficUpdate {
	classes := []string{"", "motorway", "arterial", "collector", "residential"}
	n := 1 + rng.Intn(3)
	ups := make([]roadnet.TrafficUpdate, 0, n)
	for i := 0; i < n; i++ {
		u := roadnet.TrafficUpdate{Factor: 1 + rng.Float64()*3}
		switch rng.Intn(3) {
		case 0:
			u.Class = classes[rng.Intn(len(classes))]
		case 1:
			b := g.Bounds()
			x0 := b.Min.X + rng.Float64()*b.Width()
			y0 := b.Min.Y + rng.Float64()*b.Height()
			u.BBox = []float64{x0, y0, x0 + rng.Float64()*b.Width(), y0 + rng.Float64()*b.Height()}
		case 2:
			es := g.Edges()
			e := es[rng.Intn(len(es))]
			u.Edges = [][2]int64{{int64(e.U), int64(e.V)}}
		}
		ups = append(ups, u)
	}
	return ups
}

// checkAgainstDijkstra compares o against a fresh Dijkstra on g over
// random pairs.
func checkAgainstDijkstra(t *testing.T, o Oracle, g *roadnet.Graph, rng *rand.Rand, pairs int, label string) {
	t.Helper()
	ref := NewDijkstra(g)
	n := g.NumVertices()
	for i := 0; i < pairs; i++ {
		s := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		want := ref.Dist(s, d)
		got := o.Dist(s, d)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("%s: Dist(%d,%d)=%v want %v (epoch %d)", label, s, d, got, want, g.WeightEpoch())
		}
	}
}

// TestVersionedMatchesDijkstraAcrossEpochs is the tentpole's equivalence
// criterion: after any sequence of traffic updates, every tier — and the
// cached chains above it — answers exactly like a fresh Dijkstra on the
// current weights.
func TestVersionedMatchesDijkstraAcrossEpochs(t *testing.T) {
	g := testGraph(t, 13, 13, 21)
	n := g.NumVertices()
	budgets := map[string]AutoBudget{
		"hub":        {MaxHubVertices: n, MaxCHVertices: n},
		"cch":        {MaxHubVertices: 0, MaxCCHVertices: n, MaxCHVertices: n},
		"ch":         {MaxHubVertices: 0, MaxCHVertices: n},
		"bidijkstra": {MaxHubVertices: 0, MaxCHVertices: 0},
	}
	for name, budget := range budgets {
		t.Run(name, func(t *testing.T) {
			if got := budget.Choose(n); string(got) != name {
				t.Fatalf("budget resolves to %s, want %s", got, name)
			}
			overlay := roadnet.NewOverlay(g)
			v := NewVersioned(g, budget, false)
			cached := NewCached(NewCounting(v), 1<<12)
			rng := rand.New(rand.NewSource(7))
			for epoch := 0; epoch < 5; epoch++ {
				if epoch > 0 {
					cur, e, _, err := overlay.Apply(randomUpdates(rng, g))
					if err != nil {
						t.Fatal(err)
					}
					v.Advance(cur, e)
				}
				if v.Epoch() != overlay.Epoch() {
					t.Fatalf("versioned epoch %d != overlay %d", v.Epoch(), overlay.Epoch())
				}
				cur := overlay.Graph()
				checkAgainstDijkstra(t, v, cur, rng, 80, "versioned")
				checkAgainstDijkstra(t, cached, cur, rng, 80, "cached")
			}
		})
	}
}

// TestVersionedNeverServesStaleTier pins the re-tiering contract: the
// moment Advance returns, queries reflect the new weights — first through
// the live tier while the preprocessed rebuild is still in flight, then
// through the rebuilt tier — and the resolved kind transitions
// hub → bidijkstra (live) → hub without ever answering from the stale
// hub labels.
func TestVersionedNeverServesStaleTier(t *testing.T) {
	g := testGraph(t, 12, 12, 3)
	budget := AutoBudget{MaxHubVertices: g.NumVertices(), MaxCHVertices: g.NumVertices()}
	overlay := roadnet.NewOverlay(g)
	v := NewVersioned(g, budget, true)
	if v.ResolvedKind() != AutoHub {
		t.Fatalf("epoch 0 kind %s", v.ResolvedKind())
	}

	cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(cur, epoch)
	// Immediately after Advance (rebuild may still be running) every
	// answer must already be a new-weight distance.
	rng := rand.New(rand.NewSource(11))
	checkAgainstDijkstra(t, v, cur, rng, 60, "during rebuild")

	v.WaitRebuild()
	if v.ResolvedKind() != AutoHub {
		t.Fatalf("kind after rebuild %s, want hub", v.ResolvedKind())
	}
	if v.Rebuilds() != 1 || v.LastRebuild() <= 0 {
		t.Fatalf("rebuilds=%d last=%v", v.Rebuilds(), v.LastRebuild())
	}
	checkAgainstDijkstra(t, v, cur, rng, 60, "after rebuild")
}

// TestVersionedConcurrentDistDuringRebuild hammers Dist from many
// goroutines while epochs advance with asynchronous rebuilds; run under
// -race it is the data-race check, and every observed value must be the
// exact distance of SOME applied epoch for that pair (queries may
// linearize on either side of an in-flight Advance, but never off-epoch).
func TestVersionedConcurrentDistDuringRebuild(t *testing.T) {
	g := testGraph(t, 10, 10, 5)
	n := g.NumVertices()
	budget := AutoBudget{MaxHubVertices: n, MaxCHVertices: n}
	overlay := roadnet.NewOverlay(g)
	v := NewVersioned(g, budget, true)
	cached := NewLocked(NewCached(NewCounting(v), 1<<10))

	const epochs = 4
	const pairs = 32
	rng := rand.New(rand.NewSource(13))
	ss := make([]roadnet.VertexID, pairs)
	ts := make([]roadnet.VertexID, pairs)
	for i := range ss {
		ss[i] = roadnet.VertexID(rng.Intn(n))
		ts[i] = roadnet.VertexID(rng.Intn(n))
	}
	// Precompute the admissible per-epoch answers.
	factors := []float64{1, 1.5, 2, 2.5, 3}
	want := make([][]float64, epochs+1)
	graphs := make([]*roadnet.Graph, epochs+1)
	graphs[0] = g
	pre := roadnet.NewOverlay(g)
	for e := 1; e <= epochs; e++ {
		cur, _, _, err := pre.Apply([]roadnet.TrafficUpdate{{Factor: factors[e]}})
		if err != nil {
			t.Fatal(err)
		}
		graphs[e] = cur
	}
	for e := 0; e <= epochs; e++ {
		ref := NewDijkstra(graphs[e])
		want[e] = make([]float64, pairs)
		for i := range ss {
			want[e][i] = ref.Dist(ss[i], ts[i])
		}
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := Oracle(v)
			if w%2 == 1 {
				o = cached
			}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % pairs
				got := o.Dist(ss[k], ts[k])
				ok := false
				for e := 0; e <= epochs; e++ {
					if math.Abs(got-want[e][k]) <= 1e-6*(1+got) {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("worker %d: Dist(%d,%d)=%v matches no epoch", w, ss[k], ts[k], got)
					return
				}
			}
		}(w)
	}
	for e := 1; e <= epochs; e++ {
		cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: factors[e]}})
		if err != nil {
			t.Fatal(err)
		}
		v.Advance(cur, epoch)
	}
	v.WaitRebuild()
	close(stop)
	wg.Wait()

	// After the dust settles, only the final epoch may answer.
	for i := range ss {
		if got := cached.Dist(ss[i], ts[i]); math.Abs(got-want[epochs][i]) > 1e-6*(1+got) {
			t.Fatalf("final epoch: Dist(%d,%d)=%v want %v", ss[i], ts[i], got, want[epochs][i])
		}
	}
}

// TestCachedFlushOnEpochAdvance pins the cache-invalidation mechanics
// directly: a hit cached under epoch 0 must not survive an advance.
func TestCachedFlushOnEpochAdvance(t *testing.T) {
	g := testGraph(t, 8, 8, 9)
	overlay := roadnet.NewOverlay(g)
	v := NewVersioned(g, AutoBudget{MaxHubVertices: g.NumVertices(), MaxCHVertices: g.NumVertices()}, false)
	c := NewCached(v, 1<<10)
	s, d := roadnet.VertexID(1), roadnet.VertexID(g.NumVertices()-2)
	before := c.Dist(s, d)
	if again := c.Dist(s, d); again != before {
		t.Fatal("cache not answering")
	}
	cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 3}})
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(cur, epoch)
	after := c.Dist(s, d)
	wantAfter := NewDijkstra(cur).Dist(s, d)
	if math.Abs(after-wantAfter) > 1e-9 {
		t.Fatalf("cached answer %v after advance, want %v (stale cache?)", after, wantAfter)
	}
	if after == before {
		t.Fatalf("slowdown did not change the distance (%v); test graph too small", after)
	}
}

// TestVersionedLiveTierBuiltOnDemand pins who pays for the fallback
// engine: a synchronous Advance has the built tier back before it returns
// and allocates no live engine; the first query that does fall back (here
// forced, as a caller racing Advance from another goroutine would see it)
// builds one on the current snapshot, later fallbacks of the epoch reuse
// it, and the next epoch drops it. Async mode builds it in Advance, where
// queries are expected to need it.
func TestVersionedLiveTierBuiltOnDemand(t *testing.T) {
	g := testGraph(t, 9, 9, 4)
	overlay := roadnet.NewOverlay(g)
	v := AdoptVersioned(g, BuildCCH(g), AutoCCH, DefaultAutoBudget(), false)
	if v.live != nil {
		t.Fatal("live engine allocated at construction")
	}
	cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 2}})
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(cur, epoch)
	rng := rand.New(rand.NewSource(3))
	checkAgainstDijkstra(t, v, cur, rng, 40, "built tier")
	if v.live != nil {
		t.Fatal("synchronous Advance (or a query the built tier answered) allocated a live engine")
	}

	v.builtOK = false // what a query racing Advance observes
	checkAgainstDijkstra(t, v, cur, rng, 40, "forced fallback")
	first := v.live
	if first == nil {
		t.Fatal("fallback query answered without a live engine")
	}
	v.Dist(0, roadnet.VertexID(g.NumVertices()-1))
	if v.live != first {
		t.Fatal("live engine rebuilt within one epoch")
	}
	v.builtOK = true

	cur, epoch, _, err = overlay.Apply([]roadnet.TrafficUpdate{{Factor: 3}})
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(cur, epoch)
	if v.live != nil {
		t.Fatal("live engine of a superseded epoch kept")
	}
	checkAgainstDijkstra(t, v, cur, rng, 40, "next epoch")

	av := AdoptVersioned(g, BuildCCH(g), AutoCCH, DefaultAutoBudget(), true)
	av.Advance(cur, epoch)
	av.mu.RLock()
	eager := av.live != nil
	av.mu.RUnlock()
	av.WaitRebuild()
	if !eager {
		t.Fatal("async Advance left the live tier unbuilt")
	}
}

// approxEq absorbs the last-ULP differences between oracles: the
// bidirectional search sums a path in a different order from the matrix's
// Dijkstra rows, so exact equality is too strict.
func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(b))
}

func concurrencyGraph(t *testing.T) *roadnet.Graph {
	t.Helper()
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 12, Cols: 12, Spacing: 140, Jitter: 0.2,
		ArterialEvery: 4, DetourMin: 1.05, DetourMax: 1.3, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestLockedBiDijkstra verifies the mutex wrapper makes the stateful
// bidirectional Dijkstra safe (and still exact) under concurrent callers.
func TestLockedBiDijkstra(t *testing.T) {
	g := concurrencyGraph(t)
	m := NewMatrix(g)
	l := NewLocked(NewBiDijkstra(g))
	n := g.NumVertices()
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 200; i++ {
				u := roadnet.VertexID(rng.Intn(n))
				v := roadnet.VertexID(rng.Intn(n))
				if got, want := l.Dist(u, v), m.Dist(u, v); !approxEq(got, want) {
					t.Errorf("dist(%d,%d) = %v, want %v", u, v, got, want)
					return
				}
			}
		}(int64(w) * 13)
	}
	wg.Wait()
}
