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
// current weights. Each tier is adopted explicitly on a graph where auto
// would pick hub, and it is the tier the front keeps: a cch front
// customizes once per epoch, the others rebuild their own kind.
func TestVersionedMatchesDijkstraAcrossEpochs(t *testing.T) {
	g := testGraph(t, 13, 13, 21)
	for _, kind := range []AutoKind{AutoHub, AutoCCH, AutoBiDijkstra} {
		t.Run(string(kind), func(t *testing.T) {
			overlay := roadnet.NewOverlay(g)
			v := AdoptVersioned(g, Build(kind, g), kind)
			cached := NewCached(v, 1<<12)
			rng := rand.New(rand.NewSource(7))
			const epochs = 4
			for epoch := 0; epoch <= epochs; epoch++ {
				if epoch > 0 {
					cur, e, _, err := overlay.Apply(randomUpdates(rng, g))
					if err != nil {
						t.Fatal(err)
					}
					v.Advance(cur, e)
				}
				if got := v.ResolvedKind(); got != kind {
					t.Fatalf("epoch %d: front answers from %s, adopted %s", epoch, got, kind)
				}
				if v.Epoch() != overlay.Epoch() {
					t.Fatalf("versioned epoch %d != overlay %d", v.Epoch(), overlay.Epoch())
				}
				cur := overlay.Graph()
				checkAgainstDijkstra(t, v, cur, rng, 80, "versioned")
				checkAgainstDijkstra(t, cached, cur, rng, 80, "cached")
			}
			want := uint64(0)
			if kind == AutoCCH {
				want = epochs
			}
			if got := v.Customizations(); got != want {
				t.Fatalf("customizations = %d, want %d", got, want)
			}
		})
	}
}

// TestVersionedNeverServesStaleTier pins the epoch contract: the moment
// Advance returns, queries reflect the new weights, answered by the same
// hub tier rebuilt on them — never by the stale labels.
func TestVersionedNeverServesStaleTier(t *testing.T) {
	g := testGraph(t, 12, 12, 3)
	overlay := roadnet.NewOverlay(g)
	v := AdoptVersioned(g, BuildHubLabels(g), AutoHub)

	cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 2.5}})
	if err != nil {
		t.Fatal(err)
	}
	v.Advance(cur, epoch)
	if v.ResolvedKind() != AutoHub {
		t.Fatalf("kind after rebuild %s, want hub", v.ResolvedKind())
	}
	if v.Rebuilds() != 1 || v.LastRebuild() <= 0 {
		t.Fatalf("rebuilds=%d last=%v", v.Rebuilds(), v.LastRebuild())
	}
	rng := rand.New(rand.NewSource(11))
	checkAgainstDijkstra(t, v, cur, rng, 120, "after Advance")
}

// TestVersionedConcurrentDistDuringRebuild hammers Dist from many
// goroutines while epochs advance with hub rebuilds; run under -race it is
// the data-race check for the write lock Advance holds across a rebuild.
func TestVersionedConcurrentDistDuringRebuild(t *testing.T) {
	g := testGraph(t, 10, 10, 5)
	v := AdoptVersioned(g, BuildHubLabels(g), AutoHub)
	hammerVersioned(t, g, v, 13)
	if v.Rebuilds() != hammerEpochs || v.Customizations() != 0 {
		t.Fatalf("rebuilds=%d customizations=%d, want %d and 0", v.Rebuilds(), v.Customizations(), hammerEpochs)
	}
}

// hammerEpochs is how many epochs hammerVersioned advances through.
const hammerEpochs = 4

// hammerVersioned queries v from four goroutines, half of them through a
// locked cache, while the main goroutine advances it hammerEpochs times.
// Every observed value must be the exact distance of SOME applied epoch
// for that pair (queries linearize on either side of an Advance, never off
// epoch), and once the last Advance has returned only the final epoch may
// answer.
func hammerVersioned(t *testing.T, g *roadnet.Graph, v *Versioned, seed int64) {
	t.Helper()
	n := g.NumVertices()
	overlay := roadnet.NewOverlay(g)
	cached := NewLocked(NewCached(v, 1<<10))

	const pairs = 32
	rng := rand.New(rand.NewSource(seed))
	ss := make([]roadnet.VertexID, pairs)
	ts := make([]roadnet.VertexID, pairs)
	for i := range ss {
		ss[i] = roadnet.VertexID(rng.Intn(n))
		ts[i] = roadnet.VertexID(rng.Intn(n))
	}
	// Precompute the admissible per-epoch answers.
	factors := []float64{1, 1.5, 2, 2.5, 3}
	want := make([][]float64, hammerEpochs+1)
	graphs := make([]*roadnet.Graph, hammerEpochs+1)
	graphs[0] = g
	pre := roadnet.NewOverlay(g)
	for e := 1; e <= hammerEpochs; e++ {
		cur, _, _, err := pre.Apply([]roadnet.TrafficUpdate{{Factor: factors[e]}})
		if err != nil {
			t.Fatal(err)
		}
		graphs[e] = cur
	}
	for e := 0; e <= hammerEpochs; e++ {
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
				for e := 0; e <= hammerEpochs; e++ {
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
	for e := 1; e <= hammerEpochs; e++ {
		cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: factors[e]}})
		if err != nil {
			t.Fatal(err)
		}
		v.Advance(cur, epoch)
	}
	close(stop)
	wg.Wait()

	for i := range ss {
		if got := cached.Dist(ss[i], ts[i]); math.Abs(got-want[hammerEpochs][i]) > 1e-6*(1+got) {
			t.Fatalf("final epoch: Dist(%d,%d)=%v want %v", ss[i], ts[i], got, want[hammerEpochs][i])
		}
	}
}

// TestCachedFlushOnEpochAdvance pins the cache-invalidation mechanics
// directly: a hit cached under epoch 0 must not survive an advance.
func TestCachedFlushOnEpochAdvance(t *testing.T) {
	g := testGraph(t, 8, 8, 9)
	overlay := roadnet.NewOverlay(g)
	v := AdoptVersioned(g, BuildHubLabels(g), AutoHub)
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
