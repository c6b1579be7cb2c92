package shortest

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

// pickBatch draws a batch of vertices with deliberate duplicates and
// shared entries so the diagonal (s == t) and repeated-vertex paths are
// exercised.
func pickBatch(rng *rand.Rand, n, size int) []roadnet.VertexID {
	out := make([]roadnet.VertexID, size)
	for i := range out {
		out[i] = roadnet.VertexID(rng.Intn(n))
	}
	if size >= 2 {
		out[size-1] = out[0] // guaranteed duplicate
	}
	return out
}

// requireBitIdentical compares every table cell against the point oracle
// bit-for-bit: the serve layer swaps table cells in for point queries
// mid-replay, so "close" is not good enough.
func requireBitIdentical(t *testing.T, tag string, cells []float64,
	sources, targets []roadnet.VertexID, point Oracle) {
	t.Helper()
	nt := len(targets)
	for i, s := range sources {
		for j, tt := range targets {
			got := cells[i*nt+j]
			want := point.Dist(s, tt)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: cell(%d,%d)=dist(%d,%d): table %v point %v (bits %x vs %x)",
					tag, i, j, s, tt, got, want,
					math.Float64bits(got), math.Float64bits(want))
			}
		}
	}
}

// TestManyToManyMatchesPointDist is the tentpole equivalence suite: for
// every tier that has a batched filler (only hub: cch answers from labels
// and has none, see TestManyToManyFor), on several randomized graphs, a
// batched table fill must reproduce the point oracle bit-for-bit —
// including the diagonal, duplicates, and arena reuse across consecutive
// batches.
func TestManyToManyMatchesPointDist(t *testing.T) {
	tiers := []struct {
		name  string
		build func(g *roadnet.Graph) Oracle
	}{
		{"hub", func(g *roadnet.Graph) Oracle { return BuildHubLabels(g) }},
	}
	for _, tier := range tiers {
		t.Run(tier.name, func(t *testing.T) {
			for seed := int64(1); seed <= 3; seed++ {
				g := testGraph(t, 11+int(seed), 13, seed)
				o := tier.build(g)
				mtm := ManyToManyFor(o)
				if mtm == nil {
					t.Fatalf("ManyToManyFor(%T) = nil", o)
				}
				rng := rand.New(rand.NewSource(seed * 77))
				a := NewTableArena()
				n := g.NumVertices()
				// Several batches through ONE arena: reuse must not leak
				// state between fills.
				for batch := 0; batch < 4; batch++ {
					sources := pickBatch(rng, n, 1+rng.Intn(9))
					targets := pickBatch(rng, n, 1+rng.Intn(9))
					if batch == 2 {
						targets[0] = sources[0] // force a diagonal cell
					}
					cells := mtm.Table(a, sources, targets)
					requireBitIdentical(t, tier.name, cells, sources, targets, o)
				}
				// Empty batches return empty tables without touching state.
				if got := mtm.Table(a, nil, nil); len(got) != 0 {
					t.Fatalf("empty batch returned %d cells", len(got))
				}
			}
		})
	}
}

// TestManyToManyFor pins which tier gets which filler, through every shim
// the query chains wrap a tier in: hub labels scatter-merge, and the two
// tiers without a filler yield nil — BiDijkstra has no bit-identical
// batched form, and a CCH label already is the cached upward sweep a table
// fill would redo.
func TestManyToManyFor(t *testing.T) {
	g := testGraph(t, 8, 8, 3)
	shims := []struct {
		name string
		wrap func(Oracle) Oracle
	}{
		{"bare", func(o Oracle) Oracle { return o }},
		{"Locked", func(o Oracle) Oracle { return NewLocked(o) }},
		{"Cached", func(o Oracle) Oracle { return NewCached(o, 64) }},
		{"Locked(Cached)", func(o Oracle) Oracle { return NewLocked(NewCached(o, 64)) }},
	}
	tiers := []struct {
		name string
		o    Oracle
		want string
	}{
		{"hub", BuildHubLabels(g), "*shortest.HubMtM"},
		{"cch", BuildCCH(g), "<nil>"},
		{"bidijkstra", NewBiDijkstra(g), "<nil>"},
	}
	for _, tier := range tiers {
		for _, shim := range shims {
			if got := fmt.Sprintf("%T", ManyToManyFor(shim.wrap(tier.o))); got != tier.want {
				t.Errorf("ManyToManyFor(%s under %s) = %s, want %s", tier.name, shim.name, got, tier.want)
			}
		}
	}
}

// TestCurrentTier checks the Versioned accessor batch prefetchers use:
// it must expose the unwrapped tier.
func TestCurrentTier(t *testing.T) {
	g := testGraph(t, 9, 9, 2)
	kind := Choose(g.NumVertices())
	v := AdoptVersioned(g, Build(kind, g), kind)
	tier, kind := v.CurrentTier()
	if tier == nil {
		t.Fatal("CurrentTier returned no tier")
	}
	if kind != v.ResolvedKind() {
		t.Fatalf("kind %v != resolved %v", kind, v.ResolvedKind())
	}
	if _, locked := tier.(*Locked); locked {
		t.Fatal("CurrentTier returned a Locked shim; batch fillers need the raw tier")
	}
	if ManyToManyFor(tier) == nil {
		t.Fatalf("no batched filler for current tier %T", tier)
	}
	// The table a filler produces from the unwrapped tier must match the
	// Versioned front's own answers bit-for-bit.
	rng := rand.New(rand.NewSource(8))
	a := NewTableArena()
	n := g.NumVertices()
	sources := pickBatch(rng, n, 6)
	targets := pickBatch(rng, n, 6)
	cells := ManyToManyFor(tier).Table(a, sources, targets)
	requireBitIdentical(t, "versioned", cells, sources, targets, v)
}
