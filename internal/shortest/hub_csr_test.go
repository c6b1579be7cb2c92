package shortest

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"repro/internal/roadnet"
)

// csrTestGraph generates a random road network for the CSR equivalence
// tests; parameters vary with the seed so layouts, degrees and label
// lengths differ across trials.
func csrTestGraph(t testing.TB, seed int64) *roadnet.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows:          4 + rng.Intn(10),
		Cols:          4 + rng.Intn(10),
		Spacing:       120 + rng.Float64()*200,
		Jitter:        rng.Float64() * 0.4,
		ArterialEvery: 3 + rng.Intn(4),
		MotorwayRing:  rng.Intn(2) == 0,
		RemoveFrac:    rng.Float64() * 0.15,
		DetourMin:     1.01,
		DetourMax:     1.1 + rng.Float64()*0.5,
		Seed:          seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// dist is the reference nested-layout query the CSR layout is
// equivalence-tested against (same merge, pointer-chased storage).
func (nl *nestedLabels) dist(s, t roadnet.VertexID) float64 {
	if s == t {
		return 0
	}
	ra, da := nl.hubRank[s], nl.hubDist[s]
	rb, db := nl.hubRank[t], nl.hubDist[t]
	best := Inf
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] < rb[j]:
			i++
		case ra[i] > rb[j]:
			j++
		default:
			if d := da[i] + db[j]; d < best {
				best = d
			}
			i++
			j++
		}
	}
	return best
}

// TestHubLabelsCSRMatchesNested is the fuzz-style layout-equivalence
// check: on random graphs, the flattened CSR labels must return
// byte-identical distances (same float64 bits, including +Inf) to the
// nested construction layout for every vertex pair.
func TestHubLabelsCSRMatchesNested(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := csrTestGraph(t, seed*911)
		nl := buildNestedLabels(g)
		h := nl.flatten()
		n := g.NumVertices()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				flat := h.Dist(roadnet.VertexID(u), roadnet.VertexID(v))
				nested := nl.dist(roadnet.VertexID(u), roadnet.VertexID(v))
				if math.Float64bits(flat) != math.Float64bits(nested) {
					t.Fatalf("seed %d: Dist(%d,%d): CSR %v != nested %v", seed, u, v, flat, nested)
				}
			}
		}
	}
}

// TestHubLabelsCSRMatchesDijkstra re-checks exactness end to end on the
// flat layout (the nested layout had the same test; keep it pinned on the
// layout actually served).
func TestHubLabelsCSRMatchesDijkstra(t *testing.T) {
	g := csrTestGraph(t, 77)
	h := BuildHubLabels(g)
	d := NewDijkstra(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		u := roadnet.VertexID(rng.Intn(n))
		d.RunAll(u)
		v := roadnet.VertexID(rng.Intn(n))
		want := d.DistTo(v)
		got := h.Dist(u, v)
		if math.Abs(got-want) > 1e-9*(1+want) {
			t.Fatalf("Dist(%d,%d) = %v, Dijkstra %v", u, v, got, want)
		}
	}
}

// TestHubLabelsDistZeroAllocs is the tentpole's oracle-side regression
// test: the innermost operation of the whole system must never allocate.
func TestHubLabelsDistZeroAllocs(t *testing.T) {
	g := csrTestGraph(t, 13)
	h := BuildHubLabels(g)
	n := g.NumVertices()
	rng := rand.New(rand.NewSource(3))
	pairs := make([][2]roadnet.VertexID, 64)
	for i := range pairs {
		pairs[i] = [2]roadnet.VertexID{
			roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)),
		}
	}
	i := 0
	if allocs := testing.AllocsPerRun(200, func() {
		p := pairs[i%len(pairs)]
		h.Dist(p[0], p[1])
		i++
	}); allocs != 0 {
		t.Fatalf("HubLabels.Dist allocates %v per op, want 0", allocs)
	}
}

// hubLabelsDigest is FNV-64a over the CSR arrays of a labeling: offsets,
// hub ranks and the bits of every label distance, each little-endian.
func hubLabelsDigest(h *HubLabels) uint64 {
	f := fnv.New64a()
	var b [8]byte
	for _, o := range h.offsets {
		binary.LittleEndian.PutUint32(b[:4], uint32(o))
		f.Write(b[:4])
	}
	for _, r := range h.hubs {
		binary.LittleEndian.PutUint32(b[:4], uint32(r))
		f.Write(b[:4])
	}
	for _, d := range h.dists {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(d))
		f.Write(b[:])
	}
	return f.Sum64()
}

// TestHubLabelsDigest pins the labeling bit for bit: every pruning
// decision, label entry and distance bit of the build, on the CSR test
// graphs and on the serve rows' 2.4k-vertex city. The constants were
// computed with the per-entry prune check, before covered replaced it.
func TestHubLabelsDigest(t *testing.T) {
	want := [8]uint64{
		0x1498a6e735cc9934, 0x9fe50968afdd39b1, 0xe913ee7ef38b39cf, 0x671b5b706178e9d3,
		0x5fd644fcf81278c8, 0x6dbcc07dd9e1b906, 0xb08320b5031053ff, 0x40e0f9febc80278e,
	}
	for seed := int64(1); seed <= 8; seed++ {
		h := BuildHubLabels(csrTestGraph(t, seed*911))
		if got := hubLabelsDigest(h); got != want[seed-1] {
			t.Errorf("seed %d: labels digest %#016x, want %#016x", seed, got, want[seed-1])
		}
	}
	if testing.Short() {
		t.Skip("the 2.4k-vertex city build takes about a second")
	}
	h := BuildHubLabels(chengduGraph(t, 0.2))
	if got, want := hubLabelsDigest(h), uint64(0xba2e8614982d66b2); got != want {
		t.Errorf("ChengduLike(0.2): labels digest %#016x, want %#016x", got, want)
	}
}
