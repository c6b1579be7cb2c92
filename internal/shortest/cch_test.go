package shortest

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/workload"
)

func TestCCHMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 16, 20, 15)
	cch := BuildCCH(g)
	dij := NewDijkstra(g)
	rng := rand.New(rand.NewSource(42))
	n := g.NumVertices()
	for q := 0; q < 500; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		tt := roadnet.VertexID(rng.Intn(n))
		want := dij.Dist(s, tt)
		got := cch.Dist(s, tt)
		if math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("CCH (%d,%d)=%v want %v", s, tt, got, want)
		}
	}
}

func TestCCHSelfAndDisconnected(t *testing.T) {
	g := testGraph(t, 6, 6, 3)
	cch := BuildCCH(g)
	for v := 0; v < g.NumVertices(); v += 5 {
		if d := cch.Dist(roadnet.VertexID(v), roadnet.VertexID(v)); d != 0 {
			t.Fatalf("self distance %v", d)
		}
	}
	b := roadnet.NewBuilder(4, 2)
	b.AddVertex(geo.Point{})
	b.AddVertex(geo.Point{X: 10})
	b.AddVertex(geo.Point{X: 1000})
	b.AddVertex(geo.Point{X: 1010})
	b.AddEdge(0, 1, 10, geo.Residential)
	b.AddEdge(2, 3, 10, geo.Residential)
	g2, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	cch2 := BuildCCH(g2)
	if d := cch2.Dist(0, 2); !math.IsInf(d, 1) {
		t.Fatalf("disconnected pair distance %v", d)
	}
	if d := cch2.Dist(0, 1); math.Abs(d-geo.Residential.TravelTime(10)) > 1e-9 {
		t.Fatalf("edge distance %v", d)
	}
}

// TestCCHSkeletonDeterministic pins the canonical contraction order: two
// independent builds over the same topology must produce byte-identical
// artifacts. Distances across epochs (and across processes) are only
// bit-reproducible because this holds.
func TestCCHSkeletonDeterministic(t *testing.T) {
	g := testGraph(t, 14, 14, 99)
	a := BuildCCHSkeleton(g)
	b := BuildCCHSkeleton(g)
	if !reflect.DeepEqual(a.rank, b.rank) || !reflect.DeepEqual(a.order, b.order) {
		t.Fatal("contraction order differs between builds")
	}
	if !reflect.DeepEqual(a.upStart, b.upStart) || !reflect.DeepEqual(a.upTo, b.upTo) ||
		!reflect.DeepEqual(a.upVia, b.upVia) || !reflect.DeepEqual(a.upBase, b.upBase) {
		t.Fatal("upward arc arrays differ between builds")
	}
	if !reflect.DeepEqual(a.chord, b.chord) {
		t.Fatal("triangle enumeration differs between builds")
	}
}

// buildCCHSkeletonMaps is the skeleton build BuildCCHSkeleton ran before it
// had slice adjacency: map-based contraction graph, container/heap over
// chPrioQueue, neighbours snapshotted in sorted order and an arcBetween
// scan per triangle. It is the reference the slice-based build must
// reproduce field for field.
func buildCCHSkeletonMaps(g *roadnet.Graph) *CCHSkeleton {
	n := g.NumVertices()
	adj := make([]map[roadnet.VertexID]roadnet.VertexID, n)
	for v := 0; v < n; v++ {
		adj[v] = make(map[roadnet.VertexID]roadnet.VertexID, g.Degree(roadnet.VertexID(v))+2)
	}
	for _, e := range g.Edges() {
		adj[e.U][e.V] = -1
		adj[e.V][e.U] = -1
	}

	sk := &CCHSkeleton{
		n:        n,
		baseArcs: len(g.ArcCosts()),
		rank:     make([]int32, n),
		order:    make([]roadnet.VertexID, n),
	}
	contracted := make([]bool, n)
	neighborsContracted := make([]int32, n)
	upNbrs := make([][]cchArc, n)

	var nbBuf []roadnet.VertexID
	fillIn := func(v roadnet.VertexID) int {
		nbBuf = nbBuf[:0]
		for u := range adj[v] {
			nbBuf = append(nbBuf, u)
		}
		cnt := 0
		for i, u := range nbBuf {
			for _, x := range nbBuf[i+1:] {
				if _, ok := adj[u][x]; !ok {
					cnt++
				}
			}
		}
		return cnt
	}

	pq := make(chPrioQueue, 0, n)
	for v := 0; v < n; v++ {
		prio := float64(fillIn(roadnet.VertexID(v)) - len(adj[v]))
		pq = append(pq, chPrioItem{v: roadnet.VertexID(v), prio: prio})
	}
	heap.Init(&pq)

	nextRank := int32(0)
	for pq.Len() > 0 {
		it := heap.Pop(&pq).(chPrioItem)
		v := it.v
		if contracted[v] {
			continue
		}
		prio := float64(fillIn(v)-len(adj[v])) + 2*float64(neighborsContracted[v])
		if pq.Len() > 0 && prio > pq[0].prio+1e-9 {
			heap.Push(&pq, chPrioItem{v: v, prio: prio})
			continue
		}
		sk.rank[v] = nextRank
		sk.order[nextRank] = v
		nextRank++
		nbBuf = nbBuf[:0]
		for u := range adj[v] {
			nbBuf = append(nbBuf, u)
		}
		sort.Slice(nbBuf, func(i, j int) bool { return nbBuf[i] < nbBuf[j] })
		for _, u := range nbBuf {
			upNbrs[v] = append(upNbrs[v], cchArc{to: u, via: adj[v][u]})
		}
		for i, u := range nbBuf {
			for _, x := range nbBuf[i+1:] {
				if _, ok := adj[u][x]; !ok {
					adj[u][x] = v
					adj[x][u] = v
					sk.shortcutArcs++
				}
			}
		}
		contracted[v] = true
		for _, u := range nbBuf {
			delete(adj[u], v)
			neighborsContracted[u]++
		}
		adj[v] = nil
	}

	total := 0
	for _, l := range upNbrs {
		total += len(l)
	}
	sk.upStart = make([]int32, n+1)
	sk.upTo = make([]roadnet.VertexID, total)
	sk.upVia = make([]roadnet.VertexID, total)
	sk.upBase = make([]int32, total)
	pos := int32(0)
	for v := 0; v < n; v++ {
		sk.upStart[v] = pos
		l := upNbrs[v]
		sort.Slice(l, func(i, j int) bool { return sk.rank[l[i].to] < sk.rank[l[j].to] })
		for _, a := range l {
			sk.upTo[pos] = a.to
			sk.upVia[pos] = a.via
			sk.upBase[pos] = g.ArcIndex(roadnet.VertexID(v), a.to)
			pos++
		}
	}
	sk.upStart[n] = pos

	sk.parent = make([]roadnet.VertexID, n)
	sk.depth = make([]int32, n)
	for r := n - 1; r >= 0; r-- {
		v := sk.order[r]
		sk.parent[v] = -1
		if sk.upStart[v] < sk.upStart[v+1] {
			p := sk.upTo[sk.upStart[v]]
			sk.parent[v] = p
			sk.depth[v] = sk.depth[p] + 1
			sk.maxDepth = max(sk.maxDepth, sk.depth[v])
		}
	}
	sk.buildLCA()

	sk.chord = []int32{}
	for r := 0; r < n; r++ {
		w := sk.order[r]
		for i := sk.upStart[w]; i < sk.upStart[w+1]; i++ {
			for j := i + 1; j < sk.upStart[w+1]; j++ {
				c := sk.arcBetween(sk.upTo[i], sk.upTo[j])
				if c < 0 {
					panic(fmt.Sprintf("reference CCH skeleton missing chordal arc (%d,%d)", sk.upTo[i], sk.upTo[j]))
				}
				sk.chord = append(sk.chord, c)
			}
		}
	}
	return sk
}

// arcBetween returns the index of the upward arc from the lower-ranked of
// u, x to the higher-ranked, or -1 if absent.
func (sk *CCHSkeleton) arcBetween(u, x roadnet.VertexID) int32 {
	lo, hi := u, x
	if sk.rank[lo] > sk.rank[hi] {
		lo, hi = hi, lo
	}
	for i := sk.upStart[lo]; i < sk.upStart[lo+1]; i++ {
		if sk.upTo[i] == hi {
			return i
		}
	}
	return -1
}

// chengduGraph generates the benchmark's city at the given scale (2.4k
// vertices at 0.2, 5.9k at 0.5).
func chengduGraph(tb testing.TB, scale float64) *roadnet.Graph {
	tb.Helper()
	g, err := roadnet.Generate(workload.ChengduLike(scale).Net)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// TestCCHSkeletonMatchesMapReference pins the slice-based build to the
// map-based one it replaced: every field of the skeleton — order, arcs,
// elimination tree, LCA index, triangles and their groups — must be
// reflect.DeepEqual on grids, on disconnected networks (two islands; a
// forest of three grids and five isolated vertices) and on the
// benchmark's city at three scales.
func TestCCHSkeletonMatchesMapReference(t *testing.T) {
	nets := []struct {
		name string
		g    *roadnet.Graph
	}{
		{"grid6x6", testGraph(t, 6, 6, 3)},
		{"grid14x14", testGraph(t, 14, 14, 99)},
		{"grid16x20", testGraph(t, 16, 20, 15)},
		{"grid30x30", testGraph(t, 30, 30, 4)},
		{"twoIslands", twoIslands(t)},
		{"forest", islands(t, 5, testGraph(t, 6, 7, 1), testGraph(t, 5, 5, 2), testGraph(t, 4, 9, 3))},
		{"chengdu0.02", chengduGraph(t, 0.02)},
		{"chengdu0.2", chengduGraph(t, 0.2)},
		{"chengdu0.5", chengduGraph(t, 0.5)},
	}
	for _, nt := range nets {
		got, want := BuildCCHSkeleton(nt.g), buildCCHSkeletonMaps(nt.g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s (%d vertices): skeleton differs from the map-based reference (%d vs %d shortcuts, %d vs %d triangles)",
				nt.name, nt.g.NumVertices(), got.Shortcuts(), want.Shortcuts(), got.Triangles(), want.Triangles())
		}
	}
}

// FuzzCCHSkeleton builds skeletons of arbitrary small topologies — up to
// 40 vertices, any edge set, isolated vertices and dense cliques included
// — with both builders and requires them equal. The first byte picks the
// vertex count, each later byte pair an edge; self-loops and repeated
// edges are skipped, as roadnet.Build would reject them.
func FuzzCCHSkeleton(f *testing.F) {
	f.Add([]byte{1})
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3, 3, 4, 4, 0})
	f.Add([]byte{8, 0, 1, 0, 2, 0, 3, 1, 2, 1, 3, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{39, 3, 17, 17, 29, 29, 3, 8, 30, 30, 12, 12, 8, 0, 38, 5, 5, 21, 22})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			t.Skip()
		}
		n := 1 + int(data[0])%40
		b := roadnet.NewBuilder(n, len(data)/2)
		for v := 0; v < n; v++ {
			b.AddVertex(geo.Point{X: float64(v % 7), Y: float64(v / 7)})
		}
		seen := make(map[[2]int]bool)
		for k := 1; k+1 < len(data); k += 2 {
			u, v := int(data[k])%n, int(data[k+1])%n
			if u > v {
				u, v = v, u
			}
			if u == v || seen[[2]int{u, v}] {
				continue
			}
			seen[[2]int{u, v}] = true
			if err := b.AddEdge(roadnet.VertexID(u), roadnet.VertexID(v), 1+float64(k), geo.Residential); err != nil {
				t.Fatal(err)
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		if got, want := BuildCCHSkeleton(g), buildCCHSkeletonMaps(g); !reflect.DeepEqual(got, want) {
			t.Fatalf("%d vertices, %d edges: skeleton differs from the map-based reference", n, len(seen))
		}
	})
}

// TestCCHCustomizeMatchesFreshBuild is the fast path's equivalence
// contract: customizing a skeleton with a later epoch's costs must be
// bit-identical — weights and distances — to contracting that epoch's
// snapshot from scratch. This is what lets Versioned swap a multi-second
// rebuild for a millisecond customization without perturbing replays.
func TestCCHCustomizeMatchesFreshBuild(t *testing.T) {
	g := testGraph(t, 12, 12, 7)
	skel := BuildCCHSkeleton(g)
	overlay := roadnet.NewOverlay(g)
	rng := rand.New(rand.NewSource(3))
	for epoch := 0; epoch < 4; epoch++ {
		cur := overlay.Graph()
		if epoch > 0 {
			var err error
			cur, _, _, err = overlay.Apply(randomUpdates(rng, g))
			if err != nil {
				t.Fatal(err)
			}
		}
		costs := cur.ArcCosts()
		fast := skel.Customize(costs)
		fresh := BuildCCH(cur)
		if !reflect.DeepEqual(skel.basicWeights(costs), fresh.skel.basicWeights(costs)) {
			t.Fatalf("epoch %d: customized weights differ from fresh build", epoch)
		}
		n := g.NumVertices()
		for q := 0; q < 200; q++ {
			s := roadnet.VertexID(rng.Intn(n))
			d := roadnet.VertexID(rng.Intn(n))
			if a, b := fast.Dist(s, d), fresh.Dist(s, d); a != b {
				t.Fatalf("epoch %d: Dist(%d,%d) customize %v != fresh %v", epoch, s, d, a, b)
			}
		}
	}
}

// oldTriangleShards is the per-level write partition of the triangle
// layout customization swept before the chord list: triangle (c, a, b)
// sat in shard c mod oldTriangleShards of its apex's contraction level.
const oldTriangleShards = 32

// oldTriangleList rebuilds that layout: flat (c, a, b) arc-index triples
// grouped by (apex level, shard), bottom-up apex-rank order within a
// group, where a vertex's level is one above the highest level among its
// lower-ranked neighbours (0 for leaves of the hierarchy).
func oldTriangleList(sk *CCHSkeleton) []int32 {
	level := make([]int32, sk.n)
	numLevels := int32(1)
	for _, v := range sk.order {
		for i := sk.upStart[v]; i < sk.upStart[v+1]; i++ {
			if x := sk.upTo[i]; level[x] <= level[v] {
				level[x] = level[v] + 1
			}
		}
		numLevels = max(numLevels, level[v]+1)
	}
	groups := make([][]int32, int(numLevels)*oldTriangleShards)
	for _, w := range sk.order {
		for i := sk.upStart[w]; i < sk.upStart[w+1]; i++ {
			for j := i + 1; j < sk.upStart[w+1]; j++ {
				c := sk.arcBetween(sk.upTo[i], sk.upTo[j])
				k := level[w]*oldTriangleShards + c%oldTriangleShards
				groups[k] = append(groups[k], c, i, j)
			}
		}
	}
	return slices.Concat(groups...)
}

// oldBasicWeights is the basic customization over oldTriangleList, swept
// front to back as the serial path did.
func oldBasicWeights(sk *CCHSkeleton, costs []float64) []float64 {
	w := make([]float64, len(sk.upTo))
	for i, b := range sk.upBase {
		w[i] = Inf
		if b >= 0 {
			w[i] = costs[b]
		}
	}
	tri := oldTriangleList(sk)
	for t := 0; t < len(tri); t += 3 {
		c, a, b := tri[t], tri[t+1], tri[t+2]
		if s := w[a] + w[b]; s < w[c] {
			w[c] = s
		}
	}
	return w
}

// TestCCHBasicWeightsMatchOldLayout holds the chord sweep to the level and
// shard layout it replaced: every upward arc's basic weight has the same
// float64 bits on a grid and the benchmark's two cities, under free flow
// and three perturbed epochs (the last with closed, +Inf, roads).
func TestCCHBasicWeightsMatchOldLayout(t *testing.T) {
	nets := []struct {
		name string
		g    *roadnet.Graph
	}{
		{"grid14x14", testGraph(t, 14, 14, 7)},
		{"chengdu0.2", chengduGraph(t, 0.2)},
		{"chengdu0.5", chengduGraph(t, 0.5)},
	}
	for _, nt := range nets {
		sk := BuildCCHSkeleton(nt.g)
		base := nt.g.ArcCosts()
		costs := make([]float64, len(base))
		rng := rand.New(rand.NewSource(11))
		for epoch := 0; epoch < 4; epoch++ {
			copy(costs, base)
			for i := range costs {
				switch {
				case epoch == 0:
				case rng.Intn(3) == 0:
					costs[i] *= 1 + 2*rng.Float64()
				case epoch == 3 && rng.Intn(20) == 0:
					costs[i] = Inf
				}
			}
			got, want := sk.basicWeights(costs), oldBasicWeights(sk, costs)
			for i := range want {
				if !sameBits(got[i], want[i]) {
					t.Fatalf("%s epoch %d: arc %d basic weight %v, old layout %v", nt.name, epoch, i, got[i], want[i])
				}
			}
		}
	}
}

// TestCCHAcrossEpochsMatchesDijkstra recustomizes one skeleton through a
// sequence of randomized traffic epochs and checks exactness at each.
func TestCCHAcrossEpochsMatchesDijkstra(t *testing.T) {
	g := testGraph(t, 13, 13, 31)
	skel := BuildCCHSkeleton(g)
	overlay := roadnet.NewOverlay(g)
	rng := rand.New(rand.NewSource(17))
	for epoch := 0; epoch < 6; epoch++ {
		cur := overlay.Graph()
		if epoch > 0 {
			var err error
			cur, _, _, err = overlay.Apply(randomUpdates(rng, g))
			if err != nil {
				t.Fatal(err)
			}
		}
		cch := skel.Customize(cur.ArcCosts())
		checkAgainstDijkstra(t, cch, cur, rng, 80, "cch")
	}
}

func TestCCHStatsSane(t *testing.T) {
	g := testGraph(t, 12, 12, 8)
	cch := BuildCCH(g)
	sk := cch.Skeleton()
	if sk.NumVertices() != g.NumVertices() {
		t.Fatalf("skeleton has %d vertices, graph %d", sk.NumVertices(), g.NumVertices())
	}
	if cch.AvgUpDegree() <= 0 {
		t.Fatal("no upward arcs")
	}
	// Without witness pruning the chordal skeleton is denser than classic
	// CH, but on a planar-ish grid it must stay modest.
	if cch.AvgUpDegree() > 48 {
		t.Fatalf("suspiciously dense skeleton: %v", cch.AvgUpDegree())
	}
	if sk.Shortcuts() <= 0 {
		t.Fatal("grid contraction added no shortcuts")
	}
	if sk.Triangles() <= 0 {
		t.Fatal("no lower triangles enumerated")
	}
	if cch.MemoryBytes() <= sk.MemoryBytes() {
		t.Fatal("customized memory must exceed the bare skeleton's")
	}
}

// TestVersionedCustomizeFastPath pins the epoch front's behavior when the
// built tier is a CCH: every Advance customizes (counted separately from
// full rebuilds) instead of contracting from scratch, and stays exact.
func TestVersionedCustomizeFastPath(t *testing.T) {
	g := testGraph(t, 12, 12, 21)
	overlay := roadnet.NewOverlay(g)
	v := AdoptVersioned(g, BuildCCH(g), AutoCCH)
	if v.ResolvedKind() != AutoCCH {
		t.Fatalf("epoch 0 kind %s, want cch", v.ResolvedKind())
	}
	rng := rand.New(rand.NewSource(23))
	const epochs = 4
	for e := 1; e <= epochs; e++ {
		cur, epoch, _, err := overlay.Apply(randomUpdates(rng, g))
		if err != nil {
			t.Fatal(err)
		}
		v.Advance(cur, epoch)
		if v.ResolvedKind() != AutoCCH {
			t.Fatalf("epoch %d kind %s, want cch", e, v.ResolvedKind())
		}
		checkAgainstDijkstra(t, v, cur, rng, 60, "versioned-cch")
	}
	if v.Rebuilds() != epochs || v.Customizations() != epochs {
		t.Fatalf("rebuilds=%d customizations=%d, want %d of each (fast path not taken?)",
			v.Rebuilds(), v.Customizations(), epochs)
	}
	if v.LastRebuild() <= 0 {
		t.Fatalf("last rebuild duration %v", v.LastRebuild())
	}
}

// TestVersionedConcurrentDistDuringCustomize is the -race check for the
// customize fast path: queries hammer the front from several goroutines
// while epochs advance with customization over the shared skeleton, and
// every observed distance must belong to SOME applied epoch.
func TestVersionedConcurrentDistDuringCustomize(t *testing.T) {
	g := testGraph(t, 10, 10, 5)
	v := AdoptVersioned(g, BuildCCH(g), AutoCCH)
	hammerVersioned(t, g, v, 29)
	if v.Customizations() != hammerEpochs {
		t.Fatalf("customizations=%d, want %d", v.Customizations(), hammerEpochs)
	}
}

// FuzzCCHCustomize drives randomized traffic factors through a shared
// skeleton and cross-checks customized distances against fresh Dijkstra.
func FuzzCCHCustomize(f *testing.F) {
	f.Add(int64(1), 1.5)
	f.Add(int64(7), 3.0)
	f.Add(int64(42), 1.0)
	g := testGraph(f, 8, 8, 11)
	skel := BuildCCHSkeleton(g)
	f.Fuzz(func(t *testing.T, seed int64, factor float64) {
		if math.IsNaN(factor) || factor < 1 || factor > 10 {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(seed))
		overlay := roadnet.NewOverlay(g)
		ups := randomUpdates(rng, g)
		ups = append(ups, roadnet.TrafficUpdate{Factor: factor})
		cur, _, _, err := overlay.Apply(ups)
		if err != nil {
			t.Skip()
		}
		cch := skel.Customize(cur.ArcCosts())
		// The same metric behind an arena that recycles every few labels,
		// and the heap search the labels replaced.
		tiny := skel.Customize(cur.ArcCosts())
		shrinkArena(tiny, 1+rng.Intn(3))
		old := oldCCHQuery(skel, cur.ArcCosts())
		ref := NewDijkstra(cur)
		n := g.NumVertices()
		for q := 0; q < 20; q++ {
			s := roadnet.VertexID(rng.Intn(n))
			d := roadnet.VertexID(rng.Intn(n))
			want := ref.Dist(s, d)
			got := cch.Dist(s, d)
			if math.Abs(got-want) > 1e-6*(1+want) {
				t.Fatalf("Dist(%d,%d)=%v want %v", s, d, got, want)
			}
			if a, b := tiny.Dist(s, d), old(s, d); !sameBits(got, a) || !sameBits(got, b) {
				t.Fatalf("Dist(%d,%d): labels %v, tiny arena %v, heap search %v", s, d, got, a, b)
			}
		}
	})
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// oldCCHQuery is the point query this tier ran before it had labels:
// CH's bidirectional heap search over every upward arc, weighted by the
// basic customization of costs. It is the reference the pruned label
// query must reproduce bit for bit.
func oldCCHQuery(sk *CCHSkeleton, costs []float64) func(s, t roadnet.VertexID) float64 {
	f, b := newCHSearch(sk.n), newCHSearch(sk.n)
	w := sk.basicWeights(costs)
	return func(s, t roadnet.VertexID) float64 {
		return upwardDist(&f, &b, sk.upStart, sk.upTo, w, s, t)
	}
}

// shrinkArena gives a not-yet-queried CCH a label budget of two slabs of
// about perSlab labels each, so a query stream recycles them constantly.
func shrinkArena(c *CCH, perSlab int) {
	c.slabLen = perSlab * (int(c.skel.maxDepth) + 1)
	c.maxSlabs = 2
}

// twoIslands copies two generated networks into one graph with no edge
// between them: two elimination trees, +Inf across.
func twoIslands(t testing.TB) *roadnet.Graph {
	t.Helper()
	return islands(t, 0, testGraph(t, 9, 11, 5), testGraph(t, 7, 8, 6))
}

// islands copies the parts side by side into one graph with no edge
// between them, followed by isolated vertices: one elimination tree per
// part, a single-vertex tree per isolated vertex.
func islands(t testing.TB, isolated int, parts ...*roadnet.Graph) *roadnet.Graph {
	t.Helper()
	b := roadnet.NewBuilder(256, 512)
	for k, g := range parts {
		base := roadnet.VertexID(b.NumVertices())
		for v := 0; v < g.NumVertices(); v++ {
			p := g.Point(roadnet.VertexID(v))
			p.X += float64(k) * 1e5
			b.AddVertex(p)
		}
		for _, e := range g.Edges() {
			if err := b.AddEdge(base+e.U, base+e.V, e.Meters, e.Class); err != nil {
				t.Fatal(err)
			}
		}
	}
	for i := 0; i < isolated; i++ {
		b.AddVertex(geo.Point{X: float64(len(parts)+i) * 1e5})
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// TestCCHLabelQueryBitIdentical checks the label query against the query
// it replaced, not against itself: on three networks (one of them
// disconnected) and three metrics each — free flow, a traffic-scaled
// epoch, and one with closed roads (+Inf arcs) — every distance must have
// the same float64 bits as upwardDist over the same arrays.
func TestCCHLabelQueryBitIdentical(t *testing.T) {
	nets := map[string]*roadnet.Graph{
		"grid16x20": testGraph(t, 16, 20, 15),
		"grid30x30": testGraph(t, 30, 30, 4),
		"islands":   twoIslands(t),
	}
	for name, g := range nets {
		rng := rand.New(rand.NewSource(77))
		skel := BuildCCHSkeleton(g)
		scaled, _, _, err := roadnet.NewOverlay(g).Apply(randomUpdates(rng, g))
		if err != nil {
			t.Fatal(err)
		}
		closed := append([]float64(nil), g.ArcCosts()...)
		for _, e := range g.Edges() {
			// Random closures, and every road into each 9th vertex so some
			// pairs are cut off by the metric alone.
			if rng.Intn(12) == 0 || e.U%9 == 0 || e.V%9 == 0 {
				closed[g.ArcIndex(e.U, e.V)] = math.Inf(1)
				closed[g.ArcIndex(e.V, e.U)] = math.Inf(1)
			}
		}
		metrics := map[string][]float64{"free": g.ArcCosts(), "traffic": scaled.ArcCosts(), "closed": closed}
		for mname, costs := range metrics {
			c := skel.Customize(costs)
			old := oldCCHQuery(skel, costs)
			n, infs := g.NumVertices(), 0
			for q := 0; q < 3000; q++ {
				s := roadnet.VertexID(rng.Intn(n))
				d := roadnet.VertexID(rng.Intn(n))
				if q%100 == 0 {
					d = s
				}
				got, want := c.Dist(s, d), old(s, d)
				if !sameBits(got, want) {
					t.Fatalf("%s/%s: Dist(%d,%d) labels %v (%#x), heap search %v (%#x)", name, mname,
						s, d, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if math.IsInf(got, 1) {
					infs++
				}
			}
			if (name == "islands" || mname == "closed") && infs == 0 {
				t.Fatalf("%s/%s: no unreachable pair sampled", name, mname)
			}
		}
	}
}

// TestCCHArenaResetMidQuery pins the generational arena: with room for
// only a few labels, building t's label regularly recycles the slab that
// holds s's label fetched a line earlier. Every distance must still match
// the unbounded run bit for bit.
func TestCCHArenaResetMidQuery(t *testing.T) {
	g := testGraph(t, 20, 20, 9)
	skel := BuildCCHSkeleton(g)
	full := skel.Customize(g.ArcCosts())
	tiny := skel.Customize(g.ArcCosts())
	shrinkArena(tiny, 2)
	rng := rand.New(rand.NewSource(5))
	n := g.NumVertices()
	for q := 0; q < 20000; q++ {
		s := roadnet.VertexID(rng.Intn(n))
		d := roadnet.VertexID(rng.Intn(n))
		if a, b := tiny.Dist(s, d), full.Dist(s, d); !sameBits(a, b) {
			t.Fatalf("query %d: Dist(%d,%d) tiny arena %v, unbounded %v (after %d resets)", q, s, d, a, b, tiny.gen)
		}
	}
	if tiny.gen < 3 {
		t.Fatalf("tiny arena reset %d times, want >= 3", tiny.gen)
	}
	if full.gen != 0 {
		t.Fatalf("default budget reset %d times on a %d-vertex network", full.gen, n)
	}
	if len(tiny.slabs) > tiny.maxSlabs {
		t.Fatalf("arena grew to %d slabs, budget %d", len(tiny.slabs), tiny.maxSlabs)
	}
}

// TestCCHLabelsDoNotLeakAcrossEpochs queries two customizations of one
// skeleton interleaved, then swaps epochs under a Versioned front; each
// must agree with Dijkstra on its own metric, which a label surviving
// from the other metric would break.
func TestCCHLabelsDoNotLeakAcrossEpochs(t *testing.T) {
	g := testGraph(t, 12, 12, 13)
	n := g.NumVertices()
	skel := BuildCCHSkeleton(g)
	overlay := roadnet.NewOverlay(g)
	slow, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 2.5, Class: "arterial"}, {Factor: 1.3}})
	if err != nil {
		t.Fatal(err)
	}
	a, b := skel.Customize(g.ArcCosts()), skel.Customize(slow.ArcCosts())
	refA, refB := NewDijkstra(g), NewDijkstra(slow)
	rng := rand.New(rand.NewSource(8))
	type pair struct{ s, d roadnet.VertexID }
	pairs := make([]pair, 300)
	differ := 0
	for i := range pairs {
		p := pair{roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n))}
		pairs[i] = p
		da, db := a.Dist(p.s, p.d), b.Dist(p.s, p.d)
		if wa, wb := refA.Dist(p.s, p.d), refB.Dist(p.s, p.d); math.Abs(da-wa) > 1e-6*(1+wa) || math.Abs(db-wb) > 1e-6*(1+wb) {
			t.Fatalf("Dist(%d,%d): epoch A %v want %v, epoch B %v want %v", p.s, p.d, da, wa, db, wb)
		}
		if da != db {
			differ++
		}
	}
	if differ == 0 {
		t.Fatal("the two metrics never disagree; the test cannot see a leak")
	}

	v := AdoptVersioned(g, BuildCCH(g), AutoCCH)
	for _, p := range pairs { // warm epoch 0's labels
		v.Dist(p.s, p.d)
	}
	v.Advance(slow, epoch)
	for _, p := range pairs {
		if got, want := v.Dist(p.s, p.d), refB.Dist(p.s, p.d); math.Abs(got-want) > 1e-6*(1+want) {
			t.Fatalf("after swap: Dist(%d,%d)=%v want %v", p.s, p.d, got, want)
		}
	}
}

// TestCCHQueryAllocs: a warm query allocates nothing, and neither does a
// label build once the arena's slabs exist.
func TestCCHQueryAllocs(t *testing.T) {
	g := testGraph(t, 14, 14, 2)
	n := roadnet.VertexID(g.NumVertices())
	c := BuildCCH(g)
	c.Dist(3, n-4)
	if a := testing.AllocsPerRun(100, func() { c.Dist(3, n-4) }); a != 0 {
		t.Fatalf("warm query allocates %v times", a)
	}

	tiny := BuildCCH(g)
	shrinkArena(tiny, 3)
	for v := roadnet.VertexID(0); tiny.gen == 0; v++ {
		tiny.Dist(v%n, (v+n/2)%n)
	}
	v, built := roadnet.VertexID(0), tiny.built
	if a := testing.AllocsPerRun(200, func() { tiny.Dist(v%n, (v+n/2)%n); v++ }); a != 0 {
		t.Fatalf("label build allocates %v times with all slabs in place", a)
	}
	if tiny.built-built < 200 {
		t.Fatalf("only %d labels built over 200 cold queries", tiny.built-built)
	}
}

// TestCCHMemoryBytesCountsQueryState: the elimination tree, the kept
// arcs (with their head depths) and the label arena's capacity are part
// of the tier's footprint.
func TestCCHMemoryBytesCountsQueryState(t *testing.T) {
	g := testGraph(t, 12, 12, 8)
	c := BuildCCH(g)
	sk, n := c.Skeleton(), int64(g.NumVertices())
	if len(c.head) != len(c.w) || len(c.start) != int(n)+1 || int(c.start[n]) != len(c.head) {
		t.Fatalf("kept CSR: %d starts, %d head depths, %d weights", len(c.start), len(c.head), len(c.w))
	}
	for v := 0; v < int(n); v++ {
		// The kept arcs of v are a subsequence of its upward arcs, whose
		// heads are distinct ancestors: a depth names one of them.
		j := sk.upStart[v]
		for i := c.start[v]; i < c.start[v+1]; i++ {
			for j < sk.upStart[v+1] && sk.depth[sk.upTo[j]] != c.head[i] {
				j++
			}
			if j == sk.upStart[v+1] {
				t.Fatalf("kept arc %d of vertex %d: head depth %d is no upward neighbor's, in order", i, v, c.head[i])
			}
			j++
		}
	}
	if m := int64(sk.eulerLen); m != 2*n-1 || int64(len(sk.sparse)) < m*int64(bits.Len(uint(m))) {
		t.Fatalf("connected network: Euler tour %d long (want %d), sparse table %d entries", m, 2*n-1, len(sk.sparse))
	}
	lcaIndex := int64(len(sk.first))*4 + int64(len(sk.tree))*4 + int64(len(sk.sparse))*4
	if got, floor := sk.MemoryBytes(), int64(len(sk.upTo))*12+int64(len(sk.chord))*4+n*16+lcaIndex; got < floor {
		t.Fatalf("skeleton reports %d bytes, arcs+chords+order+elimination tree+LCA index alone are %d", got, floor)
	}
	if got, floor := c.MemoryBytes(), sk.MemoryBytes()+int64(len(c.head))*12+(n+1)*4; got < floor {
		t.Fatalf("CCH reports %d bytes, skeleton+kept arcs with head depths alone are %d", got, floor)
	}
	empty := c.MemoryBytes()
	c.Dist(0, roadnet.VertexID(n-1))
	if grew := c.MemoryBytes() - empty; grew != int64(c.slabLen)*8 {
		t.Fatalf("first query grew the reported footprint by %d bytes, want one slab (%d)", grew, c.slabLen*8)
	}
	checkArenaCap(t, "grid12x12", c)
}

// checkArenaCap asserts the budget rule's two bounds: the arena's usable
// part (what remains once each slab has lost a label's tail) holds
// Σ(depth+1) floats, every label at once, and the whole arena reserves at
// most one slab beyond that. (In general the excess is under one label's
// tail per slab; on these networks that is less than a slab.)
func checkArenaCap(t *testing.T, name string, c *CCH) {
	t.Helper()
	need, slab := int64(c.skel.labelFloats()), int64(c.slabLen)
	if usable := int64(c.maxSlabs) * (slab - int64(c.skel.maxDepth)); usable < need {
		t.Fatalf("%s: arena's usable part is %d floats, every label needs %d", name, usable, need)
	}
	if total := int64(c.maxSlabs) * slab; total > need+slab {
		t.Fatalf("%s: arena may grow to %d floats, over the %d labels need plus one %d-float slab", name, total, need, slab)
	}
}

// TestCCHEveryLabelFits: under the default cap, building every vertex's
// label in a random order never resets the arena, on a grid, on two
// islands and on the benchmark's two cities.
func TestCCHEveryLabelFits(t *testing.T) {
	nets := []struct {
		name string
		g    *roadnet.Graph
	}{
		{"grid30x30", testGraph(t, 30, 30, 4)},
		{"twoIslands", twoIslands(t)},
		{"chengdu0.2", chengduGraph(t, 0.2)},
		{"chengdu0.5", chengduGraph(t, 0.5)},
	}
	for _, nt := range nets {
		c := BuildCCH(nt.g)
		checkArenaCap(t, nt.name, c)
		for _, v := range rand.New(rand.NewSource(50)).Perm(nt.g.NumVertices()) {
			c.label(roadnet.VertexID(v))
		}
		if c.gen != 0 || c.built != uint64(nt.g.NumVertices()) {
			t.Fatalf("%s: every label built once took %d arena resets and %d builds for %d vertices",
				nt.name, c.gen, c.built, nt.g.NumVertices())
		}
	}
}

// basicCCH is the label query as it ran before pruning: labels over every
// finite upward arc. With perfect = basic no gap is positive, so prune
// keeps them all.
func basicCCH(sk *CCHSkeleton, costs []float64) *CCH {
	w := sk.basicWeights(costs)
	return sk.prune(w, w, 0)
}

// TestCCHPerfectPruning guards both ways on the plan-offline city: fewer
// than 70 % of the arcs survive (a sweep that prunes nothing fails), and
// 100k random pairs keep the unpruned query's bits, the first 2 000 also
// checked against the heap search (a sweep that prunes too much fails).
func TestCCHPerfectPruning(t *testing.T) {
	g := chengduGraph(t, 0.5)
	sk := BuildCCHSkeleton(g)
	costs := g.ArcCosts()
	c, ref, old := sk.Customize(costs), basicCCH(sk, costs), oldCCHQuery(sk, costs)
	if frac := float64(len(c.w)) / float64(len(sk.upTo)); frac >= 0.7 {
		t.Fatalf("kept %d of %d upward arcs (%.3f), want < 0.7", len(c.w), len(sk.upTo), frac)
	}
	if len(ref.w) != len(sk.upTo) {
		t.Fatalf("unpruned reference keeps %d of %d arcs", len(ref.w), len(sk.upTo))
	}
	rng := rand.New(rand.NewSource(48))
	for q := 0; q < 100000; q++ {
		s, d := roadnet.VertexID(rng.Intn(sk.n)), roadnet.VertexID(rng.Intn(sk.n))
		got, want := c.Dist(s, d), ref.Dist(s, d)
		if !sameBits(got, want) || q < 2000 && !sameBits(got, old(s, d)) {
			t.Fatalf("Dist(%d,%d): pruned %v, unpruned %v, heap search %v", s, d, got, want, old(s, d))
		}
	}
}

// TestCCHPruneMarginIsNeeded is a network where pruning every arc whose
// perfect weight is below its basic weight (τ = 0) changes a Dist bit.
// Route 0-1-2-4 is longer than 0-1-3-4 in real numbers (by 8.3e-17 s) but
// folds to 3 where the shorter one folds to 3.0000000000000004. Arc (4,1)
// carries the longer route's tail 4-2-1; its perfect weight 0.1+0.7 is an
// ulp below its basic 0.3+0.5, so τ = 0 drops it and Dist(0,4) rises an
// ulp. The derived margin keeps it, and every pair keeps its bits.
func TestCCHPruneMarginIsNeeded(t *testing.T) {
	edges := []struct {
		u, v roadnet.VertexID
		cost float64
	}{
		{0, 1, 2.2}, {1, 2, 0.5}, {1, 3, 0.7}, {2, 4, 0.30000000000000004}, {3, 5, 0.7},
		{2, 3, 0.7}, {0, 3, 3.3}, {3, 4, 0.1}, {1, 5, 0.2},
	}
	b := roadnet.NewBuilder(6, len(edges))
	for v := 0; v < 6; v++ {
		b.AddVertex(geo.Point{X: float64(v)})
	}
	for _, e := range edges {
		if err := b.AddEdge(e.u, e.v, 10, geo.Residential); err != nil {
			t.Fatal(err)
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, len(g.ArcCosts()))
	for _, e := range edges {
		costs[g.ArcIndex(e.u, e.v)], costs[g.ArcIndex(e.v, e.u)] = e.cost, e.cost
	}
	sk := BuildCCHSkeleton(g)
	basic := sk.basicWeights(costs)
	perfect := slices.Clone(basic)
	sk.perfectSweep(perfect)
	old := oldCCHQuery(sk, costs)
	if got, want := sk.prune(basic, perfect, 0).Dist(0, 4), old(0, 4); want != 3 || sameBits(got, want) {
		t.Fatalf("τ = 0: Dist(0,4) = %v, heap search %v; want 3 against an ulp above", got, want)
	}
	c := sk.Customize(costs)
	for s := roadnet.VertexID(0); s < 6; s++ {
		for d := roadnet.VertexID(0); d < 6; d++ {
			if got, want := c.Dist(s, d), old(s, d); !sameBits(got, want) {
				t.Fatalf("derived τ = %g: Dist(%d,%d) = %v, heap search %v", sk.pruneMargin(costs), s, d, got, want)
			}
		}
	}
}

// FuzzCCHPrunedDist holds the pruned query to its spec on FuzzLegPath's
// tie-riddled 6×6 grid: small-integer lengths (a zero byte removes the
// edge), random closures (+Inf both ways) and a traffic factor. Below 128
// the factor is 1 + k/16, so every sum is exact and Dist must equal
// Floyd–Warshall exactly; above, it is 1 + k/10 and rounds. Either way
// every pair must have the bits of the heap search over the basic weights,
// and an unreachable pair must be +Inf.
func FuzzCCHPrunedDist(f *testing.F) {
	f.Add([]byte{1}, int64(0), uint8(0))
	f.Add([]byte{3, 0, 7, 1, 9, 0, 2}, int64(5), uint8(17))
	f.Add([]byte{0, 0, 1, 0}, int64(2), uint8(200))
	f.Add([]byte("jittered \x01\xff\x80 costs"), int64(7), uint8(131))
	f.Add([]byte{2, 5, 1, 1, 4}, int64(1), uint8(255))
	f.Fuzz(func(t *testing.T, lens []byte, seed int64, factor uint8) {
		if len(lens) == 0 {
			t.Skip()
		}
		const side, n = 6, 36
		bld := roadnet.NewBuilder(n, 2*n)
		for i := 0; i < n; i++ {
			bld.AddVertex(geo.Point{X: float64(i%side) * 100, Y: float64(i/side) * 100})
		}
		type edge struct {
			u, v roadnet.VertexID
			l    float64
		}
		var edges []edge
		k := 0
		for i := 0; i < n; i++ {
			for _, j := range []int{i + 1, i + side} {
				if j == i+1 && j%side == 0 || j >= n {
					continue
				}
				l := lens[k%len(lens)]
				k++
				if l == 0 {
					continue
				}
				edges = append(edges, edge{roadnet.VertexID(i), roadnet.VertexID(j), float64(l)})
				if err := bld.AddEdge(roadnet.VertexID(i), roadnet.VertexID(j), 10*float64(l), geo.Residential); err != nil {
					t.Fatal(err)
				}
			}
		}
		g, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		exact := factor < 128
		scale := 1 + float64(factor%64)/16
		if !exact {
			scale = 1 + float64(factor%64)/10
		}
		rng := rand.New(rand.NewSource(seed))
		costs := make([]float64, len(g.ArcCosts()))
		var dist [n][n]float64
		for i := range dist {
			for j := range dist[i] {
				dist[i][j] = Inf
			}
			dist[i][i] = 0
		}
		for _, e := range edges {
			c := e.l * scale
			if rng.Intn(8) == 0 {
				c = Inf
			}
			costs[g.ArcIndex(e.u, e.v)], costs[g.ArcIndex(e.v, e.u)] = c, c
			dist[e.u][e.v], dist[e.v][e.u] = c, c
		}
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					dist[i][j] = min(dist[i][j], dist[i][k]+dist[k][j])
				}
			}
		}
		sk := BuildCCHSkeleton(g)
		c, old := sk.Customize(costs), oldCCHQuery(sk, costs)
		for s := roadnet.VertexID(0); s < n; s++ {
			for d := roadnet.VertexID(0); d < n; d++ {
				got, want := c.Dist(s, d), dist[s][d]
				if b := old(s, d); !sameBits(got, b) {
					t.Fatalf("Dist(%d,%d) = %v, heap search over basic weights %v", s, d, got, b)
				}
				if exact && got != want || !exact && math.Abs(got-want) > 1e-9*(1+want) || want == Inf && got != Inf {
					t.Fatalf("Dist(%d,%d) = %v, Floyd–Warshall %v (scale %v)", s, d, got, want, scale)
				}
			}
		}
	})
}

// lcaByParentWalk is how CCH.Dist found the lowest common ancestor before
// the sparse table: lift the deeper vertex to the other's depth, then both
// together until they meet (two distinct roots step to -1 together).
func lcaByParentWalk(sk *CCHSkeleton, a, b roadnet.VertexID) roadnet.VertexID {
	for sk.depth[a] > sk.depth[b] {
		a = sk.parent[a]
	}
	for sk.depth[b] > sk.depth[a] {
		b = sk.parent[b]
	}
	for a != b {
		a, b = sk.parent[a], sk.parent[b]
	}
	return a
}

// TestCCHLCAMatchesParentWalk pins the sparse-table LCA to the parent walk
// it replaced — same vertex, so Dist zips labels to the same depth — on
// every pair of three networks (connected; two islands; a forest of three
// grids and five isolated vertices) and on 100k random pairs of the
// benchmark's city.
func TestCCHLCAMatchesParentWalk(t *testing.T) {
	check := func(name string, sk *CCHSkeleton, s, d roadnet.VertexID) {
		if got, want := sk.lca(s, d), lcaByParentWalk(sk, s, d); got != want {
			t.Fatalf("%s: lca(%d,%d) = %d, parent walk %d", name, s, d, got, want)
		}
	}
	nets := []struct {
		name  string
		g     *roadnet.Graph
		roots int
	}{
		{"grid16x20", testGraph(t, 16, 20, 15), 1},
		{"islands", twoIslands(t), 2},
		{"forest", islands(t, 5, testGraph(t, 6, 7, 1), testGraph(t, 5, 5, 2), testGraph(t, 4, 9, 3)), 8},
	}
	for _, nt := range nets {
		sk := BuildCCHSkeleton(nt.g)
		n := nt.g.NumVertices()
		roots := 0
		for _, p := range sk.parent {
			if p < 0 {
				roots++
			}
		}
		if roots != nt.roots || sk.eulerLen != 2*n-roots {
			t.Fatalf("%s: %d roots (want %d), Euler tour %d long (want %d)", nt.name, roots, nt.roots, sk.eulerLen, 2*n-roots)
		}
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				check(nt.name, sk, roadnet.VertexID(s), roadnet.VertexID(d))
			}
		}
	}

	g := chengduGraph(t, 0.5)
	sk := BuildCCHSkeleton(g)
	rng := rand.New(rand.NewSource(28))
	n := g.NumVertices()
	for q := 0; q < 100000; q++ {
		check("chengdu", sk, roadnet.VertexID(rng.Intn(n)), roadnet.VertexID(rng.Intn(n)))
	}
}

// BenchmarkCCHQuery decomposes the point-query cost. cold: every query
// builds both labels (a fresh Customize, off the clock, whenever the
// vertices run out). warm: labels resident, two array walks. planner-
// stream: the shape insertion's fillExact issues — a request endpoint
// against 40 route vertices that stay put while requests come and go.
func BenchmarkCCHQuery(b *testing.B) {
	g := testGraph(b, 40, 40, 1)
	skel := BuildCCHSkeleton(g)
	n := g.NumVertices()
	perm := rand.New(rand.NewSource(1)).Perm(n)
	vert := func(i int) roadnet.VertexID { return roadnet.VertexID(perm[i%n]) }
	relaxed := 0
	for c, v := skel.Customize(g.ArcCosts()), 0; v < n; v++ {
		relaxed += arcsRelaxed(c, roadnet.VertexID(v))
	}
	report := func(b *testing.B, built uint64) {
		b.ReportMetric(float64(built)/float64(b.N), "labels-built/op")
		b.ReportMetric(float64(relaxed)/float64(n), "arcs-relaxed/label")
	}

	b.Run("cold", func(b *testing.B) {
		var built uint64
		cch := skel.Customize(g.ArcCosts())
		for i := 0; i < b.N; i++ {
			k := i % (n / 2) // disjoint pairs until the vertices run out
			if k == 0 && i > 0 {
				b.StopTimer()
				built += cch.built
				cch = skel.Customize(g.ArcCosts())
				b.StartTimer()
			}
			cch.Dist(vert(2*k), vert(2*k+1))
		}
		report(b, built+cch.built)
	})
	b.Run("warm", func(b *testing.B) {
		cch := skel.Customize(g.ArcCosts())
		for v := 0; v < n; v++ {
			cch.label(roadnet.VertexID(v))
		}
		built := cch.built
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			cch.Dist(vert(i), vert(7*i+3))
		}
		report(b, cch.built-built)
	})
	b.Run("planner-stream", func(b *testing.B) {
		const route = 40
		cch := skel.Customize(g.ArcCosts())
		for i := 0; i < b.N; i++ {
			cch.Dist(vert(i%route), vert(route+i/route))
		}
		report(b, cch.built)
	})
}

// arcsRelaxed counts the arcs building v's label relaxes: the kept arcs
// of every ancestor its label reaches.
func arcsRelaxed(c *CCH, v roadnet.VertexID) int {
	sk, l, k := c.skel, c.label(v), 0
	for u := v; u >= 0; u = sk.parent[u] {
		if l[sk.depth[u]] < Inf {
			k += int(c.start[u+1] - c.start[u])
		}
	}
	return k
}

// BenchmarkCCHCustomize is the headline number: recustomizing the shared
// skeleton per traffic epoch versus contracting a hierarchy from scratch
// (compare BenchmarkCHBuild and the skeleton build below). Each epoch pays
// the basic sweep, the perfect sweep and the compaction; the two city
// rungs are serve-churn's and plan-offline's.
func BenchmarkCCHCustomize(b *testing.B) {
	nets := []struct {
		name string
		g    *roadnet.Graph
	}{
		{"grid25x25", testGraph(b, 25, 25, 1)},
		{"chengdu0.2", chengduGraph(b, 0.2)},
		{"chengdu0.5", chengduGraph(b, 0.5)},
	}
	for _, nt := range nets {
		skel := BuildCCHSkeleton(nt.g)
		costs := nt.g.ArcCosts()
		b.Run(nt.name, func(b *testing.B) {
			for b.Loop() {
				skel.Customize(costs)
			}
		})
	}
}

// BenchmarkCCHSkeletonBuild times the metric-independent preprocessing on
// the 625-vertex grid and on the benchmark's city at 2.4k and 5.9k
// vertices (DESIGN.md §12.2 tabulates the last two), and reports the
// skeleton's size: skeleton-MB is MemoryBytes, B/triangle that over the
// lower-triangle count, which tends to the chord's 4 bytes as triangles
// come to dominate.
func BenchmarkCCHSkeletonBuild(b *testing.B) {
	nets := []struct {
		name string
		g    *roadnet.Graph
	}{
		{"grid25x25", testGraph(b, 25, 25, 1)},
		{"chengdu0.2", chengduGraph(b, 0.2)},
		{"chengdu0.5", chengduGraph(b, 0.5)},
	}
	for _, nt := range nets {
		b.Run(nt.name, func(b *testing.B) {
			b.ReportAllocs()
			var sk *CCHSkeleton
			for b.Loop() {
				sk = BuildCCHSkeleton(nt.g)
			}
			b.ReportMetric(float64(sk.MemoryBytes())/1e6, "skeleton-MB")
			b.ReportMetric(float64(sk.MemoryBytes())/float64(sk.Triangles()), "B/triangle")
		})
	}
}
