package shortest

// Customizable contraction hierarchies (CCH), after Dibbelt, Strasser and
// Wagner's Customizable Route Planning line of work: split CH
// preprocessing into a metric-INDEPENDENT contraction done once per
// topology and a cheap metric customization re-run per weight epoch.
//
// The classic CH (ch.go) entangles the two: witness searches consult the
// current edge weights to suppress unnecessary shortcuts, so a traffic
// update invalidates the whole hierarchy and PR 5's epoch front paid a
// full BuildCH per update, serving ~55x-slower live-Dijkstra queries
// meanwhile. Here the contraction order and the shortcut skeleton are
// functions of the topology alone — contracting a vertex adds a shortcut
// between EVERY pair of its uncontracted neighbors (no witness search),
// yielding the chordal supergraph of the contraction order. A weight
// change then only re-derives the shortcut weights over that fixed
// skeleton: a bottom-up sweep over precomputed lower triangles, a few
// milliseconds where BuildCH took tens to hundreds (see
// BenchmarkDistUnderRebuild advance=customize-cch vs advance=rebuild-ch).
//
// Determinism is load-bearing (DESIGN.md §12): the skeleton is built in a
// canonical order (sorted adjacency, vertex-ID tie-breaks), every
// customization seeds and relaxes arcs in the same fixed order, and a
// query composes a shortest-path sum over the same arcs every epoch — so
// two processes that built the skeleton independently return bit-identical
// distances, which is what lets the customize fast path preserve the
// repo's replay-equivalence guarantee across traffic epochs.

import (
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"repro/internal/roadnet"
)

// CCHSkeleton is the metric-independent artifact: the canonical
// contraction order, the upward chordal arcs in CSR form (each tagged
// with the vertex whose contraction created it and with the base-graph
// arc it descends from, if any), and the flattened lower-triangle list a
// customization sweeps. Build once per topology with BuildCCHSkeleton;
// it is immutable afterwards and safe to share across any number of
// concurrent Customize calls.
type CCHSkeleton struct {
	n        int
	baseArcs int // len of the base graph's CSR arc arrays, for validation

	rank  []int32            // vertex -> contraction rank
	order []roadnet.VertexID // rank -> vertex

	// Upward chordal arcs: for each vertex, arcs to higher-ranked
	// neighbors sorted by rank. upVia is the vertex whose contraction
	// created the arc (-1 for original edges); upBase indexes the base
	// graph's arc arrays (-1 for shortcut-only arcs).
	upStart []int32
	upTo    []roadnet.VertexID
	upVia   []roadnet.VertexID
	upBase  []int32

	// Elimination tree: parent[v] is v's lowest-ranked upward neighbor (-1
	// at a root), depth[v] its distance from that root. Contracting v made
	// its upward neighbors a clique, so by induction all of them are
	// ancestors of v: v's upward search space is exactly its root path,
	// which is what CCH's depth-indexed labels rest on (DESIGN.md §12.4).
	// upDepth[i] = depth[upTo[i]], so a label build reads head depths in
	// sequence beside upW; metric-independent, shared by every epoch's CCH.
	parent   []roadnet.VertexID
	depth    []int32
	upDepth  []int32
	maxDepth int32

	// LCA index over the elimination forest, metric-independent like the
	// tree itself. The forest's Euler tours (a vertex on entry and again
	// after each child returns), concatenated tree by tree, are eulerLen
	// long; first[v] is v's first position in them and tree[v] the root of
	// v's tree. sparse is a table of range minima by depth: entry
	// sparse[k*eulerLen+i] is the shallowest vertex of tour positions
	// [i, i+2^k), so row 0 is the tour itself. lca answers with two table
	// reads instead of a walk up both root paths (DESIGN.md §12.4).
	first    []int32
	tree     []roadnet.VertexID
	sparse   []roadnet.VertexID
	eulerLen int

	// tri is the lower-triangle enumeration: flat (c, a, b) arc-index
	// triples, meaning weight[c] may be improved to weight[a]+weight[b].
	// Triples are grouped by (apex contraction level, arc shard c mod
	// cchCustomizeShards) with group boundaries in triOff — the layout
	// that lets Customize sweep the levels in parallel (see
	// sweepParallel) — and within a group they keep bottom-up apex-rank
	// order. Sweeping the whole array front to back is still a complete,
	// canonical basic customization: all of a level-ℓ apex's out-arcs are
	// finalized by the levels before ℓ.
	tri []int32
	// triOff[lvl*cchCustomizeShards+s] is the first triple (in triangle
	// units; multiply by 3 to index tri) of level lvl's shard s;
	// len(triOff) == numLevels*cchCustomizeShards + 1.
	triOff    []int32
	numLevels int

	shortcutArcs int
}

// cchCustomizeShards is the per-level write-partition width: triangle
// (c,a,b) lands in shard c mod cchCustomizeShards, so every write to an
// arc weight within one level happens on a single shard — the invariant
// that makes the parallel sweep race-free and bit-deterministic.
const cchCustomizeShards = 32

// cchParallelMinTriples is the skeleton size (in tri elements, i.e.
// 3·triangles) below which Customize always sweeps serially: goroutine
// and barrier overhead beats the arithmetic on small hierarchies.
const cchParallelMinTriples = 3 * 65536

// cchParallelMinLevel is the per-level element count below which one
// level is swept inline by the coordinating goroutine instead of being
// fanned out.
const cchParallelMinLevel = 3 * 4096

// cchUpArc is an upward arc recorded at contraction time.
type cchUpArc struct {
	to  roadnet.VertexID
	via roadnet.VertexID
}

// BuildCCHSkeleton contracts g's topology in a canonical
// minimum-fill-in-style order (lazy edge-difference heuristic,
// deterministic vertex-ID tie-breaks) and precomputes the triangle
// enumeration. No edge weight is ever consulted: the result depends only
// on the adjacency structure, so every traffic snapshot of the same base
// graph shares it.
func BuildCCHSkeleton(g *roadnet.Graph) *CCHSkeleton {
	n := g.NumVertices()
	// Topology-only working graph: neighbor -> vertex whose contraction
	// created the edge (-1 for original edges).
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
	upNbrs := make([][]cchUpArc, n)

	var nbBuf []roadnet.VertexID
	// fillIn counts the shortcut edges contracting v would add right now:
	// pairs of uncontracted neighbors not yet adjacent. A pure count, so
	// map iteration order cannot leak into the priority.
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
		// Lazy update, same discipline as BuildCH.
		prio := float64(fillIn(v)-len(adj[v])) + 2*float64(neighborsContracted[v])
		if pq.Len() > 0 && prio > pq[0].prio+1e-9 {
			heap.Push(&pq, chPrioItem{v: v, prio: prio})
			continue
		}
		sk.rank[v] = nextRank
		sk.order[nextRank] = v
		nextRank++
		// Snapshot v's neighbors in sorted order; all of them outrank v
		// (they contract later), so they become v's upward arcs.
		nbBuf = nbBuf[:0]
		for u := range adj[v] {
			nbBuf = append(nbBuf, u)
		}
		sort.Slice(nbBuf, func(i, j int) bool { return nbBuf[i] < nbBuf[j] })
		for _, u := range nbBuf {
			upNbrs[v] = append(upNbrs[v], cchUpArc{to: u, via: adj[v][u]})
		}
		// Chordal completion: every pair of neighbors becomes adjacent.
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

	// Freeze the upward arcs into CSR, sorted by target rank so the
	// triangle precompute below can pair arcs (i, j) with i < j and know
	// upTo[i] is the lower-ranked corner.
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
		upNbrs[v] = nil
	}
	sk.upStart[n] = pos

	// Elimination tree, top-down so a parent's depth is final first.
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
	sk.upDepth = make([]int32, total)
	for i, x := range sk.upTo {
		sk.upDepth[i] = sk.depth[x]
	}
	sk.buildLCA()

	// Contraction levels over the chordal graph: level(v) = 1 + max level
	// of v's lower upward-neighbors (0 for leaves of the hierarchy). A
	// rank-order pass finalizes each vertex before its upward arcs are
	// walked. Levels drive the parallel customization: every out-arc of a
	// level-ℓ vertex is written only by triangles whose apex sits at a
	// level < ℓ, so a sweep that barriers between levels reads only
	// finalized weights.
	level := make([]int32, n)
	maxLevel := int32(0)
	for r := 0; r < n; r++ {
		v := sk.order[r]
		lv := level[v] + 1
		for i := sk.upStart[v]; i < sk.upStart[v+1]; i++ {
			if x := sk.upTo[i]; level[x] < lv {
				level[x] = lv
			}
		}
		if level[v] > maxLevel {
			maxLevel = level[v]
		}
	}
	sk.numLevels = int(maxLevel) + 1

	// Lower-triangle enumeration in bottom-up apex order: when the sweep
	// reaches apex w, every arc leaving a vertex ranked below w is final,
	// so relaxing (upTo[i], upTo[j]) via w is sound.
	var keys []int32
	for r := 0; r < n; r++ {
		w := sk.order[r]
		for i := sk.upStart[w]; i < sk.upStart[w+1]; i++ {
			for j := i + 1; j < sk.upStart[w+1]; j++ {
				c := sk.arcBetween(sk.upTo[i], sk.upTo[j])
				if c < 0 {
					// Impossible by chordal completion; fail loudly rather
					// than silently customizing a broken skeleton.
					panic(fmt.Sprintf("shortest: CCH skeleton missing chordal arc (%d,%d)", sk.upTo[i], sk.upTo[j]))
				}
				sk.tri = append(sk.tri, c, i, j)
				keys = append(keys, level[w]*cchCustomizeShards+c%cchCustomizeShards)
			}
		}
	}

	// Stable counting sort of the triples into (level, shard) groups.
	// Within a group the apex-rank order above is preserved, so the
	// layout — and therefore every sweep over it — stays canonical.
	ngroups := sk.numLevels * cchCustomizeShards
	sk.triOff = make([]int32, ngroups+1)
	for _, k := range keys {
		sk.triOff[k+1]++
	}
	for i := 1; i <= ngroups; i++ {
		sk.triOff[i] += sk.triOff[i-1]
	}
	sorted := make([]int32, len(sk.tri))
	cursor := make([]int32, ngroups)
	copy(cursor, sk.triOff[:ngroups])
	for t, k := range keys {
		p := cursor[k]
		cursor[k] = p + 1
		copy(sorted[p*3:p*3+3], sk.tri[t*3:t*3+3])
	}
	sk.tri = sorted
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

// buildLCA lays out the elimination forest for constant-time lowest
// common ancestor queries: children in CSR by vertex ID, an iterative
// Euler tour of every tree in root-ID order, then the sparse table, one
// doubling row at a time.
func (sk *CCHSkeleton) buildLCA() {
	n := sk.n
	kidNext := make([]int32, n+1) // per vertex: next child to visit
	for _, p := range sk.parent {
		if p >= 0 {
			kidNext[p+1]++
		}
	}
	for v := 0; v < n; v++ {
		kidNext[v+1] += kidNext[v]
	}
	kids := make([]roadnet.VertexID, kidNext[n])
	kidEnd := make([]int32, n)
	copy(kidEnd, kidNext[:n])
	for v, p := range sk.parent {
		if p >= 0 {
			kids[kidEnd[p]] = roadnet.VertexID(v)
			kidEnd[p]++
		}
	}

	euler := make([]roadnet.VertexID, 0, 2*n)
	sk.first = make([]int32, n)
	sk.tree = make([]roadnet.VertexID, n)
	var stack []roadnet.VertexID
	enter := func(v, root roadnet.VertexID) {
		sk.first[v] = int32(len(euler))
		sk.tree[v] = root
		euler = append(euler, v)
		stack = append(stack, v)
	}
	for r := 0; r < n; r++ {
		if sk.parent[r] >= 0 {
			continue
		}
		root := roadnet.VertexID(r)
		enter(root, root)
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			if kidNext[v] < kidEnd[v] {
				kidNext[v]++
				enter(kids[kidNext[v]-1], root)
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				euler = append(euler, stack[len(stack)-1])
			}
		}
	}

	m := len(euler)
	sk.eulerLen = m
	sk.sparse = make([]roadnet.VertexID, bits.Len(uint(m))*m)
	copy(sk.sparse, euler)
	for k, half := 1, 1; 2*half <= m; k, half = k+1, 2*half {
		prev, row := sk.sparse[(k-1)*m:k*m], sk.sparse[k*m:(k+1)*m]
		for i := 0; i+2*half <= m; i++ {
			a, b := prev[i], prev[i+half]
			if sk.depth[b] < sk.depth[a] {
				a = b
			}
			row[i] = a
		}
	}
}

// lca returns the lowest common ancestor of s and t in the elimination
// forest, or -1 when they lie in different trees. Between the first
// visits of s and t the tour climbs no higher than their LCA and passes
// through it, so it is the unique shallowest vertex of that range; of the
// two overlapping power-of-two windows that cover the range, both hold
// only it and deeper vertices and one holds it.
func (sk *CCHSkeleton) lca(s, t roadnet.VertexID) roadnet.VertexID {
	if sk.tree[s] != sk.tree[t] {
		return -1
	}
	l, r := int(sk.first[s]), int(sk.first[t])
	if l > r {
		l, r = r, l
	}
	k := bits.Len(uint(r-l+1)) - 1
	row := sk.sparse[k*sk.eulerLen:]
	a, b := row[l], row[r+1-1<<k]
	if sk.depth[b] < sk.depth[a] {
		return b
	}
	return a
}

// NumVertices returns |V| of the topology the skeleton was built on.
func (sk *CCHSkeleton) NumVertices() int { return sk.n }

// Shortcuts is the number of shortcut edges in the chordal supergraph.
func (sk *CCHSkeleton) Shortcuts() int { return sk.shortcutArcs }

// Triangles is the number of lower triangles one customization sweeps.
func (sk *CCHSkeleton) Triangles() int { return len(sk.tri) / 3 }

// MemoryBytes reports the skeleton's storage footprint.
func (sk *CCHSkeleton) MemoryBytes() int64 {
	return int64(len(sk.upTo))*4 + int64(len(sk.upVia))*4 + int64(len(sk.upBase))*4 +
		int64(len(sk.upStart))*4 + int64(len(sk.tri))*4 + int64(len(sk.triOff))*4 +
		int64(sk.n)*8 + int64(len(sk.parent))*4 + int64(len(sk.depth))*4 + int64(len(sk.upDepth))*4 +
		int64(len(sk.first))*4 + int64(len(sk.tree))*4 + int64(len(sk.sparse))*4
}

// Customize derives the epoch's shortcut weights over the fixed skeleton:
// original arcs are seeded from costs (the graph's CSR arc-cost array,
// see roadnet.Graph.ArcCosts), shortcut arcs start at +Inf, and one
// in-order sweep of the precomputed lower triangles settles every weight.
// Because the skeleton, the seeding order and the sweep order are all
// fixed, the same costs always produce bit-identical weights — and
// therefore bit-identical query results — no matter when or where the
// customization ran.
//
// Customize is safe to call concurrently on a shared skeleton; each call
// returns an independent CCH with its own, empty label arena (wrap in
// Locked to share one instance across goroutines, as Versioned does).
//
// Large skeletons sweep their triangle levels in parallel across
// GOMAXPROCS workers; the result is bit-identical to the serial sweep
// (see sweepParallel), so callers cannot observe which path ran except
// through latency. CustomizeParallel pins the worker count explicitly.
func (sk *CCHSkeleton) Customize(costs []float64) *CCH {
	return sk.CustomizeParallel(costs, runtime.GOMAXPROCS(0))
}

// CustomizeParallel is Customize with an explicit worker count (≤1 forces
// the serial sweep). Any worker count produces bit-identical weights; the
// knob exists for the equivalence tests and the customize benchmarks.
func (sk *CCHSkeleton) CustomizeParallel(costs []float64, workers int) *CCH {
	if len(costs) != sk.baseArcs {
		panic(fmt.Sprintf("shortest: Customize got %d arc costs, skeleton topology has %d arcs",
			len(costs), sk.baseArcs))
	}
	w := make([]float64, len(sk.upTo))
	for i := range w {
		if b := sk.upBase[i]; b >= 0 {
			w[i] = costs[b]
		} else {
			w[i] = math.Inf(1)
		}
	}
	if workers > cchCustomizeShards {
		workers = cchCustomizeShards
	}
	if workers <= 1 || len(sk.tri) < cchParallelMinTriples {
		// The reference basic customization: one in-order pass.
		sk.sweepRange(w, 0, int32(len(sk.tri)/3))
	} else {
		sk.sweepParallel(w, workers)
	}
	// Label budget: what the hierarchy itself occupies, which on road
	// networks keeps every label resident (DESIGN.md §12.4). The clamps
	// make sure two labels always fit after a reset.
	budget := int((sk.MemoryBytes() + int64(len(w))*8) / 8)
	slabLen := max(min(cchSlabFloats, budget/2), int(sk.maxDepth)+1)
	return &CCH{
		skel:     sk,
		upW:      w,
		lab:      make([][]float64, sk.n),
		slabLen:  slabLen,
		maxSlabs: max(budget/slabLen, 2),
	}
}

// sweepRange relaxes the triangles in triple-index range [lo, hi).
func (sk *CCHSkeleton) sweepRange(w []float64, lo, hi int32) {
	tri := sk.tri
	for t := int(lo) * 3; t < int(hi)*3; t += 3 {
		c, a, b := tri[t], tri[t+1], tri[t+2]
		if s := w[a] + w[b]; s < w[c] {
			w[c] = s
		}
	}
}

// sweepParallel runs the customization level by level with a barrier
// between levels, fanning each level's shards across the workers.
//
// Determinism argument (this must stay bit-identical to the serial pass, or
// replay equivalence would depend on GOMAXPROCS): a level-ℓ triangle
// reads the two arcs leaving its apex (level ℓ) and writes the arc
// between its corners, which leaves a vertex of level > ℓ. So within a
// level, reads touch only arcs finalized by earlier levels (the barrier)
// and writes touch only arcs no triangle of this level reads. Two
// triangles of one level CAN write the same arc — but they share the
// shard c mod cchCustomizeShards by construction, and a shard is swept
// by exactly one worker, in canonical order. Every arc therefore ends at
// min(seed, min over its triangles of w[a]+w[b] with a, b final) — each
// candidate a single rounded float add of scheduling-independent
// operands, and a float min is order-independent — which is precisely
// the serial sweep's result, bit for bit.
func (sk *CCHSkeleton) sweepParallel(w []float64, workers int) {
	var wg sync.WaitGroup
	for lvl := 0; lvl < sk.numLevels; lvl++ {
		base := lvl * cchCustomizeShards
		lo := sk.triOff[base]
		hi := sk.triOff[base+cchCustomizeShards]
		if (hi-lo)*3 < cchParallelMinLevel {
			sk.sweepRange(w, lo, hi)
			continue
		}
		wg.Add(workers)
		for wk := 0; wk < workers; wk++ {
			go func(wk int) {
				defer wg.Done()
				for s := wk; s < cchCustomizeShards; s += workers {
					sk.sweepRange(w, sk.triOff[base+s], sk.triOff[base+s+1])
				}
			}(wk)
		}
		wg.Wait()
	}
}

// cchSlabFloats is the label arena's growth step (256 KiB, a hundred-odd
// labels): an epoch that answers few point queries touches little memory.
const cchSlabFloats = 1 << 15

// CCH is a customized contraction hierarchy: one epoch's metric laid over
// a shared CCHSkeleton. Point queries read lazily built elimination-tree
// labels out of a per-instance arena, so a shared instance needs Locked;
// the skeleton and upW underneath are immutable and free to share.
type CCH struct {
	skel *CCHSkeleton
	upW  []float64

	// lab[v][i] is the upward distance from v to its ancestor at depth i
	// (nil until v is first queried, and again after a reset). Labels live
	// in slabs allocated on demand up to maxSlabs; when those are full all
	// labels are dropped and the slabs refilled from the start. gen counts
	// those resets, built the labels computed.
	lab      [][]float64
	slabs    [][]float64
	free     []float64 // unused tail of the slab being filled
	next     int       // slab to move into when free runs out
	slabLen  int
	maxSlabs int
	gen      uint32
	built    uint64
}

// BuildCCH builds the skeleton for g and customizes it with g's current
// costs — the one-stop constructor Auto and the CLIs use. Keep the
// skeleton (Skeleton) to recustomize later epochs in milliseconds.
func BuildCCH(g *roadnet.Graph) *CCH {
	return BuildCCHSkeleton(g).Customize(g.ArcCosts())
}

// Skeleton returns the metric-independent artifact this CCH customizes,
// shared and immutable.
func (c *CCH) Skeleton() *CCHSkeleton { return c.skel }

// Dist implements Oracle: exact shortest travel time on the customized
// metric. The two upward search spaces are root paths, so they meet on
// the common ancestors of s and t — depths 0..d, d the depth of their
// lowest common ancestor (two sparse-table reads) — and the answer is the
// min over those of label(s)[i]+label(t)[i]: the same float min over the
// same fl(a+b) candidates as upwardDist on these arrays, hence the same
// bits (DESIGN.md §12.4).
func (c *CCH) Dist(s, t roadnet.VertexID) float64 {
	if s == t {
		return 0
	}
	sk := c.skel
	a := sk.lca(s, t)
	if a < 0 {
		return Inf
	}
	ls := c.label(s)
	gen := c.gen
	lt := c.label(t)
	if gen != c.gen {
		// Building t's label recycled the slab holding s's. The arena now
		// holds one label and always has room for a second.
		ls = c.label(s)
	}
	d := int(sk.depth[a])
	lt = lt[:d+1]
	best := Inf
	for i, x := range ls[:d+1] {
		if y := x + lt[i]; y < best {
			best = y
		}
	}
	return best
}

// label returns v's label, building it on first use: one heap-free walk
// up the root path in rank order, each ancestor relaxing its upward arcs
// into the label itself (every arc head is a higher ancestor, so it is
// final by the time the walk reaches it).
func (c *CCH) label(v roadnet.VertexID) []float64 {
	if l := c.lab[v]; l != nil {
		return l
	}
	sk := c.skel
	l := c.grab(int(sk.depth[v]) + 1)
	for i := range l {
		l[i] = Inf
	}
	l[len(l)-1] = 0
	for u := v; u >= 0; u = sk.parent[u] {
		du := l[sk.depth[u]]
		lo, hi := sk.upStart[u], sk.upStart[u+1]
		ws := c.upW[lo:hi]
		for i, k := range sk.upDepth[lo:hi] {
			if d := du + ws[i]; d < l[k] {
				l[k] = d
			}
		}
	}
	c.lab[v] = l
	c.built++
	return l
}

// grab carves k floats out of the arena, opening the next slab when the
// current one cannot hold them and recycling them all once maxSlabs are full.
func (c *CCH) grab(k int) []float64 {
	if len(c.free) < k {
		if c.next == c.maxSlabs {
			clear(c.lab)
			c.next = 0
			c.gen++
		}
		if c.next == len(c.slabs) {
			c.slabs = append(c.slabs, make([]float64, c.slabLen))
		}
		c.free = c.slabs[c.next]
		c.next++
	}
	l := c.free[:k:k]
	c.free = c.free[k:]
	return l
}

// MemoryBytes reports the customized hierarchy's footprint: its share of
// the skeleton, the weights, and the label arena at its current capacity.
func (c *CCH) MemoryBytes() int64 {
	return c.skel.MemoryBytes() + int64(len(c.upW))*8 +
		int64(len(c.lab))*24 + int64(len(c.slabs))*int64(c.slabLen)*8
}

// AvgUpDegree is the mean number of upward arcs per vertex.
func (c *CCH) AvgUpDegree() float64 {
	return float64(len(c.skel.upTo)) / float64(c.skel.n)
}
