package shortest

// Customizable contraction hierarchies (CCH), after Dibbelt, Strasser and
// Wagner's Customizable Route Planning line of work: split CH
// preprocessing into a metric-INDEPENDENT contraction done once per
// topology and a cheap metric customization re-run per weight epoch.
//
// The classic CH (ch.go) entangles the two: witness searches consult the
// current edge weights, so a traffic update invalidates the whole
// hierarchy. Here the contraction order and the shortcut skeleton are
// functions of the topology alone — contracting a vertex adds a shortcut
// between EVERY pair of its uncontracted neighbors (no witness search),
// yielding the chordal supergraph of the contraction order. A weight
// change then only re-derives the shortcut weights over that fixed
// skeleton: a bottom-up sweep over precomputed lower triangles, a few
// milliseconds where BuildCH took tens to hundreds (see
// BenchmarkDistUnderRebuild advance=customize-cch vs advance=rebuild-ch).
//
// Determinism is load-bearing (DESIGN.md §12): the skeleton is built in a
// canonical order (order-free fill-in counts, vertex-ID tie-breaks,
// rank-sorted upward arcs), every customization seeds and relaxes arcs in
// the same fixed order, and a query composes a shortest-path sum over the
// same arcs every epoch — so independently built skeletons return
// bit-identical distances across traffic epochs.

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/roadnet"
)

// CCHSkeleton is the metric-independent artifact: the canonical
// contraction order, the upward chordal arcs in CSR form (each tagged
// with the vertex whose contraction created it and with the base-graph
// arc it descends from, if any), and the chordal arc of every lower
// triangle a customization sweeps. Build once per topology with
// BuildCCHSkeleton; it is immutable afterwards and safe to share across
// any number of concurrent Customize calls.
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
	parent   []roadnet.VertexID
	depth    []int32
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

	// chord lists the lower triangles, one arc index each, in the order a
	// customization sweeps them: apexes by ascending rank, and for apex w
	// its upward-arc pairs (i, j), i < j, row by row. The triangle's other
	// two arcs are i and j themselves, so the sweep recovers them from its
	// loop position, and chord[t] is the arc (upTo[i], upTo[j]) whose
	// weight may be improved to w[i]+w[j].
	chord []int32

	shortcutArcs int
}

// cchArc is an edge of the contraction graph as seen from one endpoint:
// the neighbour, and the vertex whose contraction created the edge (-1 for
// original edges). Once its owner is contracted it is an upward arc.
type cchArc struct {
	to  roadnet.VertexID
	via roadnet.VertexID
}

// cchPrio is a contraction-queue entry. Entries order by (prio, v), a
// strict total order because v is unique.
type cchPrio struct {
	prio int
	v    roadnet.VertexID
}

func (a cchPrio) less(b cchPrio) bool {
	return a.prio < b.prio || a.prio == b.prio && a.v < b.v
}

// cchQueue is a binary min-heap of cchPrio entries.
type cchQueue []cchPrio

func (q cchQueue) init() {
	for i := len(q)/2 - 1; i >= 0; i-- {
		q.down(i)
	}
}

// down sifts q[i] toward the leaves until neither child orders before it.
func (q cchQueue) down(i int) {
	it := q[i]
	for {
		c := 2*i + 1
		if c >= len(q) {
			break
		}
		if c+1 < len(q) && q[c+1].less(q[c]) {
			c++
		}
		if !q[c].less(it) {
			break
		}
		q[i] = q[c]
		i = c
	}
	q[i] = it
}

// pop removes the top entry.
func (q *cchQueue) pop() {
	h := *q
	last := len(h) - 1
	h[0] = h[last]
	*q = h[:last]
	if last > 0 {
		(*q).down(0)
	}
}

// nextPrio is the smallest priority below the top, which sits in one of
// the root's children; ok is false when the top is the only entry.
func (q cchQueue) nextPrio() (prio int, ok bool) {
	switch len(q) {
	case 0, 1:
		return 0, false
	case 2:
		return q[1].prio, true
	}
	return min(q[1].prio, q[2].prio), true
}

// BuildCCHSkeleton contracts g's topology in a canonical
// minimum-fill-in-style order (lazy edge-difference heuristic,
// deterministic vertex-ID tie-breaks) and precomputes the triangle
// enumeration. No edge weight is ever consulted: the result depends only
// on the adjacency structure, so every traffic snapshot of the same base
// graph shares it.
func BuildCCHSkeleton(g *roadnet.Graph) *CCHSkeleton {
	n := g.NumVertices()
	// Topology-only contraction graph: each vertex's uncontracted
	// neighbours, in no particular order. roadnet.Build rejects self-loops
	// and duplicate edges, and chordal completion adds only missing edges,
	// so no list ever holds a vertex twice.
	adj := make([][]cchArc, n)
	for v := range adj {
		to, _ := g.Arcs(roadnet.VertexID(v))
		adj[v] = make([]cchArc, len(to))
		for i, u := range to {
			adj[v][i] = cchArc{to: u, via: -1}
		}
	}

	sk := &CCHSkeleton{
		n:        n,
		baseArcs: len(g.ArcCosts()),
		rank:     make([]int32, n),
		order:    make([]roadnet.VertexID, n),
	}
	neighborsContracted := make([]int32, n)
	// mark[x] == stamp flags x as a member of the set being tested against;
	// bumping stamp empties the set.
	mark := make([]uint32, n)
	stamp := uint32(0)

	// fillIn counts the shortcut edges contracting v would add right now:
	// pairs of v's neighbours not yet adjacent. Each adjacent pair is seen
	// once from either end, and the count does not depend on list order.
	fillIn := func(v roadnet.VertexID) int {
		stamp++
		for _, a := range adj[v] {
			mark[a.to] = stamp
		}
		linked := 0
		for _, a := range adj[v] {
			for _, b := range adj[a.to] {
				if mark[b.to] == stamp {
					linked++
				}
			}
		}
		d := len(adj[v])
		return d*(d-1)/2 - linked/2
	}

	// Every uncontracted vertex has exactly one entry, so the keys are
	// distinct and the top is the unique minimum: the contraction order is
	// a function of the keys alone, not of how the heap arranges them.
	// Priorities are integers, so `prio > next` is the test BuildCH writes
	// as the float `prio > next+1e-9`.
	pq := make(cchQueue, n)
	for v := range pq {
		pq[v] = cchPrio{prio: fillIn(roadnet.VertexID(v)) - len(adj[v]), v: roadnet.VertexID(v)}
	}
	pq.init()

	for r := int32(0); len(pq) > 0; {
		v := pq[0].v
		// Lazy update, same discipline as BuildCH: a vertex whose fresh
		// priority exceeds the next key goes back under that priority.
		prio := fillIn(v) - len(adj[v]) + 2*int(neighborsContracted[v])
		if next, ok := pq.nextPrio(); ok && prio > next {
			pq[0].prio = prio
			pq.down(0)
			continue
		}
		pq.pop()
		sk.rank[v] = r
		sk.order[r] = v
		r++
		// All of v's neighbours outrank it (they contract later), so adj[v]
		// becomes its upward arcs, frozen as is; v leaves every neighbour's
		// list and the neighbours become a clique.
		nb := adj[v]
		for i, a := range nb {
			u := a.to
			neighborsContracted[u]++
			// Walking backwards, the tail entry swapped into v's slot has
			// already been marked.
			stamp++
			l := adj[u]
			for k := len(l) - 1; k >= 0; k-- {
				if l[k].to == v {
					l[k] = l[len(l)-1]
					l = l[:len(l)-1]
				} else {
					mark[l[k].to] = stamp
				}
			}
			for _, b := range nb[i+1:] {
				if x := b.to; mark[x] != stamp {
					l = append(l, cchArc{to: x, via: v})
					adj[x] = append(adj[x], cchArc{to: u, via: v})
					sk.shortcutArcs++
				}
			}
			adj[u] = l
		}
	}

	// Freeze the upward arcs into CSR, sorted by target rank so the
	// triangle precompute below can pair arcs (i, j) with i < j and know
	// upTo[i] is the lower-ranked corner. A shortcut joins two vertices
	// that were not adjacent, so only original edges have a base arc.
	total := 0
	for _, l := range adj {
		total += len(l)
	}
	sk.upStart = make([]int32, n+1)
	sk.upTo = make([]roadnet.VertexID, total)
	sk.upVia = make([]roadnet.VertexID, total)
	sk.upBase = make([]int32, total)
	pos := int32(0)
	for v := 0; v < n; v++ {
		sk.upStart[v] = pos
		l := adj[v]
		slices.SortFunc(l, func(a, b cchArc) int { return cmp.Compare(sk.rank[a.to], sk.rank[b.to]) })
		for _, a := range l {
			sk.upTo[pos] = a.to
			sk.upVia[pos] = a.via
			sk.upBase[pos] = -1
			if a.via < 0 {
				sk.upBase[pos] = g.ArcIndex(roadnet.VertexID(v), a.to)
			}
			pos++
		}
		adj[v] = nil
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
	sk.buildLCA()

	// Lower-triangle enumeration in bottom-up apex order: when the sweep
	// reaches apex w, every arc leaving a vertex ranked below w is final,
	// so relaxing (upTo[i], upTo[j]) via w is sound. Apex w has
	// C(updeg(w), 2) triangles, which sizes the array exactly.
	ntri := 0
	for v := 0; v < n; v++ {
		d := int(sk.upStart[v+1] - sk.upStart[v])
		ntri += d * (d - 1) / 2
	}
	sk.chord = make([]int32, 0, ntri)
	for _, w := range sk.order {
		lo, hi := sk.upStart[w], sk.upStart[w+1]
		for i := lo; i < hi; i++ {
			// up(upTo[i]) and upTo[i+1:hi] are both in rank order and the
			// second is a subset of the first (chordal completion), so one
			// pointer walks up(upTo[i]) while j rises.
			u := sk.upTo[i]
			p, end := sk.upStart[u], sk.upStart[u+1]
			for j := i + 1; j < hi; j++ {
				for p < end && sk.upTo[p] != sk.upTo[j] {
					p++
				}
				if p == end {
					// Impossible by chordal completion; fail loudly rather
					// than silently customizing a broken skeleton.
					panic(fmt.Sprintf("shortest: CCH skeleton missing chordal arc (%d,%d)", u, sk.upTo[j]))
				}
				sk.chord = append(sk.chord, p)
			}
		}
	}
	return sk
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
func (sk *CCHSkeleton) Triangles() int { return len(sk.chord) }

// MemoryBytes reports the skeleton's storage footprint.
func (sk *CCHSkeleton) MemoryBytes() int64 {
	return int64(len(sk.upTo))*4 + int64(len(sk.upVia))*4 + int64(len(sk.upBase))*4 +
		int64(len(sk.upStart))*4 + int64(len(sk.chord))*4 +
		int64(sk.n)*8 + int64(len(sk.parent))*4 + int64(len(sk.depth))*4 +
		int64(len(sk.first))*4 + int64(len(sk.tree))*4 + int64(len(sk.sparse))*4
}

// Customize derives the epoch's shortcut weights over the fixed skeleton:
// original arcs are seeded from costs (the graph's CSR arc-cost array,
// see roadnet.Graph.ArcCosts), shortcut arcs start at +Inf, and one
// bottom-up sweep of the lower triangles settles every weight; labels
// walk only the arcs a top-down perfect sweep shows a shortest path can
// use (DESIGN.md §12.4, "Perfect pruning"). Because the skeleton, the
// seeding order and the sweep orders are all fixed, the same costs always
// produce bit-identical weights — and therefore bit-identical query
// results — no matter when or where the customization ran.
//
// Customize is safe to call concurrently on a shared skeleton; each call
// returns an independent CCH with its own, empty label arena (wrap in
// Locked to share one instance across goroutines, as Versioned does).
func (sk *CCHSkeleton) Customize(costs []float64) *CCH {
	basic := sk.basicWeights(costs)
	perfect := slices.Clone(basic)
	sk.perfectSweep(perfect)
	return sk.prune(basic, perfect, sk.pruneMargin(costs))
}

// basicWeights runs the basic customization: apexes bottom up, each
// relaxing every pair (i, j) of its upward arcs into their chord. An arc
// leaving the apex is written only by triangles of lower-ranked apexes,
// so both operands are final, and every arc ends at the min of its seed
// and one fl(w[i]+w[j]) per lower triangle: the same bits under any
// bottom-up apex order. Weights are non-negative or +Inf (no NaN, no −0),
// so the builtin min is the compare-and-store bit for bit, and without
// the unpredictable branch the sweep runs about twice as fast.
func (sk *CCHSkeleton) basicWeights(costs []float64) []float64 {
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
	chord := sk.chord
	for _, v := range sk.order {
		lo, hi := int(sk.upStart[v]), int(sk.upStart[v+1])
		for i := lo; i < hi; i++ {
			wi, ws := w[i], w[i+1:hi]
			cs := chord[:len(ws)]
			chord = chord[len(ws):]
			for k, c := range cs {
				w[c] = min(w[c], wi+ws[k])
			}
		}
	}
	return w
}

// perfectSweep lowers basic weights w in place to each arc's true length:
// apexes top down, each triangle relaxing the apex's two arcs through the
// chord. A chord leaves a higher-ranked vertex, so it is final when its
// apex is reached; every value written is the float length of a real walk.
// It keeps its branches: a min would chain every triangle of a row
// through wi, which runs 2.6 times slower.
func (sk *CCHSkeleton) perfectSweep(w []float64) {
	chord := sk.chord
	for r := len(sk.order) - 1; r >= 0; r-- {
		v := sk.order[r]
		lo, hi := int(sk.upStart[v]), int(sk.upStart[v+1])
		for i := hi - 1; i >= lo; i-- {
			wi, ws := w[i], w[i+1:hi]
			cs := chord[len(chord)-len(ws):]
			chord = chord[:len(chord)-len(ws)]
			for k := len(cs) - 1; k >= 0; k-- {
				c := cs[k]
				if s := wi + w[c]; s < ws[k] {
					ws[k] = s
				}
				if s := ws[k] + w[c]; s < wi {
					wi = s
				}
			}
			w[i] = wi
		}
	}
}

// pruneMargin is τ = 2·γ_K·B, K = |upward arcs| + 4·maxDepth + 2, γ_K =
// K·u/(1−K·u), u = 2⁻⁵³, B the sum of the finite costs: no arc whose basic
// weight exceeds its perfect one by more attains a Dist (DESIGN.md §12.4).
func (sk *CCHSkeleton) pruneMargin(costs []float64) float64 {
	b := 0.0
	for _, x := range costs {
		if x < Inf {
			b += x
		}
	}
	ku := 0x1p-53 * float64(len(sk.upTo)+4*int(sk.maxDepth)+2) // K·u
	return 2 * ku / (1 - ku) * b
}

// prune returns the CCH whose labels walk the arcs with basic−perfect ≤ tau.
func (sk *CCHSkeleton) prune(basic, perfect []float64, tau float64) *CCH {
	kept := 0
	for i, w := range basic {
		if w-perfect[i] <= tau {
			kept++
		}
	}
	c := &CCH{
		skel:  sk,
		start: make([]int32, sk.n+1),
		head:  make([]int32, kept),
		w:     make([]float64, kept),
		lab:   make([][]float64, sk.n),
	}
	pos := int32(0)
	for v := 0; v < sk.n; v++ {
		for i := sk.upStart[v]; i < sk.upStart[v+1]; i++ {
			if basic[i]-perfect[i] <= tau {
				c.head[pos] = sk.depth[sk.upTo[i]]
				c.w[pos] = basic[i]
				pos++
			}
		}
		c.start[v+1] = pos
	}
	// Label budget: every vertex's label at once (DESIGN.md §12.4, "The
	// budget rule"). A label that does not fit the current slab opens the
	// next one, abandoning a tail of at most maxDepth floats, so each slab
	// counts as holding slabLen−maxDepth; the fewest slabs of at most
	// cchSlabFloats (two labels, if longer) that hold Σ(depth+1) that way
	// share it evenly. Two labels always fit after a reset: there are two
	// slabs, or one of Σ(depth+1)+maxDepth ≥ 2·(maxDepth+1) floats.
	m, need := int(sk.maxDepth), sk.labelFloats()
	top := max(cchSlabFloats, 2*(m+1))
	c.maxSlabs = max((need+top-m-1)/(top-m), 1) // 1 on an empty graph
	c.slabLen = (need+c.maxSlabs-1)/c.maxSlabs + m
	return c
}

// labelFloats is Σ_v (depth(v)+1), what every vertex's label takes at once.
func (sk *CCHSkeleton) labelFloats() int {
	k := 0
	for _, d := range sk.depth {
		k += int(d) + 1
	}
	return k
}

// cchSlabFloats caps the label arena's growth step (256 KiB, a hundred-odd
// labels): an epoch that answers few point queries touches little memory.
const cchSlabFloats = 1 << 15

// CCH is a customized contraction hierarchy: one epoch's metric laid over
// a shared CCHSkeleton. Point queries read lazily built elimination-tree
// labels out of a per-instance arena, so a shared instance needs Locked;
// the skeleton and kept arcs underneath are immutable and free to share.
type CCH struct {
	skel *CCHSkeleton

	// The kept upward arcs in CSR: start[v]..start[v+1] leave v in rank
	// order; head[i] is arc i's head depth, w[i] its basic weight.
	start []int32
	head  []int32
	w     []float64

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
// up the root path in rank order, each ancestor relaxing its kept arcs
// into the label itself (every arc head is a higher ancestor, so it is
// final by the time the walk reaches it). An unreached (+Inf) ancestor
// is skipped: it could improve no entry.
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
		if du == Inf {
			continue
		}
		lo, hi := c.start[u], c.start[u+1]
		ws := c.w[lo:hi]
		for i, k := range c.head[lo:hi] {
			l[k] = min(l[k], du+ws[i])
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
// the skeleton, the kept arcs, and the label arena at its current capacity.
func (c *CCH) MemoryBytes() int64 {
	return c.skel.MemoryBytes() + int64(len(c.start))*4 + int64(len(c.head))*12 +
		int64(len(c.lab))*24 + int64(len(c.slabs))*int64(c.slabLen)*8
}

// AvgUpDegree is the mean number of upward arcs per vertex.
func (c *CCH) AvgUpDegree() float64 {
	return float64(len(c.skel.upTo)) / float64(c.skel.n)
}
