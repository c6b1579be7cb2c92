package shortest

import (
	"slices"

	"repro/internal/pqueue"
	"repro/internal/roadnet"
)

// HubLabels is a 2-hop labeling distance oracle built with pruned landmark
// labeling. It plays the role of the "hub-based labeling algorithm ...
// for road networks" ([9], Abraham et al.) that the paper uses for its
// shortest-distance queries: after an offline construction, a query is a
// merge-intersection of two sorted label lists — effectively the O(1)-ish
// oracle the paper's complexity analysis assumes.
//
// Construction runs one pruned Dijkstra per vertex in "importance" order;
// for grid-like city networks we order vertices by closeness to the map
// center (central vertices hit the most shortest paths), tie-broken by
// degree. Labels are exact: Query(u,v) equals the true shortest distance.
//
// Labels are stored in CSR (compressed sparse row) form: vertex v's label
// occupies hubs[offsets[v]:offsets[v+1]] (hub ranks, strictly increasing)
// and dists[offsets[v]:offsets[v+1]] in parallel. The flat layout makes
// Dist — the innermost operation of every planner, called millions of
// times per sweep — a merge over two contiguous spans with no per-vertex
// pointer chasing, and it allocates nothing.
type HubLabels struct {
	n       int
	offsets []int32
	hubs    []int32
	dists   []float64
}

// nestedLabels is the construction-time layout: per-vertex slices that can
// grow independently while the pruned Dijkstras append labels. It is kept
// as a separate type (rather than flattening on the fly) so the CSR
// flattening can be equivalence-tested against it (nestedLabels.dist in
// hub_csr_test.go).
type nestedLabels struct {
	hubRank [][]int32
	hubDist [][]float64
}

// BuildHubLabels constructs the labeling. It is deterministic.
func BuildHubLabels(g *roadnet.Graph) *HubLabels {
	return buildNestedLabels(g).flatten()
}

// buildNestedLabels runs the pruned landmark labeling into the nested
// construction layout.
func buildNestedLabels(g *roadnet.Graph) *nestedLabels {
	n := g.NumVertices()
	order := hubOrder(g)

	nl := &nestedLabels{
		hubRank: make([][]int32, n),
		hubDist: make([][]float64, n),
	}

	dist := make([]float64, n)
	version := make([]uint32, n)
	var cur uint32
	heap := pqueue.New(n)

	// tmp arrays for O(1) partial query during pruning: distances from the
	// current root's labels, indexed by hub rank; +Inf where the root has
	// no such hub, so an absent hub never certifies anything.
	rootLabel := make([]float64, n)
	for i := range rootLabel {
		rootLabel[i] = Inf
	}

	for rank, root := range order {
		// Load root's labels into rootLabel for O(1) lookups.
		for i, hr := range nl.hubRank[root] {
			rootLabel[hr] = nl.hubDist[root][i]
		}
		cur++
		heap.Reset()
		version[root] = cur
		dist[root] = 0
		heap.Push(root, 0)
		for heap.Len() > 0 {
			v, dv := heap.Pop()
			// Prune: if some earlier hub already certifies a distance
			// ≤ dv between root and v, v (and everything behind it)
			// doesn't need root as a hub.
			if covered(rootLabel, nl.hubRank[v], nl.hubDist[v], dv) {
				continue
			}
			nl.hubRank[v] = append(nl.hubRank[v], int32(rank))
			nl.hubDist[v] = append(nl.hubDist[v], dv)
			to, cost := g.Arcs(v)
			for i, u := range to {
				du := dv + cost[i]
				if version[u] != cur || du < dist[u] {
					version[u] = cur
					dist[u] = du
					heap.Push(u, du)
				}
			}
		}
		// Unload root labels.
		for _, hr := range nl.hubRank[root] {
			rootLabel[hr] = Inf
		}
	}
	return nl
}

// covered is the prune check of the build: whether min over i of
// rootLabel[hr[i]] + hd[i] is ≤ dv. It folds the sums of each block of
// eight label entries into one branch-free minimum (a tree of pairwise
// mins, three deep) and tests the block once, so the branch it takes is
// predictable. Some sum is ≤ dv exactly when the minimum is, and no sum
// is NaN (label distances and dv are finite and ≥ 0, absent hubs +Inf),
// so it decides as a per-entry test would, and every label entry and
// distance bit stays the same (TestHubLabelsDigest).
func covered(rootLabel []float64, hr []int32, hd []float64, dv float64) bool {
	hd = hd[:len(hr)]
	i := 0
	for ; i+8 <= len(hr); i += 8 {
		r, d := hr[i:i+8:i+8], hd[i:i+8:i+8]
		m := min(min(rootLabel[r[0]]+d[0], rootLabel[r[1]]+d[1]),
			min(rootLabel[r[2]]+d[2], rootLabel[r[3]]+d[3]),
			min(rootLabel[r[4]]+d[4], rootLabel[r[5]]+d[5]),
			min(rootLabel[r[6]]+d[6], rootLabel[r[7]]+d[7]))
		if m <= dv {
			return true
		}
	}
	m := Inf
	for ; i < len(hr); i++ {
		m = min(m, rootLabel[hr[i]]+hd[i])
	}
	return m <= dv
}

// flatten packs the nested labels into the contiguous CSR arrays. Label
// order within a vertex is preserved (strictly increasing hub rank), so
// flat and nested queries merge identical sequences.
func (nl *nestedLabels) flatten() *HubLabels {
	n := len(nl.hubRank)
	total := 0
	for _, l := range nl.hubRank {
		total += len(l)
	}
	h := &HubLabels{
		n:       n,
		offsets: make([]int32, n+1),
		hubs:    make([]int32, 0, total),
		dists:   make([]float64, 0, total),
	}
	for v := 0; v < n; v++ {
		h.offsets[v] = int32(len(h.hubs))
		h.hubs = append(h.hubs, nl.hubRank[v]...)
		h.dists = append(h.dists, nl.hubDist[v]...)
	}
	h.offsets[n] = int32(len(h.hubs))
	return h
}

// hubOrder returns vertices sorted by decreasing expected "hub usefulness":
// closeness to the network center first, then degree. The comparator is a
// total order (vertex ID breaks all ties), so the result is unique no
// matter which sort algorithm produces it.
func hubOrder(g *roadnet.Graph) []roadnet.VertexID {
	n := g.NumVertices()
	center := g.Bounds().Center()
	order := make([]roadnet.VertexID, n)
	for i := range order {
		order[i] = roadnet.VertexID(i)
	}
	slices.SortFunc(order, func(a, b roadnet.VertexID) int {
		da := g.Point(a).DistSq(center)
		db := g.Point(b).DistSq(center)
		switch {
		case da < db:
			return -1
		case da > db:
			return 1
		}
		ga, gb := g.Degree(a), g.Degree(b)
		switch {
		case ga > gb:
			return -1
		case ga < gb:
			return 1
		}
		return int(a - b)
	})
	return order
}

// Dist implements Oracle: exact shortest travel time, +Inf if disconnected.
// It is a branch-light merge over two contiguous CSR spans and performs no
// allocations; being read-only after construction it is safe for any
// number of concurrent callers.
func (h *HubLabels) Dist(s, t roadnet.VertexID) float64 {
	if s == t {
		return 0
	}
	i, ie := h.offsets[s], h.offsets[s+1]
	j, je := h.offsets[t], h.offsets[t+1]
	best := Inf
	for i < ie && j < je {
		a, b := h.hubs[i], h.hubs[j]
		if a == b {
			if d := h.dists[i] + h.dists[j]; d < best {
				best = d
			}
			i++
			j++
		} else if a < b {
			i++
		} else {
			j++
		}
	}
	return best
}

// AvgLabelSize returns the mean number of hubs per vertex, a standard
// quality measure for labelings.
func (h *HubLabels) AvgLabelSize() float64 {
	return float64(len(h.hubs)) / float64(h.n)
}

// MemoryBytes approximates the labeling's memory footprint.
func (h *HubLabels) MemoryBytes() int64 {
	return int64(len(h.offsets))*4 + int64(len(h.hubs))*4 + int64(len(h.dists))*8
}
