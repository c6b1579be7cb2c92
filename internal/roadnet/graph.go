// Package roadnet implements the road-network substrate of the paper
// (Definition 1): an undirected graph whose edges carry a travel cost. We
// use travel time in seconds as the cost, derived from edge length and road
// class speed, matching the paper's simulation setup ("we assign a constant
// speed for each type of road, i.e. 80% of the maximum legal speed limit").
//
// The graph is stored in compressed sparse row (CSR) form: cache-friendly,
// allocation-free to traverse, and immutable after Build. Synthetic city
// generation lives in gen.go and the text (de)serialization in io.go.
package roadnet

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/geo"
)

// VertexID identifies a vertex of the road network. IDs are dense in
// [0, NumVertices).
type VertexID = int32

// Edge is one undirected road segment, reported by Graph.Edges. Cost is
// the current travel time in seconds — under a traffic overlay it already
// includes the epoch's multiplier, so consumers must use it rather than
// re-deriving Class.TravelTime(Meters) (which is the base-weight value).
type Edge struct {
	U, V   VertexID
	Meters float64
	Cost   float64
	Class  geo.RoadClass
}

// Graph is an immutable undirected road network in CSR form. Each
// undirected edge appears twice in the adjacency arrays, once per
// direction. Costs are travel times in seconds.
type Graph struct {
	pts      []geo.Point
	adjStart []int32 // len NumVertices+1; arc range of vertex v is [adjStart[v], adjStart[v+1])
	adjTo    []VertexID
	adjCost  []float64 // seconds
	adjLen   []float64 // meters
	adjClass []geo.RoadClass
	numEdges int
	bbox     geo.BBox
	// weightEpoch identifies the traffic-overlay epoch this snapshot's
	// costs belong to (traffic.go); 0 for a freshly built graph.
	weightEpoch uint64
	// lm holds this snapshot's landmark rows (landmark.go), built on first
	// use; every snapshot has its own.
	lm *landmarkTable
}

// NumVertices returns |V|.
func (g *Graph) NumVertices() int { return len(g.pts) }

// NumEdges returns the number of undirected edges |E|.
func (g *Graph) NumEdges() int { return g.numEdges }

// Point returns the planar coordinates of vertex v in meters.
func (g *Graph) Point(v VertexID) geo.Point { return g.pts[v] }

// Bounds returns the bounding box of all vertices.
func (g *Graph) Bounds() geo.BBox { return g.bbox }

// Euclid returns the straight-line distance between vertices u and v in
// meters.
func (g *Graph) Euclid(u, v VertexID) float64 { return g.pts[u].Dist(g.pts[v]) }

// EuclidTime returns the Euclidean travel-time lower bound between u and v
// in seconds: straight-line distance divided by the network's maximum road
// speed. For any u, v it never exceeds the shortest-path travel time, which
// is what the decision phase of pruneGreedyDP requires (paper §5.1).
func (g *Graph) EuclidTime(u, v VertexID) float64 {
	return g.pts[u].Dist(g.pts[v]) / geo.MaxSpeed()
}

// Degree returns the number of incident arcs of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.adjStart[v+1] - g.adjStart[v])
}

// Neighbors calls fn for every arc (v, to); cost is the travel time in
// seconds. Iteration stops early if fn returns false.
func (g *Graph) Neighbors(v VertexID, fn func(to VertexID, cost float64) bool) {
	for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
		if !fn(g.adjTo[i], g.adjCost[i]) {
			return
		}
	}
}

// Arcs returns the adjacency slices of v (targets and costs) without
// copying. The slices must not be modified.
func (g *Graph) Arcs(v VertexID) (to []VertexID, cost []float64) {
	lo, hi := g.adjStart[v], g.adjStart[v+1]
	return g.adjTo[lo:hi], g.adjCost[lo:hi]
}

// Edges returns every undirected edge exactly once (U < V).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.numEdges)
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
			if u := g.adjTo[i]; v < u {
				out = append(out, Edge{U: v, V: u, Meters: g.adjLen[i], Cost: g.adjCost[i], Class: g.adjClass[i]})
			}
		}
	}
	return out
}

// ArcCosts returns the graph's per-arc travel-time array in CSR arc
// order (each undirected edge appears twice, once per direction). This
// is the metric a CCH customization consumes: a traffic snapshot shares
// every topology array with its base, so the same arc index addresses
// the same road segment at every epoch. The slice is the graph's own
// storage and must not be modified.
func (g *Graph) ArcCosts() []float64 { return g.adjCost }

// ArcIndex returns the index of arc (u,v) in the CSR arc arrays (the
// order ArcCosts follows), or -1 if no such arc exists.
func (g *Graph) ArcIndex(u, v VertexID) int32 {
	for i := g.adjStart[u]; i < g.adjStart[u+1]; i++ {
		if g.adjTo[i] == v {
			return i
		}
	}
	return -1
}

// EdgeCost returns the travel time of the direct edge (u,v), or
// (0, false) if no such edge exists.
func (g *Graph) EdgeCost(u, v VertexID) (float64, bool) {
	for i := g.adjStart[u]; i < g.adjStart[u+1]; i++ {
		if g.adjTo[i] == v {
			return g.adjCost[i], true
		}
	}
	return 0, false
}

// NearestVertex returns the vertex closest to p in Euclidean distance.
// It is a linear scan; callers that need many lookups should build a
// VertexLocator.
func (g *Graph) NearestVertex(p geo.Point) VertexID {
	best := VertexID(0)
	bestD := math.Inf(1)
	for v, q := range g.pts {
		if d := p.DistSq(q); d < bestD {
			bestD = d
			best = VertexID(v)
		}
	}
	return best
}

// ConnectedComponents labels every vertex with a component ID and returns
// (labels, componentCount).
func (g *Graph) ConnectedComponents() ([]int32, int) {
	n := g.NumVertices()
	label := make([]int32, n)
	for i := range label {
		label[i] = -1
	}
	var queue []VertexID
	comp := int32(0)
	for s := 0; s < n; s++ {
		if label[s] >= 0 {
			continue
		}
		queue = append(queue[:0], VertexID(s))
		label[s] = comp
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for i := g.adjStart[v]; i < g.adjStart[v+1]; i++ {
				if u := g.adjTo[i]; label[u] < 0 {
					label[u] = comp
					queue = append(queue, u)
				}
			}
		}
		comp++
	}
	return label, int(comp)
}

// IsConnected reports whether the graph has exactly one connected component
// (and at least one vertex).
func (g *Graph) IsConnected() bool {
	if g.NumVertices() == 0 {
		return false
	}
	_, c := g.ConnectedComponents()
	return c == 1
}

// Builder accumulates vertices and undirected edges and freezes them into a
// Graph. Adding the same edge twice is an error caught at Build time.
type Builder struct {
	pts   []geo.Point
	us    []VertexID
	vs    []VertexID
	lens  []float64
	class []geo.RoadClass
}

// NewBuilder returns an empty Builder with capacity hints.
func NewBuilder(vertexHint, edgeHint int) *Builder {
	return &Builder{
		pts:   make([]geo.Point, 0, vertexHint),
		us:    make([]VertexID, 0, edgeHint),
		vs:    make([]VertexID, 0, edgeHint),
		lens:  make([]float64, 0, edgeHint),
		class: make([]geo.RoadClass, 0, edgeHint),
	}
}

// AddVertex appends a vertex at p and returns its ID.
func (b *Builder) AddVertex(p geo.Point) VertexID {
	b.pts = append(b.pts, p)
	return VertexID(len(b.pts) - 1)
}

// NumVertices returns the number of vertices added so far.
func (b *Builder) NumVertices() int { return len(b.pts) }

// AddEdge appends an undirected edge of the given length (meters) and road
// class. A non-positive or non-finite length, a self-loop, or an
// out-of-range endpoint is an error.
func (b *Builder) AddEdge(u, v VertexID, meters float64, class geo.RoadClass) error {
	n := VertexID(len(b.pts))
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("roadnet: edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("roadnet: self-loop at vertex %d", u)
	}
	if !(meters > 0) || math.IsInf(meters, 0) {
		return fmt.Errorf("roadnet: edge (%d,%d) has invalid length %v", u, v, meters)
	}
	b.us = append(b.us, u)
	b.vs = append(b.vs, v)
	b.lens = append(b.lens, meters)
	b.class = append(b.class, class)
	return nil
}

// AddEdgeEuclid adds an edge whose length is the Euclidean distance between
// its endpoints multiplied by detour (detour ≥ 1 keeps Euclidean distances
// valid lower bounds).
func (b *Builder) AddEdgeEuclid(u, v VertexID, detour float64, class geo.RoadClass) error {
	if detour < 1 {
		return fmt.Errorf("roadnet: detour factor %v < 1 would break Euclidean lower bounds", detour)
	}
	d := b.pts[u].Dist(b.pts[v])
	if d == 0 {
		d = 0.1 // coincident synthetic vertices: keep a tiny positive length
	}
	return b.AddEdge(u, v, d*detour, class)
}

// Build freezes the builder into an immutable Graph. Duplicate undirected
// edges are rejected.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.pts)
	if n == 0 {
		return nil, fmt.Errorf("roadnet: graph has no vertices")
	}
	m := len(b.us)
	type arc struct {
		from, to VertexID
		len      float64
		class    geo.RoadClass
	}
	arcs := make([]arc, 0, 2*m)
	for i := 0; i < m; i++ {
		arcs = append(arcs,
			arc{b.us[i], b.vs[i], b.lens[i], b.class[i]},
			arc{b.vs[i], b.us[i], b.lens[i], b.class[i]})
	}
	sort.Slice(arcs, func(i, j int) bool {
		if arcs[i].from != arcs[j].from {
			return arcs[i].from < arcs[j].from
		}
		return arcs[i].to < arcs[j].to
	})
	for i := 1; i < len(arcs); i++ {
		if arcs[i].from == arcs[i-1].from && arcs[i].to == arcs[i-1].to {
			return nil, fmt.Errorf("roadnet: duplicate edge (%d,%d)", arcs[i].from, arcs[i].to)
		}
	}
	g := &Graph{
		pts:      append([]geo.Point(nil), b.pts...),
		adjStart: make([]int32, n+1),
		adjTo:    make([]VertexID, len(arcs)),
		adjCost:  make([]float64, len(arcs)),
		adjLen:   make([]float64, len(arcs)),
		adjClass: make([]geo.RoadClass, len(arcs)),
		numEdges: m,
		bbox:     geo.NewBBox(b.pts),
		lm:       new(landmarkTable),
	}
	for _, a := range arcs {
		g.adjStart[a.from+1]++
	}
	for v := 0; v < n; v++ {
		g.adjStart[v+1] += g.adjStart[v]
	}
	cursor := make([]int32, n)
	copy(cursor, g.adjStart[:n])
	for _, a := range arcs {
		i := cursor[a.from]
		cursor[a.from]++
		g.adjTo[i] = a.to
		g.adjLen[i] = a.len
		g.adjClass[i] = a.class
		g.adjCost[i] = a.class.TravelTime(a.len)
	}
	return g, nil
}

// LargestComponent returns the subgraph induced by the largest connected
// component of g, together with a mapping old→new vertex ID (-1 for dropped
// vertices). If g is already connected it still returns a fresh graph.
func (g *Graph) LargestComponent() (*Graph, []int32, error) {
	label, nc := g.ConnectedComponents()
	sizes := make([]int, nc)
	for _, l := range label {
		sizes[l]++
	}
	best := 0
	for c, s := range sizes {
		if s > sizes[best] {
			best = c
		}
	}
	remap := make([]int32, g.NumVertices())
	b := NewBuilder(sizes[best], g.NumEdges())
	for v := 0; v < g.NumVertices(); v++ {
		if int(label[v]) == best {
			remap[v] = b.AddVertex(g.pts[v])
		} else {
			remap[v] = -1
		}
	}
	for _, e := range g.Edges() {
		if remap[e.U] >= 0 && remap[e.V] >= 0 {
			if err := b.AddEdge(remap[e.U], remap[e.V], e.Meters, e.Class); err != nil {
				return nil, nil, err
			}
		}
	}
	ng, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return ng, remap, nil
}

// VertexLocator answers nearest-vertex queries in roughly O(1) via a
// uniform cell grid over the graph's bounding box.
type VertexLocator struct {
	g       *Graph
	cell    float64
	cols    int
	rows    int
	buckets [][]VertexID
	min     geo.Point
}

// NewVertexLocator builds a locator with the given cell size in meters
// (values near the average vertex spacing work well; <=0 picks a default
// from the vertex density).
func NewVertexLocator(g *Graph, cellMeters float64) *VertexLocator {
	b := g.Bounds()
	if cellMeters <= 0 {
		area := math.Max(b.Width()*b.Height(), 1)
		cellMeters = math.Max(10, math.Sqrt(area/float64(g.NumVertices()+1))*2)
	}
	cols := int(b.Width()/cellMeters) + 1
	rows := int(b.Height()/cellMeters) + 1
	l := &VertexLocator{
		g: g, cell: cellMeters, cols: cols, rows: rows,
		buckets: make([][]VertexID, cols*rows),
		min:     b.Min,
	}
	for v := VertexID(0); int(v) < g.NumVertices(); v++ {
		i := l.bucketIndex(g.Point(v))
		l.buckets[i] = append(l.buckets[i], v)
	}
	return l
}

func (l *VertexLocator) bucketIndex(p geo.Point) int {
	cx := int((p.X - l.min.X) / l.cell)
	cy := int((p.Y - l.min.Y) / l.cell)
	if cx < 0 {
		cx = 0
	}
	if cy < 0 {
		cy = 0
	}
	if cx >= l.cols {
		cx = l.cols - 1
	}
	if cy >= l.rows {
		cy = l.rows - 1
	}
	return cy*l.cols + cx
}

// Nearest returns the vertex nearest to p, searching outward ring by ring.
func (l *VertexLocator) Nearest(p geo.Point) VertexID {
	cx := int((p.X - l.min.X) / l.cell)
	cy := int((p.Y - l.min.Y) / l.cell)
	best := VertexID(-1)
	bestD := math.Inf(1)
	maxRing := l.cols
	if l.rows > maxRing {
		maxRing = l.rows
	}
	for ring := 0; ring <= maxRing; ring++ {
		// Once a candidate is found, one extra ring guarantees correctness
		// (a nearer vertex can only hide in the immediately adjacent ring).
		found := best >= 0
		for dy := -ring; dy <= ring; dy++ {
			for dx := -ring; dx <= ring; dx++ {
				if dx > -ring && dx < ring && dy > -ring && dy < ring {
					continue // interior already scanned in earlier rings
				}
				x, y := cx+dx, cy+dy
				if x < 0 || y < 0 || x >= l.cols || y >= l.rows {
					continue
				}
				for _, v := range l.buckets[y*l.cols+x] {
					if d := p.DistSq(l.g.Point(v)); d < bestD {
						bestD = d
						best = v
					}
				}
			}
		}
		if found {
			break
		}
	}
	if best < 0 {
		return l.g.NearestVertex(p) // empty grid region: fall back to scan
	}
	return best
}
