// Package shortest provides the shortest-path machinery the paper assumes
// as a substrate: exact point-to-point travel-time queries via Dijkstra,
// bidirectional Dijkstra (with a landmark-guided A* for the simulator's leg
// paths), and a hub-labeling oracle (pruned landmark labeling, standing in
// for the hub-based labeling of Abraham et al., the paper's reference [9]),
// plus the LRU query cache and query counters used in the paper's
// experimental setup.
//
// All distances are travel times in seconds over roadnet.Graph edges.
package shortest

import (
	"fmt"
	"math"

	"repro/internal/roadnet"
)

// Oracle answers point-to-point shortest travel-time queries.
// Dist returns +Inf when t is unreachable from s.
type Oracle interface {
	Dist(s, t roadnet.VertexID) float64
}

// PathOracle additionally reconstructs a shortest path as a vertex
// sequence including both endpoints. A nil slice means unreachable. within
// is an upper bound on dis(s, t) the caller already knows, Inf for none;
// an engine may prune with it but must return the same path either way.
type PathOracle interface {
	Oracle
	Path(s, t roadnet.VertexID, within float64) []roadnet.VertexID
}

// Counting wraps an Oracle and counts queries. The paper's §6 reports
// "saved shortest distance queries" between pruneGreedyDP and GreedyDP;
// this wrapper is how the harness measures them. It is not safe for
// concurrent use, matching the single-threaded simulator.
type Counting struct {
	Inner   Oracle
	Queries uint64
}

// NewCounting wraps inner with a query counter.
func NewCounting(inner Oracle) *Counting { return &Counting{Inner: inner} }

// Dist implements Oracle, incrementing the query counter.
func (c *Counting) Dist(s, t roadnet.VertexID) float64 {
	c.Queries++
	return c.Inner.Dist(s, t)
}

// Reset zeroes the counter.
func (c *Counting) Reset() { c.Queries = 0 }

// Count returns the number of queries since the last Reset.
func (c *Counting) Count() uint64 { return c.Queries }

// Matrix is a precomputed all-pairs oracle. It is O(V²) memory and is only
// intended for small graphs (tests, the hardness constructions, and the
// insertion microbenchmarks where O(1) queries isolate operator cost).
type Matrix struct {
	n    int
	dist []float64
}

// maxMatrixVertices caps NewMatrix at a ~4 GiB table. A dense matrix on a
// real road network (DIMACS USA is 24M vertices — petabytes) is always a
// caller bug, and without the guard the symptom is an OOM kill mid-make
// rather than a diagnosis.
const maxMatrixVertices = 23170

// matrixOverheadBytes is the fixed footprint beyond the cell payload: the
// slice header (24 bytes) plus the n field (8).
const matrixOverheadBytes = 32

// NewMatrix runs one full Dijkstra per vertex and stores the results. It
// panics with a sizing diagnosis on graphs beyond maxMatrixVertices, where
// the quadratic table could not be allocated anyway.
func NewMatrix(g *roadnet.Graph) *Matrix {
	n := g.NumVertices()
	if n > maxMatrixVertices {
		panic(fmt.Sprintf("shortest: NewMatrix on %d vertices needs %.1f GiB for the dense table (limit %d vertices); use a preprocessed tier (hub labels, CCH) instead",
			n, float64(n)*float64(n)*8/(1<<30), maxMatrixVertices))
	}
	m := &Matrix{n: n, dist: make([]float64, n*n)}
	d := NewDijkstra(g)
	for s := 0; s < n; s++ {
		d.RunAll(roadnet.VertexID(s))
		row := m.dist[s*n : (s+1)*n]
		for v := 0; v < n; v++ {
			row[v] = d.DistTo(roadnet.VertexID(v))
		}
	}
	return m
}

// Dist implements Oracle in O(1).
func (m *Matrix) Dist(s, t roadnet.VertexID) float64 {
	return m.dist[int(s)*m.n+int(t)]
}

// MemoryBytes reports the size of the matrix including the struct and
// slice-header overhead (it used to count the cell payload alone, which
// understated every small-matrix footprint the experiment tables report).
func (m *Matrix) MemoryBytes() int64 {
	return int64(len(m.dist))*8 + matrixOverheadBytes
}

// Inf is the distance reported for unreachable pairs.
var Inf = math.Inf(1)
