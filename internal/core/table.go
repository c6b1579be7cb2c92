package core

import (
	"sync/atomic"

	"repro/internal/roadnet"
)

// DistTable is a batch-scoped dense distance table standing in front of
// the point-query oracle chain. The admission loop (serve.Server.flush,
// or a batching experiment) registers the batch's endpoints — worker
// route vertices as rows, request origins/destinations as columns —
// fills the cells with ONE shortest.ManyToMany sweep, and swaps
// (*DistTable).Dist in as the fleet's DistFunc for the duration of the
// batch. Because every cell is bit-identical to the point query it
// replaces (the ManyToMany contract) and every pair outside the table
// falls back to the untouched point chain, planners cannot observe the
// swap in their decisions — only in how few point queries remain.
//
// The symmetric lookup (u,v) → cell(v,u) relies on the oracle being
// bitwise symmetric, which holds for the label tiers (hub labels, CCH: a
// query is a float min over fl(a+b) meet candidates and float addition is
// commutative) but NOT for forward Dijkstra — another reason
// ManyToManyFor declines the unpreprocessed tiers.
//
// Registration and Install must happen on one goroutine (the event
// loop); after Install the table is immutable, so Dist may be called
// from any number of planner goroutines concurrently (the hit/miss
// tallies are atomic).
type DistTable struct {
	n    int
	ver  uint32
	rIdx []int32
	rVer []uint32
	cIdx []int32
	cVer []uint32

	rows []roadnet.VertexID
	cols []roadnet.VertexID

	cells     []float64
	ncols     int
	installed bool

	// Fallback answers pairs the table does not cover; it is the point
	// chain the table fronts, so misses keep the exact same bits (and the
	// same query accounting) the batch would have seen without a table.
	Fallback DistFunc

	hits, misses atomic.Uint64
}

// NewDistTable returns a table for an n-vertex graph whose uncovered
// pairs are answered by fallback.
func NewDistTable(n int, fallback DistFunc) *DistTable {
	return &DistTable{
		n:        n,
		rIdx:     make([]int32, n),
		rVer:     make([]uint32, n),
		cIdx:     make([]int32, n),
		cVer:     make([]uint32, n),
		Fallback: fallback,
	}
}

// Reset clears the endpoint registration and deactivates the table; one
// version bump invalidates every row/col index in O(1).
func (t *DistTable) Reset() {
	t.rows = t.rows[:0]
	t.cols = t.cols[:0]
	t.installed = false
	t.ver++
	if t.ver == 0 {
		for i := range t.rVer {
			t.rVer[i] = 0
			t.cVer[i] = 0
		}
		t.ver = 1
	}
}

// AddRow registers v as a table row (deduplicated).
func (t *DistTable) AddRow(v roadnet.VertexID) {
	if t.rVer[v] == t.ver {
		return
	}
	t.rVer[v] = t.ver
	t.rIdx[v] = int32(len(t.rows))
	t.rows = append(t.rows, v)
}

// AddCol registers v as a table column (deduplicated).
func (t *DistTable) AddCol(v roadnet.VertexID) {
	if t.cVer[v] == t.ver {
		return
	}
	t.cVer[v] = t.ver
	t.cIdx[v] = int32(len(t.cols))
	t.cols = append(t.cols, v)
}

// AddWorker registers every vertex of w's committed route — current
// location plus all remaining stops — as rows.
func (t *DistTable) AddWorker(w *Worker) {
	t.AddRow(w.Route.Loc)
	for i := range w.Route.Stops {
		t.AddRow(w.Route.Stops[i].Vertex)
	}
}

// AddRequest registers r's endpoints: origin and destination as columns
// (the planner queries dist(route vertex, endpoint) throughout the DP)
// and the origin as a row too, covering the decision phase's
// dist(origin, dest) and Apply's dist(origin, next stop) via symmetry.
func (t *DistTable) AddRequest(r *Request) {
	t.AddCol(r.Origin)
	t.AddCol(r.Dest)
	t.AddRow(r.Origin)
}

// Rows returns the registered row vertices (aliased, valid until Reset).
func (t *DistTable) Rows() []roadnet.VertexID { return t.rows }

// Cols returns the registered column vertices (aliased, valid until Reset).
func (t *DistTable) Cols() []roadnet.VertexID { return t.cols }

// CellCount is the dense table size the current registration implies;
// callers bound it before paying for a fill.
func (t *DistTable) CellCount() int { return len(t.rows) * len(t.cols) }

// Install activates the table over cells, a row-major len(rows) ×
// len(cols) array as produced by ManyToMany.Table on (Rows(), Cols()).
// The slice is aliased, not copied: the filling arena must stay untouched
// until the next Reset.
func (t *DistTable) Install(cells []float64) {
	if len(cells) != t.CellCount() {
		panic("core: DistTable.Install cell count does not match registration")
	}
	t.cells = cells
	t.ncols = len(t.cols)
	t.installed = true
}

// Installed reports whether the table is active.
func (t *DistTable) Installed() bool { return t.installed }

// Dist is the DistFunc planners call during a table-backed batch: a cell
// hit in either orientation, else the exact point fallback. Safe for
// concurrent callers once installed.
func (t *DistTable) Dist(u, v roadnet.VertexID) float64 {
	if u == v {
		return 0
	}
	if t.installed {
		if t.rVer[u] == t.ver && t.cVer[v] == t.ver {
			t.hits.Add(1)
			return t.cells[int(t.rIdx[u])*t.ncols+int(t.cIdx[v])]
		}
		if t.rVer[v] == t.ver && t.cVer[u] == t.ver {
			t.hits.Add(1)
			return t.cells[int(t.rIdx[v])*t.ncols+int(t.cIdx[u])]
		}
	}
	t.misses.Add(1)
	return t.Fallback(u, v)
}

// Stats returns the cumulative (hits, misses) across batches.
func (t *DistTable) Stats() (hits, misses uint64) {
	return t.hits.Load(), t.misses.Load()
}
