package core

import (
	"fmt"

	"repro/internal/geo"
	"repro/internal/roadnet"
	"repro/internal/spatial"
)

// Fleet is the shared state every planner operates on: the road network,
// the distance oracle, the workers and the spatial grid index over worker
// positions. The simulator keeps the grid in sync as workers move.
type Fleet struct {
	Graph   *roadnet.Graph
	Dist    DistFunc
	Workers []*Worker
	Grid    *spatial.Grid

	maxEdgeMeters float64
}

// NewFleet indexes the workers (whose IDs must equal their slice position)
// on a grid with the given cell size in meters.
func NewFleet(g *roadnet.Graph, dist DistFunc, workers []*Worker, cellMeters float64) (*Fleet, error) {
	grid, err := spatial.NewGrid(g.Bounds(), cellMeters)
	if err != nil {
		return nil, err
	}
	maxEdge := 0.0
	for _, e := range g.Edges() {
		if e.Meters > maxEdge {
			maxEdge = e.Meters
		}
	}
	f := &Fleet{Graph: g, Dist: dist, Workers: workers, Grid: grid, maxEdgeMeters: maxEdge}
	for i, w := range workers {
		if int(w.ID) != i {
			return nil, fmt.Errorf("core: worker at index %d has ID %d", i, w.ID)
		}
		f.UpdateWorkerPosition(w)
	}
	return f, nil
}

// SetGraph swaps in a reweighted snapshot of the same road network (a
// traffic-epoch advance). Topology, coordinates and the grid geometry are
// shared between snapshots, so positions, maxEdgeMeters and the Euclidean
// machinery all remain valid; only EdgeCost readers see the new weights.
// Callers must not be mid-plan (the traffic controller applies updates
// between decisions).
func (f *Fleet) SetGraph(g *roadnet.Graph) { f.Graph = g }

// UpdateWorkerPosition refreshes w's entry in the grid index; the
// simulator calls it whenever a worker's committed location changes.
func (f *Fleet) UpdateWorkerPosition(w *Worker) {
	f.Grid.Insert(spatial.ItemID(w.ID), f.Graph.Point(w.Route.Loc))
}

// Worker returns the worker with the given ID.
func (f *Fleet) Worker(id WorkerID) *Worker { return f.Workers[id] }

// Candidates filters workers through the grid index and the deadline
// (Algorithm 5 line 3): only workers whose committed position could
// physically reach o_r before the pickup deadline e_r − L at the maximum
// road speed can serve the request. The radius is padded by the longest
// edge because a moving worker's committed vertex may lie up to one edge
// ahead of its physical position.
func (f *Fleet) Candidates(req *Request, now, L float64) []*Worker {
	return f.CandidatesAppend(nil, req, now, L)
}

// CandidatesAppend is Candidates into a caller-owned buffer: matching
// workers are appended to dst (which may be nil or a recycled slice with
// its length reset) and the extended slice is returned. Planners route
// this through their Scratch so the steady-state candidate retrieval
// allocates nothing.
func (f *Fleet) CandidatesAppend(dst []*Worker, req *Request, now, L float64) []*Worker {
	budget := req.Deadline - L - now // seconds available to reach the pickup
	if budget < 0 {
		return dst
	}
	radius := budget*geo.MaxSpeed() + f.maxEdgeMeters
	f.Grid.Within(f.Graph.Point(req.Origin), radius, func(id spatial.ItemID, _ geo.Point) bool {
		dst = append(dst, f.Workers[id])
		return true
	})
	return dst
}

// TotalDistance sums D(S_w) over the fleet.
func (f *Fleet) TotalDistance() float64 {
	total := 0.0
	for _, w := range f.Workers {
		total += w.TotalDistance()
	}
	return total
}
