package expt

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/shortest"
	"repro/internal/workload"
)

// BatchDistPoint is one admission-batch size of the batched-oracle sweep:
// the same request stream planned by pruneGreedyDP with pure point
// queries and with one many-to-many distance table prefetched per batch
// (DESIGN.md §16). Decisions are bit-identical across the two modes —
// every table cell carries the exact bits of the point query it replaces
// — so the only things that move are the query count and the wall time.
type BatchDistPoint struct {
	BatchSize int
	Served    int
	// PointQueries / BatchedQueries are the oracle-chain dist queries
	// (cache misses) issued by the planning loop in each mode; TableHits
	// is how many planner lookups the batched mode answered from tables.
	PointQueries   uint64
	BatchedQueries uint64
	TableHits      uint64
	QueryReduction float64
	PointPlanMs    float64
	BatchedPlanMs  float64
	Speedup        float64
}

// batchDistMode plans the runner's base workload in admission batches of
// size b, optionally prefetching a distance table per batch, and returns
// per-request results plus the counters.
func (r *Runner) batchDistMode(b int, batched bool) ([]core.Result, *BatchDistPoint, error) {
	base, kind, err := r.oracle()
	if err != nil {
		return nil, nil, err
	}
	mtm := shortest.ManyToManyFor(base)
	if mtm == nil {
		return nil, nil, fmt.Errorf("expt: oracle %q has no batched form (use hub)", kind)
	}
	cached := shortest.NewCached(base, 1<<18)
	dist := cached.Dist
	inst, err := workload.BuildOn(r.Base, r.G, dist)
	if err != nil {
		return nil, nil, err
	}
	fleet, err := core.NewFleet(r.G, dist, inst.Workers, r.CellMeters)
	if err != nil {
		return nil, nil, err
	}
	planner := core.NewPruneGreedyDP(fleet, 1)
	reqs := append([]*core.Request(nil), inst.Requests...)
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Release < reqs[j].Release })

	table := core.NewDistTable(r.G.NumVertices(), dist)
	arena := shortest.NewTableArena()
	var cands []*core.Worker
	results := make([]core.Result, 0, len(reqs))
	served := 0
	_, before := cached.Stats()
	start := time.Now()
	for lo := 0; lo < len(reqs); lo += b {
		batch := reqs[lo:min(lo+b, len(reqs))]
		if batched {
			table.Reset()
			cands = cands[:0]
			for _, req := range batch {
				table.AddRequest(req)
				lb := fleet.Graph.EuclidTime(req.Origin, req.Dest)
				cands = fleet.CandidatesAppend(cands, req, batch[0].Release, lb)
			}
			for _, w := range cands {
				table.AddWorker(w)
			}
			table.Install(mtm.Table(arena, table.Rows(), table.Cols()))
			fleet.Dist = table.Dist
		}
		for _, req := range batch {
			res := planner.OnRequest(req.Release, req)
			if res.Served {
				served++
			}
			results = append(results, res)
		}
		if batched {
			fleet.Dist = dist
		}
	}
	planMs := float64(time.Since(start).Nanoseconds()) / 1e6
	hits, _ := table.Stats()
	_, after := cached.Stats()
	pt := &BatchDistPoint{BatchSize: b, Served: served}
	if batched {
		pt.BatchedQueries = after - before
		pt.BatchedPlanMs = planMs
		pt.TableHits = hits
	} else {
		pt.PointQueries = after - before
		pt.PointPlanMs = planMs
	}
	return results, pt, nil
}

// BatchDistSweep measures point-query vs batched-table planning across
// admission-batch sizes on the runner's base workload, verifying the two
// modes decide identically at every size.
func (r *Runner) BatchDistSweep(batchSizes []int) ([]BatchDistPoint, error) {
	out := make([]BatchDistPoint, 0, len(batchSizes))
	for _, b := range batchSizes {
		if b < 1 {
			continue
		}
		resPoint, ptPoint, err := r.batchDistMode(b, false)
		if err != nil {
			return nil, err
		}
		resTable, ptTable, err := r.batchDistMode(b, true)
		if err != nil {
			return nil, err
		}
		for i := range resPoint {
			if resPoint[i] != resTable[i] {
				return nil, fmt.Errorf("expt: determinism violation at batch %d, request %d: point %+v batched %+v",
					b, i, resPoint[i], resTable[i])
			}
		}
		pt := *ptTable
		pt.PointQueries = ptPoint.PointQueries
		pt.PointPlanMs = ptPoint.PointPlanMs
		if pt.BatchedQueries > 0 {
			pt.QueryReduction = float64(pt.PointQueries) / float64(pt.BatchedQueries)
		} else if pt.PointQueries > 0 {
			pt.QueryReduction = math.Inf(1) // the table answered everything
		}
		if pt.BatchedPlanMs > 0 {
			pt.Speedup = pt.PointPlanMs / pt.BatchedPlanMs
		}
		out = append(out, pt)
	}
	return out, nil
}

// FormatBatchDistSweep renders the point-vs-batched throughput table.
func FormatBatchDistSweep(dataset string, points []BatchDistPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "batched distance oracle / %s — point queries vs one table per batch (identical decisions per row)\n", dataset)
	fmt.Fprintf(&b, "%-7s%8s%14s%14s%12s%12s%13s%13s%9s\n",
		"batch", "served", "queries(pt)", "queries(tab)", "reduction", "tab hits", "plan pt(ms)", "plan tab(ms)", "speedup")
	for _, p := range points {
		red := trimFloat(p.QueryReduction)
		if math.IsInf(p.QueryReduction, 1) {
			red = "inf"
		}
		fmt.Fprintf(&b, "%-7d%8d%14d%14d%11sx%12d%13s%13s%8sx\n",
			p.BatchSize, p.Served, p.PointQueries, p.BatchedQueries,
			red, p.TableHits,
			trimFloat(p.PointPlanMs), trimFloat(p.BatchedPlanMs), trimFloat(p.Speedup))
	}
	return b.String()
}
