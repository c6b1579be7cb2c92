// Package expt regenerates every table and figure of the paper's
// evaluation (§6): parameter sweeps over number of workers (Fig. 3),
// worker capacity (Fig. 4), grid size (Fig. 5), deadline (Fig. 6) and
// penalty (Fig. 7), for all five compared algorithms, plus the dataset
// statistics of Table 4 and an empirical run of the §3.3 hardness
// constructions. Results come back as Series that cmd/urpsm-bench formats
// into the paper's rows. Runners also execute pre-materialized instances
// (imported road networks and trip streams, cmd/urpsm-import) through
// RunInstance.
package expt

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Algorithms is the paper's comparison set, in its plotting order.
var Algorithms = []string{"tshare", "kinetic", "pruneGreedyDP", "batch", "GreedyDP"}

// AblationAlgorithms are additional planner variants outside the paper's
// comparison: the greedy planner with the legacy insertion operators
// (isolating the §4 contribution inside the full solution) and with the
// paper-strict decision rule (no post-planning rejection).
var AblationAlgorithms = []string{
	"pruneGreedyBasic", "pruneGreedyNaive", "pruneGreedyDP-paper", "pruneGreedyDP+improve",
}

// OracleKinds are the accepted values of Runner.OracleKind (and of the
// CLIs' -oracle flag, whose registration and validation live in
// internal/cliutil). "auto" resolves to one of the other tiers by vertex
// count through shortest.Choose.
var OracleKinds = cliutil.OracleKinds

// Runner executes simulations over one dataset, sharing the expensive
// pieces (road network, preprocessed distance oracles) across all runs.
// All preprocessing is lazy: a runner on a million-vertex import with
// OracleKind "auto" or "bidijkstra" never pays for hub labels.
type Runner struct {
	Base   workload.Params
	G      *roadnet.Graph
	Repeat int
	// CellMeters is the grid cell size g used by every algorithm's index;
	// the grid-size experiment overrides it per run.
	CellMeters float64
	// KineticMaxNodes caps the kinetic baseline's per-request search.
	KineticMaxNodes int
	// OracleKind picks the distance oracle: "hub" (default, the paper's
	// setup), "cch" (customizable contraction hierarchies — cheap traffic
	// epochs, see DESIGN.md §12), "bidijkstra" (no preprocessing) or
	// "auto" (scale-aware selection via shortest.Choose — see DESIGN.md
	// §8.3).
	OracleKind string
	// Traffic, when non-nil, replays a congestion trace against each
	// run's event clock (urpsm-sim -traffic): the query chain runs
	// through an epoch-aware oracle front (shortest.Versioned over a
	// per-run roadnet.Overlay) and the engine applies each event before
	// the first request released at or after it. Each epoch re-derives
	// the run's tier before the engine moves on, so preprocessing cost is
	// attributed to the run that caused it. With an empty profile every
	// run is bit-identical to Traffic == nil.
	Traffic *roadnet.TrafficProfile
	// Observer, when non-nil, is attached to every run's planner for the
	// run's duration when the planner implements core.Observable (the
	// greedy planners; baselines ignore it) — urpsm-sim's -trace flag
	// passes a trace.Recorder here. Read-only: decisions are unchanged.
	Observer core.PlanObserver

	// built caches the preprocessed tiers (hub, cch) by kind, built
	// lazily on first use.
	built map[shortest.AutoKind]shortest.Oracle
}

// NewRunner generates the dataset's road network and wraps it in a runner.
func NewRunner(base workload.Params, repeat int) (*Runner, error) {
	g, err := roadnet.Generate(base.Net)
	if err != nil {
		return nil, err
	}
	return NewRunnerOn(g, base, repeat), nil
}

// NewRunnerOn wraps an existing graph — typically an imported real road
// network — in a runner. base supplies the dataset name and the sweep
// defaults; its Net config is ignored.
func NewRunnerOn(g *roadnet.Graph, base workload.Params, repeat int) *Runner {
	if repeat < 1 {
		repeat = 1
	}
	return &Runner{
		Base:            base,
		G:               g,
		Repeat:          repeat,
		CellMeters:      2000,
		KineticMaxNodes: 50000,
	}
}

// HubLabels returns the shared hub labeling, building it on first use.
func (r *Runner) HubLabels() *shortest.HubLabels {
	return r.tier(shortest.AutoHub).(*shortest.HubLabels)
}

// tier returns the shared preprocessed tier of the given kind, building it
// on first use.
func (r *Runner) tier(kind shortest.AutoKind) shortest.Oracle {
	o, ok := r.built[kind]
	if !ok {
		if r.built == nil {
			r.built = make(map[shortest.AutoKind]shortest.Oracle)
		}
		o = shortest.Build(kind, r.G)
		r.built[kind] = o
	}
	return o
}

// RunOne executes Repeat simulations of one algorithm under params p and
// returns the averaged metrics (the paper averages repeated trials).
func (r *Runner) RunOne(p workload.Params, algo string) (sim.Metrics, error) {
	runs := make([]sim.Metrics, 0, r.Repeat)
	for rep := 0; rep < r.Repeat; rep++ {
		pp := p
		pp.Seed = p.Seed + int64(rep)*1009
		m, err := r.runSingle(pp, algo)
		if err != nil {
			return sim.Metrics{}, err
		}
		runs = append(runs, m)
	}
	return sim.Average(runs), nil
}

// oracle returns the configured base distance oracle together with its
// resolved kind ("auto" comes back as the tier it selected). Auto shares
// the per-kind caches, so switching between "auto" and the explicit tier
// it resolves to (the oracle ablation does) never preprocesses twice.
func (r *Runner) oracle() (shortest.Oracle, string, error) {
	kind := shortest.AutoKind(r.OracleKind)
	switch kind {
	case "":
		kind = shortest.AutoHub
	case "auto":
		kind = shortest.Choose(r.G.NumVertices())
	}
	switch kind {
	case shortest.AutoHub, shortest.AutoCCH:
		return r.tier(kind), string(kind), nil
	case shortest.AutoBiDijkstra:
		// Stateful and cheap to make: one per run, never shared.
		return shortest.Build(kind, r.G), string(kind), nil
	default:
		return nil, "", fmt.Errorf("expt: unknown oracle %q", r.OracleKind)
	}
}

// OracleDescription resolves the oracle configuration to a printable
// string, e.g. "hub (avg label 61.2)" or "auto→bidijkstra". It builds the
// oracle if needed.
func (r *Runner) OracleDescription() (string, error) {
	base, kind, err := r.oracle()
	if err != nil {
		return "", err
	}
	desc := kind
	if r.OracleKind == "auto" {
		desc = "auto→" + kind
	}
	if h, ok := base.(*shortest.HubLabels); ok {
		desc = fmt.Sprintf("%s (avg label %.1f)", desc, h.AvgLabelSize())
	}
	return desc, nil
}

// trafficWiring carries the per-run epoch machinery a traffic run wires
// between the query chain and the engine.
type trafficWiring struct {
	overlay   *roadnet.Overlay
	versioned *shortest.Versioned
}

// chain assembles the per-run query chain (cache + counter) over the base
// oracle. With a traffic profile the chain runs through a fresh epoch-aware
// front (the overlay mutates during the run, so it can never be shared
// across runs); the cached per-kind base oracle is adopted as its epoch-0
// tier.
func (r *Runner) chain() (core.DistFunc, *shortest.Counting, *trafficWiring, error) {
	base, kind, err := r.oracle()
	if err != nil {
		return nil, nil, nil, err
	}
	var tw *trafficWiring
	if r.Traffic != nil {
		tw = &trafficWiring{
			overlay:   roadnet.NewOverlay(r.G),
			versioned: shortest.AdoptVersioned(r.G, base, shortest.AutoKind(kind)),
		}
		base = tw.versioned
	}
	c := shortest.NewCounting(base)
	return shortest.NewCached(c, 1<<18).Dist, c, tw, nil
}

func (r *Runner) runSingle(p workload.Params, algo string) (sim.Metrics, error) {
	dist, queries, tw, err := r.chain()
	if err != nil {
		return sim.Metrics{}, err
	}
	inst, err := workload.BuildOn(p, r.G, dist)
	if err != nil {
		return sim.Metrics{}, err
	}
	return r.runWith(inst, algo, dist, queries, tw)
}

// RunInstance runs one algorithm over a pre-materialized instance on this
// runner's graph — the entry point for imported workloads (trip streams
// map-matched by cmd/urpsm-import) whose requests and penalties are
// already fixed. The caller's instance is left untouched: the engine
// mutates worker state (positions, routes, travel totals) during a run,
// so the simulation operates on a private copy — repeated RunInstance
// calls on one instance (urpsm-sim -algo all) each start from the same
// fleet placement.
func (r *Runner) RunInstance(inst *workload.Instance, algo string) (sim.Metrics, error) {
	if inst.Graph != r.G {
		return sim.Metrics{}, fmt.Errorf("expt: instance graph differs from runner graph")
	}
	dist, queries, tw, err := r.chain()
	if err != nil {
		return sim.Metrics{}, err
	}
	workers := make([]*core.Worker, len(inst.Workers))
	for i, w := range inst.Workers {
		cw := *w
		cw.Route.Stops = append([]core.Stop(nil), w.Route.Stops...)
		cw.Route.Arr = append([]float64(nil), w.Route.Arr...)
		workers[i] = &cw
	}
	private := &workload.Instance{
		Params:   inst.Params,
		Graph:    inst.Graph,
		Requests: append([]*core.Request(nil), inst.Requests...),
		Workers:  workers,
	}
	return r.runWith(private, algo, dist, queries, tw)
}

// runWith wires fleet, planner and engine for one simulation run.
func (r *Runner) runWith(inst *workload.Instance, algo string, dist core.DistFunc,
	queries *shortest.Counting, tw *trafficWiring) (sim.Metrics, error) {
	fleet, err := core.NewFleet(r.G, dist, inst.Workers, r.CellMeters)
	if err != nil {
		return sim.Metrics{}, err
	}
	var planner core.Planner
	gridMem := fleet.Grid.MemoryBytes()
	switch algo {
	case "pruneGreedyDP":
		planner = core.NewPruneGreedyDP(fleet, 1)
	case "GreedyDP":
		planner = core.NewGreedyDP(fleet, 1)
	case "pruneGreedyBasic":
		// Ablation: the full two-phase solution but with the O(n³) basic
		// insertion as the planning operator.
		planner = core.NewGreedy(fleet, core.Config{
			Alpha: 1, Prune: true, PostCheck: true,
			Insertion: func(sc *core.Scratch, rt *core.Route, kw int, req *core.Request, _ float64, dist core.DistFunc) core.Insertion {
				return sc.Basic(rt, kw, req, dist)
			},
		}, "pruneGreedyBasic")
	case "pruneGreedyNaive":
		// Ablation: the O(n²) naive DP insertion as the planning operator.
		planner = core.NewGreedy(fleet, core.Config{
			Alpha: 1, Prune: true, PostCheck: true,
			Insertion: (*core.Scratch).NaiveDP,
		}, "pruneGreedyNaive")
	case "pruneGreedyDP+improve":
		// Extension: post-insertion remove-and-reinsert local search.
		planner = core.NewImprovingGreedy(fleet, 1, 2)
	case "pruneGreedyDP-paper":
		// Ablation: strictly-paper Algorithm 5 (no post-planning
		// rejection when α·Δ* > p_r).
		planner = core.NewGreedy(fleet, core.Config{
			Alpha: 1, Prune: true, PostCheck: false,
		}, "pruneGreedyDP-paper")
	case "tshare":
		ts, err := baseline.NewTShare(fleet, r.CellMeters, 1)
		if err != nil {
			return sim.Metrics{}, err
		}
		planner = ts
		// tshare's index = its sorted cell lists plus the worker grid it
		// scans; both count toward its footprint.
		gridMem = ts.GridMemoryBytes() + fleet.Grid.MemoryBytes()
	case "kinetic":
		k := baseline.NewKinetic(fleet, 1)
		k.MaxNodes = r.KineticMaxNodes
		planner = k
	case "batch":
		planner = baseline.NewBatch(fleet, 1)
	default:
		return sim.Metrics{}, fmt.Errorf("expt: unknown algorithm %q", algo)
	}
	eng := sim.NewEngine(fleet, planner, shortest.NewBiDijkstra(r.G), 1)
	eng.Queries = queries
	eng.Observer = r.Observer
	trafficRun := false
	if tw != nil {
		tc := sim.NewTraffic(tw.overlay, tw.versioned, fleet, eng.World())
		tc.SetProfile(*r.Traffic)
		eng.Traffic = tc
		trafficRun = len(r.Traffic.Events) > 0
	}
	m, err := eng.Run(inst.Requests)
	if err != nil {
		return sim.Metrics{}, err
	}
	if trafficRun {
		// Slowdowns can legitimately break already-promised deadlines;
		// complete the routes and report LateArrivals instead of treating
		// lateness as an insertion-feasibility bug.
		eng.World().CompleteAll()
		m = eng.Metrics(len(inst.Requests))
	} else if err := eng.FastForward(); err != nil {
		// Imported instances carry zero Params; fall back to the runner's
		// dataset name so the error still says where it happened.
		name := inst.Params.Name
		if name == "" {
			name = r.Base.Name
		}
		return sim.Metrics{}, fmt.Errorf("expt: %s on %s: %w", algo, name, err)
	}
	m.GridMemoryBytes = gridMem
	return m, nil
}
