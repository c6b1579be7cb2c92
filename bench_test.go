// Package repro's root benchmark suite regenerates every table and figure
// of the paper's evaluation as Go benchmarks (one per table/figure, plus
// the complexity and pruning ablations). Run everything with
//
//	go test -bench=. -benchmem
//
// Figure benchmarks execute a full scaled-down sweep per iteration and
// additionally report the headline comparison (unified-cost ratio and
// speedup of pruneGreedyDP over the baselines) via b.ReportMetric.
package repro

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/expt"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// benchScale keeps the figure sweeps laptop-sized; the cmd/urpsm-bench
// tool exposes the same sweeps at arbitrary scales.
const benchScale = 0.015

var (
	runnerOnce sync.Once
	runnerCh   *expt.Runner
	runnerNYC  *expt.Runner
)

// benchRunners lazily builds one runner per dataset, shared by all figure
// benchmarks (network generation and hub labeling dominate setup cost).
func benchRunners(b *testing.B) (*expt.Runner, *expt.Runner) {
	b.Helper()
	runnerOnce.Do(func() {
		var err error
		runnerCh, err = expt.NewRunner(workload.ChengduLike(benchScale), 1)
		if err != nil {
			panic(err)
		}
		runnerNYC, err = expt.NewRunner(workload.NYCLike(benchScale), 1)
		if err != nil {
			panic(err)
		}
		runnerCh.KineticMaxNodes = 20000
		runnerNYC.KineticMaxNodes = 20000
	})
	return runnerCh, runnerNYC
}

// reportSeries derives the paper's headline comparisons from a sweep and
// attaches them to the benchmark output.
func reportSeries(b *testing.B, s expt.Series) {
	b.Helper()
	var ucPG, ucWorst, respPG, respSlowest float64
	count := 0
	for _, pt := range s.Points {
		pg, ok := pt.Metrics["pruneGreedyDP"]
		if !ok {
			continue
		}
		count++
		ucPG += pg.UnifiedCost
		respPG += pg.AvgResponseMs
		worst, slow := pg.UnifiedCost, pg.AvgResponseMs
		for algo, m := range pt.Metrics {
			if algo == "pruneGreedyDP" {
				continue
			}
			if m.UnifiedCost > worst {
				worst = m.UnifiedCost
			}
			if m.AvgResponseMs > slow {
				slow = m.AvgResponseMs
			}
		}
		ucWorst += worst
		respSlowest += slow
	}
	if count == 0 || ucPG == 0 || respPG == 0 {
		return
	}
	b.ReportMetric(ucWorst/ucPG, "worstUC/pruneUC")
	b.ReportMetric(respSlowest/respPG, "slowest/prune-resp")
}

func benchFigure(b *testing.B, dataset string, fig func(*expt.Runner, []string) (expt.Series, error)) {
	ch, nyc := benchRunners(b)
	r := ch
	if dataset == "NYC" {
		r = nyc
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := fig(r, expt.Algorithms)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			reportSeries(b, s)
		}
	}
}

// BenchmarkTable4DatasetStats regenerates Table 4 (dataset statistics).
func BenchmarkTable4DatasetStats(b *testing.B) {
	ch, nyc := benchRunners(b)
	for i := 0; i < b.N; i++ {
		for _, r := range []*expt.Runner{ch, nyc} {
			if _, err := r.Table4(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig3VaryWorkers regenerates Fig. 3 (vary |W|).
func BenchmarkFig3VaryWorkers(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig3(a) })
		})
	}
}

// BenchmarkFig4VaryCapacity regenerates Fig. 4 (vary K_w).
func BenchmarkFig4VaryCapacity(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig4(a) })
		})
	}
}

// BenchmarkFig5VaryGrid regenerates Fig. 5 (vary grid size g, with index
// memory).
func BenchmarkFig5VaryGrid(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig5(a) })
		})
	}
}

// BenchmarkFig6VaryDeadline regenerates Fig. 6 (vary deadline e_r, with
// saved distance queries).
func BenchmarkFig6VaryDeadline(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig6(a) })
		})
	}
}

// BenchmarkFig7VaryPenalty regenerates Fig. 7 (vary penalty p_r).
func BenchmarkFig7VaryPenalty(b *testing.B) {
	for _, ds := range []string{"Chengdu", "NYC"} {
		b.Run(ds, func(b *testing.B) {
			benchFigure(b, ds, func(r *expt.Runner, a []string) (expt.Series, error) { return r.Fig7(a) })
		})
	}
}

// BenchmarkHardnessAdversary replays the §3.3 lower-bound constructions.
func BenchmarkHardnessAdversary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		pts, err := expt.Hardness(workload.AdvServedCount, []int{8, 32, 128}, 50)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// Served fraction at the largest |V| — should be near zero.
			last := pts[len(pts)-1]
			b.ReportMetric(float64(last.OnlineServed)/float64(last.Trials), "served@|V|=128")
		}
	}
}

// BenchmarkInsertionScaling is the §4 complexity ablation: the three
// operators on growing route lengths with an O(1) oracle, each running on
// a warmed scratch arena exactly as the planners do (0 allocs/op). The
// per-op times in the sub-benchmark names reproduce the cubic/quadric/
// linear separation.
func BenchmarkInsertionScaling(b *testing.B) {
	var sc core.Scratch
	for _, n := range []int{8, 16, 32, 64, 128, 256} {
		g, err := roadnet.LineGraph(2*n+10, 1)
		if err != nil {
			b.Fatal(err)
		}
		m := shortest.NewMatrix(g)
		rt, req := scalingRoute(b, m.Dist, n)
		L := m.Dist(req.Origin, req.Dest)
		b.Run(fmt.Sprintf("basic/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.Basic(rt, 1<<30, req, m.Dist)
			}
		})
		b.Run(fmt.Sprintf("naiveDP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.NaiveDP(rt, 1<<30, req, L, m.Dist)
			}
		})
		b.Run(fmt.Sprintf("linearDP/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc.LinearDP(rt, 1<<30, req, L, m.Dist)
			}
		})
	}
}

func scalingRoute(b *testing.B, dist core.DistFunc, n int) (*core.Route, *core.Request) {
	b.Helper()
	rt := &core.Route{Loc: 0, Now: 0}
	for i := 0; i < n/2; i++ {
		v := roadnet.VertexID(2*i + 2)
		rt.Stops = append(rt.Stops,
			core.Stop{Vertex: v, Kind: core.Pickup, Req: core.RequestID(i), Cap: 1, DDL: 1e15},
			core.Stop{Vertex: v + 1, Kind: core.Dropoff, Req: core.RequestID(i), Cap: 1, DDL: 1e15},
		)
	}
	rt.Recompute(dist)
	req := &core.Request{ID: 1 << 20, Origin: 1, Dest: roadnet.VertexID(2*(n/2) + 3), Deadline: 1e15, Capacity: 1}
	return rt, req
}

// BenchmarkPruningAblation quantifies Lemma 8: distance queries and wall
// time of pruneGreedyDP vs GreedyDP on identical workloads.
func BenchmarkPruningAblation(b *testing.B) {
	ch, _ := benchRunners(b)
	for _, algo := range []string{"pruneGreedyDP", "GreedyDP"} {
		b.Run(algo, func(b *testing.B) {
			var queries uint64
			for i := 0; i < b.N; i++ {
				m, err := ch.RunOne(ch.Base, algo)
				if err != nil {
					b.Fatal(err)
				}
				queries = m.DistQueries
			}
			b.ReportMetric(float64(queries), "dist-queries")
		})
	}
}

// BenchmarkOperatorInPlannerAblation runs the full pruneGreedy solution
// with each of the three insertion operators: quality is identical (the
// operators find the same optimum), so the wall-clock difference isolates
// the §4 contribution inside the complete system.
func BenchmarkOperatorInPlannerAblation(b *testing.B) {
	ch, _ := benchRunners(b)
	for _, algo := range []string{"pruneGreedyBasic", "pruneGreedyNaive", "pruneGreedyDP"} {
		b.Run(algo, func(b *testing.B) {
			var served int
			for i := 0; i < b.N; i++ {
				m, err := ch.RunOne(ch.Base, algo)
				if err != nil {
					b.Fatal(err)
				}
				served = m.Served
			}
			b.ReportMetric(float64(served), "served")
		})
	}
}

// BenchmarkOracleAblation swaps the distance oracle underneath the whole
// pipeline: hub labels vs customizable contraction hierarchies vs plain
// bidirectional Dijkstra. Outcomes are identical
// (all exact); only the per-query cost differs, which dominates total
// planning time exactly as the paper's "shortest distance queries are the
// basic operation" framing predicts.
func BenchmarkOracleAblation(b *testing.B) {
	ch, _ := benchRunners(b)
	defer func() { ch.OracleKind = "" }()
	for _, kind := range []string{"hub", "cch", "bidijkstra"} {
		b.Run(kind, func(b *testing.B) {
			ch.OracleKind = kind
			for i := 0; i < b.N; i++ {
				if _, err := ch.RunOne(ch.Base, "pruneGreedyDP"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// frozenFleetState freezes a mid-simulation fleet for the plan-path
// benchmarks: a figure-scale Chengdu workload whose first 60% of requests
// were planned and driven, leaving loaded routes, plus a probe set of
// still-unplanned requests.
type frozenFleetState struct {
	fleet *core.Fleet
	probe []*core.Request
}

var (
	frozenOnce  sync.Once
	frozenState *frozenFleetState
)

func frozenFleet(b *testing.B) *frozenFleetState {
	b.Helper()
	frozenOnce.Do(func() {
		// A larger fleet than benchScale, so each request has a meaningful
		// candidate set. The full Chengdu fleet (600 workers) on a
		// quarter-scale network keeps candidate sets in the hundreds while
		// the setup stays laptop-sized.
		p := workload.ChengduLike(0.25)
		p.NumWorkers = 600
		p.NumRequests = 2500
		g, err := roadnet.Generate(p.Net)
		if err != nil {
			panic(err)
		}
		hub := shortest.BuildHubLabels(g)
		dist := shortest.NewCached(hub, 1<<18).Dist
		inst, err := workload.BuildOn(p, g, dist)
		if err != nil {
			panic(err)
		}
		fleet, err := core.NewFleet(g, dist, inst.Workers, 2000)
		if err != nil {
			panic(err)
		}
		eng := sim.NewEngine(fleet, core.NewPruneGreedyDP(fleet, 1), shortest.NewBiDijkstra(g), 1)
		cut := len(inst.Requests) * 3 / 5
		if _, err := eng.Run(inst.Requests[:cut]); err != nil {
			panic(err)
		}
		probe := inst.Requests[cut:]
		if len(probe) > 256 {
			probe = probe[:256]
		}
		frozenState = &frozenFleetState{fleet: fleet, probe: probe}
	})
	return frozenState
}

// BenchmarkPlanWithObserver measures the flight recorder's overhead on
// the steady-state plan path: the same frozen fleet state planned with
// no observer versus with a trace.Recorder (plan-latency histogram
// attached) receiving every plan. The delta is the observability tax —
// per the Polynesia lesson it must stay within noise, and the observed
// path stays 0 allocs/op (TestGreedyPlanZeroAllocs and
// TestRecorderPlanZeroAllocs pin that; ReportAllocs shows it here).
func BenchmarkPlanWithObserver(b *testing.B) {
	st := frozenFleet(b)
	for _, traced := range []bool{false, true} {
		name := "observer=off"
		if traced {
			name = "observer=on"
		}
		b.Run(name, func(b *testing.B) {
			planner := core.NewPruneGreedyDP(st.fleet, 1)
			if traced {
				rec := trace.New(4096)
				rec.PlanSeconds = trace.NewHistogram(trace.LatencyBuckets())
				planner.SetObserver(rec)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := st.probe[i%len(st.probe)]
				planner.Plan(r.Release, r)
			}
		})
	}
}

// BenchmarkDistUnderRebuild measures point-to-point query latency through
// the epoch-aware oracle front on its two preprocessed tiers, tier=hub and
// tier=cch, plus the cost of the epoch advance itself:
// advance=customize-cch re-derives shortcut weights over the fixed CCH
// skeleton. That is what the CCH tier buys (DESIGN.md §12): it bounds how
// long the serve layer's urpsm_oracle_rebuild_seconds gauge stays nonzero
// and how long queries wait behind an advance after a traffic update.
func BenchmarkDistUnderRebuild(b *testing.B) {
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 40, Cols: 40, Spacing: 150, Jitter: 0.2, ArterialEvery: 5,
		MotorwayRing: true, DetourMin: 1.05, DetourMax: 1.3, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	n := g.NumVertices()
	pairs := make([][2]roadnet.VertexID, 256)
	for i := range pairs {
		pairs[i] = [2]roadnet.VertexID{roadnet.VertexID(i * 7 % n), roadnet.VertexID(i * 13 % n)}
	}

	for _, kind := range []shortest.AutoKind{shortest.AutoHub, shortest.AutoCCH} {
		b.Run("tier="+string(kind), func(b *testing.B) {
			v := shortest.AdoptVersioned(g, shortest.Build(kind, g), kind)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := pairs[i%len(pairs)]
				v.Dist(p[0], p[1])
			}
		})
	}
	b.Run("advance=customize-cch", func(b *testing.B) {
		overlay := roadnet.NewOverlay(g)
		v := shortest.AdoptVersioned(g, shortest.BuildCCH(g), shortest.AutoCCH)
		cur, epoch, _, err := overlay.Apply([]roadnet.TrafficUpdate{{Factor: 1.5}})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			v.Advance(cur, epoch)
		}
		b.StopTimer()
		if v.Customizations() == 0 {
			b.Fatal("customize fast path not taken")
		}
	})
}

// BenchmarkDecisionLowerBound measures the zero-query Lemma 7 bound in
// isolation: it must stay linear in route length and allocation-light.
func BenchmarkDecisionLowerBound(b *testing.B) {
	g, err := roadnet.Generate(roadnet.GenConfig{
		Rows: 20, Cols: 20, Spacing: 150, Jitter: 0.2, ArterialEvery: 5,
		MotorwayRing: true, DetourMin: 1.05, DetourMax: 1.3, Seed: 3,
	})
	if err != nil {
		b.Fatal(err)
	}
	m := shortest.NewMatrix(g)
	rt, req := scalingRoute(b, m.Dist, 16)
	// Re-home the synthetic route onto this graph's vertex range.
	for i := range rt.Stops {
		rt.Stops[i].Vertex = roadnet.VertexID(i % g.NumVertices())
	}
	rt.Recompute(m.Dist)
	req.Origin, req.Dest = 5, roadnet.VertexID(g.NumVertices()-1)
	L := m.Dist(req.Origin, req.Dest)
	var sc core.Scratch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc.LowerBound(rt, 1<<30, req, g, L)
	}
}

// BenchmarkWALCommit measures the durability cost of the serve layer's
// group commit (DESIGN.md §13.2): one admission batch = one commit
// group = one fsync. Each iteration appends a full commit group (batch
// header + group-size admission/decision pairs) and syncs it, so
// records-per-fsync shows what batching buys: group=1 pays a whole
// fsync per decision, group=64 amortizes it 64-fold. The fsync-per-op
// figure is the real disk latency of the test machine — expect
// milliseconds, not the nanoseconds of the in-memory append path.
func BenchmarkWALCommit(b *testing.B) {
	for _, group := range []int{1, 8, 64} {
		b.Run(fmt.Sprintf("group=%d", group), func(b *testing.B) {
			l, err := wal.Create(b.TempDir()+"/wal.log", 1)
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			adm := wal.Admission{ID: 1, Origin: 7, Dest: 9, Release: 100,
				Deadline: 700, Penalty: 320.5, Capacity: 2}
			dec := wal.Decision{ID: 1, Accepted: true, Worker: 3,
				Delta: 142.75, SimTime: 100}
			var admBuf, decBuf, batchBuf []byte
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				batchBuf = wal.AppendBatch(batchBuf[:0], group, 0)
				l.Append(wal.TypeBatch, batchBuf)
				for j := 0; j < group; j++ {
					admBuf = wal.AppendAdmission(admBuf[:0], adm)
					l.Append(wal.TypeAdmission, admBuf)
					decBuf = wal.AppendDecision(decBuf[:0], dec)
					l.Append(wal.TypeDecision, decBuf)
				}
				if err := l.Sync(); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed()
			if b.N > 0 {
				b.ReportMetric(float64(2*group), "records/fsync")
				b.ReportMetric(elapsed.Seconds()/float64(b.N*group)*1e9, "ns/decision")
			}
		})
	}
}

// --- Batched many-to-many distance oracle (DESIGN.md §16) ---

// mtmGen is the probe-validated grid family of the many-to-many
// benchmark: dim 40 ≈ 1.6k vertices.
func mtmGen(dim int) roadnet.GenConfig {
	return roadnet.GenConfig{
		Rows: dim, Cols: dim, Spacing: 150, Jitter: 0.2, ArterialEvery: 5,
		MotorwayRing: true, RemoveFrac: 0.08, DetourMin: 1.05, DetourMax: 1.3,
		Seed: 3,
	}
}

// mtmBatch draws a deterministic 32×32 batch of endpoints spread over the
// graph — the size of a busy admission batch's distance table.
func mtmBatch(g *roadnet.Graph) (sources, targets []roadnet.VertexID) {
	n := g.NumVertices()
	const k = 32
	for i := 0; i < k; i++ {
		sources = append(sources, roadnet.VertexID((i*2654435761+17)%n))
		targets = append(targets, roadnet.VertexID((i*40503+977)%n))
	}
	return sources, targets
}

// BenchmarkManyToMany compares one batched table fill against the
// equivalent 32×32 = 1024 point queries on the tier that has a filler.
// The hub batch merge produces bit-identical cells to the point queries it
// replaces (TestManyToManyMatchesPointDist), so ns/op is the only delta.
// CCH has no rung: it answers from cached labels (BenchmarkCCHQuery).
func BenchmarkManyToMany(b *testing.B) {
	g, err := roadnet.Generate(mtmGen(40))
	if err != nil {
		b.Fatal(err)
	}
	sources, targets := mtmBatch(g)
	hub := shortest.BuildHubLabels(g)
	mtm := shortest.ManyToManyFor(hub)
	b.Run("1.6k/hub/point", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, s := range sources {
				for _, t := range targets {
					hub.Dist(s, t)
				}
			}
		}
		b.ReportMetric(float64(len(sources)*len(targets)), "cells/op")
	})
	b.Run("1.6k/hub/table", func(b *testing.B) {
		arena := shortest.NewTableArena()
		for i := 0; i < b.N; i++ {
			mtm.Table(arena, sources, targets)
		}
		b.ReportMetric(float64(len(sources)*len(targets)), "cells/op")
	})
}

// batchPlanState freezes a mid-simulation snapshot for the
// point-vs-table batch-planning benchmark: the fleet after the engine
// has worked the first 60% of the stream, plus the remaining requests
// chunked into 32-request admission batches. Each benchmark iteration
// restores the snapshot and replans the whole remainder with committing
// decisions and a cold LRU cache — a live server's regime, where every
// batch brings fresh endpoints and routes evolve between batches.
// (Replaying one frozen batch with Plan against an ever-warm cache
// would let the LRU absorb every point query and measure nothing.)
type batchPlanState struct {
	g       *roadnet.Graph
	hub     *shortest.HubLabels
	saved   []*core.Worker
	batches [][]*core.Request
}

var (
	batchPlanOnce  sync.Once
	batchPlanFixed *batchPlanState
)

// cloneFleetWorkers deep-copies the snapshot so one iteration's
// committed insertions never leak into the next.
func cloneFleetWorkers(ws []*core.Worker) []*core.Worker {
	out := make([]*core.Worker, len(ws))
	for i, w := range ws {
		c := *w
		c.Route.Stops = append([]core.Stop(nil), w.Route.Stops...)
		c.Route.Arr = append([]float64(nil), w.Route.Arr...)
		out[i] = &c
	}
	return out
}

func batchPlanBench(b *testing.B) *batchPlanState {
	b.Helper()
	batchPlanOnce.Do(func() {
		p := workload.ChengduLike(0.25)
		p.NumWorkers = 600
		p.NumRequests = 2500
		g, err := roadnet.Generate(p.Net)
		if err != nil {
			panic(err)
		}
		hub := shortest.BuildHubLabels(g)
		inst, err := workload.BuildOn(p, g, hub.Dist)
		if err != nil {
			panic(err)
		}
		fleet, err := core.NewFleet(g, hub.Dist, inst.Workers, 2000)
		if err != nil {
			panic(err)
		}
		eng := sim.NewEngine(fleet, core.NewPruneGreedyDP(fleet, 1), shortest.NewBiDijkstra(g), 1)
		cut := len(inst.Requests) * 3 / 5
		if _, err := eng.Run(inst.Requests[:cut]); err != nil {
			panic(err)
		}
		var batches [][]*core.Request
		for lo := cut; lo+32 <= len(inst.Requests); lo += 32 {
			batches = append(batches, inst.Requests[lo:lo+32])
		}
		batchPlanFixed = &batchPlanState{
			g: g, hub: hub,
			saved:   cloneFleetWorkers(inst.Workers),
			batches: batches,
		}
	})
	return batchPlanFixed
}

// BenchmarkBatchPlanning is the tentpole's headline: the tail of a
// Chengdu-like stream planned by pruneGreedyDP in 32-request admission
// batches with point queries vs with one prefetched distance table per
// batch (serve.Server.flush's wiring, DESIGN.md §16). Decisions are
// checked identical across the two modes before timing anything.
// dist-queries/op counts oracle queries that escaped the LRU cache —
// the table mode's collapse of that number is the admission-batch win
// the PR exists for.
func BenchmarkBatchPlanning(b *testing.B) {
	st := batchPlanBench(b)
	mtm := shortest.ManyToManyFor(st.hub)
	if mtm == nil {
		b.Fatal("hub labels lost their batched form")
	}

	// run replans the remaining stream once from the snapshot, committing
	// every decision, and reports the oracle queries (cache misses) and
	// table hits issued along the way.
	run := func(batched bool) ([]core.Result, uint64, uint64) {
		counter := shortest.NewCounting(st.hub)
		dist := shortest.NewCached(counter, 1<<18).Dist
		fleet, err := core.NewFleet(st.g, dist, cloneFleetWorkers(st.saved), 2000)
		if err != nil {
			panic(err)
		}
		planner := core.NewPruneGreedyDP(fleet, 1)
		var (
			table *core.DistTable
			arena *shortest.TableArena
			cands []*core.Worker
		)
		if batched {
			table = core.NewDistTable(st.g.NumVertices(), dist)
			arena = shortest.NewTableArena()
		}
		results := make([]core.Result, 0, 32*len(st.batches))
		for _, batch := range st.batches {
			if batched {
				table.Reset()
				cands = cands[:0]
				for _, r := range batch {
					table.AddRequest(r)
					lb := fleet.Graph.EuclidTime(r.Origin, r.Dest)
					cands = fleet.CandidatesAppend(cands, r, batch[0].Release, lb)
				}
				for _, w := range cands {
					table.AddWorker(w)
				}
				table.Install(mtm.Table(arena, table.Rows(), table.Cols()))
				fleet.Dist = table.Dist
			}
			for _, r := range batch {
				results = append(results, planner.OnRequest(r.Release, r))
			}
			if batched {
				fleet.Dist = dist
			}
		}
		var hits uint64
		if batched {
			hits, _ = table.Stats()
		}
		return results, counter.Count(), hits
	}

	// Decision identity across the swap, verified before timing anything.
	refRes, _, _ := run(false)
	tabRes, _, _ := run(true)
	for i := range refRes {
		if refRes[i] != tabRes[i] {
			b.Fatalf("table-backed planning diverged at request %d: point %+v table %+v",
				i, refRes[i], tabRes[i])
		}
	}

	b.Run("point", func(b *testing.B) {
		var queries uint64
		for i := 0; i < b.N; i++ {
			_, q, _ := run(false)
			queries += q
		}
		b.ReportMetric(float64(queries)/float64(b.N), "dist-queries/op")
	})
	b.Run("table", func(b *testing.B) {
		var queries, hits uint64
		for i := 0; i < b.N; i++ {
			_, q, h := run(true)
			queries += q
			hits += h
		}
		b.ReportMetric(float64(queries)/float64(b.N), "dist-queries/op")
		b.ReportMetric(float64(hits)/float64(b.N), "table-hits/op")
	})
}
