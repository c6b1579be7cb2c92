package main

// layers.go is the benchmark's single adapter onto the system under test:
// the only file in bench/ that imports repro/internal/... . Everything else
// in the package sees plain Go values (ints, floats, byte slices, an
// http.Handler), so a refactor of the program breaks at most this file.
//
// Symbols used, by layer:
//
//	roadnet   Generate, Graph.NumVertices, VertexID
//	workload  ChengduLike (for its Net and demand shape), Params, BuildOn, Instance
//	          (Requests and Workers fields)
//	cliutil   BuildOracle
//	shortest  Oracle (interface), NewCached, Cached.Stats/Dist, NewBiDijkstra,
//	          ManyToManyFor, ManyToMany.Table, NewTableArena,
//	          HubLabels/CCH MemoryBytes (through a local interface)
//	core      NewFleet, Fleet.Dist (field), Fleet.Candidates, Fleet.Graph,
//	          NewPruneGreedyDP, Greedy.Plan/SetObserver, Planner, Result,
//	          PlanObserver, PlanTrace, Reason*, Scratch.Decide, Apply,
//	          LinearDPInsertion, Request, Worker, Route (via Worker.Route),
//	          WorkerState (read back from the server)
//	sim       NewEngine, Engine.Run/World/FastForward, World.AdvanceAll/
//	          MarkDirty/LegsComputed, Percentile
//	wal       Create, AppendAdmission, AppendDecision, Log.Append/Sync/Close,
//	          TypeAdmission, TypeDecision, SegmentName
//	serve     Config fields Graph, Workers, Oracle, OracleKind, WALDir,
//	          CheckpointBytes, MaxQueue, TraceEvents only; NewServer;
//	          Server.Handler/Stats/WorkerRoute/DecisionFor/Abort/Shutdown;
//	          Request.CoreRequest and Decision (codec probes)
//
// Deliberately unused, so ROADMAP item 3 may delete them without touching
// the benchmark: serve.Config.Pool/NoBatchPrefetch/Snapshot/AsyncRebuild,
// shortest.BuildCH, internal/dispatch.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/serve"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/wal"
	"repro/internal/workload"
)

// percentile is the repo's one quantile rule (nearest rank on the sorted
// slice, which it sorts in place), so "p99" here means what it means in the
// simulator's metrics and the server's /v1/stats.
func percentile(samples []float64, p float64) float64 { return sim.Percentile(samples, p) }

// gridCellMeters is the spatial-grid cell size every CLI of the repo uses.
const gridCellMeters = 2000

// lruEntries is the distance-cache capacity the serve tier and the
// experiment runner both use.
const lruEntries = 1 << 18

// city is a generated road network.
type city struct {
	g         *roadnet.Graph
	vertices  int
	generateS float64
}

// generateCity builds the Chengdu-like network at the given preset scale.
// The network seed is the preset's own: --seed varies demand and fleet, not
// the city, the way a dispatcher serves one city under changing traffic.
func generateCity(scale float64) (*city, error) {
	start := time.Now()
	g, err := roadnet.Generate(workload.ChengduLike(scale).Net)
	if err != nil {
		return nil, fmt.Errorf("generate city: %w", err)
	}
	return &city{g: g, vertices: g.NumVertices(), generateS: time.Since(start).Seconds()}, nil
}

// oracle is a built base distance tier.
type oracle struct {
	o      shortest.Oracle
	kind   string
	buildS float64
	memMB  float64
}

func buildOracle(kind string, c *city) (*oracle, error) {
	start := time.Now()
	o, resolved, err := cliutil.BuildOracle(kind, c.g)
	if err != nil {
		return nil, fmt.Errorf("build oracle: %w", err)
	}
	out := &oracle{o: o, kind: resolved, buildS: time.Since(start).Seconds()}
	if m, ok := o.(interface{ MemoryBytes() int64 }); ok {
		out.memMB = float64(m.MemoryBytes()) / (1 << 20)
	}
	return out, nil
}

// demand is one generated request as the harness sees it: enough to render
// a wire body and to recompute the unified cost, nothing planner-specific.
type demand struct {
	ID       int32
	Origin   int64
	Dest     int64
	Release  float64
	Deadline float64
	Penalty  float64
	Capacity int
}

// instance is a generated fleet plus request stream.
type instance struct {
	inst   *workload.Instance
	reqs   []demand
	buildS float64
}

// instanceParams is the part of workload.Params the benchmark varies; the
// rest (hotspots, capacities, penalty factor) is the Chengdu-like preset's.
type instanceParams struct {
	Requests    int
	Workers     int
	DeadlineSec float64
	// ArrivalsPerSec > 0 stamps releases as a seeded Poisson process on the
	// simulation clock (plan-offline); the serve workloads stamp their own
	// from the wall-clock schedule.
	ArrivalsPerSec float64
	Seed           int64
}

// demandPoolFactor is how many requests the city's demand pool holds per
// request a run sends.
const demandPoolFactor = 2

// buildInstance draws one run's fleet and request stream. The city's demand
// geography (the preset's hotspots, with the preset's own seed) is fixed like
// the city itself: a pool of requests is generated from it, and --seed picks
// which of them this run sends and in what order, places the fleet, and times
// the arrivals. A seed that also moved the hotspots would make every run a
// different city (goodput spread 30 % across seeds); this way a seed is a
// different day in the same one. Rejection penalties come from the raw tier,
// so the planner's cache starts cold in every run.
func buildInstance(p instanceParams, c *city, o *oracle) (*instance, error) {
	start := time.Now()
	wp := workload.ChengduLike(1)
	wp.DurationSec = 3600 // releases are restamped below or by the load generator
	wp.DeadlineSec = p.DeadlineSec
	wp.RushHours = false
	pool := wp
	pool.NumRequests, pool.NumWorkers = demandPoolFactor*p.Requests, 0
	pooled, err := workload.BuildOn(pool, c.g, o.o.Dist)
	if err != nil {
		return nil, fmt.Errorf("build demand pool: %w", err)
	}
	fp := wp
	fp.NumRequests, fp.NumWorkers, fp.Seed = 0, p.Workers, p.Seed
	fleet, err := workload.BuildOn(fp, c.g, o.o.Dist)
	if err != nil {
		return nil, fmt.Errorf("build fleet: %w", err)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	reqs := pooled.Requests
	rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	reqs = reqs[:min(p.Requests, len(reqs))]
	t := 0.0
	for _, r := range reqs {
		if p.ArrivalsPerSec > 0 {
			t += rng.ExpFloat64() / p.ArrivalsPerSec
		}
		r.Release, r.Deadline = t, t+p.DeadlineSec
	}
	fleet.Requests = reqs
	out := &instance{inst: fleet, reqs: make([]demand, len(reqs))}
	for i, r := range reqs {
		out.reqs[i] = demand{
			ID: int32(r.ID), Origin: int64(r.Origin), Dest: int64(r.Dest),
			Release: r.Release, Deadline: r.Deadline, Penalty: r.Penalty, Capacity: r.Capacity,
		}
	}
	out.buildS = time.Since(start).Seconds()
	return out, nil
}

func (in *instance) numWorkers() int { return len(in.inst.Workers) }

// ---------------------------------------------------------------------------
// serve layer

// serverOpts are the serve.Config fields the workloads differ in.
type serverOpts struct {
	WALDir          string
	CheckpointBytes int64
	MaxQueue        int
	TraceEvents     int
}

// server is a running in-process dispatch server.
type server struct {
	s *serve.Server
}

// startServer builds a server on the default configuration (batch 64 /
// 20 ms window, batch prefetch on) over the instance's fleet. With a WALDir
// that already holds a log it recovers from it first.
func startServer(c *city, in *instance, o *oracle, opts serverOpts) (*server, error) {
	s, err := serve.NewServer(serve.Config{
		Graph:           c.g,
		Workers:         in.inst.Workers,
		Oracle:          o.o,
		OracleKind:      o.kind,
		WALDir:          opts.WALDir,
		CheckpointBytes: opts.CheckpointBytes,
		MaxQueue:        opts.MaxQueue,
		TraceEvents:     opts.TraceEvents,
	})
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	return &server{s: s}, nil
}

func (s *server) handler() http.Handler { return s.s.Handler() }

// abort stops the server as kill -9 would.
func (s *server) abort() { s.s.Abort() }

// shutdown drains and closes the server.
func (s *server) shutdown() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return s.s.Shutdown(ctx)
}

// serverStats is the subset of GET /v1/stats the harness reads.
type serverStats struct {
	SimTime         float64
	Accepted        int
	Rejected        int
	Shed            int
	Pending         int
	TotalDistance   float64
	UnifiedCost     float64
	LateArrivals    int
	InfeasibleStops int
	Batches         int
	MaxBatch        int
	LateAdmissions  int
	DistQueries     uint64
	TablePrefetches int
	TableHits       uint64
	TableMisses     uint64
	TrafficEpoch    uint64
	LastRebuildMs   float64
	WALBytes        uint64
	WALRecovered    int
}

func (s *server) stats() serverStats {
	st := s.s.Stats()
	return serverStats{
		SimTime: st.SimTime, Accepted: st.Accepted, Rejected: st.Rejected, Shed: st.Shed,
		Pending: st.Pending, TotalDistance: st.TotalDistance,
		UnifiedCost: st.UnifiedCost, LateArrivals: st.LateArrivals,
		InfeasibleStops: st.InfeasibleStops, Batches: st.Batches, MaxBatch: st.MaxBatch,
		LateAdmissions: st.LateAdmissions, DistQueries: st.DistQueries,
		TablePrefetches: st.TablePrefetches, TableHits: st.TableHits, TableMisses: st.TableMisses,
		TrafficEpoch: st.TrafficEpoch, LastRebuildMs: st.LastRebuildMs,
		WALBytes: st.WALBytes, WALRecovered: st.WALRecovered,
	}
}

// stopView and routeView are a worker's live route as read back from the
// server, for the route-invariant check.
type stopView struct {
	Pickup bool
	Req    int32
	Cap    int
	DDL    float64
	Vertex int64
}

type routeView struct {
	Capacity int
	Onboard  int
	Now      float64
	Loc      int64
	Stops    []stopView
	Arr      []float64
}

func viewOf(ws core.WorkerState) routeView {
	rv := routeView{
		Capacity: ws.Capacity, Onboard: ws.Route.Onboard, Now: ws.Route.Now, Loc: ws.Route.Loc,
		Arr: ws.Route.Arr, Stops: make([]stopView, len(ws.Route.Stops)),
	}
	for i, st := range ws.Route.Stops {
		rv.Stops[i] = stopView{Pickup: st.Kind == "pickup", Req: st.Req, Cap: st.Cap, DDL: st.DDL, Vertex: st.Vertex}
	}
	return rv
}

func (s *server) route(worker int) (routeView, bool) {
	ws, ok := s.s.WorkerRoute(core.WorkerID(worker))
	if !ok {
		return routeView{}, false
	}
	return viewOf(ws), true
}

// decisionFor returns the retained decision for a request after a recovery.
func (s *server) decisionFor(id int32) (decision, bool) {
	d, ok := s.s.DecisionFor(id)
	if !ok {
		return decision{}, false
	}
	return decision{
		ID: d.ID, Accepted: d.Accepted, Worker: d.Worker, Delta: d.Delta,
		SimTime: d.SimTime, Shed: d.Shed,
	}, true
}

// ---------------------------------------------------------------------------
// offline planning (plan-offline)

// outcome is one planned request's result, comparable bit for bit.
type outcome struct {
	ID        int32
	Served    bool
	Worker    int32
	DeltaBits uint64
}

// planCounters accumulates the planner's introspection record over a run.
type planCounters struct {
	Requests, Candidates, Feasible, Evaluated int64
	PlannedFeasible, Pruned                   int64
	DPCells                                   int64
	RejectNoCandidates, RejectDecisionBound   int64
	RejectInfeasible, RejectPostCheck         int64
}

func (pc *planCounters) PlanStart(float64, *core.Request) {}

func (pc *planCounters) PlanDone(tr *core.PlanTrace) {
	pc.Requests++
	pc.Candidates += int64(tr.Candidates)
	pc.Feasible += int64(tr.Feasible)
	pc.Evaluated += int64(tr.Stats.Evaluated)
	pc.DPCells += tr.Stats.DPCells
	switch tr.Reason {
	case core.ReasonNoCandidates:
		pc.RejectNoCandidates++
		return
	case core.ReasonDecisionBound:
		pc.RejectDecisionBound++
		return
	case core.ReasonNoFeasibleInsertion:
		pc.RejectInfeasible++
	case core.ReasonPostCheck:
		pc.RejectPostCheck++
	}
	// Only requests that reached the planning phase can be pruned by Lemma 8;
	// on the others PlanTrace.Pruned is just "feasible, nothing evaluated".
	pc.PlannedFeasible += int64(tr.Feasible)
	pc.Pruned += int64(tr.Pruned)
}

// missLog sits between the LRU and the raw tier in the traced run and keeps
// the first pairs that missed the cache, so the raw tier can be timed on the
// query stream it actually sees.
type missLog struct {
	inner shortest.Oracle
	pairs [][2]roadnet.VertexID
}

const missLogCap = 1 << 15

func (m *missLog) Dist(s, t roadnet.VertexID) float64 {
	if len(m.pairs) < missLogCap {
		m.pairs = append(m.pairs, [2]roadnet.VertexID{s, t})
	}
	return m.inner.Dist(s, t)
}

// offline is the plan-offline system: a fleet, the pruneGreedyDP planner and
// the simulator, wired the way internal/expt wires them (LRU over the tier,
// bidirectional Dijkstra for leg paths, α = 1).
type offline struct {
	reqs    []*core.Request
	fleet   *core.Fleet
	planner *core.Greedy
	engine  *sim.Engine
	cache   *shortest.Cached
	misses  *missLog // traced run only
	raw     shortest.Oracle

	outcomes []outcome
	penalty  float64 // Σ p_r of rejected requests, in decision order
	served   int

	// untraced: wall clock at each OnRequest return.
	doneAt []time.Time

	// traced
	tr       *tracer
	counters planCounters
	curReq   int32
	curSpan  int32
}

// newOffline clones the instance's fleet (the instance stays reusable) and
// sorts the requests by release, the order sim.Engine plans them in.
func newOffline(c *city, in *instance, o *oracle, tr *tracer) (*offline, error) {
	of := &offline{raw: o.o, tr: tr}
	var inner shortest.Oracle = o.o
	if tr != nil {
		of.misses = &missLog{inner: o.o}
		inner = of.misses
	}
	of.cache = shortest.NewCached(inner, lruEntries)
	workers := make([]*core.Worker, len(in.inst.Workers))
	for i, w := range in.inst.Workers {
		cw := *w
		cw.Route = w.Route.Clone()
		workers[i] = &cw
	}
	fleet, err := core.NewFleet(c.g, of.cache.Dist, workers, gridCellMeters)
	if err != nil {
		return nil, fmt.Errorf("offline fleet: %w", err)
	}
	of.fleet = fleet
	of.planner = core.NewPruneGreedyDP(fleet, 1)
	of.reqs = make([]*core.Request, len(in.inst.Requests))
	for i, r := range in.inst.Requests {
		cr := *r
		of.reqs[i] = &cr
	}
	sortByRelease(of.reqs)
	var pl core.Planner = of.planner
	if tr == nil {
		pl = timingPlanner{of}
	} else {
		of.planner.SetObserver(&of.counters)
		base := fleet.Dist
		fleet.Dist = func(u, v roadnet.VertexID) float64 {
			id := tr.begin(spanDist, of.curSpan, of.curReq)
			d := base(u, v)
			tr.end(id)
			return d
		}
	}
	of.engine = sim.NewEngine(fleet, pl, shortest.NewBiDijkstra(c.g), 1)
	return of, nil
}

// sortByRelease applies sim.Engine.Run's own ordering rule up front, so the
// chunked untraced run and the request-at-a-time traced run see one order.
func sortByRelease(reqs []*core.Request) {
	sort.SliceStable(reqs, func(i, j int) bool { return reqs[i].Release < reqs[j].Release })
}

// timingPlanner is the untraced run's planner: pruneGreedyDP plus a clock
// reading after each decision, so the harness gets a per-request time that
// includes World.AdvanceAll (consecutive returns bracket one whole request).
type timingPlanner struct{ of *offline }

func (tp timingPlanner) Name() string { return tp.of.planner.Name() }

func (tp timingPlanner) OnRequest(now float64, req *core.Request) core.Result {
	res := tp.of.planner.OnRequest(now, req)
	tp.of.record(req, res.Served, res.Worker, res.Delta)
	tp.of.doneAt = append(tp.of.doneAt, time.Now())
	return res
}

func (of *offline) record(req *core.Request, served bool, w core.WorkerID, delta float64) {
	oc := outcome{ID: int32(req.ID), Worker: -1}
	if served {
		oc.Served, oc.Worker, oc.DeltaBits = true, int32(w), math.Float64bits(delta)
		of.served++
	} else {
		of.penalty += req.Penalty
	}
	of.outcomes = append(of.outcomes, oc)
}

// runEngine plans requests [from, to) through sim.Engine.Run (untraced).
func (of *offline) runEngine(from, to int) error {
	_, err := of.engine.Run(of.reqs[from:to])
	return err
}

// planTraced plans request i by driving the decide path through its public
// functions, one span per call into a layer. It must reproduce runEngine's
// decisions exactly: same calls, same order, same oracle chain.
func (of *offline) planTraced(i int) {
	r := of.reqs[i]
	tr := of.tr
	of.curReq = int32(r.ID)
	root := tr.begin(spanRequest, -1, of.curReq)

	of.curSpan = tr.begin(spanAdvance, root, of.curReq)
	of.engine.World().AdvanceAll(r.Release)
	tr.end(of.curSpan)

	of.curSpan = tr.begin(spanPlan, root, of.curReq)
	w, ins, L := of.planner.Plan(r.Release, r)
	tr.end(of.curSpan)

	if w == nil {
		of.record(r, false, 0, 0)
	} else {
		of.curSpan = tr.begin(spanApply, root, of.curReq)
		if err := core.Apply(&w.Route, w.Capacity, r, ins, L, of.fleet.Dist); err != nil {
			panic(err) // a feasible insertion must apply: a bug, not a condition
		}
		of.engine.World().MarkDirty(w.ID)
		tr.end(of.curSpan)
		of.record(r, true, w.ID, ins.Delta)
	}
	tr.end(root)
}

func (of *offline) numRequests() int { return len(of.reqs) }

// unifiedCost is Eq. 1 over the requests planned so far.
func (of *offline) unifiedCost() float64 { return of.fleet.TotalDistance() + of.penalty }

func (of *offline) legsComputed() int { return of.engine.World().LegsComputed() }

func (of *offline) cacheStats() (hits, misses uint64) { return of.cache.Stats() }

// routeView reads one worker's live route the way the server reports it.
func (of *offline) routeView(worker int) routeView {
	return viewOf(core.NewWorkerState(of.fleet.Workers[worker]))
}

// finish checks every live route (pickup before drop-off, capacity, deadlines)
// and then completes them all: Engine.FastForward fails if any drop-off ends
// up late.
func (of *offline) finish() []string {
	var bad []string
	for i := range of.fleet.Workers {
		b, late := checkRoute(i, of.routeView(i))
		bad = append(bad, b...)
		if late > 0 {
			bad = append(bad, fmt.Sprintf("worker %d: %d planned stops past their deadline", i, late))
		}
	}
	if err := of.engine.FastForward(); err != nil {
		bad = append(bad, err.Error())
	}
	return bad
}

// ---------------------------------------------------------------------------
// probes (traced run only): one layer's operation timed in isolation on
// state the run left behind.

// probeCore times Fleet.Candidates, Scratch.Decide and LinearDPInsertion on
// the fleet as the run left it, over the last requests planned.
func (of *offline) probeCore(n int) (candUs, decideUs, dpNsPerCell float64) {
	if n > len(of.outcomes) {
		n = len(of.outcomes)
	}
	if n == 0 {
		return 0, 0, 0
	}
	reqs := of.reqs[len(of.outcomes)-n : len(of.outcomes)]
	dist := of.cache.Dist
	var sc core.Scratch
	var candNs, decideNs, dpNs, cells int64
	for _, r := range reqs {
		L := dist(r.Origin, r.Dest)
		// Plan at the request's own release would find most deadlines already
		// past (the clock moved on); probe at the fleet's current clock with
		// the request's time budget preserved.
		now := of.fleet.Workers[0].Route.Now
		pr := *r
		pr.Deadline = now + (r.Deadline - r.Release)
		pr.Release = now
		t0 := time.Now()
		cands := of.fleet.Candidates(&pr, now, L)
		t1 := time.Now()
		lbs, _ := sc.Decide(1, cands, &pr, of.fleet.Graph, L)
		t2 := time.Now()
		candNs += t1.Sub(t0).Nanoseconds()
		decideNs += t2.Sub(t1).Nanoseconds()
		for k, wb := range lbs {
			if k == 8 {
				break
			}
			w := wb.Worker
			// Warm the cache so the DP is timed, not the oracle.
			core.LinearDPInsertion(&w.Route, w.Capacity, &pr, L, dist)
			t3 := time.Now()
			core.LinearDPInsertion(&w.Route, w.Capacity, &pr, L, dist)
			dpNs += time.Since(t3).Nanoseconds()
			cells += int64(w.Route.Len()) + 1
		}
	}
	if cells > 0 {
		dpNsPerCell = float64(dpNs) / float64(cells)
	}
	return float64(candNs) / float64(n) / 1e3, float64(decideNs) / float64(n) / 1e3, dpNsPerCell
}

// probeColdPoint replays the captured cache-miss stream on the raw tier.
func (of *offline) probeColdPoint() float64 {
	if of.misses == nil || len(of.misses.pairs) == 0 {
		return 0
	}
	start := time.Now()
	for _, p := range of.misses.pairs {
		sinkF += of.raw.Dist(p[0], p[1])
	}
	return float64(time.Since(start).Nanoseconds()) / float64(len(of.misses.pairs)) / 1e3
}

// sinkF keeps probe results alive.
var sinkF float64

// probeMtM fills rows×cols many-to-many tables on the tier, the shape the
// serve tier's batch prefetch builds (request endpoints × route vertices).
// It returns the mean fill time and the per-cell cost; zero when the tier
// has no batched form.
func probeMtM(o *oracle, rows, cols []int64) (tableMs, cellNs float64) {
	mtm := shortest.ManyToManyFor(o.o)
	if mtm == nil || len(rows) == 0 || len(cols) == 0 {
		return 0, 0
	}
	toV := func(in []int64) []roadnet.VertexID {
		out := make([]roadnet.VertexID, len(in))
		for i, v := range in {
			out[i] = roadnet.VertexID(v)
		}
		return out
	}
	r, c := toV(rows), toV(cols)
	arena := shortest.NewTableArena()
	start := time.Now()
	mtm.Table(arena, r, c) // grows the arena; also sizes the probe
	// About 0.3 s of fills, whatever the table size.
	reps := min(max(int(0.3/time.Since(start).Seconds()), 1), 50)
	start = time.Now()
	for i := 0; i < reps; i++ {
		cells := mtm.Table(arena, r, c)
		sinkF += cells[0]
	}
	el := time.Since(start)
	tableMs = float64(el.Nanoseconds()) / float64(reps) / 1e6
	cellNs = float64(el.Nanoseconds()) / float64(reps) / float64(len(r)*len(c))
	return tableMs, cellNs
}

// probeCodec times the two JSON steps on the request path that the server's
// histograms do not cover: body → serve.Request → core.Request, and
// serve.Decision → indented JSON (what writeJSON emits).
func probeCodec(c *city, bodies [][]byte) (decodeUs, encodeUs float64) {
	if len(bodies) == 0 {
		return 0, 0
	}
	start := time.Now()
	for _, b := range bodies {
		var r serve.Request
		if err := json.NewDecoder(bytes.NewReader(b)).Decode(&r); err != nil {
			panic(err)
		}
		if _, err := r.CoreRequest(c.g, 0, 0); err != nil {
			panic(err)
		}
	}
	decodeUs = float64(time.Since(start).Nanoseconds()) / float64(len(bodies)) / 1e3
	d := serve.Decision{ID: 123456, Accepted: true, Worker: 42, Delta: 123.456789,
		PickupETA: 10234.5678, DropoffETA: 10834.9012, SimTime: 10000.123, Batch: 77, WaitMs: 12.3456}
	var buf bytes.Buffer
	start = time.Now()
	for range bodies {
		buf.Reset()
		enc := json.NewEncoder(&buf)
		enc.SetIndent("", "  ")
		if err := enc.Encode(d); err != nil {
			panic(err)
		}
	}
	encodeUs = float64(time.Since(start).Nanoseconds()) / float64(len(bodies)) / 1e3
	return decodeUs, encodeUs
}

// probeWAL times the log primitives in a scratch directory: buffering one
// admission+decision pair, and a group commit of 1 and of 64 pairs.
func probeWAL(dir string) (appendNs, syncMsB1, syncMsB64 float64, err error) {
	lg, err := wal.Create(filepath.Join(dir, wal.SegmentName), 1)
	if err != nil {
		return 0, 0, 0, err
	}
	var scratch []byte
	pair := func() {
		scratch = wal.AppendAdmission(scratch[:0], wal.Admission{ID: 1, Origin: 2, Dest: 3, Release: 4, Deadline: 5, Penalty: 6, Capacity: 1})
		lg.Append(wal.TypeAdmission, scratch)
		scratch = wal.AppendDecision(scratch[:0], wal.Decision{ID: 1, Accepted: true, Worker: 7, Delta: 8, SimTime: 4})
		lg.Append(wal.TypeDecision, scratch)
	}
	group := func(pairs, reps int) (float64, error) {
		samples := make([]float64, reps)
		for i := range samples {
			for k := 0; k < pairs; k++ {
				pair()
			}
			t0 := time.Now()
			if err := lg.Sync(); err != nil {
				return 0, err
			}
			samples[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
		}
		return percentile(samples, 0.5), nil
	}
	const n = 4096
	t0 := time.Now()
	for i := 0; i < n; i++ {
		pair()
	}
	appendNs = float64(time.Since(t0).Nanoseconds()) / (2 * n)
	if err = lg.Sync(); err == nil {
		if syncMsB1, err = group(1, 40); err == nil {
			syncMsB64, err = group(64, 40)
		}
	}
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	return appendNs, syncMsB1, syncMsB64, err
}
