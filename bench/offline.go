package main

// plan-offline: the paper's own experiment. Untraced it runs the request
// stream through sim.Engine.Run in small chunks for the measurement window;
// traced it plans the same stream twice inside one process — once through
// the engine, once by driving the decide path call by call with a span
// around each — and requires the two to agree bit for bit.

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"runtime/debug"
	"time"
)

// engineChunk is how many requests one Engine.Run call plans: small enough
// that the window ends within ~0.2 s of its deadline, large enough that the
// engine's per-call metrics pass is noise.
const engineChunk = 32

type offlineEnv struct {
	city *city
	orc  *oracle
	inst *instance
}

func setupOffline(p params, seed int64) (*offlineEnv, error) {
	c, err := generateCity(p.CityScale)
	if err != nil {
		return nil, err
	}
	o, err := buildOracle(p.Oracle, c)
	if err != nil {
		return nil, err
	}
	in, err := buildInstance(instanceParams{
		Requests: p.Requests, Workers: p.Workers, DeadlineSec: p.DeadlineS,
		ArrivalsPerSec: p.DensityPerSec, Seed: seed,
	}, c, o)
	if err != nil {
		return nil, err
	}
	return &offlineEnv{city: c, orc: o, inst: in}, nil
}

// engineRun is one pass of the request stream through sim.Engine: warm-up,
// then the timed window [windowFrom, windowTo), then — outside the timing —
// on to the cost prefix if the window ended short of it, so unified_cost is
// taken at the same request on a slow machine as on a fast one.
type engineRun struct {
	of          *offline
	windowFrom  int
	windowTo    int
	chunks      []chunk // the window's Engine.Run calls
	prefixCost  float64
	prefixServe int
}

// chunk is one Engine.Run call of the window: the requests it planned, the
// wall and CPU time it took, and the box's speed while it ran (the reference
// kernel just before and just after it, calib.go).
type chunk struct {
	from, to    int
	start       time.Time
	wallS, cpuS float64
	speed       float64
}

func runEngineWindow(p params, env *offlineEnv, seconds float64) (*engineRun, error) {
	of, err := newOffline(env.city, env.inst, env.orc, nil)
	if err != nil {
		return nil, err
	}
	n := of.numRequests()
	warm := min(p.WarmupReqs, n)
	prefix := min(max(p.CostPrefix, warm), n)
	er := &engineRun{of: of, windowFrom: warm}
	step := func(from, to int) error {
		// Never step across the cost prefix: the cost is read exactly there.
		if from < prefix && to > prefix {
			to = prefix
		}
		if err := of.runEngine(from, to); err != nil {
			return err
		}
		if to == prefix {
			er.prefixCost, er.prefixServe = of.unifiedCost(), of.served
		}
		return nil
	}
	at := 0
	for at < warm {
		to := min(at+engineChunk, warm)
		if err := step(at, to); err != nil {
			return nil, err
		}
		at = len(of.outcomes)
	}
	runtime.GC()
	ref := newRefKernel()
	before := ref.speed(refRuns)
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for at < n && time.Now().Before(deadline) {
		t0, cpu0 := time.Now(), cpuSeconds()
		if err := step(at, min(at+engineChunk, n)); err != nil {
			return nil, err
		}
		c := chunk{from: at, to: len(of.outcomes), start: t0, wallS: time.Since(t0).Seconds(), cpuS: cpuSeconds() - cpu0}
		after := ref.speed(refRuns)
		c.speed = (before + after) / 2
		er.chunks = append(er.chunks, c)
		before, at = after, c.to
	}
	er.windowTo = at
	for at < prefix {
		if err := step(at, min(at+engineChunk, prefix)); err != nil {
			return nil, err
		}
		at = len(of.outcomes)
	}
	return er, nil
}

// perRequestMs are the window's per-request times in reference milliseconds:
// consecutive OnRequest returns bracket one AdvanceAll + OnRequest.
func (er *engineRun) perRequestMs() []float64 {
	out := make([]float64, 0, er.windowTo-er.windowFrom)
	for _, c := range er.chunks {
		prev := c.start
		for i := c.from; i < c.to; i++ {
			out = append(out, float64(er.of.doneAt[i].Sub(prev).Nanoseconds())/1e6*c.speed)
			prev = er.of.doneAt[i]
		}
	}
	return out
}

// totals sums the window's chunks: wall seconds as measured, wall and CPU
// seconds in reference time, and the box's speed over the window.
func (er *engineRun) totals() (wallS, refWallS, refCPUS, speed float64) {
	for _, c := range er.chunks {
		wallS += c.wallS
		refWallS += c.wallS * c.speed
		refCPUS += c.cpuS * c.speed
	}
	return wallS, refWallS, refCPUS, ratio(refWallS, wallS)
}

// digest fingerprints a decision sequence: id, worker and the bits of delta.
func digest(ocs []outcome) string {
	h := fnv.New64a()
	var b [17]byte
	for _, oc := range ocs {
		binary.LittleEndian.PutUint32(b[0:], uint32(oc.ID))
		binary.LittleEndian.PutUint32(b[4:], uint32(oc.Worker))
		binary.LittleEndian.PutUint64(b[8:], oc.DeltaBits)
		b[16] = 0
		if oc.Served {
			b[16] = 1
		}
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func runPlanOffline(p params, seed int64, seconds float64, traced bool, res *result) error {
	// The traced run does not report setup_s, so it sets up once.
	var env *offlineEnv
	var setups []float64
	ref := newRefKernel()
	for k := 0; k < setupRepeats && (k == 0 || !traced); k++ {
		// Drop the previous set-up and hand its pages back before building
		// the next, so peak_rss_mb is the largest single phase and not
		// whatever the collector happened to leave between them.
		env = nil
		debug.FreeOSMemory()
		refS, err := ref.timed(func() (err error) {
			env, err = setupOffline(p, seed)
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, refS)
	}
	if traced {
		return tracedPlanOffline(p, env, seconds, res)
	}

	er, err := runEngineWindow(p, env, seconds)
	if err != nil {
		return err
	}
	of := er.of
	planned := er.windowTo - er.windowFrom
	if planned == 0 {
		return fmt.Errorf("plan-offline: no request planned inside the window")
	}
	ms := er.perRequestMs()
	_, refWallS, refCPUS, speed := er.totals()
	res.Attempted = len(of.outcomes)
	res.violate(of.finish()...)
	prefix := min(max(p.CostPrefix, p.WarmupReqs), of.numRequests())

	m := res.Metrics
	m.set("setup_s", percentile(setups, 0.5))
	m.set("decision_p50_ms", percentile(ms, 0.50))
	m.set("decision_p99_ms", percentile(ms, 0.99))
	m.set("goodput_rps", ratio(float64(planned), refWallS))
	m.set("served_rate", ratio(float64(er.prefixServe), float64(prefix)))
	m.set("unified_cost", er.prefixCost)
	m.set("cpu_ms_per_req", ratio(refCPUS*1e3, float64(planned)))
	m.set("peak_rss_mb", peakRSSMB())
	res.Extra["planned_in_window"] = planned
	res.Extra["latency_samples"] = len(ms)
	res.Extra["box_speed"] = speed
	res.Extra["decision_digest"] = digest(of.outcomes[:prefix])
	res.Extra["cost_prefix"] = prefix
	return nil
}

// tracedPlanOffline measures the engine for half the window, then plans the
// same requests again call by call under the tracer.
func tracedPlanOffline(p params, env *offlineEnv, seconds float64, res *result) error {
	er, err := runEngineWindow(p, env, seconds/2)
	if err != nil {
		return err
	}
	ref := er.of.outcomes[:er.windowTo]
	wallS, _, _, speed := er.totals()
	untracedRPS := ratio(float64(er.windowTo-er.windowFrom), wallS)

	tr := newTracer()
	of, err := newOffline(env.city, env.inst, env.orc, tr)
	if err != nil {
		return err
	}
	for i := 0; i < er.windowFrom; i++ {
		of.planTraced(i)
	}
	// Warm-up spans and counts are discarded, like warm-up timings.
	tr.spans = tr.spans[:0]
	of.counters = planCounters{}
	hits0, misses0 := of.cacheStats()
	legs0 := of.legsComputed()
	runtime.GC()
	start := time.Now()
	for i := er.windowFrom; i < er.windowTo; i++ {
		of.planTraced(i)
	}
	tracedWall := time.Since(start).Seconds()
	hits1, misses1 := of.cacheStats()
	legs1 := of.legsComputed()

	for i, oc := range of.outcomes {
		if oc != ref[i] {
			res.violate(fmt.Sprintf("traced decision %d differs from the engine's: %+v vs %+v", i, oc, ref[i]))
			break
		}
	}
	res.Attempted = len(of.outcomes)

	lt := tr.rollup()
	reqs := float64(lt.count[spanRequest])
	reqNs := float64(lt.total[spanRequest])
	pc := of.counters
	candUs, decideUs, dpNs := of.probeCore(256)
	routes := make([]routeView, 0, env.inst.numWorkers())
	for w := 0; w < env.inst.numWorkers(); w++ {
		routes = append(routes, of.routeView(w))
	}
	rows, cols := mtmShape(routes, env.inst.reqs, 64)
	tableMs, cellNs := probeMtM(env.orc, rows, cols)
	res.violate(of.finish()...)

	m := res.Metrics
	m.set("core.plan_us_mean", ratio(float64(lt.self[spanPlan]), reqs)/1e3)
	m.set("core.apply_us_mean", ratio(float64(lt.self[spanApply]), float64(lt.count[spanApply]))/1e3)
	m.set("core.decide_us_mean", decideUs)
	m.set("core.lineardp_ns_per_cell", dpNs)
	m.set("core.candidates_per_req", ratio(float64(pc.Candidates), float64(pc.Requests)))
	m.set("core.feasible_per_req", ratio(float64(pc.Feasible), float64(pc.Requests)))
	m.set("core.evaluated_per_req", ratio(float64(pc.Evaluated), float64(pc.Requests)))
	m.set("core.pruned_frac", ratio(float64(pc.Pruned), float64(pc.PlannedFeasible)))
	m.set("core.dp_cells_per_req", ratio(float64(pc.DPCells), float64(pc.Requests)))
	m.set("core.reject_no_candidates_frac", ratio(float64(pc.RejectNoCandidates), float64(pc.Requests)))
	m.set("core.reject_decision_bound_frac", ratio(float64(pc.RejectDecisionBound), float64(pc.Requests)))
	m.set("core.reject_infeasible_frac", ratio(float64(pc.RejectInfeasible), float64(pc.Requests)))
	m.set("core.reject_postcheck_frac", ratio(float64(pc.RejectPostCheck), float64(pc.Requests)))
	m.set("spatial.candidates_us_mean", candUs)
	m.set("shortest.build_s", env.orc.buildS)
	m.set("shortest.mem_mb", env.orc.memMB)
	m.set("shortest.dist_calls_per_req", ratio(float64(lt.count[spanDist]), reqs))
	m.set("shortest.dist_us_mean", ratio(float64(lt.total[spanDist]), float64(lt.count[spanDist]))/1e3)
	m.set("shortest.dist_time_frac", ratio(float64(lt.total[spanDist]), reqNs))
	m.set("shortest.cache_hit_frac", ratio(float64(hits1-hits0), float64(hits1-hits0+misses1-misses0)))
	m.set("shortest.point_us_cold", of.probeColdPoint())
	m.set("shortest.mtm_table_ms_mean", tableMs)
	m.set("shortest.mtm_cell_ns", cellNs)
	m.set("shortest.mtm_cells_per_batch", float64(len(rows)*len(cols)))
	m.set("sim.advance_us_mean", ratio(float64(lt.total[spanAdvance]), reqs)/1e3)
	m.set("sim.advance_time_frac", ratio(float64(lt.total[spanAdvance]), reqNs))
	m.set("sim.legs_computed_per_req", ratio(float64(legs1-legs0), reqs))
	m.set("roadnet.generate_s", env.city.generateS)
	m.set("workload.build_s", env.inst.buildS)
	m.set("loadgen.box_speed", speed)
	m.set("trace.spans", float64(len(tr.spans)))
	m.set("trace.overhead_frac", 1-ratio(reqs/tracedWall, untracedRPS))
	m.set("trace.unexplained_frac", ratio(float64(lt.self[spanRequest]), reqNs))
	res.Extra["planned_in_window"] = int(reqs)
	res.tracer = tr
	return nil
}
