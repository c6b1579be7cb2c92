package main

// The serve-* workloads: an in-process dispatch server under an open-loop
// Poisson schedule, optionally with traffic updates beside the requests and
// one crash + WAL recovery mid-window (serve-churn).

import (
	"fmt"
	"net/http"
	"net/url"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"
)

// walRoot is where WAL directories live: inside the checkout, so fsync hits
// the same filesystem the repository is on and nothing is written outside.
const walRoot = "bench/out/tmp"

type serveEnv struct {
	city   *city
	orc    *oracle
	inst   *instance
	due    []int64
	bodies [][]byte
	walDir string
	opts   serverOpts
	srv    *server
}

func (e *serveEnv) close() {
	if e.srv != nil {
		e.srv.abort()
		e.srv = nil
	}
	os.RemoveAll(e.walDir)
}

// setupServe does everything a cold start does before the first request can
// be sent: city, oracle, fleet and request stream, wire bodies, WAL
// directory, server (which writes its start-up checkpoint).
func setupServe(p params, seed int64, due []int64, traced bool) (*serveEnv, error) {
	e := &serveEnv{}
	var err error
	if e.city, err = generateCity(p.CityScale); err != nil {
		return nil, err
	}
	if e.orc, err = buildOracle(p.Oracle, e.city); err != nil {
		return nil, err
	}
	e.inst, err = buildInstance(instanceParams{
		Requests: len(due), Workers: p.Workers, DeadlineSec: p.DeadlineS, Seed: seed,
	}, e.city, e.orc)
	if err != nil {
		return nil, err
	}
	// BuildOn drops a request whose origin and destination coincide.
	e.due = due[:len(e.inst.reqs)]
	e.bodies = make([][]byte, len(e.due))
	for i, d := range e.inst.reqs {
		e.bodies[i] = renderBody(d, e.due[i], p.ClockX)
	}
	if err := os.MkdirAll(walRoot, 0o755); err != nil {
		return nil, err
	}
	if e.walDir, err = os.MkdirTemp(walRoot, p.Name+"-"); err != nil {
		return nil, err
	}
	e.opts = serverOpts{WALDir: e.walDir, CheckpointBytes: p.WALCheckpoint, MaxQueue: p.MaxQueue}
	if traced {
		// Only so urpsm_plan_seconds fills; the ring itself is not read.
		e.opts.TraceEvents = 4096
	}
	if e.srv, err = startServer(e.city, e.inst, e.orc, e.opts); err != nil {
		os.RemoveAll(e.walDir)
		return nil, err
	}
	return e, nil
}

// serverSnap is one server instance's counters at an instant: its Stats()
// and its /metrics histograms.
type serverSnap struct {
	stats serverStats
	prom  promSnapshot
}

func snapServer(srv *server) serverSnap {
	return serverSnap{stats: srv.stats(), prom: scrapeMetrics(srv.handler())}
}

// snapshot is the process- and server-side state at a window edge.
type snapshot struct {
	at      time.Time
	cpuS    float64
	mem     runtime.MemStats
	srv     serverSnap // traced only
	sampled bool
}

type trafficPost struct {
	enter, exit time.Time
	status      int
	rebuildMs   float64
}

type sample struct {
	offNs    int64
	inflight int64
	cpuS     float64
	pending  int
	speed    float64 // the box's speed (calib.go), read once a second; 0 in between
}

// serveMeasure is one serve run's raw outcome.
type serveMeasure struct {
	p      params
	env    *serveEnv
	lg     *loadgen
	setups []float64

	winFrom, winTo int64 // window edges as schedule offsets (ns)
	a, b           snapshot
	samples        []sample
	posts          []trafficPost

	crashed        bool
	crashAt        time.Time
	recoveredAt    time.Time
	recoveryS      float64
	walRecovered   int
	preCrash       serverSnap // traced only: the old server just before Abort
	postRecover    serverSnap // traced only: the recovered server before its first request
	final          serverStats
	routes         []routeView
	lostDecisions  []string
	wireOverheadUs float64 // traced only
}

var trafficURL = &url.URL{Path: "/v1/traffic"}

// trafficBody is traffic epoch k: one road class re-weighted, rotating over
// classes and factors so consecutive epochs always change some weights.
func trafficBody(k int) []byte {
	classes := []string{"arterial", "collector", "residential", "motorway"}
	factors := []string{"1.6", "1.25", "1"}
	return []byte(`{"updates":[{"factor":` + factors[k%len(factors)] + `,"class":"` + classes[k%len(classes)] + `"}]}`)
}

func runServe(p params, seed int64, seconds float64, traced bool) (*serveMeasure, error) {
	horizon := p.warmup() + time.Duration(seconds*float64(time.Second))
	due := poissonSchedule(seed, p.RateRPS, horizon)
	sm := &serveMeasure{p: p, winFrom: p.warmup().Nanoseconds(), winTo: horizon.Nanoseconds()}
	// The traced run does not report setup_s, so it sets up once.
	ref := newRefKernel()
	for k := 0; k < setupRepeats && (k == 0 || !traced); k++ {
		if sm.env != nil {
			sm.env.close()
			sm.env = nil
		}
		runtime.GC()
		refS, err := ref.timed(func() (err error) {
			sm.env, err = setupServe(p, seed, due, traced)
			return err
		})
		if err != nil {
			return nil, err
		}
		sm.setups = append(sm.setups, refS)
	}
	env := sm.env
	defer env.close()

	g := &gate{h: env.srv.handler()}
	lg := &loadgen{g: g, bodies: env.bodies, recs: make([]sent, len(env.due))}
	for i, d := range env.due {
		lg.recs[i].dueNs = d
	}
	sm.lg = lg
	runtime.GC()
	lg.start = time.Now()
	at := func(offNs int64) time.Time { return lg.start.Add(time.Duration(offNs)) }

	var side sync.WaitGroup
	stop := make(chan struct{})
	sleepUntil := func(t time.Time) bool {
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		timer := time.NewTimer(d)
		defer timer.Stop()
		select {
		case <-timer.C:
			return true
		case <-stop:
			return false
		}
	}

	// Window-edge snapshots.
	take := func(s *snapshot) {
		s.at = time.Now()
		s.cpuS = cpuSeconds()
		runtime.ReadMemStats(&s.mem)
		if traced {
			g.mu.RLock()
			s.srv = snapServer(sm.env.srv)
			g.mu.RUnlock()
		}
		s.sampled = true
	}
	side.Add(1)
	go func() {
		defer side.Done()
		if sleepUntil(at(sm.winFrom)) {
			take(&sm.a)
		}
		if sleepUntil(at(sm.winTo)) {
			take(&sm.b)
		}
	}()

	// Sampler, every 100 ms: in-flight requests as the generator counts them
	// (the backlog) and the process CPU clock (for per-slice CPU); the traced
	// run also reads the server's own pending count. Once a second, in the
	// middle of each slice, it reads the box's speed: 7 ms of the one core.
	side.Add(1)
	go func() {
		defer side.Done()
		for k := int64(1); ; k++ {
			if !sleepUntil(at(k * 100e6)) {
				return
			}
			s := sample{offNs: time.Since(lg.start).Nanoseconds(), inflight: lg.inflight.Load(), cpuS: cpuSeconds()}
			if k%10 == 5 {
				s.speed = ref.speed(refRuns)
			}
			if traced && g.mu.TryRLock() {
				s.pending = sm.env.srv.stats().Pending
				g.mu.RUnlock()
			}
			sm.samples = append(sm.samples, s)
		}
	}()

	if p.TrafficEveryS > 0 {
		side.Add(1)
		go func() {
			defer side.Done()
			every := int64(p.TrafficEveryS * 1e9)
			for k := 1; int64(k)*every < sm.winTo; k++ {
				if !sleepUntil(at(int64(k) * every)) {
					return
				}
				var post trafficPost
				post.enter, post.exit = g.call("POST", trafficURL, trafficBody(k), func(status int, _ []byte) {
					post.status = status
				})
				g.mu.RLock()
				post.rebuildMs = sm.env.srv.stats().LastRebuildMs
				g.mu.RUnlock()
				sm.posts = append(sm.posts, post)
			}
		}()
	}

	var crashErr error
	if p.CrashAtFrac > 0 {
		side.Add(1)
		go func() {
			defer side.Done()
			crashOff := sm.winFrom + int64(p.CrashAtFrac*float64(sm.winTo-sm.winFrom))
			if !sleepUntil(at(crashOff)) {
				return
			}
			// Taking the gate drains every in-flight request (each was acked,
			// so each must survive the crash) and parks the ones coming due.
			g.mu.Lock()
			defer g.mu.Unlock()
			if traced {
				sm.preCrash = snapServer(env.srv)
			}
			sm.crashed, sm.crashAt = true, time.Now()
			env.srv.abort()
			// A crashed process gives its memory back; the harness stands in
			// for that by collecting the dead server before the new one starts.
			env.srv, g.h = nil, nil
			runtime.GC()
			t0 := time.Now()
			srv, err := startServer(env.city, env.inst, env.orc, env.opts)
			sm.recoveryS = time.Since(t0).Seconds()
			if err != nil {
				crashErr = err
				g.h = http.NotFoundHandler()
				return
			}
			env.srv = srv
			g.h = srv.handler()
			sm.walRecovered = srv.stats().WALRecovered
			if traced {
				sm.postRecover = snapServer(srv)
			}
			sm.recoveredAt = time.Now()
		}()
	}

	lg.run()
	close(stop)
	side.Wait()
	if crashErr != nil {
		return nil, fmt.Errorf("recovery after crash: %w", crashErr)
	}
	if !sm.b.sampled {
		// The schedule's last request came due before the window's nominal
		// end and everything was answered; close the window now.
		take(&sm.b)
	}

	sm.final = env.srv.stats()
	for w := 0; w < env.inst.numWorkers(); w++ {
		if rv, ok := env.srv.route(w); ok {
			sm.routes = append(sm.routes, rv)
		}
	}
	if sm.crashed {
		// Every decision acked before the crash must come back identical.
		for i := range lg.recs {
			rec := &lg.recs[i]
			if at(rec.exitNs).After(sm.crashAt) || rec.answer(env.inst.reqs[i].ID) == ansFailed {
				continue
			}
			got, ok := env.srv.decisionFor(rec.dec.ID)
			want := rec.dec
			want.Batch, want.WaitMs = 0, 0
			if !ok || got != want {
				sm.lostDecisions = append(sm.lostDecisions,
					fmt.Sprintf("request %d acked %+v before the crash, recovered as %+v (found=%v)", rec.dec.ID, want, got, ok))
				if len(sm.lostDecisions) >= 5 {
					break
				}
			}
		}
	}
	if traced {
		var err error
		if sm.wireOverheadUs, err = probeWire(env.srv.handler(), runtime.GOMAXPROCS(0), 300*time.Millisecond); err != nil {
			return nil, fmt.Errorf("wire probe: %w", err)
		}
	}
	if err := env.srv.shutdown(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}
	env.srv = nil
	return sm, nil
}

// inWindow reports whether request i was due inside the measurement window.
func (sm *serveMeasure) inWindow(i int) bool {
	d := sm.lg.recs[i].dueNs
	return d >= sm.winFrom && d < sm.winTo
}

// inOutage reports whether request i came due while the server was down or
// within RecoverSkipS after it came back. The latency percentiles leave those
// out: they describe the service while it is up, and the length of the outage
// is the layer metric serve.recovery_s.
func (sm *serveMeasure) inOutage(i int) bool {
	if !sm.crashed {
		return false
	}
	due := sm.lg.start.Add(time.Duration(sm.lg.recs[i].dueNs))
	skip := time.Duration(sm.p.RecoverSkipS * float64(time.Second))
	return !due.Before(sm.crashAt) && due.Before(sm.recoveredAt.Add(skip))
}

// slices cuts the window into whole-second slices (at least one). Rates are
// reported as the median over slices, so a second or two of a noisy
// neighbour on the box does not move them.
func (sm *serveMeasure) slices() (n int, lenNs int64) {
	span := sm.winTo - sm.winFrom
	n = max(int(span/1e9), 1)
	return n, span / int64(n)
}

// sliceSpeeds is the box's speed in each slice of the window, from the
// sampler's once-a-second readings; a slice without a reading (the sampler
// itself was held up) takes the window's median.
func (sm *serveMeasure) sliceSpeeds() []float64 {
	n, lenNs := sm.slices()
	sum, cnt := make([]float64, n), make([]float64, n)
	var all []float64
	for _, s := range sm.samples {
		if s.speed == 0 || s.offNs < sm.winFrom || s.offNs >= sm.winTo {
			continue
		}
		k := min(int((s.offNs-sm.winFrom)/lenNs), n-1)
		sum[k] += s.speed
		cnt[k]++
		all = append(all, s.speed)
	}
	fallback := 1.0
	if len(all) > 0 {
		fallback = percentile(all, 0.5)
	}
	for k := range sum {
		if cnt[k] == 0 {
			sum[k] = fallback
		} else {
			sum[k] /= cnt[k]
		}
	}
	return sum
}

// cpuAt is the process CPU time at schedule offset offNs, from the sampler.
func (sm *serveMeasure) cpuAt(offNs int64) float64 {
	for _, s := range sm.samples {
		if s.offNs >= offNs {
			return s.cpuS
		}
	}
	return sm.b.cpuS
}

// tally is the window's request accounting.
type tally struct {
	offered, accepted, rejected, shed, failed int
	withinSLO                                 int
	acceptedUp, plannedUp                     int         // outside the outage
	latMs                                     []float64   // answered (200 or 429), outside the outage; reference ms on a compute-bound workload
	latSumMs                                  float64     // answered, outage included, as measured
	latPer                                    [][]float64 // latMs by slice
	speeds                                    []float64   // the box's speed per slice
	answered                                  int
	plannedPer, offeredPer                    []float64 // per slice, by due time
	lagMs                                     []float64
	handlerUs, waitMs, overheadUs             []float64
}

func (sm *serveMeasure) tally() tally {
	var t tally
	nSlices, sliceNs := sm.slices()
	t.plannedPer, t.offeredPer = make([]float64, nSlices), make([]float64, nSlices)
	t.speeds = sm.sliceSpeeds()
	t.latPer = make([][]float64, nSlices)
	for i := range sm.lg.recs {
		if !sm.inWindow(i) {
			continue
		}
		rec := &sm.lg.recs[i]
		slice := min(int((rec.dueNs-sm.winFrom)/sliceNs), nSlices-1)
		t.offered++
		t.offeredPer[slice]++
		t.lagMs = append(t.lagMs, float64(rec.firedNs-rec.dueNs)/1e6)
		switch rec.answer(sm.env.inst.reqs[i].ID) {
		case ansAccepted, ansRejected:
			if rec.dec.Accepted {
				t.accepted++
			} else {
				t.rejected++
			}
			t.plannedPer[slice]++
			if rec.latencyMs() <= sloMs {
				t.withinSLO++
			}
			handlerUs := float64(rec.exitNs-rec.enterNs) / 1e3
			t.handlerUs = append(t.handlerUs, handlerUs)
			t.waitMs = append(t.waitMs, rec.dec.WaitMs)
			t.overheadUs = append(t.overheadUs, handlerUs-rec.dec.WaitMs*1e3)
		case ansShed:
			t.shed++
		default:
			t.failed++
			continue
		}
		t.latSumMs += rec.latencyMs()
		t.answered++
		if !sm.inOutage(i) {
			if a := rec.answer(sm.env.inst.reqs[i].ID); a == ansAccepted || a == ansRejected {
				t.plannedUp++
				if a == ansAccepted {
					t.acceptedUp++
				}
			}
			lat := rec.latencyMs()
			if sm.p.ComputeBound {
				lat *= t.speeds[slice]
			}
			t.latMs = append(t.latMs, lat)
			t.latPer[slice] = append(t.latPer[slice], lat)
		}
	}
	return t
}

// sliceP99 is the 99th percentile of each slice that has latencies at all
// (serve-churn's outage empties a few). decision_p99_ms is their median: the
// tail of a typical second. A stall of the box lands in one or two slices and
// moves it as little as it moves the other per-slice medians; a stall of the
// program that recurs every second or so is in every slice.
func (t tally) sliceP99() []float64 {
	var out []float64
	for _, lat := range t.latPer {
		if len(lat) > 0 {
			out = append(out, percentile(lat, 0.99))
		}
	}
	return out
}

// backlogGrowing compares the in-flight count late in the window with its
// first half: an open loop the server keeps up with holds it flat.
func (sm *serveMeasure) backlogGrowing() (growing bool, early, late float64) {
	var e, l []float64
	span := sm.winTo - sm.winFrom
	for _, s := range sm.samples {
		switch {
		case s.offNs >= sm.winFrom && s.offNs < sm.winFrom+span/2:
			e = append(e, float64(s.inflight))
		case s.offNs >= sm.winTo-span/5 && s.offNs < sm.winTo:
			l = append(l, float64(s.inflight))
		}
	}
	early, late = mean(e), mean(l)
	// 100 ms worth of arrivals in flight is one batch window plus a flush:
	// below that the queue is not a backlog whatever the ratio says.
	return late > 3*early && late > sm.p.RateRPS*0.1, early, late
}

func (sm *serveMeasure) windowWall() float64 { return sm.b.at.Sub(sm.a.at).Seconds() }

// fillEndToEnd computes the user-visible metrics of an untraced run.
func (sm *serveMeasure) fillEndToEnd(res *result) {
	t := sm.tally()
	nSlices, sliceNs := sm.slices()
	goodput, cpuMs := make([]float64, nSlices), make([]float64, nSlices)
	for k := range goodput {
		from := sm.winFrom + int64(k)*sliceNs
		goodput[k] = t.plannedPer[k] / (float64(sliceNs) / 1e9)
		if sm.p.ComputeBound {
			goodput[k] /= t.speeds[k]
		}
		cpuMs[k] = ratio((sm.cpuAt(from+sliceNs)-sm.cpuAt(from))*1e3, t.offeredPer[k]) * t.speeds[k]
	}
	m := res.Metrics
	res.Extra["box_speed"] = mean(t.speeds)
	m.set("setup_s", percentile(append([]float64(nil), sm.setups...), 0.5))
	m.set("decision_p50_ms", percentile(t.latMs, 0.50))
	m.set("decision_p99_ms", percentile(t.sliceP99(), 0.5))
	m.set("goodput_rps", percentile(goodput, 0.5))
	m.set("served_rate", ratio(float64(t.acceptedUp), float64(t.plannedUp)))
	m.set("unified_cost", sm.final.UnifiedCost)
	m.set("cpu_ms_per_req", percentile(cpuMs, 0.5))
	m.set("peak_rss_mb", peakRSSMB())
	res.Extra["latency_samples"] = len(t.latMs)
	sm.account(res, t)
}

// account records attempted/failed, the window's outcome counts and the
// run's validity (generator lag, growing backlog).
func (sm *serveMeasure) account(res *result, t tally) {
	res.Attempted = len(sm.lg.recs)
	res.Extra["window"] = map[string]int{
		"offered": t.offered, "accepted": t.accepted, "rejected": t.rejected, "shed": t.shed, "failed": t.failed,
	}
	res.Extra["sim_time_end"] = sm.final.SimTime
	lag := percentile(t.lagMs, 0.99)
	res.Extra["loadgen_lag_p99_ms"] = lag
	if limit := lagLimitMs(sm.p); lag > limit {
		res.invalid(fmt.Sprintf("load generator lag p99 %.1f ms > %v ms: the run is invalid, not slow", lag, limit))
	}
	growing, early, late := sm.backlogGrowing()
	res.Extra["inflight_early_mean"], res.Extra["inflight_late_mean"] = early, late
	if growing && sm.p.MaxQueue == 0 {
		res.invalid(fmt.Sprintf("backlog still growing at the end of the window (in flight %.0f -> %.0f)", early, late))
	}
	if sm.p.TrafficEveryS > 0 {
		res.Extra["traffic_epochs"] = sm.final.TrafficEpoch
	}
	if sm.crashed {
		res.Extra["recoveries"] = 1
		res.Extra["recovery_s"] = sm.recoveryS
		res.Extra["wal_records_recovered"] = sm.walRecovered
	}
	bad, failed := sm.check()
	res.Failed += failed
	res.violate(bad...)
}

// mtmShape is the table the batch prefetch would build for a batch of the
// given size against the fleet as the run left it: rows are every route
// vertex of every worker plus the batch's origins, columns the batch's
// origins and destinations (core.DistTable's registration rule).
func mtmShape(routes []routeView, reqs []demand, batch int) (rows, cols []int64) {
	if batch > len(reqs) {
		batch = len(reqs)
	}
	rowSet, colSet := map[int64]bool{}, map[int64]bool{}
	for _, d := range reqs[len(reqs)-batch:] {
		colSet[d.Origin], colSet[d.Dest], rowSet[d.Origin] = true, true, true
	}
	for _, rv := range routes {
		rowSet[rv.Loc] = true
		for _, st := range rv.Stops {
			rowSet[st.Vertex] = true
		}
	}
	keys := func(m map[int64]bool) []int64 {
		out := make([]int64, 0, len(m))
		for v := range m {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	return keys(rowSet), keys(colSet)
}

// fillPerLayer computes the layer metrics of a traced run; untracedRPS is
// the goodput of the untraced half that ran just before it.
func (sm *serveMeasure) fillPerLayer(res *result, untracedRPS float64) error {
	t := sm.tally()
	wall := sm.windowWall()
	decided := float64(t.accepted + t.rejected)
	m := res.Metrics
	a, b := sm.a, sm.b
	// A server's counters and histograms start from zero when it restarts, so
	// window growth is summed per server instance: up to the crash, and from
	// the recovered server on.
	segments := [][2]serverSnap{{a.srv, b.srv}}
	if sm.crashed {
		segments = [][2]serverSnap{{a.srv, sm.preCrash}, {sm.postRecover, b.srv}}
	}
	delta := func(f func(serverSnap) float64) float64 {
		sum := 0.0
		for _, seg := range segments {
			sum += f(seg[1]) - f(seg[0])
		}
		return sum
	}
	hist := func(name string) (sum, count float64) {
		return delta(func(x serverSnap) float64 { return x.prom.sum[name] }),
			delta(func(x serverSnap) float64 { return x.prom.count[name] })
	}

	m.set("loadgen.lag_p99_ms", percentile(t.lagMs, 0.99))
	m.set("loadgen.offered_rps", float64(t.offered)/(float64(sm.winTo-sm.winFrom)/1e9))
	var infl, pend []float64
	pendEnd := 0.0
	for _, s := range sm.samples {
		if s.offNs >= sm.winFrom && s.offNs < sm.winTo {
			infl = append(infl, float64(s.inflight))
			pend = append(pend, float64(s.pending))
			pendEnd = float64(s.pending)
		}
	}
	m.set("loadgen.inflight_mean", mean(infl))
	m.set("loadgen.box_speed", mean(t.speeds))
	m.set("loadgen.p99_pooled_ms", percentile(t.latMs, 0.99))
	m.set("loadgen.slo_ok_frac", ratio(float64(t.withinSLO), float64(t.offered)))

	m.set("serve.handler_p50_us", percentile(t.handlerUs, 0.5))
	m.set("serve.wait_ms_mean", mean(t.waitMs))
	m.set("serve.handler_overhead_us", mean(t.overheadUs))
	nCodec := min(len(sm.env.bodies), 20000)
	decodeUs, encodeUs := probeCodec(sm.env.city, sm.env.bodies[:nCodec])
	m.set("serve.decode_us", decodeUs)
	m.set("serve.encode_us", encodeUs)
	m.set("serve.allocs_per_req", ratio(float64(b.mem.Mallocs-a.mem.Mallocs), float64(t.offered)))
	m.set("serve.gc_pause_ms_total", float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs)/1e6)

	batches := delta(func(x serverSnap) float64 { return float64(x.stats.Batches) })
	flushSum, flushN := hist("urpsm_batch_flush_seconds")
	ackSum, ackN := hist("urpsm_admit_to_ack_seconds")
	planSum, planN := hist("urpsm_plan_seconds")
	syncSum, syncN := hist("urpsm_wal_sync_seconds")
	prefetches := delta(func(x serverSnap) float64 { return float64(x.stats.TablePrefetches) })
	m.set("serve.batch_mean", ratio(decided, batches))
	m.set("serve.batch_max", float64(b.srv.stats.MaxBatch))
	m.set("serve.flush_ms_mean", ratio(flushSum, flushN)*1e3)
	m.set("serve.flush_busy_frac", flushSum/wall)
	m.set("serve.admit_to_ack_ms_mean", ratio(ackSum, ackN)*1e3)
	m.set("serve.late_admissions", delta(func(x serverSnap) float64 { return float64(x.stats.LateAdmissions) }))
	m.set("serve.shed_frac", ratio(float64(t.shed), float64(t.offered)))
	m.set("serve.pending_mean", mean(pend))
	m.set("serve.pending_end", pendEnd)
	m.set("serve.plan_ms_mean", ratio(planSum, planN)*1e3)
	m.set("serve.plan_busy_frac", planSum/wall)
	hits := delta(func(x serverSnap) float64 { return float64(x.stats.TableHits) })
	misses := delta(func(x serverSnap) float64 { return float64(x.stats.TableMisses) })
	m.set("serve.prefetch_per_batch", ratio(prefetches, batches))
	m.set("serve.table_hit_frac", ratio(hits, hits+misses))
	m.set("serve.dist_queries_per_req", ratio(delta(func(x serverSnap) float64 { return float64(x.stats.DistQueries) }), decided))

	if sm.crashed {
		m.set("serve.recovery_s", sm.recoveryS)
		m.set("serve.recover_records_per_s", ratio(float64(sm.walRecovered), sm.recoveryS))
	}
	var applyMs, rebuildMs []float64
	for _, post := range sm.posts {
		applyMs = append(applyMs, float64(post.exit.Sub(post.enter).Nanoseconds())/1e6)
		rebuildMs = append(rebuildMs, post.rebuildMs)
	}
	m.set("serve.traffic_apply_ms_mean", mean(applyMs))
	m.set("serve.traffic_apply_p50_ms", percentile(applyMs, 0.5))
	m.set("serve.traffic_epochs", float64(sm.final.TrafficEpoch))
	m.set("shortest.customize_ms_mean", mean(rebuildMs))

	walDecisions := decided + float64(t.shed)
	syncCum := make([]float64, len(b.srv.prom.syncCum))
	for i := range syncCum {
		syncCum[i] = delta(func(x serverSnap) float64 { return x.prom.syncCum[i] })
	}
	m.set("wal.sync_ms_p50", medianFromBuckets(b.srv.prom.syncLE, syncCum))
	m.set("wal.sync_busy_frac", syncSum/wall)
	m.set("wal.decisions_per_sync", ratio(walDecisions, syncN))
	m.set("wal.bytes_per_decision", ratio(delta(func(x serverSnap) float64 { return float64(x.stats.WALBytes) }), walDecisions))
	probeDir, err := os.MkdirTemp(walRoot, "walprobe-")
	if err != nil {
		return err
	}
	appendNs, syncB1, syncB64, err := probeWAL(probeDir)
	os.RemoveAll(probeDir)
	if err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	m.set("wal.append_ns_per_record", appendNs)
	m.set("wal.sync_ms.b1", syncB1)
	m.set("wal.sync_ms.b64", syncB64)

	batch := int(ratio(decided, batches) + 0.5)
	rows, cols := mtmShape(sm.routes, sm.env.inst.reqs, max(batch, 1))
	tableMs, cellNs := probeMtM(sm.env.orc, rows, cols)
	cells := float64(len(rows) * len(cols))
	m.set("shortest.mtm_table_ms_mean", tableMs)
	m.set("shortest.mtm_cell_ns", cellNs)
	m.set("shortest.mtm_cells_per_batch", cells)
	m.set("shortest.mtm_cells_read_frac", ratio(ratio(hits, prefetches), cells))
	m.set("shortest.build_s", sm.env.orc.buildS)
	m.set("shortest.mem_mb", sm.env.orc.memMB)
	m.set("roadnet.generate_s", sm.env.city.generateS)
	m.set("workload.build_s", sm.env.inst.buildS)
	m.set("serve.wire_overhead_us", sm.wireOverheadUs)

	// Spans: the handler boundary of every request and traffic update, and
	// the recovery.
	tr := newTracer()
	tr.epoch = sm.lg.start
	for i := range sm.lg.recs {
		rec := &sm.lg.recs[i]
		tr.add(spanHandler, sm.env.inst.reqs[i].ID, sm.lg.start.Add(time.Duration(rec.enterNs)), sm.lg.start.Add(time.Duration(rec.exitNs)))
	}
	for k, post := range sm.posts {
		tr.add(spanTraffic, int32(k+1), post.enter, post.exit)
	}
	if sm.crashed {
		tr.add(spanRecover, 0, sm.crashAt, sm.recoveredAt)
	}
	res.tracer = tr
	m.set("trace.spans", float64(len(tr.spans)))
	m.set("trace.overhead_frac", 1-ratio(decided/(float64(sm.winTo-sm.winFrom)/1e9), untracedRPS))
	// What neither the server's own admit-to-ack histogram nor the codec
	// probes account for, as a share of the mean client latency.
	clientMs := ratio(t.latSumMs, float64(t.answered))
	m.set("trace.unexplained_frac", ratio(clientMs-ratio(ackSum, ackN)*1e3-(decodeUs+encodeUs)/1e3, clientMs))
	sm.account(res, t)
	return nil
}
