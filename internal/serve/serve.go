// Package serve is the online dispatch service: a long-running wrapper
// around the planner/oracle/fleet stack that accepts URPSM requests over
// HTTP, admits them by group commit, and plans them with the
// exact same code path as the offline simulator.
//
// # Architecture
//
// The server owns the live platform state — a core.Fleet, a sim.World
// (the advance/commit state machine shared with sim.Engine) and the
// pruneGreedyDP planner (core.Greedy). All mutation happens on one
// event-loop goroutine: HTTP handlers only enqueue pending requests and
// wait for their decision, so the planner never observes a half-advanced
// world.
//
// Admission is group commit: whenever the event loop is free it takes
// everything pending as one group, plans it in (release, arrival-sequence)
// order — the same order sim.Engine's stable sort produces, advancing the
// world to each request's release before planning it — appends the
// group's WAL records, syncs once and acknowledges. Nothing waits for
// company: at low load a group is one request, and whatever arrives
// during a flush forms the next group, so groups grow with load by
// themselves. Grouping is purely an admission mechanism: it never changes
// an individual decision.
//
// # Replay equivalence
//
// Because the server drives the same World, the same planner and the same
// distance oracle as the offline engine, a stream of requests delivered in
// release order produces bit-identical accept/reject decisions, worker
// assignments and Δ* values to sim.Engine.Run over the same instance.
// OfflineDecisions computes the reference side; cmd/urpsm-replay's
// -lockstep mode checks the equivalence over a live server. Out-of-order
// arrivals (a request released before the event clock already advanced
// past) are still admitted — planned at the current clock — but counted
// as late admissions, since they are exactly the cases where equivalence
// with an offline run can no longer be promised. See DESIGN.md §9.
package serve

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/wal"
	"repro/internal/workload"
)

// Config parameterizes a Server.
type Config struct {
	// Graph is the road network requests reference by vertex ID.
	Graph *roadnet.Graph
	// Workers is the initial fleet; the server operates on a private deep
	// copy. Ignored when Snapshot is set.
	Workers []*core.Worker
	// Snapshot, when non-nil, warm-starts the server from a saved state
	// (fleet routes mid-flight, counters, event clock) instead of Workers.
	Snapshot *Snapshot
	// Oracle is the base distance oracle (see cliutil.BuildOracle); the
	// server wraps it in the same cache/counter chain the experiment
	// harness uses. OracleKind names its tier (hub, cch or bidijkstra):
	// /v1/stats reports it, and every traffic epoch rebuilds that tier.
	Oracle     shortest.Oracle
	OracleKind string
	// Alpha is the unified-cost weight α; 0 means 1.
	Alpha float64
	// CellMeters is the spatial-grid cell size; 0 means 2000.
	CellMeters float64
	// MaxQueue caps the admission queue: a submission that would leave
	// more than MaxQueue requests pending instead sheds the least
	// valuable request in sight — the newcomer included — chosen by the
	// Eq. 2 marginal-value order (deadline-infeasible first, then lowest
	// rejection penalty p_r, then latest release, then highest ID). The
	// victim's 429 verdict is delivered with its flush's commit group, so
	// the WAL sync-before-ack invariant holds for sheds too. 0 means
	// unbounded (the pre-overload-contract behavior). See DESIGN.md §15.
	MaxQueue int
	// DegradeTarget arms the graceful-degradation ladder: when the p95
	// per-request plan time of a flushed group exceeds this target for
	// DegradeWindow consecutive groups the server degrades to stage 1,
	// which tightens the shed cap, and recovers after DegradeWindow
	// consecutive groups under half the target. 0 disables the ladder.
	// See DESIGN.md §15.3.
	DegradeTarget time.Duration
	// DegradeWindow is the consecutive-group hysteresis window of the
	// ladder; 0 means DefaultDegradeWindow.
	DegradeWindow int
	// WALDir enables the write-ahead log: every externally visible event
	// (admission batches, decisions, traffic updates, checkpoints) is
	// appended to WALDir/wal.log and fsynced once per commit group
	// before any decision is acknowledged. On startup the server recovers
	// from WALDir/checkpoint.json plus the log tail, replayed through the
	// same event-loop code path as live traffic, then checkpoints and
	// truncates the log — so after NewServer returns, the state is durably
	// snapshotted and the segment is empty. Mutually exclusive with
	// Snapshot (the checkpoint IS the snapshot). See DESIGN.md §13.
	WALDir string
	// CheckpointBytes auto-checkpoints (snapshot + log truncation) after
	// a flush leaves the segment at least this large; 0 means
	// DefaultCheckpointBytes, negative disables auto-checkpointing.
	CheckpointBytes int64
	// NoBatchPrefetch disables the batched distance-table prefetch: by
	// default, on the tier with a table filler (hub), flush builds one
	// dense many-to-many table per admission batch (request endpoints ×
	// candidate route vertices, one shortest.ManyToMany sweep) and plans
	// the batch against it, collapsing per-batch dist_queries from
	// O(workers × requests × stops) point queries to table lookups. Cells
	// are bit-identical to the point queries they replace and uncovered
	// pairs fall back to the point chain, so decisions are identical either
	// way (DESIGN.md §16); the knob is for A/B measurement. cch and
	// bidijkstra have no table: a cch query already reads cached labels.
	NoBatchPrefetch bool
	// TraceEvents enables the flight recorder (internal/trace): the ring
	// retains that many most-recent lifecycle events, the planner gets a
	// PlanObserver, and GET /debug/trace plus
	// GET /v1/decisions/{id}/explain serve the contents. 0 disables
	// tracing entirely — the plan path then runs with a nil observer
	// (zero overhead) and the urpsm_plan_seconds histogram stays empty;
	// the other latency histograms are always live. Tracing on or off
	// never changes a decision (DESIGN.md §14); the daemon default is
	// DefaultTraceEvents.
	TraceEvents int
	// Logger receives the server's structured logs; nil discards them.
	// cmd/urpsm-serve wires it to a slog handler behind -log-level.
	Logger *slog.Logger
	// Version labels the urpsm_build_info metric; empty means "dev".
	Version string
}

// DefaultTraceEvents is the flight-recorder capacity cmd/urpsm-serve
// uses unless -trace-events overrides it (~300 bytes per slot).
const DefaultTraceEvents = 4096

// DefaultCheckpointBytes is the default WAL auto-checkpoint threshold.
const DefaultCheckpointBytes = 8 << 20

// DefaultDegradeWindow is the default ladder hysteresis: stage changes
// need this many consecutive breaching (or recovered) groups.
const DefaultDegradeWindow = 4

// retryAfterMs is the backoff hint attached to every shed verdict. It is
// a constant so recovery reconstructs the hint from a shed record, and it
// is 20 ms because logs written with the old default 20 ms admission
// window must replay to the verdicts their clients already saw.
const retryAfterMs = 20

// degradedQueueCap is the shed cap ladder stage 1 imposes when admission
// is unbounded (MaxQueue 0) and there is no configured cap to halve.
const degradedQueueCap = 32

// pending is one enqueued request waiting for its group.
type pending struct {
	req *core.Request
	seq int64 // admission sequence, tie-break for equal releases
	// defRel marks a request whose body omitted release: it means "now",
	// resolved against the event clock at flush time — resolving at
	// admission would spuriously count the clock's in-between progress as
	// a late admission.
	defRel bool
	enq    time.Time
	done   chan Decision
}

// Server is the online dispatch service. Create with NewServer, expose
// with Handler, stop with Shutdown.
type Server struct {
	cfg   Config
	alpha float64

	fleet   *core.Fleet
	planner *core.Greedy
	world   *sim.World
	queries *shortest.Counting
	// versioned is the epoch-aware oracle front the whole query chain
	// runs through; traffic coordinates epoch advances across it, the
	// fleet and the world. Both are mutated only under smu.
	versioned *shortest.Versioned
	traffic   *sim.Traffic

	// Batch-prefetch state (nil table = prefetch disabled). distChain is
	// the point-query chain fleet.Dist normally runs through; flush swaps
	// table.Dist in front of it for the duration of one batch and restores
	// it before releasing smu, so nothing outside a flush can observe the
	// table. All under smu.
	table           *core.DistTable
	tarena          *shortest.TableArena
	distChain       core.DistFunc
	prefCands       []*core.Worker
	tablePrefetches int

	// qmu guards the admission queue (and the ID counter, so the POST
	// path never waits on planning); smu guards platform state and
	// decision counters. flush holds smu for a whole group, from before
	// it swaps the queue until the group is acknowledged, so reads
	// (stats, routes, snapshots) see group-atomic state, and whoever holds
	// smu decides what the next group is. The only permitted nesting is
	// qmu briefly inside smu (flush swaps the queue, snapshotLocked reads
	// nextID); the reverse never occurs, so the order is deadlock-free.
	qmu      sync.Mutex
	pending  []*pending
	seq      int64
	nextID   int32
	draining bool
	// shedQ holds overload victims awaiting their 429 verdict; they are
	// drained with the next flush so the verdict is WAL-logged and synced
	// before any client observes it. submitted counts every request that
	// entered the admission pipeline (decided + shed + still pending).
	shedQ     []*pending
	submitted int
	// spare and spareShed are the previous group's drained queues, handed
	// back to the admission path by the next swap, so a group costs no
	// allocation. Touched only by flush (under smu).
	spare, spareShed []*pending

	// Effective admission limits, read lock-free by the submit path and
	// rewritten (under smu) by the degradation ladder: effQueue is the
	// pending-queue cap (0 = unbounded), degradeStage the ladder stage
	// 0–1.
	effQueue     atomic.Int64
	degradeStage atomic.Int32

	smu sync.Mutex
	// trafficHistory records every applied update batch in order; it is
	// part of the snapshot so a warm restart reconstructs the weights
	// (the overlay itself is derived state). len(trafficHistory) == epoch.
	trafficHistory [][]roadnet.TrafficUpdate
	simTime        float64
	// simTimeBits mirrors simTime (float64 bits) for lock-free reads on
	// the admission path; written only under smu (flush and ApplyTraffic).
	simTimeBits    atomic.Uint64
	accepted       int
	rejected       int
	penaltySum     float64
	batches        int
	maxBatch       int
	lateAdmissions int
	latency        *latencyRing
	// Overload counters (smu): shed counts overload rejections — they
	// are bumped at flush time, alongside their WAL records, so recovery
	// reconstructs them exactly. The degrade* fields are the ladder's
	// hysteresis state and lifetime transition count.
	shed               int
	degradeTransitions int
	degradeBreach      int
	degradeOK          int
	planScratch        []float64
	shedScratch        []Decision

	// WAL state (all under smu; nil wal means logging is disabled). The
	// decided window carries every decision since the last checkpoint plus
	// the final commit group before it, so a client whose ack was lost to a
	// crash can resolve the ambiguity via GET /v1/decisions/{id}.
	wal            *wal.Log
	decided        map[int32]Decision
	lastGroup      []int32
	walRecovered   int
	walTornBytes   int
	walCheckpoints uint64
	walScratch     []byte
	flushScratch   []Decision

	// Observability plane. rec is the flight recorder (nil = tracing
	// disabled); the histograms are always live — observing them is a few
	// atomics, cannot affect a decision, and keeps the /metrics series
	// present either way. log is never nil (discard handler by default).
	rec         *trace.Recorder
	log         *slog.Logger
	histPlan    *trace.Histogram
	histFlush   *trace.Histogram
	histWALSync *trace.Histogram
	histAck     *trace.Histogram

	wakeC     chan struct{}
	stopC     chan struct{}
	doneC     chan struct{}
	killC     chan struct{}
	abortOnce sync.Once
}

// NewServer builds the fleet, planner and world and starts the event
// loop. The caller's workers are deep-copied, so the same instance can
// also feed an offline reference run.
func NewServer(cfg Config) (*Server, error) {
	if cfg.Graph == nil {
		return nil, fmt.Errorf("serve: nil graph")
	}
	if cfg.Oracle == nil {
		return nil, fmt.Errorf("serve: nil oracle")
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 1
	}
	if cfg.CellMeters == 0 {
		cfg.CellMeters = 2000
	}
	if cfg.CheckpointBytes == 0 {
		cfg.CheckpointBytes = DefaultCheckpointBytes
	}
	if cfg.MaxQueue < 0 {
		return nil, fmt.Errorf("serve: negative MaxQueue %d", cfg.MaxQueue)
	}
	if cfg.DegradeWindow <= 0 {
		cfg.DegradeWindow = DefaultDegradeWindow
	}

	// WAL recovery, phase 1: the checkpoint becomes the warm-start
	// snapshot and the segment tail is decoded (torn bytes discarded at
	// the last complete record); the tail is replayed in phase 2, after
	// the platform state exists to replay it against.
	var walRecs []wal.Record
	var walNext uint64
	var walTorn int
	if cfg.WALDir != "" {
		if cfg.Snapshot != nil {
			return nil, fmt.Errorf("serve: WALDir and Snapshot are mutually exclusive (the WAL checkpoint is the snapshot)")
		}
		sn, recs, next, torn, err := loadWALDir(cfg.WALDir)
		if err != nil {
			return nil, err
		}
		cfg.Snapshot, walRecs, walNext, walTorn = sn, recs, next, torn
	}

	var workers []*core.Worker
	if cfg.Snapshot != nil {
		ws, err := cfg.Snapshot.Restore(cfg.Graph.NumVertices())
		if err != nil {
			return nil, fmt.Errorf("serve: snapshot: %w", err)
		}
		workers = ws
	} else {
		workers = cloneWorkers(cfg.Workers)
	}

	// The weight overlay is derived state: a snapshot carries the applied
	// update history, and replaying it reconstructs the exact multipliers
	// and epoch the previous run served under.
	overlay := roadnet.NewOverlay(cfg.Graph)
	var history [][]roadnet.TrafficUpdate
	if cfg.Snapshot != nil {
		for i, batch := range cfg.Snapshot.Traffic {
			if _, _, _, err := overlay.Apply(batch); err != nil {
				return nil, fmt.Errorf("serve: snapshot traffic batch %d: %w", i, err)
			}
		}
		if overlay.Epoch() != cfg.Snapshot.Epoch {
			return nil, fmt.Errorf("serve: snapshot epoch %d != %d replayed traffic batches",
				cfg.Snapshot.Epoch, overlay.Epoch())
		}
		for _, batch := range cfg.Snapshot.Traffic {
			history = append(history, append([]roadnet.TrafficUpdate(nil), batch...))
		}
	}

	// The front rebuilds this kind on every traffic epoch, so it must name
	// a tier shortest.Build knows.
	switch shortest.AutoKind(cfg.OracleKind) {
	case shortest.AutoHub, shortest.AutoCCH, shortest.AutoBiDijkstra:
	default:
		return nil, fmt.Errorf("serve: OracleKind %q names no oracle tier (hub, cch or bidijkstra)", cfg.OracleKind)
	}
	versioned := shortest.AdoptVersioned(cfg.Graph, cfg.Oracle, shortest.AutoKind(cfg.OracleKind))
	if overlay.Epoch() > 0 {
		// The adopted tier was built on the base weights; move the front to
		// the restored epoch.
		versioned.Advance(overlay.Graph(), overlay.Epoch())
	}
	dist, queries := queryChain(versioned)
	fleet, err := core.NewFleet(overlay.Graph(), dist, workers, cfg.CellMeters)
	if err != nil {
		return nil, err
	}

	logger := cfg.Logger
	if logger == nil {
		logger = slog.New(slog.DiscardHandler)
	}

	world := sim.NewWorld(fleet, shortest.NewBiDijkstra(overlay.Graph()))
	s := &Server{
		cfg:            cfg,
		alpha:          cfg.Alpha,
		fleet:          fleet,
		planner:        core.NewPruneGreedyDP(fleet, cfg.Alpha),
		world:          world,
		queries:        queries,
		versioned:      versioned,
		traffic:        sim.NewTraffic(overlay, versioned, fleet, world),
		trafficHistory: history,
		latency:        newLatencyRing(8192),
		log:            logger,
		histPlan:       trace.NewHistogram(trace.LatencyBuckets()),
		histFlush:      trace.NewHistogram(trace.LatencyBuckets()),
		histWALSync:    trace.NewHistogram(trace.LatencyBuckets()),
		histAck:        trace.NewHistogram(trace.LatencyBuckets()),
		wakeC:          make(chan struct{}, 1),
		stopC:          make(chan struct{}),
		doneC:          make(chan struct{}),
		killC:          make(chan struct{}),
	}
	s.effQueue.Store(int64(cfg.MaxQueue))
	if !cfg.NoBatchPrefetch {
		s.table = core.NewDistTable(cfg.Graph.NumVertices(), dist)
		s.tarena = shortest.NewTableArena()
		s.distChain = dist
	}
	if cfg.TraceEvents > 0 {
		// Attach the recorder before WAL replay so crash recovery shows up
		// in the timeline like any other traffic.
		s.rec = trace.New(cfg.TraceEvents)
		s.rec.PlanSeconds = s.histPlan
		s.planner.SetObserver(s.rec)
	}
	if cfg.Snapshot != nil {
		s.simTime = cfg.Snapshot.SimTime
		s.nextID = cfg.Snapshot.NextID
		s.accepted = cfg.Snapshot.Accepted
		s.rejected = cfg.Snapshot.Rejected
		s.penaltySum = cfg.Snapshot.PenaltySum
		s.batches = cfg.Snapshot.Batches
		s.maxBatch = cfg.Snapshot.MaxBatch
		s.lateAdmissions = cfg.Snapshot.LateAdmissions
		s.shed = cfg.Snapshot.Shed
		s.submitted = cfg.Snapshot.Submitted
		s.world.RestoreStats(cfg.Snapshot.Completions, cfg.Snapshot.LateArrivals)
		s.traffic.RestoreStats(len(cfg.Snapshot.Traffic), cfg.Snapshot.InfeasibleStops)
	}
	s.simTimeBits.Store(math.Float64bits(s.simTime))
	if cfg.WALDir != "" {
		// WAL recovery, phase 2: seed the decided window from the
		// checkpoint, replay the log tail through the same decide path live
		// traffic uses, then checkpoint and truncate — NewServer returns
		// with the state durably snapshotted and the log empty.
		s.decided = make(map[int32]Decision)
		var after uint64
		if cfg.Snapshot != nil {
			after = cfg.Snapshot.WALSeq
			for _, d := range cfg.Snapshot.LastDecisions {
				s.decided[d.ID] = d
				s.lastGroup = append(s.lastGroup, d.ID)
			}
		}
		if err := s.replayWAL(walRecs, after); err != nil {
			return nil, fmt.Errorf("serve: wal replay: %w", err)
		}
		s.walTornBytes = walTorn
		if err := s.startWAL(walNext); err != nil {
			return nil, fmt.Errorf("serve: wal start: %w", err)
		}
	}
	go s.run()
	return s, nil
}

// queryChain assembles the distance-query chain over the epoch-aware
// oracle front, mirroring the experiment Runner: the paper's
// single-threaded cache+counter. Versioned handles tier locking itself,
// and the cache watches its epoch, flushing on a traffic update.
func queryChain(v *shortest.Versioned) (core.DistFunc, *shortest.Counting) {
	c := shortest.NewCounting(v)
	return shortest.NewCached(c, 1<<18).Dist, c
}

// cloneWorkers deep-copies a fleet so the server owns its state.
func cloneWorkers(workers []*core.Worker) []*core.Worker {
	out := make([]*core.Worker, len(workers))
	for i, w := range workers {
		cw := *w
		cw.Route = w.Route.Clone()
		out[i] = &cw
	}
	return out
}

// Planner reports the planning algorithm's name.
func (s *Server) Planner() string { return s.planner.Name() }

// submit enqueues a validated request and returns the channel its
// decision will arrive on. defaultRelease marks a request whose release
// was defaulted to "now" and is re-resolved at flush time. When the
// queue is at its cap, the least valuable request in sight — the
// newcomer included — is shed instead of enqueued: its channel still
// gets a verdict (Shed=true, surfaced as HTTP 429), delivered with the
// next flush after the shed is WAL-logged and synced.
func (s *Server) submit(req *core.Request, defaultRelease bool) (<-chan Decision, error) {
	now := s.eventTime()
	s.qmu.Lock()
	if s.draining {
		s.qmu.Unlock()
		return nil, errDraining
	}
	s.submitted++
	p := &pending{req: req, seq: s.seq, defRel: defaultRelease, enq: time.Now(), done: make(chan Decision, 1)}
	s.seq++
	var victim *pending
	if limit := int(s.effQueue.Load()); limit > 0 && len(s.pending) >= limit {
		victim = s.shedLockedQ(p, now)
	} else {
		s.pending = append(s.pending, p)
	}
	s.qmu.Unlock()
	if s.rec != nil {
		s.rec.Admit(now, int64(req.ID))
		if victim != nil {
			s.rec.Shed(now, int64(victim.req.ID), victim.req.Penalty)
		}
	}
	s.kick()
	return p.done, nil
}

// shedLockedQ admits p into a full queue by evicting the best shed
// victim among the pending requests and p itself, and returns the
// victim. The survivors keep their admission order. Caller holds qmu.
func (s *Server) shedLockedQ(p *pending, now float64) *pending {
	victim, vi := p, -1
	for i, q := range s.pending {
		if shedBefore(q, victim, now) {
			victim, vi = q, i
		}
	}
	if vi >= 0 {
		s.pending = append(s.pending[:vi], s.pending[vi+1:]...)
		s.pending = append(s.pending, p)
	}
	s.shedQ = append(s.shedQ, victim)
	return victim
}

// shedBefore is the deterministic shed order — the inverse of the
// priority-lane key (DESIGN.md §15.2): a request whose deadline the
// event clock already made infeasible sheds first (serving it can only
// burn fleet time), then the lowest Eq. 2 rejection penalty p_r (the
// cheapest request to turn away), then the latest release, then the
// highest ID. Every tie-breaker is a request attribute, never arrival
// timing, so replays shed the same victims.
func shedBefore(a, b *pending, now float64) bool {
	ai, bi := a.req.Deadline <= now, b.req.Deadline <= now
	if ai != bi {
		return ai
	}
	if a.req.Penalty != b.req.Penalty {
		return a.req.Penalty < b.req.Penalty
	}
	if a.req.Release != b.req.Release {
		return a.req.Release > b.req.Release
	}
	return a.req.ID > b.req.ID
}

// reserveID resolves a request's ID: the client's when supplied — bumping
// the server's counter past it so later *assigned* IDs never collide with
// an ID already seen — or the next server-assigned one. The ID namespace
// belongs to clients: a client may deliberately reuse an ID (the server
// never rejects one below the counter), which makes that client's own
// ETAs ambiguous but cannot affect decisions or other clients. Guarded by
// qmu, not smu, so admission never waits on a flushing batch.
func (s *Server) reserveID(client *int32) int32 {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	if client != nil {
		if *client >= s.nextID && *client < math.MaxInt32 {
			s.nextID = *client + 1
		}
		return *client
	}
	id := s.nextID
	s.nextID++
	return id
}

func (s *Server) kick() {
	select {
	case s.wakeC <- struct{}{}:
	default:
	}
}

// run is the event loop: every submission kicks it, and whenever it is
// free it flushes whatever is pending as one group. Whatever arrives
// during a flush leaves a kick behind and becomes the next group.
func (s *Server) run() {
	defer close(s.doneC)
	for {
		select {
		case <-s.wakeC:
			s.flush()
		case <-s.stopC:
			s.flush() // drain everything still pending
			return
		case <-s.killC:
			// Crash simulation (Abort): stop without draining, exactly as
			// if the process had been killed mid-flight.
			return
		}
	}
}

// flush takes the whole pending queue as one group and plans it in
// (release, admission-sequence) order — the order sim.Engine's stable
// release sort would process the same requests in. Overload victims
// parked on the shed queue ride along: their 429 verdicts open the
// group's WAL commit group (stamped with the pre-group event clock, so
// recovery can apply them verbatim) and are delivered only after the
// group's fsync — the sync-before-ack invariant covers sheds exactly
// like decisions. smu is taken before the queue is swapped, so a caller
// holding smu while it submits fixes the next group exactly; once Abort
// has been called, flush returns without taking anything.
func (s *Server) flush() {
	s.smu.Lock()
	defer s.smu.Unlock()
	select {
	case <-s.killC:
		return
	default:
	}
	s.qmu.Lock()
	batch, sheds := s.pending, s.shedQ
	s.pending, s.shedQ = s.spare, s.spareShed
	s.qmu.Unlock()
	// The drained queues are the next swap's spares: only the next flush
	// reads them, after this one has acknowledged and cleared them.
	s.spare, s.spareShed = batch[:0], sheds[:0]
	if len(batch) == 0 && len(sheds) == 0 {
		return
	}

	flushStart := time.Now()
	// A defaulted release means "now": resolve it against the event clock
	// at flush time, so the clock's progress since admission is not
	// misread as an out-of-order arrival.
	for _, p := range batch {
		if p.defRel && p.req.Release < s.simTime {
			p.req.Release = s.simTime
		}
	}
	if len(batch) > 1 {
		slices.SortFunc(batch, func(a, b *pending) int {
			if c := cmp.Compare(a.req.Release, b.req.Release); c != 0 {
				return c
			}
			return cmp.Compare(a.seq, b.seq)
		})
	}
	if len(batch) > 0 {
		s.batches++
		if len(batch) > s.maxBatch {
			s.maxBatch = len(batch)
		}
	}
	if s.wal != nil {
		s.walScratch = wal.AppendBatch(s.walScratch[:0], len(batch), len(sheds))
		s.wal.Append(wal.TypeBatch, s.walScratch)
		s.lastGroup = s.lastGroup[:0]
	}
	shedDs := s.shedScratch[:0]
	for _, p := range sheds {
		d := Decision{
			ID:           int32(p.req.ID),
			Worker:       -1,
			SimTime:      s.simTime,
			Batch:        s.batches,
			Shed:         true,
			RetryAfterMs: retryAfterMs,
		}
		s.shed++
		// Eq. 2 accounting: an unserved request costs its rejection
		// penalty p_r whether the planner or the shed policy turned it
		// away.
		s.penaltySum += p.req.Penalty
		if s.wal != nil {
			s.walScratch = wal.AppendShed(s.walScratch[:0], wal.Shed{
				ID: d.ID, Penalty: p.req.Penalty, SimTime: d.SimTime,
			})
			s.wal.Append(wal.TypeShed, s.walScratch)
			s.decided[d.ID] = d
			s.lastGroup = append(s.lastGroup, d.ID)
		}
		shedDs = append(shedDs, d)
	}
	tableActive := s.prefetchLocked(batch)
	ladderArmed := s.cfg.DegradeTarget > 0
	planDurs := s.planScratch[:0]
	ds := s.flushScratch[:0]
	for _, p := range batch {
		if s.wal != nil {
			s.walScratch = wal.AppendAdmission(s.walScratch[:0], wal.Admission{
				ID:       int32(p.req.ID),
				Origin:   int64(p.req.Origin),
				Dest:     int64(p.req.Dest),
				Release:  p.req.Release,
				Deadline: p.req.Deadline,
				Penalty:  p.req.Penalty,
				Capacity: int32(p.req.Capacity),
			})
			s.wal.Append(wal.TypeAdmission, s.walScratch)
		}
		var planStart time.Time
		if ladderArmed {
			planStart = time.Now()
		}
		d := s.decideLocked(p.req)
		if ladderArmed {
			planDurs = append(planDurs, time.Since(planStart).Seconds())
		}
		d.WaitMs = float64(time.Since(p.enq).Nanoseconds()) / 1e6
		s.latency.observe(d.WaitMs)
		if s.wal != nil {
			s.walScratch = wal.AppendDecision(s.walScratch[:0], wal.Decision{
				ID: d.ID, Accepted: d.Accepted, Worker: d.Worker, Delta: d.Delta, SimTime: d.SimTime,
			})
			s.wal.Append(wal.TypeDecision, s.walScratch)
			s.decided[d.ID] = d
			s.lastGroup = append(s.lastGroup, d.ID)
		}
		ds = append(ds, d)
	}
	if tableActive {
		s.fleet.Dist = s.distChain
	}
	// Group commit: one fsync makes the whole commit group durable, and no
	// decision is acknowledged before it. A sync failure is fail-stop —
	// acknowledging a non-durable decision would break the recovery
	// contract, so the server refuses to continue.
	if s.wal != nil {
		syncStart := time.Now()
		if err := s.wal.Sync(); err != nil {
			panic(fmt.Sprintf("serve: wal sync: %v", err))
		}
		syncDur := time.Since(syncStart)
		s.histWALSync.Observe(syncDur.Seconds())
		if s.rec != nil {
			s.rec.WALSync(s.simTime, len(ds)+len(shedDs), syncDur)
		}
	}
	for i, p := range sheds {
		d := shedDs[i]
		d.WaitMs = float64(time.Since(p.enq).Nanoseconds()) / 1e6
		p.done <- d
		s.histAck.Observe(time.Since(p.enq).Seconds())
	}
	for i, p := range batch {
		p.done <- ds[i]
		ackDur := time.Since(p.enq)
		s.histAck.Observe(ackDur.Seconds())
		if s.rec != nil {
			s.rec.Ack(s.simTime, int64(p.req.ID), ackDur)
		}
	}
	clear(batch)
	clear(sheds)
	s.flushScratch = ds[:0]
	s.shedScratch = shedDs[:0]
	flushDur := time.Since(flushStart)
	s.histFlush.Observe(flushDur.Seconds())
	if s.rec != nil {
		s.rec.Flush(s.simTime, len(batch), flushDur)
	}
	if ladderArmed && len(planDurs) > 0 {
		s.ladderLocked(sim.Percentile(planDurs, 0.95))
	}
	s.planScratch = planDurs[:0]
	if s.log.Enabled(context.Background(), slog.LevelDebug) {
		s.log.Debug("batch flushed",
			"batch", s.batches, "n", len(batch), "sim_time", s.simTime,
			"accepted", s.accepted, "rejected", s.rejected,
			"flush_ms", float64(flushDur.Nanoseconds())/1e6)
	}
	if s.wal != nil && s.cfg.CheckpointBytes > 0 && s.wal.Size() >= s.cfg.CheckpointBytes {
		lsn, err := s.checkpointLocked()
		if err != nil {
			panic(fmt.Sprintf("serve: wal auto-checkpoint: %v", err))
		}
		s.log.Info("auto-checkpoint", "lsn", lsn, "checkpoints", s.walCheckpoints)
	}
}

// maxPrefetchCells bounds the per-batch distance table (32 MiB of
// float64 cells): a pathological batch past the cap simply plans with
// point queries, it never OOMs the server.
const maxPrefetchCells = 1 << 22

// prefetchLocked builds the batch's distance table and swaps it in front
// of the point chain; it returns whether the swap happened (the caller
// restores fleet.Dist after the decide loop). Caller holds smu.
//
// Endpoint registration is a superset argument, not an exact one: the
// columns are every request's origin and destination, the rows every
// route vertex of every candidate worker. Candidates are gathered with
// the pre-batch event clock and L set to the free Euclidean travel-time
// lower bound — the radius shrinks as the clock advances and as L
// grows, so with now ≤ plan-time clock and L ≤ plan-time
// Dist(origin, dest) a plan-time candidate set is a subset of the
// prefetched one up to workers that move between decides.
// Pairs the table missed (a mid-leg location after AdvanceAll, a worker
// that drifted into radius, a dest-to-dest query) fall back to the
// untouched point chain, so coverage gaps cost a point query, never a
// different decision. Prefetch is skipped on a tier without a table filler
// (cch plans from its labels, bidijkstra has no bit-identical batched
// form).
func (s *Server) prefetchLocked(batch []*pending) bool {
	if s.table == nil || len(batch) == 0 {
		return false
	}
	tier, _ := s.versioned.CurrentTier()
	mtm := shortest.ManyToManyFor(tier)
	if mtm == nil {
		return false
	}
	s.table.Reset()
	s.prefCands = s.prefCands[:0]
	for _, p := range batch {
		s.table.AddRequest(p.req)
		lb := s.fleet.Graph.EuclidTime(p.req.Origin, p.req.Dest)
		s.prefCands = s.fleet.CandidatesAppend(s.prefCands, p.req, s.simTime, lb)
	}
	for _, w := range s.prefCands {
		s.table.AddWorker(w)
	}
	if n := s.table.CellCount(); n == 0 || n > maxPrefetchCells {
		return false
	}
	s.table.Install(mtm.Table(s.tarena, s.table.Rows(), s.table.Cols()))
	s.fleet.Dist = s.table.Dist
	s.tablePrefetches++
	return true
}

// decideLocked advances the world to the request's effective time and
// plans it — the one decide path live admission, drain and WAL replay
// all share, which is what turns crash recovery into just another
// replay (DESIGN.md §13). Caller holds smu (or is the single-threaded
// pre-loop recovery).
func (s *Server) decideLocked(req *core.Request) Decision {
	t := req.Release
	if t < s.simTime {
		// The event clock already passed this release (an out-of-order
		// arrival across batches): plan it now, but record that the
		// offline-equivalence premise was violated for this request.
		t = s.simTime
		s.lateAdmissions++
	}
	s.simTime = t
	s.simTimeBits.Store(math.Float64bits(t))
	s.world.AdvanceAll(t)
	res := s.planner.OnRequest(t, req)
	d := Decision{
		ID:      int32(req.ID),
		Worker:  -1,
		SimTime: t,
		Batch:   s.batches,
	}
	if res.Served {
		s.accepted++
		s.world.MarkDirty(res.Worker)
		d.Accepted = true
		d.Worker = int32(res.Worker)
		d.Delta = res.Delta
		d.PickupETA, d.DropoffETA = stopETAs(&s.fleet.Workers[res.Worker].Route, req.ID)
	} else {
		s.rejected++
		s.penaltySum += req.Penalty
	}
	return d
}

// ladderLocked advances the graceful-degradation state machine after a
// flush (DESIGN.md §15.3). p95 is the group's 95th-percentile
// per-request plan time in seconds; breaching the target for
// DegradeWindow consecutive groups degrades to stage 1, staying under
// half the target for as many groups recovers to stage 0. The half-target
// recovery band is deliberate hysteresis — a p95 hovering at the target
// would otherwise flap the ladder every window. Caller holds smu.
func (s *Server) ladderLocked(p95 float64) {
	target := s.cfg.DegradeTarget.Seconds()
	stage := int(s.degradeStage.Load())
	switch {
	case p95 > target:
		s.degradeBreach++
		s.degradeOK = 0
		if s.degradeBreach >= s.cfg.DegradeWindow && stage == 0 {
			s.setStageLocked(1, "degrade")
			s.degradeBreach = 0
		}
	case p95 <= target/2:
		s.degradeOK++
		s.degradeBreach = 0
		if s.degradeOK >= s.cfg.DegradeWindow && stage == 1 {
			s.setStageLocked(0, "recover")
			s.degradeOK = 0
		}
	default:
		s.degradeBreach = 0
		s.degradeOK = 0
	}
}

// setStageLocked moves the ladder to stage and rewrites the shed cap the
// submit path reads lock-free: stage 1 tightens the shed cap — halving
// MaxQueue, or imposing degradedQueueCap when admission was unbounded.
// Caller holds smu.
func (s *Server) setStageLocked(stage int, dir string) {
	s.degradeStage.Store(int32(stage))
	s.degradeTransitions++
	limit := s.cfg.MaxQueue
	if stage == 1 {
		if limit > 0 {
			limit = max(limit/2, 1)
		} else {
			limit = degradedQueueCap
		}
	}
	s.effQueue.Store(int64(limit))
	if s.rec != nil {
		s.rec.Degrade(s.simTime, stage, dir)
	}
	s.log.Warn("degradation ladder transition",
		"dir", dir, "stage", stage, "eff_queue", limit)
}

// stopETAs finds the planned arrival times at the request's pickup and
// drop-off in a freshly planned route.
func stopETAs(rt *core.Route, id core.RequestID) (pickup, dropoff float64) {
	for i, st := range rt.Stops {
		if st.Req != id {
			continue
		}
		if st.Kind == core.Pickup {
			pickup = rt.Arr[i]
		} else {
			dropoff = rt.Arr[i]
		}
	}
	return pickup, dropoff
}

// ApplyTraffic applies one batch of traffic updates at effective time
// max(event clock, at) — the same monotone rule the offline engine's
// timeline uses — advancing the world there first. It is the engine
// behind POST /v1/traffic. Updates are validated before any state moves;
// a validation error leaves the server untouched.
func (s *Server) ApplyTraffic(at *float64, ups []roadnet.TrafficUpdate) (TrafficResult, error) {
	s.smu.Lock()
	defer s.smu.Unlock()
	t := s.simTime
	if at != nil && *at > t {
		t = *at
	}
	// sim.Traffic.Apply validates the batch before the world moves, so a
	// rejected update leaves the server (clock included) untouched.
	res, err := s.traffic.Apply(t, ups)
	if err != nil {
		return TrafficResult{}, err
	}
	s.simTime = t
	s.simTimeBits.Store(math.Float64bits(t))
	s.trafficHistory = append(s.trafficHistory, append([]roadnet.TrafficUpdate(nil), ups...))
	if s.wal != nil {
		// Log the update as applied (effective time and epoch resolved) and
		// sync before acknowledging — a crashed client may blindly resend,
		// which is safe because factors set multipliers relative to the base
		// weights, so a duplicate apply reproduces identical weights.
		body, err := wal.AppendTraffic(s.walScratch[:0], wal.Traffic{At: t, Epoch: res.Epoch, Updates: ups})
		if err != nil {
			panic(fmt.Sprintf("serve: wal traffic encode: %v", err))
		}
		s.walScratch = body
		s.wal.Append(wal.TypeTraffic, body)
		if err := s.wal.Sync(); err != nil {
			panic(fmt.Sprintf("serve: wal sync: %v", err))
		}
	}
	if s.rec != nil {
		s.rec.TrafficEpoch(t, res.Epoch, res.ChangedEdges)
		// The rebuild/customization has landed by now.
		s.rec.Oracle(t, res.Epoch, s.versioned.Rebuilds(), s.versioned.LastRebuild())
	}
	s.log.Info("traffic applied",
		"epoch", res.Epoch, "sim_time", t, "changed_edges", res.ChangedEdges,
		"routes_repaired", res.Repair.RoutesRepaired, "infeasible_stops", res.Repair.InfeasibleStops)
	return TrafficResult{
		Epoch:           res.Epoch,
		SimTime:         t,
		ChangedEdges:    res.ChangedEdges,
		RoutesRepaired:  res.Repair.RoutesRepaired,
		InfeasibleStops: res.Repair.InfeasibleStops,
	}, nil
}

// Shutdown drains the server: new submissions are refused, everything
// already admitted is decided, and the event loop exits. It is safe to
// call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.qmu.Lock()
	already := s.draining
	s.draining = true
	s.qmu.Unlock()
	if !already {
		close(s.stopC)
	}
	select {
	case <-s.doneC:
	case <-ctx.Done():
		return ctx.Err()
	}
	// The loop has drained; take a final checkpoint so a restart replays
	// nothing, and close the segment.
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.wal == nil {
		return nil
	}
	_, err := s.checkpointLocked()
	if cerr := s.wal.Close(); err == nil {
		err = cerr
	}
	s.wal = nil
	return err
}

// Abort stops the server as a crash would: the event loop exits without
// draining, buffered unsynced WAL records are dropped and no checkpoint
// is taken — the in-process equivalent of kill -9, used by recovery
// tests. Safe to call more than once.
func (s *Server) Abort() {
	s.qmu.Lock()
	s.draining = true
	s.qmu.Unlock()
	s.abortOnce.Do(func() { close(s.killC) })
	<-s.doneC
	s.smu.Lock()
	defer s.smu.Unlock()
	if s.wal != nil {
		s.wal.Abort()
		s.wal = nil
	}
}

// Stats returns a group-atomic snapshot of the serving metrics.
func (s *Server) Stats() Stats {
	s.qmu.Lock()
	pendingN := len(s.pending)
	submitted := s.submitted
	s.qmu.Unlock()
	s.smu.Lock()
	defer s.smu.Unlock()
	total := s.accepted + s.rejected
	st := Stats{
		Algorithm:          s.planner.Name(),
		Oracle:             s.cfg.OracleKind,
		Workers:            len(s.fleet.Workers),
		SimTime:            s.simTime,
		Requests:           total,
		Accepted:           s.accepted,
		Rejected:           s.rejected,
		ServedRate:         core.ServedRate(s.accepted, total),
		TotalDistance:      s.fleet.TotalDistance(),
		PenaltySum:         s.penaltySum,
		Completions:        s.world.Completions(),
		LateArrivals:       s.world.LateArrivals(),
		Batches:            s.batches,
		MaxBatch:           s.maxBatch,
		LateAdmissions:     s.lateAdmissions,
		Pending:            pendingN,
		Submitted:          submitted,
		Shed:               s.shed,
		QueueLimit:         int(s.effQueue.Load()),
		DegradeState:       int(s.degradeStage.Load()),
		DegradeTransitions: s.degradeTransitions,
	}
	st.UnifiedCost = s.alpha*st.TotalDistance + st.PenaltySum
	st.TrafficEpoch = s.traffic.Epoch()
	st.TrafficUpdates = s.traffic.EventsApplied()
	st.InfeasibleStops = s.traffic.RepairStats().InfeasibleStops
	st.OracleRebuilds = s.versioned.Rebuilds()
	st.OracleCustomizations = s.versioned.Customizations()
	st.LastRebuildMs = float64(s.versioned.LastRebuild().Nanoseconds()) / 1e6
	if s.queries != nil {
		st.DistQueries = s.queries.Count()
	}
	st.TablePrefetches = s.tablePrefetches
	if s.table != nil {
		st.TableHits, st.TableMisses = s.table.Stats()
	}
	st.LatencyMs.P50 = s.latency.percentile(0.50)
	st.LatencyMs.P95 = s.latency.percentile(0.95)
	st.LatencyMs.P99 = s.latency.percentile(0.99)
	if s.wal != nil {
		st.WALEnabled = true
		st.WALRecords, st.WALBytes, st.WALSyncs = s.wal.Stats()
		st.WALSizeBytes = s.wal.Size()
	}
	st.WALCheckpoints = s.walCheckpoints
	st.WALRecovered = s.walRecovered
	st.WALTornBytes = s.walTornBytes
	if s.rec != nil {
		st.TraceEvents = s.rec.Len()
	}
	return st
}

// TraceRecorder returns the flight recorder, nil when tracing is
// disabled. Exposed for the daemon's shutdown dump and tests.
func (s *Server) TraceRecorder() *trace.Recorder { return s.rec }

// WorkerRoute returns the live route of one worker.
func (s *Server) WorkerRoute(id core.WorkerID) (core.WorkerState, bool) {
	s.smu.Lock()
	defer s.smu.Unlock()
	if int(id) < 0 || int(id) >= len(s.fleet.Workers) {
		return core.WorkerState{}, false
	}
	return core.NewWorkerState(s.fleet.Workers[id]), true
}

// TakeSnapshot captures the full serving state for crash recovery and
// warm restarts (FORMATS.md §5).
func (s *Server) TakeSnapshot() *Snapshot {
	s.smu.Lock()
	defer s.smu.Unlock()
	return s.snapshotLocked()
}

// snapshotLocked builds the snapshot under smu (qmu is briefly nested
// for the ID counter — the one sanctioned nesting order).
func (s *Server) snapshotLocked() *Snapshot {
	s.qmu.Lock()
	nextID := s.nextID
	submitted := s.submitted
	s.qmu.Unlock()
	sn := &Snapshot{
		Format:          SnapshotFormat,
		Version:         SnapshotVersion,
		SimTime:         s.simTime,
		Epoch:           s.traffic.Epoch(),
		NextID:          nextID,
		Accepted:        s.accepted,
		Rejected:        s.rejected,
		PenaltySum:      s.penaltySum,
		Batches:         s.batches,
		MaxBatch:        s.maxBatch,
		LateAdmissions:  s.lateAdmissions,
		Shed:            s.shed,
		Submitted:       submitted,
		Completions:     s.world.Completions(),
		LateArrivals:    s.world.LateArrivals(),
		InfeasibleStops: s.traffic.RepairStats().InfeasibleStops,
		Workers:         make([]core.WorkerState, len(s.fleet.Workers)),
	}
	for i, w := range s.fleet.Workers {
		sn.Workers[i] = core.NewWorkerState(w)
	}
	for _, batch := range s.trafficHistory {
		sn.Traffic = append(sn.Traffic, append([]roadnet.TrafficUpdate(nil), batch...))
	}
	return sn
}

// latencyRing keeps the most recent admission-to-decision latencies so a
// long-running server reports current percentiles in bounded memory.
type latencyRing struct {
	buf  []float64
	next int
}

func newLatencyRing(size int) *latencyRing {
	return &latencyRing{buf: make([]float64, 0, size)}
}

func (r *latencyRing) observe(ms float64) {
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, ms)
	} else {
		r.buf[r.next] = ms
	}
	r.next = (r.next + 1) % cap(r.buf)
}

// percentile returns the p-quantile of the retained window.
func (r *latencyRing) percentile(p float64) float64 {
	return sim.Percentile(append([]float64(nil), r.buf...), p)
}

// OfflineDecisions replays inst through the offline sim.Engine with the
// same planner and oracle wiring a Server uses,
// and returns the per-request decisions keyed by request ID — the
// reference side of the replay-equivalence check (-lockstep). With a
// non-nil traffic profile the engine replays the same congestion trace a
// lockstep client injects via POST /v1/traffic (urpsm-replay -traffic),
// extending the equivalence guarantee to multi-epoch runs. The caller's
// instance is left untouched.
func OfflineDecisions(g *roadnet.Graph, inst *workload.Instance, oracle shortest.Oracle,
	oracleKind string, alpha float64, profile *roadnet.TrafficProfile) (map[int32]Decision, sim.Metrics, error) {
	if alpha == 0 {
		alpha = 1
	}
	overlay := roadnet.NewOverlay(g)
	versioned := shortest.AdoptVersioned(g, oracle, shortest.AutoKind(oracleKind))
	dist, queries := queryChain(versioned)
	fleet, err := core.NewFleet(g, dist, cloneWorkers(inst.Workers), 2000)
	if err != nil {
		return nil, sim.Metrics{}, err
	}
	rec := &recordingPlanner{inner: core.NewPruneGreedyDP(fleet, alpha), decisions: make(map[int32]Decision, len(inst.Requests))}
	eng := sim.NewEngine(fleet, rec, shortest.NewBiDijkstra(g), alpha)
	eng.Queries = queries
	tc := sim.NewTraffic(overlay, versioned, fleet, eng.World())
	if profile != nil {
		tc.SetProfile(*profile)
	}
	eng.Traffic = tc
	m, err := eng.Run(append([]*core.Request(nil), inst.Requests...))
	if err != nil {
		return nil, sim.Metrics{}, err
	}
	return rec.decisions, m, nil
}

// recordingPlanner captures each request's outcome as a Decision.
type recordingPlanner struct {
	inner     core.Planner
	decisions map[int32]Decision
}

func (r *recordingPlanner) Name() string { return r.inner.Name() }

func (r *recordingPlanner) OnRequest(now float64, req *core.Request) core.Result {
	res := r.inner.OnRequest(now, req)
	d := Decision{ID: int32(req.ID), Worker: -1, SimTime: now}
	if res.Served {
		d.Accepted = true
		d.Worker = int32(res.Worker)
		d.Delta = res.Delta
	}
	r.decisions[int32(req.ID)] = d
	return res
}
