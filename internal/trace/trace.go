// Package trace is the flight recorder: a fixed-capacity, allocation-free
// event ring that records the full lifecycle of every request the serving
// stack handles — admit → batch flush → plan start → planning work
// (candidates, Lemma 8 prunes, DP cells) → decision → WAL group sync →
// ack — plus traffic epoch advances and oracle rebuild/customize events.
//
// The design follows the Polynesia lesson the ISSUE cites: the
// observation path must not perturb the transaction path. Concretely:
//
//   - Recording never allocates. The ring's slots are preallocated Event
//     structs; Record builds the event on the caller's stack and copies it
//     into a slot. Event is a flat, comparable struct — no slices, no
//     pointers — so the copy is a fixed-size memmove and two events can
//     be compared with ==.
//
//   - Recording never affects decisions. Recorder implements
//     core.PlanObserver, whose contract is strictly read-only
//     observation after every decision-affecting operation; attaching or
//     detaching a Recorder cannot change an accept/reject, an assignment
//     or a Δ* bit (the serve tier's lockstep-equivalence test pins this).
//
//   - Recording is concurrency-safe. A single mutex orders slot writes
//     (admission handlers record from their own goroutines while the
//     event loop records plans, and /debug readers copy the ring);
//     the hold time is one struct copy, and the uncontended fast path is
//     a few atomic instructions. A pure seqlock would be faster still but
//     is invisible to the race detector — the repo runs its suites under
//     -race, so the recorder stays conventionally synchronized.
//
// The ring overwrites: the most recent Capacity events win, older ones
// are gone. That is the flight-recorder trade — bounded memory forever,
// at the cost of history depth — and why the explain endpoint documents
// "trace evicted" as an expected answer on a busy server.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Kind classifies a lifecycle event.
type Kind uint8

const (
	// KindAdmit — a request entered the admission queue.
	KindAdmit Kind = iota + 1
	// KindFlush — an admission batch was planned (N requests, DurNs).
	KindFlush
	// KindPlanStart — the planner began a request's decision phase.
	KindPlanStart
	// KindPlan — a plan completed; the full introspection payload
	// (candidates, prunes, DP cells, outcome) is attached.
	KindPlan
	// KindWALSync — a WAL group commit fsynced (N decisions, DurNs).
	KindWALSync
	// KindAck — a decision was delivered to its waiting client
	// (DurNs = admission-to-ack).
	KindAck
	// KindTrafficEpoch — a traffic update advanced the weight epoch
	// (Epoch, N = changed edges).
	KindTrafficEpoch
	// KindOracle — the preprocessed oracle tier rebuilt or customized
	// after an epoch advance (Epoch, N = lifetime rebuilds, DurNs = the
	// rebuild's duration).
	KindOracle
	// KindShed — the overload policy evicted a request from the
	// admission queue (Penalty = the Eq. 2 p_r the platform pays).
	KindShed
	// KindDegrade — the degradation ladder changed stage (N = the new
	// stage 0–3, Reason = "degrade" or "recover").
	KindDegrade
)

var kindNames = [...]string{
	KindAdmit:        "admit",
	KindFlush:        "flush",
	KindPlanStart:    "plan_start",
	KindPlan:         "plan",
	KindWALSync:      "wal_sync",
	KindAck:          "ack",
	KindTrafficEpoch: "traffic_epoch",
	KindOracle:       "oracle",
	KindShed:         "shed",
	KindDegrade:      "degrade",
}

// String returns the stable wire name (FORMATS.md §9).
func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return "unknown"
}

// MarshalText renders the kind as its wire name in JSON dumps.
func (k Kind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText parses a wire name back, so dumps round-trip through
// JSON (clients of /debug/trace decode into Event).
func (k *Kind) UnmarshalText(text []byte) error {
	s := string(text)
	for i, name := range kindNames {
		if name == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("trace: unknown event kind %q", s)
}

// TopK is how many leading scan-order candidates a plan event retains
// for the explain endpoint. The slot is a fixed array so Event stays
// comparable and recording stays allocation-free; the leading candidates
// are the interesting ones — they are the scan prefix Lemma 8 actually
// evaluated.
const TopK = 8

// Cand is one retained candidate: a worker and its decision-phase lower
// bound LBΔ*.
type Cand struct {
	Worker int64   `json:"worker"`
	LB     float64 `json:"lb"`
}

// Event is one flight-recorder slot. It is flat and comparable: every
// field is a scalar or fixed array, so slots never allocate and two
// events compare with ==. Fields beyond the common header are
// kind-specific and zero elsewhere (omitempty keeps dumps readable).
type Event struct {
	// Seq is the global event sequence (monotone, never reused); WallNs
	// the wall-clock time in Unix nanoseconds; Now the event-clock time
	// in simulation seconds.
	Seq    uint64  `json:"seq"`
	WallNs int64   `json:"wall_ns"`
	Kind   Kind    `json:"kind"`
	Now    float64 `json:"now"`
	// Req is the request ID for request-scoped events, -1 otherwise.
	Req int64 `json:"req"`
	// DurNs is the event's duration where one applies: plan wall time,
	// flush time, sync time, admission-to-ack time, rebuild time.
	DurNs int64 `json:"dur_ns,omitempty"`
	// N is the kind-specific count: batch size (flush), decisions synced
	// (wal_sync), changed edges (traffic_epoch), lifetime rebuilds
	// (oracle).
	N int64 `json:"n,omitempty"`
	// Epoch is the weight epoch for traffic/oracle events.
	Epoch uint64 `json:"epoch,omitempty"`

	// Plan payload (KindPlan only) — the PlanTrace scalars.
	Candidates  int32   `json:"candidates,omitempty"`
	Feasible    int32   `json:"feasible,omitempty"`
	Evaluated   int32   `json:"evaluated,omitempty"`
	Pruned      int32   `json:"pruned,omitempty"`
	FeasibleIns int32   `json:"feasible_ins,omitempty"`
	DPCells     int64   `json:"dp_cells,omitempty"`
	MinLB       float64 `json:"min_lb,omitempty"`
	L           float64 `json:"l,omitempty"`
	Penalty     float64 `json:"penalty,omitempty"`
	Delta       float64 `json:"delta,omitempty"`
	// Worker is the chosen worker, -1 when rejected (and for non-plan
	// events); PickupPos/DropPos the winning insertion positions.
	Worker    int64  `json:"worker"`
	PickupPos int32  `json:"pickup_pos,omitempty"`
	DropPos   int32  `json:"drop_pos,omitempty"`
	Reason    string `json:"reason,omitempty"`
	// NTop and Top retain the leading scan-order candidates; rendered as
	// the top_candidates array in JSON.
	NTop int32      `json:"-"`
	Top  [TopK]Cand `json:"-"`
}

// TopCands returns the valid retained candidates.
func (e *Event) TopCands() []Cand { return e.Top[:e.NTop] }

// MarshalJSON renders the fixed candidate array as a variable-length
// top_candidates list. Marshaling allocates, of course — it runs on the
// dump path (/debug/trace), never on the record path.
func (e Event) MarshalJSON() ([]byte, error) {
	type alias Event // shed the method set to avoid recursion
	return json.Marshal(struct {
		alias
		TopCandidates []Cand `json:"top_candidates,omitempty"`
	}{alias(e), e.Top[:e.NTop]})
}

// Recorder is the flight recorder. It implements core.PlanObserver, so
// attaching one to a planner (core.Greedy.SetObserver) records every
// plan; the serving tier additionally feeds it the admission/flush/sync/ack
// events. Safe for concurrent use; the zero value is not usable — call New.
type Recorder struct {
	mu   sync.Mutex
	ring []Event
	seq  uint64
	now  func() int64

	// PlanSeconds, when non-nil, observes each plan's wall time (in
	// seconds) — the recorder feeds the urpsm_plan_seconds histogram
	// directly because plan durations are only measured while an
	// observer is attached.
	PlanSeconds *Histogram
}

// New returns a recorder retaining the most recent capacity events
// (minimum 16).
func New(capacity int) *Recorder {
	if capacity < 16 {
		capacity = 16
	}
	return &Recorder{
		ring: make([]Event, capacity),
		now:  func() int64 { return time.Now().UnixNano() },
	}
}

// Capacity returns the ring size.
func (r *Recorder) Capacity() int { return len(r.ring) }

// SetNow replaces the wall clock — golden-fixture tests install a
// deterministic one. Not safe to call while events are being recorded.
func (r *Recorder) SetNow(f func() int64) { r.now = f }

// Record stamps ev with the next sequence number and the wall clock and
// stores it in the ring, overwriting the oldest slot when full. It never
// allocates.
func (r *Recorder) Record(ev Event) {
	r.mu.Lock()
	ev.Seq = r.seq
	ev.WallNs = r.now()
	r.ring[r.seq%uint64(len(r.ring))] = ev
	r.seq++
	r.mu.Unlock()
}

// Len returns how many events are retained (≤ Capacity).
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.seq < uint64(len(r.ring)) {
		return int(r.seq)
	}
	return len(r.ring)
}

// Events appends the retained events to dst in oldest→newest order and
// returns the result. The copy is taken under the ring lock, so it is a
// consistent snapshot.
func (r *Recorder) Events(dst []Event) []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	lo := uint64(0)
	if r.seq > n {
		lo = r.seq - n
	}
	for s := lo; s < r.seq; s++ {
		dst = append(dst, r.ring[s%n])
	}
	return dst
}

// FindPlan returns the most recent plan event for request req, or false
// when none is retained (never planned, or evicted by ring wrap).
func (r *Recorder) FindPlan(req int64) (Event, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.ring))
	lo := uint64(0)
	if r.seq > n {
		lo = r.seq - n
	}
	for s := r.seq; s > lo; s-- {
		ev := &r.ring[(s-1)%n]
		if ev.Kind == KindPlan && ev.Req == req {
			return *ev, true
		}
	}
	return Event{}, false
}

// PlanStart implements core.PlanObserver.
func (r *Recorder) PlanStart(now float64, req *core.Request) {
	r.Record(Event{Kind: KindPlanStart, Now: now, Req: int64(req.ID), Worker: -1})
}

// PlanDone implements core.PlanObserver: it flattens the trace into a
// plan event (copying the leading candidates out of the scratch-aliasing
// LBs slice) and observes the plan-latency histogram. No allocation, per
// the observer contract.
func (r *Recorder) PlanDone(tr *core.PlanTrace) {
	ev := Event{
		Kind:        KindPlan,
		Now:         tr.Now,
		Req:         int64(tr.Req.ID),
		DurNs:       tr.PlanNs,
		Candidates:  int32(tr.Candidates),
		Feasible:    int32(tr.Feasible),
		Evaluated:   tr.Stats.Evaluated,
		Pruned:      int32(tr.Pruned),
		FeasibleIns: tr.Stats.FeasibleIns,
		DPCells:     tr.Stats.DPCells,
		L:           tr.L,
		Penalty:     tr.Req.Penalty,
		Worker:      int64(tr.Chosen),
		Reason:      tr.Reason.String(),
	}
	if tr.Feasible > 0 {
		ev.MinLB = tr.MinLB
	}
	if tr.Chosen >= 0 || tr.Reason == core.ReasonPostCheck {
		ev.Delta = tr.Ins.Delta
		ev.PickupPos = int32(tr.Ins.I)
		ev.DropPos = int32(tr.Ins.J)
	}
	k := len(tr.LBs)
	if k > TopK {
		k = TopK
	}
	for i := 0; i < k; i++ {
		ev.Top[i] = Cand{Worker: int64(tr.LBs[i].Worker.ID), LB: tr.LBs[i].LB}
	}
	ev.NTop = int32(k)
	r.Record(ev)
	if r.PlanSeconds != nil {
		r.PlanSeconds.Observe(float64(tr.PlanNs) / 1e9)
	}
}

// Admit records a request entering the admission queue.
func (r *Recorder) Admit(now float64, req int64) {
	r.Record(Event{Kind: KindAdmit, Now: now, Req: req, Worker: -1})
}

// Flush records a planned admission batch of n requests.
func (r *Recorder) Flush(now float64, n int, dur time.Duration) {
	r.Record(Event{Kind: KindFlush, Now: now, Req: -1, Worker: -1, N: int64(n), DurNs: dur.Nanoseconds()})
}

// WALSync records a group commit of n decisions.
func (r *Recorder) WALSync(now float64, n int, dur time.Duration) {
	r.Record(Event{Kind: KindWALSync, Now: now, Req: -1, Worker: -1, N: int64(n), DurNs: dur.Nanoseconds()})
}

// Ack records a decision delivered to its waiting client; dur is the
// admission-to-ack latency.
func (r *Recorder) Ack(now float64, req int64, dur time.Duration) {
	r.Record(Event{Kind: KindAck, Now: now, Req: req, Worker: -1, DurNs: dur.Nanoseconds()})
}

// TrafficEpoch records a weight-epoch advance touching changed edges.
func (r *Recorder) TrafficEpoch(now float64, epoch uint64, changed int) {
	r.Record(Event{Kind: KindTrafficEpoch, Now: now, Req: -1, Worker: -1, Epoch: epoch, N: int64(changed)})
}

// Oracle records a preprocessed-tier rebuild or customization; rebuilds
// is the lifetime count and dur the rebuild's duration.
func (r *Recorder) Oracle(now float64, epoch uint64, rebuilds uint64, dur time.Duration) {
	r.Record(Event{Kind: KindOracle, Now: now, Req: -1, Worker: -1, Epoch: epoch, N: int64(rebuilds), DurNs: dur.Nanoseconds()})
}

// Shed records a request evicted from the admission queue by the
// overload policy; penalty is the Eq. 2 rejection penalty p_r the
// platform pays for it.
func (r *Recorder) Shed(now float64, req int64, penalty float64) {
	r.Record(Event{Kind: KindShed, Now: now, Req: req, Worker: -1, Penalty: penalty, Reason: "shed"})
}

// Degrade records a degradation-ladder transition to stage (0 = healthy,
// 1 = shedding); dir is "degrade" or "recover".
func (r *Recorder) Degrade(now float64, stage int, dir string) {
	r.Record(Event{Kind: KindDegrade, Now: now, Req: -1, Worker: -1, N: int64(stage), Reason: dir})
}
