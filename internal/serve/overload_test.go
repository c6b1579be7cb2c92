package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/shortest"
)

// overloadRequests clones n instance requests and overwrites their
// penalties with a fixed permutation of 1..n, so the expected shed set
// is known by construction: with every deadline feasible, the shed
// policy keeps exactly the MaxQueue highest-penalty requests.
func overloadRequests(t *testing.T, n int) []*core.Request {
	t.Helper()
	_, inst := testInstance(t)
	reqs := sortedRequests(inst)
	if len(reqs) < n {
		t.Fatalf("instance has %d requests, need %d", len(reqs), n)
	}
	out := make([]*core.Request, n)
	for i := 0; i < n; i++ {
		cp := *reqs[i]
		cp.Penalty = float64((i*7)%n + 1) // fixed permutation of 1..n
		cp.Deadline = cp.Release + 1e6    // never deadline-infeasible at submit
		out[i] = &cp
	}
	return out
}

// runOverload submits reqs in order as one held group against a fresh
// server with a queue cap of keep, lets the
// group's flush and Shutdown deliver every verdict, and returns all
// decisions by ID.
func runOverload(t *testing.T, reqs []*core.Request, keep int) (map[int32]Decision, Stats) {
	t.Helper()
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, func(c *Config) { c.MaxQueue = keep })
	chans := submitGroup(t, s, reqs)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	got := make(map[int32]Decision, len(reqs))
	for i, ch := range chans {
		select {
		case d := <-ch:
			got[d.ID] = d
		case <-time.After(10 * time.Second):
			t.Fatalf("request %d never got a verdict", reqs[i].ID)
		}
	}
	return got, s.Stats()
}

// TestOverloadShedDeterminism is the overload lockstep check (DESIGN.md
// §15): a submission stream overflowing MaxQueue must produce
// bit-identical decisions AND bit-identical shed verdicts on two fresh
// servers, and the victims must be exactly the Eq. 2 choice — the lowest
// rejection penalties in sight.
func TestOverloadShedDeterminism(t *testing.T) {
	const n, keep = 16, 4
	reqs := overloadRequests(t, n)

	first, fst := runOverload(t, reqs, keep)
	second, sst := runOverload(t, reqs, keep)

	if len(first) != n || len(second) != n {
		t.Fatalf("decision counts: first %d second %d, want %d", len(first), len(second), n)
	}
	for id, fd := range first {
		sd, ok := second[id]
		if !ok {
			t.Fatalf("request %d decided by the first server only", id)
		}
		if !sameDecision(fd, sd) || fd.Shed != sd.Shed || fd.RetryAfterMs != sd.RetryAfterMs {
			t.Fatalf("request %d diverged: first %+v second %+v", id, fd, sd)
		}
	}
	if fst.Shed != n-keep || sst.Shed != n-keep {
		t.Fatalf("shed counters: first %d second %d, want %d", fst.Shed, sst.Shed, n-keep)
	}
	if fst.Submitted != n || sst.Submitted != n {
		t.Fatalf("submitted counters: first %d second %d, want %d", fst.Submitted, sst.Submitted, n)
	}

	// The survivors are the keep highest penalties (n-keep+1..n); everything
	// below the cut sheds with a usable retry hint and no worker.
	for _, r := range reqs {
		d := first[int32(r.ID)]
		wantShed := r.Penalty <= float64(n-keep)
		if d.Shed != wantShed {
			t.Fatalf("request %d (penalty %g): shed=%v, want %v", r.ID, r.Penalty, d.Shed, wantShed)
		}
		if d.Shed && (d.Accepted || d.Worker != -1 || d.RetryAfterMs < 1) {
			t.Fatalf("malformed shed verdict: %+v", d)
		}
	}

	// Eq. 2 accounting: the platform pays p_r for every unserved request,
	// shed or rejected alike — the shed penalties must be in the sum.
	var shedSum float64
	for _, r := range reqs {
		if first[int32(r.ID)].Shed {
			shedSum += r.Penalty
		}
	}
	if fst.PenaltySum < shedSum {
		t.Fatalf("penalty sum %g does not cover shed penalties %g", fst.PenaltySum, shedSum)
	}
	if math.Float64bits(fst.PenaltySum) != math.Float64bits(sst.PenaltySum) {
		t.Fatalf("penalty sums diverged: first %x second %x",
			math.Float64bits(fst.PenaltySum), math.Float64bits(sst.PenaltySum))
	}
}

// TestOverloadWALRecovery checks that shed verdicts are durable: a crash
// after an overloaded flush recovers the shed records verbatim (counter,
// penalty accounting, decided window), and the post-shutdown checkpoint
// carries the counters across a WAL-less restart.
func TestOverloadWALRecovery(t *testing.T) {
	g, inst := testInstance(t)
	oracle := shortest.BuildHubLabels(g)
	reqs := overloadRequests(t, 6)
	dir := t.TempDir()
	const keep = 2

	s := newWALServer(t, g, inst, oracle, dir, func(c *Config) { c.MaxQueue = keep })
	got := make(map[int32]Decision, len(reqs))
	for _, d := range await(t, submitGroup(t, s, reqs)) {
		got[d.ID] = d
	}
	before := s.Stats()
	if before.Shed != len(reqs)-keep {
		t.Fatalf("shed %d before crash, want %d", before.Shed, len(reqs)-keep)
	}
	s.Abort()

	// Crash recovery: sheds are applied from the log, not re-derived.
	s = newWALServer(t, g, inst, oracle, dir, func(c *Config) { c.MaxQueue = keep })
	after := s.Stats()
	if after.WALRecovered == 0 {
		t.Fatal("recovery replayed nothing")
	}
	if after.Shed != before.Shed || after.Submitted != before.Submitted {
		t.Fatalf("recovered shed=%d submitted=%d, want %d and %d",
			after.Shed, after.Submitted, before.Shed, before.Submitted)
	}
	if math.Float64bits(after.PenaltySum) != math.Float64bits(before.PenaltySum) {
		t.Fatalf("recovered penalty sum %x != pre-crash %x",
			math.Float64bits(after.PenaltySum), math.Float64bits(before.PenaltySum))
	}
	for id, want := range got {
		d, ok := s.DecisionFor(id)
		if !ok {
			t.Fatalf("request %d not in the decided window after recovery", id)
		}
		if d.Shed != want.Shed || !sameDecision(d, want) {
			t.Fatalf("request %d after recovery: %+v want %+v", id, d, want)
		}
	}

	// The shutdown checkpoint pins the counters; a restart from snapshot
	// alone (log empty) must not lose them.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s = newWALServer(t, g, inst, oracle, dir, func(c *Config) { c.MaxQueue = keep })
	final := s.Stats()
	if final.Shed != before.Shed || final.Submitted != before.Submitted {
		t.Fatalf("snapshot restart shed=%d submitted=%d, want %d and %d",
			final.Shed, final.Submitted, before.Shed, before.Submitted)
	}
	if final.WALRecovered != 0 {
		t.Fatalf("clean restart replayed %d records", final.WALRecovered)
	}
}

// TestDegradationLadder drives the hysteresis state machine directly
// (DESIGN.md §15.3): DegradeWindow consecutive breaches step down to
// stage 1, as many sub-half-target groups step back up, and anything in
// between resets both counters.
func TestDegradationLadder(t *testing.T) {
	g, inst := testInstance(t)
	const maxQueue = 8
	newLadder := func(maxQueue int) *Server {
		return newTestServer(t, g, inst, func(c *Config) {
			c.MaxQueue = maxQueue
			c.DegradeTarget = 10 * time.Millisecond
			c.DegradeWindow = 2
		})
	}
	s := newLadder(maxQueue)
	feed := func(p95 float64, times int) {
		for i := 0; i < times; i++ {
			s.smu.Lock()
			s.ladderLocked(p95)
			s.smu.Unlock()
		}
	}
	check := func(stage, effQueue int) {
		t.Helper()
		if got := int(s.degradeStage.Load()); got != stage {
			t.Fatalf("stage %d, want %d", got, stage)
		}
		if got := int(s.effQueue.Load()); got != effQueue {
			t.Fatalf("effQueue %d, want %d", got, effQueue)
		}
	}

	check(0, maxQueue)
	feed(1.0, 1) // one breach: below the window, no transition
	check(0, maxQueue)
	feed(0.006, 1) // neutral zone (target/2 < p95 <= target): counters reset
	feed(1.0, 1)
	check(0, maxQueue)
	feed(1.0, 1) // second consecutive breach: stage 1 tightens the shed cap
	check(1, maxQueue/2)
	feed(1.0, 4) // already at the bottom: no further transitions
	check(1, maxQueue/2)
	feed(0.001, 1)
	feed(0.006, 1) // neutral zone also resets the recovery counter
	feed(0.001, 1)
	check(1, maxQueue/2)
	feed(0.001, 1) // second consecutive sub-half-target group: recover
	check(0, maxQueue)

	if st := s.Stats(); st.DegradeTransitions != 2 || st.DegradeState != 0 {
		t.Fatalf("transitions=%d state=%d, want 2 and 0", st.DegradeTransitions, st.DegradeState)
	}

	// With admission unbounded there is no cap to halve: stage 1 imposes
	// degradedQueueCap, and recovery lifts it again.
	s = newLadder(0)
	check(0, 0)
	feed(1.0, 2)
	check(1, degradedQueueCap)
	feed(0.001, 2)
	check(0, 0)
}

// TestUnboundedQueueNeverSheds pins the default: MaxQueue 0 means no
// admission cap and a shed counter that stays zero.
func TestUnboundedQueueNeverSheds(t *testing.T) {
	reqs := overloadRequests(t, 16)
	got, st := runOverload(t, reqs, 0)
	for id, d := range got {
		if d.Shed {
			t.Fatalf("request %d shed with an unbounded queue", id)
		}
	}
	if st.Shed != 0 || st.QueueLimit != 0 {
		t.Fatalf("shed=%d queue_limit=%d, want 0 and 0", st.Shed, st.QueueLimit)
	}
}

// TestOverloadHTTP429 covers the wire surface: a burst against a
// one-slot queue must answer at least one 429 carrying a Retry-After
// header and a shed decision body, and /v1/stats must account for every
// submission.
func TestOverloadHTTP429(t *testing.T) {
	g, inst := testInstance(t)
	s := newTestServer(t, g, inst, func(c *Config) { c.MaxQueue = 1 })
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const burst = 8
	reqs := overloadRequests(t, burst)
	var (
		mu          sync.Mutex
		oks, sheds  int
		retryAfters []string
		wg          sync.WaitGroup
	)
	// Hold the loop until the whole burst is admitted, so it lands in one
	// group against the one-slot queue.
	s.smu.Lock()
	for _, r := range reqs {
		wg.Add(1)
		go func(r *core.Request) {
			defer wg.Done()
			id := int32(r.ID)
			rel := r.Release
			body, _ := json.Marshal(Request{
				ID: &id, Origin: int64(r.Origin), Dest: int64(r.Dest),
				Release: &rel, Deadline: r.Deadline, Penalty: r.Penalty, Capacity: r.Capacity,
			})
			resp, err := http.Post(ts.URL+"/v1/requests", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			var d Decision
			if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				oks++
			case http.StatusTooManyRequests:
				sheds++
				retryAfters = append(retryAfters, resp.Header.Get("Retry-After"))
				if !d.Shed || d.Accepted || d.Worker != -1 {
					t.Errorf("429 body is not a shed verdict: %+v", d)
				}
			default:
				t.Errorf("unexpected status %d", resp.StatusCode)
			}
		}(r)
	}
	for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(time.Millisecond) {
		s.qmu.Lock()
		n := s.submitted
		s.qmu.Unlock()
		if n == burst {
			break
		}
		if time.Now().After(deadline) {
			s.smu.Unlock()
			t.Fatalf("only %d of %d burst requests were admitted", n, burst)
		}
	}
	s.smu.Unlock()
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if oks+sheds != burst {
		t.Fatalf("%d oks + %d sheds != %d", oks, sheds, burst)
	}
	if sheds == 0 {
		t.Fatal("a full burst against a one-slot queue shed nothing")
	}
	for _, ra := range retryAfters {
		if v, err := strconv.Atoi(ra); err != nil || v < 1 {
			t.Fatalf("bad Retry-After header %q", ra)
		}
	}
	st := s.Stats()
	if st.Submitted != burst || st.Shed != sheds {
		t.Fatalf("stats submitted=%d shed=%d, want %d and %d", st.Submitted, st.Shed, burst, sheds)
	}
	if st.QueueLimit != 1 {
		t.Fatalf("queue_limit %d, want 1", st.QueueLimit)
	}

	// The shed families are on the /metrics surface.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		fmt.Sprintf("urpsm_shed_total %d", sheds),
		fmt.Sprintf("urpsm_submitted_total %d", burst),
		"urpsm_queue_limit 1",
		"urpsm_degrade_state 0",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Fatalf("/metrics missing %q", want)
		}
	}
}

// appendVerdicts renders decisions (shed verdicts included) in request
// order onto the canonical comparison stream.
func appendVerdicts(buf *bytes.Buffer, ds []Decision) {
	for _, d := range ds {
		fmt.Fprintf(buf, "%d %t %t %d %016x %016x %d\n",
			d.ID, d.Accepted, d.Shed, d.Worker,
			math.Float64bits(d.Delta), math.Float64bits(d.SimTime), d.RetryAfterMs)
	}
}

// TestOverloadCrashEquivalence is the overload kill point: a WAL-backed
// server with a bounded queue is driven into shedding and crashed
// (Abort) with a full burst admitted — its victims parked, nothing of
// it durable — then recovered and re-driven. The complete verdict
// stream, sheds included, must be byte-identical to an uninterrupted
// server's: whatever the WAL holds is truth, whatever it does not never
// happened and is resent.
func TestOverloadCrashEquivalence(t *testing.T) {
	g, inst := testInstance(t)
	oracle := shortest.BuildHubLabels(g)
	const maxQueue, burstN = 3, 8
	reqs := overloadRequests(t, 3*burstN)
	bursts := [][]*core.Request{reqs[:burstN], reqs[burstN : 2*burstN], reqs[2*burstN:]}
	mut := func(c *Config) { c.MaxQueue = maxQueue }

	run := func(kill bool) (*bytes.Buffer, Stats) {
		dir := t.TempDir()
		s := newWALServer(t, g, inst, oracle, dir, mut)
		var stream bytes.Buffer
		appendVerdicts(&stream, await(t, submitGroup(t, s, bursts[0])))
		if kill {
			// Hold the loop while the burst fills the queue and parks its
			// victims, then crash before any flush can take it.
			s.smu.Lock()
			for _, r := range bursts[1] {
				cp := *r
				if _, err := s.submit(&cp, false); err != nil {
					s.smu.Unlock()
					t.Fatal(err)
				}
			}
			aborted := make(chan struct{})
			go func() { s.Abort(); close(aborted) }()
			<-s.killC
			s.smu.Unlock()
			<-aborted

			s = newWALServer(t, g, inst, oracle, dir, mut)
			for _, r := range bursts[1] {
				if d, ok := s.DecisionFor(int32(r.ID)); ok {
					t.Fatalf("request %d survived the crash (%+v): the kill point did not hold the burst undurable", r.ID, d)
				}
			}
			if st := s.Stats(); st.Submitted != burstN {
				t.Fatalf("recovered %d submissions, want the first burst's %d", st.Submitted, burstN)
			}
		}
		appendVerdicts(&stream, await(t, submitGroup(t, s, bursts[1])))
		appendVerdicts(&stream, await(t, submitGroup(t, s, bursts[2])))
		return &stream, s.Stats()
	}

	refStream, ref := run(false)
	killStream, killed := run(true)
	if ref.Shed == 0 {
		t.Fatal("the bounded queue never shed: the test is not generating overload")
	}
	if !bytes.Equal(refStream.Bytes(), killStream.Bytes()) {
		t.Fatalf("verdict streams diverge:\nuninterrupted:\n%skilled:\n%s", refStream, killStream)
	}
	for _, c := range []struct {
		name string
		a, b any
	}{
		{"submitted", ref.Submitted, killed.Submitted},
		{"shed", ref.Shed, killed.Shed},
		{"requests", ref.Requests, killed.Requests},
		{"accepted", ref.Accepted, killed.Accepted},
		{"rejected", ref.Rejected, killed.Rejected},
		{"penalty_sum", math.Float64bits(ref.PenaltySum), math.Float64bits(killed.PenaltySum)},
		{"total_distance", math.Float64bits(ref.TotalDistance), math.Float64bits(killed.TotalDistance)},
		{"sim_time", math.Float64bits(ref.SimTime), math.Float64bits(killed.SimTime)},
	} {
		if c.a != c.b {
			t.Errorf("final stats diverge on %s: uninterrupted %v, killed %v", c.name, c.a, c.b)
		}
	}
}
