package main

// The output check every run ends with. A benchmark that times wrong answers
// measures nothing, so any violation here makes the run incorrect and the
// exit status 1.

import (
	"fmt"
	"math"
	"net/http"
)

// feasEps is the slack the planner itself allows on deadline comparisons.
const feasEps = 1e-6

// checkRoute verifies one worker's route as read back from the system: every
// pickup precedes its drop-off and has one, the onboard load never exceeds
// the worker's capacity or drops below zero, and arrival times are ordered.
// It returns the violations and how many stops arrive after their deadline
// (a violation by itself unless traffic updates broke promises already made).
func checkRoute(worker int, rv routeView) (bad []string, lateStops int) {
	fail := func(format string, args ...any) {
		bad = append(bad, fmt.Sprintf("worker %d: ", worker)+fmt.Sprintf(format, args...))
	}
	if len(rv.Arr) != len(rv.Stops) {
		fail("%d arrival times for %d stops", len(rv.Arr), len(rv.Stops))
		return bad, 0
	}
	load := rv.Onboard
	prev := rv.Now
	waiting := map[int32]int{} // picked up in the tail, not yet dropped
	for i, st := range rv.Stops {
		if rv.Arr[i] < prev-feasEps {
			fail("stop %d arrives at %v before the previous stop's %v", i, rv.Arr[i], prev)
		}
		prev = rv.Arr[i]
		if rv.Arr[i] > st.DDL+feasEps {
			lateStops++
		}
		if st.Pickup {
			load += st.Cap
			waiting[st.Req]++
		} else {
			load -= st.Cap
			if waiting[st.Req] > 0 {
				waiting[st.Req]--
			} // else: the passenger was already on board, which is legal
		}
		if load > rv.Capacity {
			fail("load %d exceeds capacity %d after stop %d", load, rv.Capacity, i)
		}
		if load < 0 {
			fail("negative load %d after stop %d", load, i)
		}
	}
	for req, n := range waiting {
		if n > 0 {
			fail("request %d is picked up but never dropped off", req)
		}
	}
	return bad, lateStops
}

// check is the serve-* output check: request conservation, the unified cost
// recomputed from what the harness sent, route invariants on every worker,
// and (serve-churn) every pre-crash decision recovered identically. It also
// returns how many requests got no designed answer.
func (sm *serveMeasure) check() (bad []string, failed int) {
	var accepted, rejected, shed int
	penalties := 0.0
	for i := range sm.lg.recs {
		d := sm.env.inst.reqs[i]
		switch sm.lg.recs[i].answer(d.ID) {
		case ansAccepted:
			accepted++
		case ansRejected:
			rejected++
			penalties += d.Penalty
		case ansShed:
			shed++
			penalties += d.Penalty
		default:
			failed++
		}
	}
	if offered := len(sm.lg.recs); accepted+rejected+shed+failed != offered {
		bad = append(bad, fmt.Sprintf("conservation: %d accepted + %d rejected + %d shed + %d failed != %d offered",
			accepted, rejected, shed, failed, offered))
	}
	f := sm.final
	if f.Accepted != accepted || f.Rejected != rejected || f.Shed != shed {
		bad = append(bad, fmt.Sprintf("server counts accepted/rejected/shed %d/%d/%d, clients saw %d/%d/%d",
			f.Accepted, f.Rejected, f.Shed, accepted, rejected, shed))
	}
	// Eq. 1 with alpha = 1. The server adds penalties in decision order, the
	// harness in request order, so the sums agree to rounding, not bit for bit.
	want := f.TotalDistance + penalties
	if math.Abs(f.UnifiedCost-want) > 1e-9*math.Max(1, math.Abs(want)) {
		bad = append(bad, fmt.Sprintf("unified cost %v != total_distance %v + penalties sent %v", f.UnifiedCost, f.TotalDistance, penalties))
	}
	late := 0
	for w, rv := range sm.routes {
		b, l := checkRoute(w, rv)
		bad = append(bad, b...)
		late += l
	}
	switch {
	case sm.p.TrafficEveryS == 0 && (late > 0 || f.LateArrivals > 0):
		bad = append(bad, fmt.Sprintf("%d planned stops past their deadline, %d late arrivals, with no traffic update to excuse them", late, f.LateArrivals))
	case late > f.InfeasibleStops:
		bad = append(bad, fmt.Sprintf("%d planned stops past their deadline but traffic updates broke only %d", late, f.InfeasibleStops))
	}
	if len(sm.routes) != sm.env.inst.numWorkers() {
		bad = append(bad, fmt.Sprintf("read back %d of %d worker routes", len(sm.routes), sm.env.inst.numWorkers()))
	}
	for k, post := range sm.posts {
		if post.status != http.StatusOK {
			bad = append(bad, fmt.Sprintf("traffic update %d answered %d", k+1, post.status))
		}
	}
	bad = append(bad, sm.lostDecisions...)
	if sm.p.CrashAtFrac > 0 && !sm.crashed {
		bad = append(bad, "the crash never happened")
	}
	return bad, failed
}
