package sim

// Traffic coordinates an epoch advance across every layer that caches a
// consequence of the edge weights:
//
//	roadnet.Overlay      — the weights themselves (new immutable snapshot)
//	shortest.Versioned   — the distance-oracle front (the same tier,
//	                       customized or rebuilt on the new weights)
//	core.Fleet           — the graph handle planners read EdgeCost from,
//	                       and the route repair pass (Arr + Eq. 6 ddl)
//	sim.World            — the per-worker leg caches and the leg-path
//	                       engine, both bound to the old snapshot
//
// Apply performs those steps in that order, atomically from the caller's
// point of view: both the offline engine (between requests) and the
// online server (under its state lock) invoke it from their single
// mutation point, so no planner or reader ever observes a half-advanced
// epoch. The same type also replays a roadnet.TrafficProfile against the
// engine's event clock (PollUntil), which is how offline experiments run
// a congestion trace — and how urpsm-replay's offline reference stays
// bit-identical to a server receiving the same trace via POST /v1/traffic.

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
)

// Traffic is the epoch coordinator. Create with NewTraffic; not safe for
// concurrent use (callers serialize through their event loop).
type Traffic struct {
	overlay *roadnet.Overlay
	oracle  *shortest.Versioned
	fleet   *core.Fleet
	world   *World

	profile roadnet.TrafficProfile
	next    int // index of the first unapplied profile event

	eventsApplied int
	repair        core.RepairStats
}

// NewTraffic wires the coordinator. oracle may be nil when the fleet's
// distance chain is bound to the overlay by other means (tests); overlay,
// fleet and world are required.
func NewTraffic(overlay *roadnet.Overlay, oracle *shortest.Versioned, fleet *core.Fleet, world *World) *Traffic {
	return &Traffic{overlay: overlay, oracle: oracle, fleet: fleet, world: world}
}

// SetProfile installs a congestion trace to be replayed by PollUntil.
// Events already in the past relative to previous polling are not
// re-applied.
func (tc *Traffic) SetProfile(p roadnet.TrafficProfile) {
	tc.profile = p
	tc.next = 0
}

// Epoch returns the current weight epoch.
func (tc *Traffic) Epoch() uint64 { return tc.overlay.Epoch() }

// RestoreStats seeds the monotone counters from a snapshot so the serve
// layer's /metrics counters (urpsm_traffic_updates_total,
// urpsm_infeasible_stops_total) never move backwards across a warm
// restart — the same contract World.RestoreStats keeps for completions.
func (tc *Traffic) RestoreStats(eventsApplied, infeasibleStops int) {
	tc.eventsApplied = eventsApplied
	tc.repair.InfeasibleStops = infeasibleStops
}

// EventsApplied returns how many update batches have been applied.
func (tc *Traffic) EventsApplied() int { return tc.eventsApplied }

// RepairStats returns the accumulated route-repair outcome over all
// applied epochs.
func (tc *Traffic) RepairStats() core.RepairStats { return tc.repair }

// Overlay exposes the weight state (read-only use).
func (tc *Traffic) Overlay() *roadnet.Overlay { return tc.overlay }

// ApplyResult reports one epoch advance.
type ApplyResult struct {
	Epoch        uint64
	ChangedEdges int
	Repair       core.RepairStats
}

// Apply advances the world to at (monotone: an at in the past applies at
// the current clock), applies one batch of updates and repairs every
// consequence. On a validation error nothing changes.
func (tc *Traffic) Apply(at float64, ups []roadnet.TrafficUpdate) (ApplyResult, error) {
	// Validate before the world moves: a rejected update must not advance
	// anything.
	if err := roadnet.ValidateTrafficUpdates(tc.overlay.Base(), ups); err != nil {
		return ApplyResult{}, err
	}
	// Workers travel at the old weights up to the event time.
	tc.world.AdvanceAll(at)
	g, epoch, changed, err := tc.overlay.Apply(ups)
	if err != nil {
		return ApplyResult{}, err
	}
	if tc.oracle != nil {
		tc.oracle.Advance(g, epoch)
	}
	tc.fleet.SetGraph(g)
	st := tc.fleet.RepairRoutes(tc.fleet.Dist)
	// Leg caches hold per-vertex times of the old weights; routes were
	// re-timed above, so every first leg must be recomputed against the
	// new snapshot.
	tc.world.SetPaths(shortest.NewBiDijkstra(g))
	tc.eventsApplied++
	tc.repair.Add(st)
	return ApplyResult{Epoch: epoch, ChangedEdges: changed, Repair: st}, nil
}

// PollUntil applies every pending profile event with At ≤ t, in order,
// advancing the world to each event's time first. The engine calls it
// before processing a request released at t; events dated after the last
// request of a run are never applied (they could not influence any
// decision).
func (tc *Traffic) PollUntil(t float64) error {
	for tc.next < len(tc.profile.Events) && tc.profile.Events[tc.next].At <= t {
		e := tc.profile.Events[tc.next]
		if _, err := tc.Apply(e.At, e.Updates); err != nil {
			return fmt.Errorf("sim: traffic event at %v: %w", e.At, err)
		}
		tc.next++
	}
	return nil
}
