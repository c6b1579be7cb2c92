// Parceldelivery: crowdsourced parcel delivery from a depot — the third
// shared-mobility application from the paper's introduction. All parcels
// originate at a single depot, couriers have larger boxes, deadlines are
// loose (hours), and the platform cares mostly about travel cost, so the
// example also demonstrates the revenue objective (Eq. 2–4): maximizing
// platform revenue is minimizing the unified cost with α = c_w and
// p_r = c_r · dis(o_r, d_r).
//
//	go run ./examples/parceldelivery
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	params := workload.ChengduLike(0.05)
	params.Name = "ParcelCity"
	params.NumWorkers = 12
	params.NumRequests = 500
	params.DurationSec = 4 * 3600
	params.DeadlineSec = 2 * 3600 // same-afternoon delivery
	params.CapacityMean = 8       // parcel vans

	const (
		cr = 12.0 // fare per second of parcel trip distance
		cw = 1.0  // wage per second of van travel
	)
	params.PenaltyFactor = cr // p_r = c_r · dis(o_r, d_r)

	g, err := roadnet.Generate(params.Net)
	if err != nil {
		log.Fatal(err)
	}
	hub := shortest.BuildHubLabels(g)
	cached := shortest.NewCached(hub, 1<<18)

	inst, err := workload.BuildOn(params, g, cached.Dist)
	if err != nil {
		log.Fatal(err)
	}
	// All parcels ship from the depot at the city center; parcels weigh
	// 1-2 box units.
	depot := g.NearestVertex(g.Bounds().Center())
	rng := rand.New(rand.NewSource(99))
	reqs := inst.Requests[:0]
	for _, r := range inst.Requests {
		if r.Dest == depot {
			continue
		}
		r.Origin = depot
		r.Capacity = 1 + rng.Intn(2)
		r.Penalty = cr * cached.Dist(r.Origin, r.Dest)
		reqs = append(reqs, r)
	}
	// Vans start at the depot too.
	for _, w := range inst.Workers {
		w.Route.Loc = depot
	}

	fleet, err := core.NewFleet(g, cached.Dist, inst.Workers, 1500)
	if err != nil {
		log.Fatal(err)
	}
	// α = c_w: the revenue special case of URPSM.
	planner := core.NewPruneGreedyDP(fleet, cw)
	eng := sim.NewEngine(fleet, planner, shortest.NewBiDijkstra(g), cw)

	m, err := eng.Run(reqs)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.FastForward(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("depot parcel delivery: %d parcels, %d vans (capacity ~%d)\n",
		m.Requests, params.NumWorkers, int(params.CapacityMean))
	fmt.Printf("  delivered: %d (%.1f%%)\n", m.Served, 100*m.ServedRate)
	fmt.Printf("  unified cost (α=c_w): %.0f\n", m.UnifiedCost)

	// Revenue identity (Eq. 4): revenue = c_r·Σ_R dis(o,d) − UC.
	revenue := core.Revenue(cr, cw, fleet, eng.Served())
	sumAll := 0.0
	for _, r := range reqs {
		sumAll += cr * cached.Dist(r.Origin, r.Dest)
	}
	fmt.Printf("  platform revenue: %.0f (identity check: c_r·Σdis − UC = %.0f)\n",
		revenue, sumAll-m.UnifiedCost)
	fmt.Println("\nminimizing the unified cost with α=c_w, p_r=c_r·dis maximizes revenue —")
	fmt.Println("the paper's Eq. 2–4 reduction, verified live above.")
}
