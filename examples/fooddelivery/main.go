// Fooddelivery: couriers picking up meals from a handful of restaurant
// clusters under tight delivery deadlines — the shared-mobility setting
// from the paper's introduction where requests are small (one meal), the
// courier box is the capacity, and deadlines are much tighter than in
// ride-sharing.
//
// The example shows how the URPSM formulation adapts with nothing but
// parameters: tight e_r (12 minutes), K_r = 1 meal, high penalties (a
// missed meal hurts more than a long detour).
//
//	go run ./examples/fooddelivery
package main

import (
	"fmt"
	"log"
	"sort"

	"repro/internal/core"
	"repro/internal/roadnet"
	"repro/internal/shortest"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	// Compact downtown: restaurants cluster demand into 4 hotspots.
	params := workload.ChengduLike(0.05)
	params.Name = "FoodCity"
	params.NumWorkers = 30
	params.NumRequests = 800
	params.DurationSec = 2 * 3600
	params.DeadlineSec = 12 * 60 // meals go cold
	params.PenaltyFactor = 25    // missed meals are expensive
	params.CapacityMean = 4      // courier box: 4 meals
	params.Hotspots = 4          // restaurant rows
	params.HotspotSigma = 300
	params.HotspotWeight = 0.95 // origins are almost always restaurants

	g, err := roadnet.Generate(params.Net)
	if err != nil {
		log.Fatal(err)
	}
	hub := shortest.BuildHubLabels(g)
	cached := shortest.NewCached(hub, 1<<18) // its misses are the distance queries

	inst, err := workload.BuildOn(params, g, cached.Dist)
	if err != nil {
		log.Fatal(err)
	}
	// Food orders are always a single meal.
	for _, r := range inst.Requests {
		r.Capacity = 1
	}

	fleet, err := core.NewFleet(g, cached.Dist, inst.Workers, 1000)
	if err != nil {
		log.Fatal(err)
	}
	planner := core.NewPruneGreedyDP(fleet, 1)
	eng := sim.NewEngine(fleet, planner, shortest.NewBiDijkstra(g), 1)
	eng.Queries = cached

	m, err := eng.Run(inst.Requests)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.FastForward(); err != nil {
		log.Fatal(err)
	}

	fmt.Printf("food delivery over %d orders, %d couriers (box capacity ~%d meals)\n",
		m.Requests, params.NumWorkers, int(params.CapacityMean))
	fmt.Printf("  delivered: %d (%.1f%%)\n", m.Served, 100*m.ServedRate)
	fmt.Printf("  unified cost: %.0f (travel %.0f + penalties %.0f)\n",
		m.UnifiedCost, m.TotalDistance, m.PenaltySum)
	fmt.Printf("  mean decision latency: %.3f ms, %d distance queries\n",
		m.AvgResponseMs, m.DistQueries)

	// How busy were the couriers?
	var dists []float64
	for _, w := range fleet.Workers {
		dists = append(dists, w.Traveled)
	}
	sort.Float64s(dists)
	fmt.Printf("  courier driving time: median %.0fs, busiest %.0fs\n",
		dists[len(dists)/2], dists[len(dists)-1])

	fmt.Println("\ntightening deadlines to 6 minutes (same orders):")
	params2 := params
	params2.DeadlineSec = 6 * 60
	inst2, err := workload.BuildOn(params2, g, cached.Dist)
	if err != nil {
		log.Fatal(err)
	}
	fleet2, err := core.NewFleet(g, cached.Dist, inst2.Workers, 1000)
	if err != nil {
		log.Fatal(err)
	}
	eng2 := sim.NewEngine(fleet2, core.NewPruneGreedyDP(fleet2, 1), shortest.NewBiDijkstra(g), 1)
	m2, err := eng2.Run(inst2.Requests)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  delivered: %d (%.1f%%) — tighter deadlines reject more orders,\n",
		m2.Served, 100*m2.ServedRate)
	fmt.Println("  exactly the paper's Fig. 6 shape.")
}
