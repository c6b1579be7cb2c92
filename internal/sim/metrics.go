package sim

import (
	"fmt"
	"sort"
)

// Metrics summarizes one simulation run with the measures of the paper's
// §6 (unified cost, served rate, response time) plus the auxiliary
// observations the text reports (distance queries, late arrivals — which
// must always be zero — and leg-path computations).
type Metrics struct {
	Algorithm string
	Requests  int
	Served    int

	UnifiedCost   float64
	TotalDistance float64 // Σ_w D(S_w), seconds of travel
	PenaltySum    float64
	ServedRate    float64

	AvgResponseMs  float64
	P50ResponseMs  float64
	P95ResponseMs  float64
	MaxResponseMs  float64
	TotalComputeMs float64

	// AvgOccupancy is the time-weighted mean number of passengers/items on
	// board while workers are driving, and SharedFraction the fraction of
	// driving time spent with ≥2 requests pooled — the shared-mobility
	// utilization the paper's motivation appeals to.
	AvgOccupancy   float64
	SharedFraction float64

	DistQueries  uint64
	Completions  int
	LateArrivals int
	LegsComputed int

	// GridMemoryBytes is the algorithm's spatial-index footprint (the
	// grid-size experiment's memory metric); filled in by the harness.
	GridMemoryBytes int64
}

// Percentile returns the p-quantile (0..1) of samples, which it sorts in
// place (nearest-rank on the sorted slice, no interpolation). It is the
// single quantile implementation shared by the simulator's metrics, the
// serving tier's latency stats and cmd/urpsm-replay's report, so all
// three agree on what "p99" means.
func Percentile(samples []float64, p float64) float64 {
	sort.Float64s(samples)
	return nearestRank(samples, p)
}

// nearestRank is Percentile over samples already in ascending order.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

// String renders a one-line summary.
func (m Metrics) String() string {
	return fmt.Sprintf("%-14s UC=%.0f served=%.1f%% (%d/%d) dist=%.0f resp=%.3fms queries=%d",
		m.Algorithm, m.UnifiedCost, 100*m.ServedRate, m.Served, m.Requests,
		m.TotalDistance, m.AvgResponseMs, m.DistQueries)
}

// Average combines repeated runs of the same configuration into their
// mean, following the paper's setup of averaging repeated trials.
func Average(runs []Metrics) Metrics {
	if len(runs) == 0 {
		return Metrics{}
	}
	out := runs[0]
	if len(runs) == 1 {
		return out
	}
	n := float64(len(runs))
	sum := Metrics{Algorithm: out.Algorithm}
	for _, r := range runs {
		sum.Requests += r.Requests
		sum.Served += r.Served
		sum.UnifiedCost += r.UnifiedCost
		sum.TotalDistance += r.TotalDistance
		sum.PenaltySum += r.PenaltySum
		sum.ServedRate += r.ServedRate
		sum.AvgResponseMs += r.AvgResponseMs
		sum.P50ResponseMs += r.P50ResponseMs
		sum.P95ResponseMs += r.P95ResponseMs
		sum.MaxResponseMs += r.MaxResponseMs
		sum.TotalComputeMs += r.TotalComputeMs
		sum.AvgOccupancy += r.AvgOccupancy
		sum.SharedFraction += r.SharedFraction
		sum.DistQueries += r.DistQueries
		sum.Completions += r.Completions
		sum.LateArrivals += r.LateArrivals
		sum.LegsComputed += r.LegsComputed
		sum.GridMemoryBytes += r.GridMemoryBytes
	}
	return Metrics{
		Algorithm:       sum.Algorithm,
		Requests:        int(float64(sum.Requests)/n + 0.5),
		Served:          int(float64(sum.Served)/n + 0.5),
		UnifiedCost:     sum.UnifiedCost / n,
		TotalDistance:   sum.TotalDistance / n,
		PenaltySum:      sum.PenaltySum / n,
		ServedRate:      sum.ServedRate / n,
		AvgResponseMs:   sum.AvgResponseMs / n,
		P50ResponseMs:   sum.P50ResponseMs / n,
		P95ResponseMs:   sum.P95ResponseMs / n,
		MaxResponseMs:   sum.MaxResponseMs / n,
		TotalComputeMs:  sum.TotalComputeMs / n,
		AvgOccupancy:    sum.AvgOccupancy / n,
		SharedFraction:  sum.SharedFraction / n,
		DistQueries:     uint64(float64(sum.DistQueries)/n + 0.5),
		Completions:     int(float64(sum.Completions)/n + 0.5),
		LateArrivals:    sum.LateArrivals, // violations are never averaged away
		LegsComputed:    int(float64(sum.LegsComputed)/n + 0.5),
		GridMemoryBytes: int64(float64(sum.GridMemoryBytes)/n + 0.5),
	}
}
