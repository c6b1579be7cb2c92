package main

// The four workloads. Names and parameters are frozen: they are identical on
// the parent commit and on a change, and a later issue cites a claim as
// "<metric> on <workload>". See README.md for why each exists and what it
// must not be used for.

import (
	"runtime"
	"time"
)

type params struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	CityScale float64 `json:"city_scale"` // workload.ChengduLike(scale).Net
	Workers   int     `json:"workers"`
	DeadlineS float64 `json:"deadline_s"` // e_r - t_r
	Oracle    string  `json:"oracle"`
	// ComputeBound: the window keeps a core busy from end to end. Such a
	// workload runs on one thread (procs) and its wall times, which scale with
	// the box's speed, are reported in reference time (calib.go). CPU time and
	// set-up time are in reference time on every workload.
	ComputeBound bool `json:"compute_bound,omitempty"`

	// plan-offline
	Requests      int     `json:"requests,omitempty"`          // instance size; the window plans as many as it has time for
	DensityPerSec float64 `json:"density_per_sim_s,omitempty"` // arrivals per simulation second
	WarmupReqs    int     `json:"warmup_requests,omitempty"`
	CostPrefix    int     `json:"cost_prefix,omitempty"` // unified_cost, served_rate and the digest are taken here

	// serve-*
	RateRPS       float64 `json:"rate_rps,omitempty"` // open loop, Poisson
	ClockX        float64 `json:"clock_x,omitempty"`  // simulation seconds per wall second
	WarmupS       float64 `json:"warmup_s,omitempty"`
	MaxQueue      int     `json:"max_queue,omitempty"`
	WALCheckpoint int64   `json:"wal_checkpoint_bytes,omitempty"` // 0 = server default, <0 = off
	TrafficEveryS float64 `json:"traffic_every_s,omitempty"`      // POST /v1/traffic period, wall seconds
	CrashAtFrac   float64 `json:"crash_at_frac,omitempty"`        // Abort + recover this far into the window
	RecoverSkipS  float64 `json:"recover_skip_s,omitempty"`       // latency percentiles skip the outage and this long after it
}

var workloads = []params{
	{
		Name:      "plan-offline",
		Why:       "the paper's experiment: pruneGreedyDP through sim.Engine on the cch tier, no HTTP, no WAL; core, shortest, spatial and sim do all the work and serve/wal none",
		CityScale: 0.5, Workers: 600, DeadlineS: 900, Oracle: "cch", ComputeBound: true,
		Requests: 6000, DensityPerSec: 7500.0 / (6 * 3600), WarmupReqs: 600, CostPrefix: 2000,
	},
	{
		Name:      "serve-steady",
		Why:       "a healthy day: in-process server on defaults (hub, batch prefetch, WAL) at 250 rps open loop, a third of capacity; batch wait, flush, JSON, allocation and fsync dominate, planning does not",
		CityScale: 0.2, Workers: 120, DeadlineS: 600, Oracle: "hub",
		RateRPS: 250, ClockX: 600, WarmupS: 3,
	},
	{
		Name:      "serve-overload",
		Why:       "same server and city on one thread at 3000 rps with MaxQueue 256, seven times what it can plan: the shed path and the saturated event loop instead of the admit path; capacity shows as goodput",
		CityScale: 0.2, Workers: 120, DeadlineS: 1200, Oracle: "hub", ComputeBound: true,
		RateRPS: 3000, ClockX: 600, WarmupS: 3, MaxQueue: 256,
	},
	{
		Name:      "serve-churn",
		Why:       "writes beside reads on the cch tier: a traffic update every second re-customises the oracle under 150 rps, then one crash and WAL recovery mid-window with the open loop still running",
		CityScale: 0.2, Workers: 120, DeadlineS: 600, Oracle: "cch",
		RateRPS: 150, ClockX: 600, WarmupS: 3, WALCheckpoint: -1, TrafficEveryS: 1, CrashAtFrac: 0.25, RecoverSkipS: 4,
	},
}

func workloadByName(name string) (params, bool) {
	for _, p := range workloads {
		if p.Name == name {
			return p, true
		}
	}
	return params{}, false
}

// toy shrinks a workload to smoke-test size: same code path, a city and a
// fleet small enough that set-up is milliseconds.
func toy(p params) params {
	p.CityScale = 0.02
	p.Workers = 30
	if p.Requests > 0 {
		p.Requests, p.WarmupReqs, p.CostPrefix = 1500, 50, 150
	}
	if p.RateRPS > 0 {
		p.WarmupS = 0.3
		p.RecoverSkipS = 0.2
		if p.RateRPS > 1000 {
			p.RateRPS = 3000
		}
		if p.TrafficEveryS > 0 {
			p.TrafficEveryS = 0.1
		}
	}
	return p
}

// procs is the workload's GOMAXPROCS. The box's two virtual CPUs are at times
// two threads of one physical core: whatever a second busy thread did then
// (the garbage collector beside the planner, the generator beside a saturated
// server) slowed the first by up to half, and two runs of the same code
// differed by 45 %. So a compute-bound workload runs Go code on one thread,
// where the work is the same work wherever the hypervisor puts its CPUs. A
// workload that mostly waits keeps min(nproc, 4): its threads seldom run at
// the same moment, and on one thread the pacer would queue behind every flush
// (measured: lag p99 12 ms against 4, decision_p50_ms spread 14 % against 6).
func (p params) procs() int {
	if p.ComputeBound {
		return 1
	}
	return min(runtime.NumCPU(), 4)
}

func (p params) warmup() time.Duration { return time.Duration(p.WarmupS * float64(time.Second)) }

// setupRepeats is how many times a run sets the system up; setup_s is the
// median, which keeps one slow page-cache miss out of the number.
const setupRepeats = 3
