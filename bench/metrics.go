package main

// The metric catalogue — every name the benchmark reports, with its unit,
// its better direction, the regression bound (end-to-end only) and, for a
// layer metric, the end-to-end metric and workload it is expected to move.
// BENCHMARK.json is generated from this file (-print-contract) and the smoke
// test fails when the two drift apart.

import (
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" | "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
	Doc    string  // definition (end-to-end) or "moves <metric> on <workload>" (layer)
}

// endToEnd is what a user of the dispatcher sees. Every metric is defined
// on every workload (the driver's contract), is never zero, and is steady
// enough across seeds that its interquartile spread stays inside Bound.
// "Reference" time is time multiplied by the box's speed at that moment
// (calib.go): what the same work takes when nobody else is on the host.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25,
		"graph + workload generation + oracle build + server start (WAL checkpoint included) until the first request can be sent, in reference seconds; median of 3 set-ups in one run"},
	{"decision_p50_ms", "ms", "lower", 0.25,
		"due time -> decision received, 200 and 429 alike (serve-*); time per request, AdvanceAll included (plan-offline); median. Reference ms on the compute-bound workloads (plan-offline, serve-overload). serve-churn leaves out requests due during the outage and 4 s after it"},
	{"decision_p99_ms", "ms", "lower", 0.25,
		"same, 99th percentile: of each 1 s slice of the window by due time, median over the slices (serve-*); of the whole window (plan-offline)"},
	{"goodput_rps", "1/s", "higher", 0.25,
		"requests answered with a planned decision (HTTP 200) per second, median over the window's 1 s slices, per reference second on serve-overload; requests planned per reference second of planning on plan-offline"},
	{"served_rate", "frac", "higher", 0.20,
		"accepted / planned: the paper's served rate over the window (serve-churn: outside the outage, like the latencies; plan-offline: at the fixed request prefix)"},
	{"unified_cost", "sim-s", "lower", 0.15,
		"Eq. 1, alpha*sum D(S_w) + sum p_r over every request sent, at end of run (at the fixed request prefix on plan-offline, where it is bit-repeatable)"},
	{"cpu_ms_per_req", "ms", "lower", 0.25,
		"process CPU time (user+system, load generator included) per request offered, in reference ms: median over 1 s slices (serve-*), whole window (plan-offline)"},
	{"peak_rss_mb", "MB", "lower", 0.25,
		"VmHWM of the benchmark process at end of run"},
}

// perLayer is reported by the traced run. A metric a workload cannot
// observe reads 0 there.
var perLayer = []metricDef{
	{"loadgen.lag_p99_ms", "ms", "lower", 0, "validity only: a run with lag p99 > 50 ms is invalid, not slow"},
	{"loadgen.offered_rps", "1/s", "higher", 0, "validity only"},
	{"loadgen.inflight_mean", "count", "lower", 0, "validity only: the growing-backlog check reads it"},
	{"loadgen.box_speed", "ratio", "higher", 0, "validity only: the reference kernel's nominal time / its time beside the window (calib.go); what reference time was multiplied by"},
	{"loadgen.p99_pooled_ms", "ms", "lower", 0, "nothing: the 99th percentile over the whole window as measured, where one stall of the box shows that the per-slice median of decision_p99_ms leaves out"},
	{"loadgen.slo_ok_frac", "frac", "higher", 0, "share of offered requests decided within 100 ms of their due time (shed, failed, late and due-during-outage all miss); 0 by design on serve-overload, which is why it is not end-to-end"},

	{"serve.handler_p50_us", "us", "lower", 0, "decision_p50_ms on serve-steady"},
	{"serve.wait_ms_mean", "ms", "lower", 0, "decision_p50_ms on serve-steady (server-reported Decision.WaitMs)"},
	{"serve.handler_overhead_us", "us", "lower", 0, "decision_p50_ms on serve-steady (handler span - WaitMs)"},
	{"serve.decode_us", "us", "lower", 0, "cpu_ms_per_req on serve-steady, goodput_rps on serve-overload (probe)"},
	{"serve.encode_us", "us", "lower", 0, "cpu_ms_per_req on serve-steady, goodput_rps on serve-overload (probe)"},
	{"serve.wire_overhead_us", "us", "lower", 0, "nothing end-to-end: kernel TCP + net/http, kept off the timed path (probe, closed loop)"},
	{"serve.allocs_per_req", "count", "lower", 0, "cpu_ms_per_req on serve-steady, goodput_rps on serve-overload (whole process)"},
	{"serve.gc_pause_ms_total", "ms", "lower", 0, "decision_p99_ms on serve-steady (whole process: compare across commits only)"},

	{"serve.batch_mean", "count", "higher", 0, "decision_p99_ms on serve-steady"},
	{"serve.batch_max", "count", "lower", 0, "decision_p99_ms on serve-steady"},
	{"serve.flush_ms_mean", "ms", "lower", 0, "decision_p99_ms on serve-steady"},
	{"serve.flush_busy_frac", "frac", "lower", 0, "decision_p99_ms on serve-steady; goodput_rps on serve-overload once it reaches 1"},
	{"serve.admit_to_ack_ms_mean", "ms", "lower", 0, "decision_p50_ms on serve-steady"},
	{"serve.late_admissions", "count", "lower", 0, "served_rate on serve-overload"},

	{"serve.shed_frac", "frac", "lower", 0, "goodput_rps on serve-overload only"},
	{"serve.pending_mean", "count", "lower", 0, "goodput_rps on serve-overload only"},
	{"serve.pending_end", "count", "lower", 0, "goodput_rps on serve-overload only"},

	{"serve.plan_ms_mean", "ms", "lower", 0, "goodput_rps on serve-overload; small on serve-steady by design"},
	{"serve.plan_busy_frac", "frac", "lower", 0, "goodput_rps on serve-overload"},

	{"serve.prefetch_per_batch", "frac", "higher", 0, "goodput_rps on serve-overload, decision_p99_ms on serve-steady and serve-churn"},
	{"serve.table_hit_frac", "frac", "higher", 0, "goodput_rps on serve-overload, decision_p99_ms on serve-steady and serve-churn"},
	{"serve.dist_queries_per_req", "count", "lower", 0, "goodput_rps on serve-overload, decision_p99_ms on serve-churn"},

	{"serve.recovery_s", "s", "lower", 0, "nothing end-to-end: the latency percentiles leave the outage out (Abort return -> recovering NewServer return)"},
	{"serve.recover_records_per_s", "1/s", "higher", 0, "serve.recovery_s on serve-churn"},
	{"serve.traffic_apply_p50_ms", "ms", "lower", 0, "decision_p99_ms on serve-churn (POST /v1/traffic handler enter -> return)"},
	{"serve.traffic_apply_ms_mean", "ms", "lower", 0, "decision_p99_ms on serve-churn"},
	{"serve.traffic_epochs", "count", "higher", 0, "validity only: serve-churn must see >= 15"},

	{"wal.sync_ms_p50", "ms", "lower", 0, "decision_p50_ms on serve-steady"},
	{"wal.sync_busy_frac", "frac", "lower", 0, "decision_p50_ms on serve-steady"},
	{"wal.decisions_per_sync", "count", "higher", 0, "decision_p50_ms on serve-steady (group-commit amortisation)"},
	{"wal.bytes_per_decision", "B", "lower", 0, "serve.recovery_s on serve-churn"},
	{"wal.append_ns_per_record", "ns", "lower", 0, "cpu_ms_per_req on serve-steady (probe)"},
	{"wal.sync_ms.b1", "ms", "lower", 0, "decision_p50_ms on serve-steady (probe)"},
	{"wal.sync_ms.b64", "ms", "lower", 0, "decision_p50_ms on serve-steady (probe)"},

	{"core.plan_us_mean", "us", "lower", 0, "goodput_rps, decision_p50_ms on plan-offline (plan span minus its shortest child spans)"},
	{"core.decide_us_mean", "us", "lower", 0, "goodput_rps on plan-offline (probe Scratch.Decide)"},
	{"core.apply_us_mean", "us", "lower", 0, "goodput_rps on plan-offline"},
	{"core.lineardp_ns_per_cell", "ns", "lower", 0, "goodput_rps on plan-offline (probe)"},
	{"core.candidates_per_req", "count", "lower", 0, "goodput_rps on plan-offline"},
	{"core.feasible_per_req", "count", "lower", 0, "goodput_rps on plan-offline"},
	{"core.evaluated_per_req", "count", "lower", 0, "goodput_rps on plan-offline"},
	{"core.pruned_frac", "frac", "higher", 0, "goodput_rps on plan-offline (Lemma 8 prunes / feasible: the paper's useful-work ratio)"},
	{"core.dp_cells_per_req", "count", "lower", 0, "goodput_rps on plan-offline"},
	{"core.reject_no_candidates_frac", "frac", "lower", 0, "served_rate on plan-offline"},
	{"core.reject_decision_bound_frac", "frac", "lower", 0, "served_rate on plan-offline"},
	{"core.reject_infeasible_frac", "frac", "lower", 0, "served_rate on plan-offline"},
	{"core.reject_postcheck_frac", "frac", "lower", 0, "served_rate on plan-offline"},

	{"spatial.candidates_us_mean", "us", "lower", 0, "goodput_rps on plan-offline (probe Fleet.Candidates)"},

	{"shortest.build_s", "s", "lower", 0, "setup_s on every workload"},
	{"shortest.mem_mb", "MB", "lower", 0, "peak_rss_mb on every workload"},
	{"shortest.dist_calls_per_req", "count", "lower", 0, "goodput_rps on plan-offline"},
	{"shortest.dist_us_mean", "us", "lower", 0, "goodput_rps on plan-offline"},
	{"shortest.dist_time_frac", "frac", "lower", 0, "goodput_rps on plan-offline (about its whole budget), not serve-steady"},
	{"shortest.cache_hit_frac", "frac", "higher", 0, "goodput_rps on plan-offline"},
	{"shortest.point_us_cold", "us", "lower", 0, "goodput_rps on plan-offline (captured miss stream replayed on the raw tier)"},
	{"shortest.mtm_table_ms_mean", "ms", "lower", 0, "goodput_rps on serve-overload, decision_p99_ms on serve-steady (probe)"},
	{"shortest.mtm_cell_ns", "ns", "lower", 0, "same (probe)"},
	{"shortest.mtm_cells_per_batch", "count", "lower", 0, "same (probe shape: batch endpoints x fleet route vertices)"},
	{"shortest.mtm_cells_read_frac", "ratio", "higher", 0, "same (table lookups answered / cells filled, the prefetch's waste ratio; a cell read twice counts twice, so it can exceed 1)"},
	{"shortest.customize_ms_mean", "ms", "lower", 0, "serve.traffic_apply_p50_ms, so decision_p99_ms on serve-churn"},

	{"sim.advance_us_mean", "us", "lower", 0, "decision_p50_ms on plan-offline; serve.flush_ms_mean on serve-*"},
	{"sim.advance_time_frac", "frac", "lower", 0, "decision_p50_ms on plan-offline"},
	{"sim.legs_computed_per_req", "count", "lower", 0, "decision_p50_ms on plan-offline"},

	{"roadnet.generate_s", "s", "lower", 0, "setup_s on every workload"},
	{"workload.build_s", "s", "lower", 0, "setup_s on every workload"},

	{"trace.spans", "count", "lower", 0, "nothing: size of the span file"},
	{"trace.overhead_frac", "frac", "lower", 0, "nothing: 1 - traced/untraced goodput_rps inside the traced run"},
	{"trace.unexplained_frac", "frac", "lower", 0, "nothing: the share of a request's time no layer span or probe accounts for"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the values of one catalogue.
type metricSet map[string]metricValue

func newMetricSet(defs []metricDef) metricSet {
	ms := make(metricSet, len(defs))
	for _, d := range defs {
		ms[d.Name] = metricValue{Unit: d.Unit}
	}
	return ms
}

func (ms metricSet) set(name string, v float64) {
	mv, ok := ms[name]
	if !ok {
		panic("bench: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	mv.Value = v
	ms[name] = mv
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range samples {
		s += v
	}
	return s / float64(len(samples))
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB reads VmHWM from /proc/self/status.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// machine is the shape of the box a result was measured on.
type machine struct {
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	WALDirFS   string `json:"wal_dir_fs"`
}

func machineShape(walDir string) machine {
	m := machine{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.Kernel = strings.TrimSpace(string(data))
	}
	m.WALDirFS = fsOf(walDir)
	return m
}

// fsOf names the filesystem type holding dir, from the longest matching
// mount point in /proc/self/mounts.
func fsOf(dir string) string {
	data, err := os.ReadFile("/proc/self/mounts")
	if err != nil {
		return "unknown"
	}
	best, fs := "", "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (dir == mp || strings.HasPrefix(dir, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, fs = mp, f[2]
		}
	}
	return fs
}
